"""Vectorized batch simulation core for injection campaigns.

The scalar campaign path simulates every injected run on its own:
one Python interpreter loop over ticks, module invocations, quantized
stores and hook dispatches per run.  Across all four campaigns —
permeability, detection, and the enumerative memory and recovery
sweeps — almost all of that work is identical across runs, even runs
of *different test cases*: same target system, same schedule, same
per-tick arithmetic; only the tiny injected disturbance and the
per-case seed state differ.  This module batches such runs: plant
state, module state cells, sensor registers and the signal store
become numpy arrays with **one row per run** (rows of a group may mix
test cases; each row is seeded from its own case's tick-0 snapshot
and diffed against its own golden stream via per-row indirection),
and a target-specific kernel (a :class:`VectorKernel` subclass:
``repro.watertank.vectorize`` / ``repro.target.vectorize``) advances
*all* rows of a batch through each tick at once.  Memory/recovery rows
vectorize the periodic single-bit flips of
:class:`repro.fi.injector.PeriodicMemoryFlip` (:class:`MemoryFlipPlan`),
and recovery groups run twice — a plain detection pass and a
containment pass with a :class:`RecoveringBankArrays` poking
substitutions into the store.

Correctness contract
--------------------
Batching is a pure execution strategy: outcomes are **bit-identical**
to the scalar path.  Four mechanisms keep that true:

* every kernel is a transcription of the scalar simulator's per-tick
  arithmetic onto int64/float64 arrays (same operation order, same
  quantization points), seeded from the same tick-0
  ``capture_state()`` snapshots;
* dispatch is per row: like the scalar loop, each memory, recovery or
  detection row runs the modules of its own — possibly corrupted —
  slot through masked invocations, so a row whose flips re-wire the
  dispatch chain stays in the batch;
* permeability rows whose dispatch departs the golden slot schedule
  are *retired*: their recorded invocation streams assume that
  schedule, so they leave the batch and are recomputed wholesale by
  the scalar path;
* rows selected for an integrity audit never enter a batch, and
  neither does any row of a run with an armed chaos hook.

Golden invocation streams — the reference side of the permeability
comparison — are packed once into shared memory
(:class:`repro.fi.shm.ShmArrayPack`) before the worker pool forks.

Enabled with ``CampaignConfig(vector=VectorPolicy(batch_width=N))`` /
``--batch-width N`` (default 0 = scalar path).  Rows, groups, retired
rows and the rest are counted in the ``vec_*`` entries of
:data:`repro.fi._counters.COUNTERS`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.fi._counters import COUNTERS
from repro.fi.chaos import ChaosPlan
from repro.model.signal import SignalType

try:
    import numpy as np
except Exception:  # pragma: no cover - numpy ships with the toolchain
    np = None

__all__ = [
    "RowInjection",
    "VectorRow",
    "GroupJob",
    "GroupResult",
    "BankArrays",
    "RecoveringBankArrays",
    "MemoryFlipPlan",
    "flip_cells",
    "VectorKernel",
    "BatchRunner",
    "wrap_runner",
    "close_runner",
]


# ======================================================================
# Work descriptions exchanged with the target kernels.
# ======================================================================
@dataclass(frozen=True)
class RowInjection:
    """One row's injection: an ``"input"`` (system-input register
    flip at tick ``tick``), an ``"arg"`` (module-input flip at the
    first invocation at or after ``tick``), or a ``"memory"``
    (periodic single-bit flip of one memory cell, phase ``tick``,
    every ``period`` ticks — see
    :class:`repro.fi.injector.PeriodicMemoryFlip`)."""

    kind: str
    tick: int
    bit: int
    signal: Optional[str] = None  #: input kind: the target signal
    port: Optional[str] = None  #: arg kind: the module input port
    #: memory kind: cell class ("state" | "signal" | "arg" | "local")
    memory_kind: Optional[str] = None
    module: Optional[str] = None  #: memory kind: owning module
    cell: Optional[str] = None  #: memory kind: cell/signal/port name
    period: int = 0  #: memory kind: flip period in ticks


@dataclass(frozen=True)
class VectorRow:
    """One run of a batch: which test case, which injection."""

    case_id: int
    injection: RowInjection


@dataclass
class GroupJob:
    """One batch handed to a target kernel."""

    kind: str  #: "permeability" | "detection" | "memory" | "recovery"
    module: Optional[str]  #: permeability: flipped/recorded module
    rows: List[VectorRow]
    cases: Dict[int, Any]  #: case_id -> test case
    templates: Dict[int, Any]  #: case_id -> tick-0 SimulatorState
    specs: Sequence[Any] = ()  #: assertion specs (detection/memory)
    policies: Any = None  #: recovery: {ea name -> RecoveryPolicy}
    recover: bool = False  #: recovery: containment pass (vs baseline)


@dataclass
class GroupResult:
    """Per-row outcomes of one kernel batch (parallel lists)."""

    retired: List[bool]
    injected: List[bool]
    first_injection_tick: List[Optional[int]]
    completion_tick: List[Optional[int]]
    #: permeability: recorded invocation streams of the target module —
    #: (rows, n_inv, n_in/n_out) int64 arrays plus per-row lengths
    rec_len: Optional[List[int]] = None
    rec_ins: Optional[Any] = None
    rec_outs: Optional[Any] = None
    #: detection: per-row {ea name -> (fire_count, first_fire_tick)}
    bank: Optional[List[Dict[str, Tuple[int, Optional[int]]]]] = None
    #: memory/recovery: per-row mission verdict (safety failure)
    failed: Optional[List[bool]] = None
    #: recovery containment pass: per-row recovery action counts
    actions: Optional[List[int]] = None


# ======================================================================
# Vectorized quantization (see repro.model.signal.quantize).
# ======================================================================
def q_uint(values, width: int):
    """Vectorized UINT quantization: wrap modulo ``2**width``."""
    return values & ((1 << width) - 1)


def q_int(values, width: int):
    """Vectorized two's-complement INT quantization."""
    full = 1 << width
    sign = full >> 1
    masked = values & (full - 1)
    return np.where(masked >= sign, masked - full, masked)


def q_bool(values):
    """Vectorized BOOL quantization: collapse to 0/1."""
    return (values != 0).astype(np.int64)


def flip_cells(values, bitmask, sig_type, width: int):
    """Vectorized :func:`repro.model.signal.flip_bit` for int-backed
    cells (UINT/INT/BOOL; FLOAT cells never enter a batch)."""
    raw = (np.asarray(values, dtype=np.int64) & ((1 << width) - 1)) ^ bitmask
    if sig_type is SignalType.BOOL:
        return q_bool(raw)
    if sig_type is SignalType.INT:
        return q_int(raw, width)
    return raw


# ======================================================================
# Vectorized executable-assertion bank (see repro.edm.assertions).
# ======================================================================
class BankArrays:
    """Per-row state of a monitor bank, evaluated on array stores.

    A transcription of :meth:`repro.edm.assertions.AssertionState`:
    one ``_prev`` / fire-accumulator set per (assertion, row), checked
    against the row's signal-store arrays at every evaluation tick.
    """

    def __init__(self, specs: Sequence[Any], n_rows: int):
        self._specs = list(specs)
        self._prev = {
            s.name: np.zeros(n_rows, dtype=np.int64) for s in self._specs
        }
        self._has_prev = {
            s.name: np.zeros(n_rows, dtype=bool) for s in self._specs
        }
        self._fire_count = {
            s.name: np.zeros(n_rows, dtype=np.int64) for s in self._specs
        }
        self._first_fire = {
            s.name: np.full(n_rows, -1, dtype=np.int64) for s in self._specs
        }

    def _fired_mask(self, spec, value):
        """The per-row fire decision for *spec* at *value*, read
        against the current reference state (``_prev`` untouched)."""
        from repro.edm.assertions import EAKind

        if spec.kind is EAKind.BOOLEAN:
            return (value != 0) & (value != 1)
        fired = np.zeros(value.shape, dtype=bool)
        if spec.minimum is not None:
            fired |= value < spec.minimum
        if spec.maximum is not None:
            fired |= value > spec.maximum
        prev = self._prev[spec.name]
        has_prev = self._has_prev[spec.name]
        if spec.kind is EAKind.RANGE_RATE:
            rate = np.abs(value - prev) > spec.max_delta
            fired |= has_prev & rate
        elif spec.kind is EAKind.MONOTONIC:
            delta = value - prev
            bad = (delta < 0) | (delta > spec.max_delta)
            fired |= has_prev & bad
        elif spec.kind is EAKind.SEQUENCE:
            delta = value - prev
            if spec.modulus is not None:
                delta = delta % spec.modulus
            fired |= has_prev & (delta != spec.exact_delta)
        return fired

    def evaluate(self, store: Dict[str, Any], tick: int, mask=None) -> None:
        """Evaluate every assertion against *store* at *tick*.

        *mask* restricts the evaluation to still-running rows (rows
        outside the mask keep their state untouched, like a scalar run
        that already left its mission loop).
        """
        for spec in self._specs:
            value = store[spec.signal]
            name = spec.name
            fired = self._fired_mask(spec, value)
            if mask is not None:
                fired = fired & mask
                update = mask
            else:
                update = None
            count = self._fire_count[name]
            first = self._first_fire[name]
            count += fired
            first[:] = np.where(fired & (first < 0), tick, first)
            if update is None:
                self._prev[name][:] = value
                self._has_prev[name][:] = True
            else:
                prev = self._prev[name]
                prev[:] = np.where(update, value, prev)
                self._has_prev[name] |= update

    def row_records(
        self, row: int
    ) -> Dict[str, Tuple[int, Optional[int]]]:
        """One row's per-EA (fire_count, first_fire_tick)."""
        out: Dict[str, Tuple[int, Optional[int]]] = {}
        for spec in self._specs:
            count = int(self._fire_count[spec.name][row])
            first = int(self._first_fire[spec.name][row])
            out[spec.name] = (count, first if first >= 0 else None)
        return out


class RecoveringBankArrays(BankArrays):
    """Vectorized :class:`repro.edm.recovery.RecoveringMonitorBank`:
    detection plus per-row containment pokes into the batch's store.

    Each assertion is evaluated in spec order; fired rows are poked
    back to a last-good (HOLD_LAST_GOOD) or clamped (CLAMP_TO_SPEC)
    value — quantized exactly like ``store.poke`` — and the reference
    state is rebased on the raw substituted value, so later specs and
    ticks see the substituted signal just as in the scalar bank.
    """

    def __init__(
        self,
        specs: Sequence[Any],
        n_rows: int,
        policies: Optional[Dict[str, Any]] = None,
        q_store: Optional[Callable[[str, Any], Any]] = None,
    ):
        super().__init__(specs, n_rows)
        from repro.edm.recovery import RecoveryPolicy

        policies = dict(policies or {})
        self._policy = {
            s.name: policies.get(s.name, RecoveryPolicy.HOLD_LAST_GOOD)
            for s in self._specs
        }
        self._q_store = q_store
        self._last_good = {
            s.name: np.zeros(n_rows, dtype=np.int64) for s in self._specs
        }
        self._has_good = {
            s.name: np.zeros(n_rows, dtype=bool) for s in self._specs
        }
        #: per-row count of recovery substitutions performed
        self.actions = np.zeros(n_rows, dtype=np.int64)

    def evaluate(self, store: Dict[str, Any], tick: int, mask=None) -> None:
        from repro.edm.recovery import RecoveryPolicy

        for spec in self._specs:
            name = spec.name
            value = store[spec.signal]
            fired = self._fired_mask(spec, value)
            if mask is not None:
                fired = fired & mask
                update = mask
            else:
                update = np.ones(value.shape, dtype=bool)
            count = self._fire_count[name]
            first = self._first_fire[name]
            count += fired
            first[:] = np.where(fired & (first < 0), tick, first)
            prev = self._prev[name]
            prev[:] = np.where(update, value, prev)
            self._has_prev[name] |= update
            # containment (RecoveringMonitorBank._on_tick): last-good
            # tracks non-fired observations only
            good = self._last_good[name]
            has_good = self._has_good[name]
            not_fired = update & ~fired
            good[:] = np.where(not_fired, value, good)
            has_good |= not_fired
            policy = self._policy[name]
            if policy is RecoveryPolicy.DETECT_ONLY:
                continue
            if policy is RecoveryPolicy.CLAMP_TO_SPEC:
                clamped = value
                if spec.minimum is not None:
                    clamped = np.maximum(clamped, spec.minimum)
                if spec.maximum is not None:
                    clamped = np.minimum(clamped, spec.maximum)
                changed = clamped != value
                substituted = np.where(changed, clamped, good)
                valid = fired & (changed | has_good)
            else:  # HOLD_LAST_GOOD
                substituted = good
                valid = fired & has_good
            if valid.any():
                quantized = self._q_store(spec.signal, substituted)
                store[spec.signal] = np.where(
                    valid, quantized, store[spec.signal]
                )
                prev[:] = np.where(valid, substituted, prev)
                self.actions += valid


# ======================================================================
# Vectorized periodic memory flips (see PeriodicMemoryFlip).
# ======================================================================
class MemoryFlipPlan:
    """The per-row flip schedule of one memory/recovery batch.

    A transcription of the scalar injector's three strike paths
    (:class:`repro.fi.injector.FaultInjector` with a
    ``PeriodicMemoryFlip`` spec): RAM flips — state cells and signal
    backing stores — land in the pre-tick phase at every period
    boundary; stack flips — module args and locals — are *armed* at
    the boundary and strike the owning module's next marshal or local
    write, then disarm.
    """

    def __init__(self, kernel, rows: Sequence[VectorRow], first_inj):
        n = len(rows)
        self._first_inj = first_inj
        self._phase = np.array(
            [row.injection.tick for row in rows], dtype=np.int64
        )
        self._period = np.array(
            [max(1, row.injection.period) for row in rows], dtype=np.int64
        )
        self._armed = np.zeros(n, dtype=bool)
        self._live = None
        self._tick = 0
        stack = np.zeros(n, dtype=bool)
        state_rows: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
        signal_rows: Dict[str, List[Tuple[int, int]]] = {}
        arg_rows: Dict[str, Dict[str, List[Tuple[int, int]]]] = {}
        local_rows: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
        for r, row in enumerate(rows):
            inj = row.injection
            pair = (r, 1 << inj.bit)
            if inj.memory_kind == "state":
                state_rows.setdefault((inj.module, inj.cell), []).append(pair)
            elif inj.memory_kind == "signal":
                signal_rows.setdefault(inj.cell, []).append(pair)
            elif inj.memory_kind == "arg":
                arg_rows.setdefault(inj.module, {}).setdefault(
                    inj.cell, []
                ).append(pair)
                stack[r] = True
            else:  # local
                local_rows.setdefault((inj.module, inj.cell), []).append(pair)
                stack[r] = True
        self._stack = stack

        def _bucket(pairs):
            idx = np.array([p[0] for p in pairs], dtype=np.int64)
            bms = np.array([p[1] for p in pairs], dtype=np.int64)
            return idx, bms

        self._state = []
        for (module, cell), pairs in state_rows.items():
            ctype, width = kernel.state_spec[(module, cell)]
            self._state.append((module, cell, *_bucket(pairs), ctype, width))
        self._signal = []
        for cell, pairs in signal_rows.items():
            stype, width = kernel.quant[cell]
            self._signal.append((cell, *_bucket(pairs), stype, width))
        self._arg: Dict[str, list] = {}
        for module, ports in arg_rows.items():
            in_ports, _, in_sigs, _ = kernel.ports[module]
            entries = []
            for cell, pairs in ports.items():
                j = in_ports.index(cell)
                stype, width = kernel.quant[in_sigs[j]]
                entries.append((j, *_bucket(pairs), stype, width))
            self._arg[module] = entries
        self._local: Dict[Tuple[str, str], tuple] = {}
        for (module, cell), pairs in local_rows.items():
            ctype, width = kernel.local_spec[(module, cell)]
            self._local[(module, cell)] = (*_bucket(pairs), ctype, width)
        self._succ_cells = frozenset(kernel.succ_cells)
        self._any_armed = False
        self._build_schedule()

    def _build_schedule(self) -> None:
        """Precompute, per (period, tick residue), which RAM flip
        buckets can fire.  A full sweep plans one bucket per memory
        location, so scanning every bucket every tick dwarfs the
        handful that actually flip; the boundary condition collapses
        to ``tick % period == phase % period``, letting
        :meth:`pre_tick` visit only the current residue's buckets."""
        tables = {
            int(P): [[] for _ in range(int(P))]
            for P in np.unique(self._period)
        }

        def _split(entry):
            is_state = len(entry) == 6
            if is_state:
                module, cell, idx, bms, type_, width = entry
                rebuild = (module, cell) in self._succ_cells
                key = (module, cell)
            else:
                key, idx, bms, type_, width = entry
                rebuild = False
            periods = self._period[idx]
            phases = self._phase[idx]
            for P, table in tables.items():
                for residue in np.unique(phases[periods == P] % P):
                    m = (periods == P) & ((phases % P) == residue)
                    table[int(residue)].append((
                        is_state, key, idx[m], bms[m], phases[m],
                        type_, width, rebuild,
                    ))

        for entry in self._state:
            _split(entry)
        for entry in self._signal:
            _split(entry)
        self._schedules = list(tables.items())

    def _record(self, rsel, tick: int) -> None:
        first = self._first_inj
        first[rsel] = np.where(first[rsel] < 0, tick, first[rsel])

    def pre_tick(self, tick: int, S, M, live=None) -> bool:
        """Apply RAM flips / arm stack rows at this tick's period
        boundaries.  Returns True when a dispatch-successor state cell
        was flipped (the kernel must re-stack its gathered schedule)."""
        boundary = (tick >= self._phase) & (
            (tick - self._phase) % self._period == 0
        )
        if live is not None:
            boundary = boundary & live
        self._tick = tick
        self._live = live
        if not boundary.any():
            return False
        rebuild = False
        for P, table in self._schedules:
            for entry in table[tick % P]:
                (is_state, key, idx, bms, phases,
                 type_, width, is_succ) = entry
                sel = tick >= phases
                if live is not None:
                    sel = sel & live[idx]
                if not sel.any():
                    continue
                rsel = idx[sel]
                arr = M[key[0]][key[1]] if is_state else S[key]
                arr[rsel] = flip_cells(arr[rsel], bms[sel], type_, width)
                self._record(rsel, tick)
                if is_succ:
                    rebuild = True
        armed_now = boundary & self._stack
        if armed_now.any():
            self._armed |= armed_now
            self._any_armed = True
        return rebuild

    def marshal(self, module: str, args: List[Any]) -> None:
        """Strike armed arg rows at *module*'s marshaling, in place on
        the freshly copied arg arrays."""
        if not self._any_armed:
            return
        entries = self._arg.get(module)
        if entries is None:
            return
        for j, idx, bms, stype, width in entries:
            sel = self._armed[idx]
            if self._live is not None:
                sel = sel & self._live[idx]
            if not sel.any():
                continue
            rsel = idx[sel]
            arr = args[j]
            arr[rsel] = flip_cells(arr[rsel], bms[sel], stype, width)
            self._record(rsel, self._tick)
            self._armed[rsel] = False
            self._any_armed = bool(self._armed.any())

    def scoped_live(self, mask):
        """Narrow the live-row mask to *mask* for one masked module
        invocation (per-row dispatch: only the rows whose schedule
        dispatched the module may take arg/local strikes); returns the
        previous mask for :meth:`restore_live`."""
        prev = self._live
        self._live = mask if prev is None else (prev & mask)
        return prev

    def restore_live(self, prev) -> None:
        self._live = prev

    def local(self, module: str, name: str, values):
        """Strike armed local rows at the (module, local) write point;
        returns the (possibly copied and flipped) values array."""
        if not self._any_armed:
            return values
        bucket = self._local.get((module, name))
        if bucket is None:
            return values
        idx, bms, ctype, width = bucket
        sel = self._armed[idx]
        if self._live is not None:
            sel = sel & self._live[idx]
        if not sel.any():
            return values
        rsel = idx[sel]
        out = np.array(values, dtype=np.int64, copy=True)
        out[rsel] = flip_cells(out[rsel], bms[sel], ctype, width)
        self._record(rsel, self._tick)
        self._armed[rsel] = False
        self._any_armed = bool(self._armed.any())
        return out


# ======================================================================
# The target kernel skeleton.
# ======================================================================
class _PermeabilityRows:
    """The arg-flip plan and invocation recording of one permeability
    batch: each row flips one input port of ``job.module`` at its first
    invocation at or after its tick, and every invocation of that
    module is recorded for the golden-stream diff."""

    def __init__(self, kernel, job: GroupJob, bitmask, first_inj):
        n = len(job.rows)
        inj = [row.injection for row in job.rows]
        self.module = module = job.module
        ins, outs, _, _ = kernel.ports[module]
        self.port_idx = np.array(
            [ins.index(i.port) for i in inj], dtype=np.int64
        )
        self.from_tick = np.array([i.tick for i in inj], dtype=np.int64)
        self.pending = np.ones(n, dtype=bool)
        self.bitmask = bitmask
        self.first_inj = first_inj
        ticks, n_slots = kernel.max_ticks, kernel.n_slots
        if module == kernel.dispatch_module:
            cap = ticks
        else:
            slot = next(
                s for s, mods in kernel.slot_modules.items() if module in mods
            )
            first = (slot - 1) % n_slots
            cap = max(0, (ticks - first + n_slots - 1) // n_slots)
        self.ins = np.zeros((n, cap, len(ins)), dtype=np.int64)
        self.outs = np.zeros((n, cap, len(outs)), dtype=np.int64)
        self.length = np.zeros(n, dtype=np.int64)
        self.k = 0

    def invoke(self, kernel, module: str, S, M, t: int, entered) -> None:
        """Invoke *module* on every row; for the recorded module, flip
        the pending rows' ports and record the live rows' invocation."""
        if module != self.module:
            kernel._invoke(module, S, M, None)
            return
        sel = self.pending & (t >= self.from_tick)
        if entered is not None:
            sel &= entered
        args, outs = kernel._invoke(
            module, S, M, (sel, self.port_idx, self.bitmask)
        )
        if sel.any():
            self.pending &= ~sel
            self.first_inj[sel] = t
        live = slice(None) if entered is None else np.nonzero(entered)[0]
        k = self.k
        for j, a in enumerate(args):
            self.ins[live, k, j] = a[live]
        for j, o in enumerate(outs):
            self.outs[live, k, j] = o[live]
        self.length[live] = k + 1
        self.k = k + 1


class VectorKernel:
    """Struct-of-arrays executor for batches of one target's runs.

    Every scalar quantity of the target's
    :class:`~repro.model.simulator.ClosedLoopSimulator` — signal store,
    module state cells, sensor registers, plant state — becomes an
    int64/float64 array with one row per run, and each module body is
    transcribed onto those arrays in the exact operation order of the
    scalar code.  This base owns the loop harness of
    :meth:`run_group`: seeding from the rows' tick-0 snapshots, the
    per-kind injection plan, permeability recording, the monitor bank,
    the dispatch module's successor-cell step, per-row masked dispatch
    and the ``running`` mask of variable-length runs.

    A target kernel names its scalar simulator, its every-tick dispatch
    module and that module's successor cells, the plant snapshot keys
    to gather, and provides :meth:`_seed`, :meth:`_advance_sensors`,
    :meth:`_step_plant`, :meth:`_outcome` and its module bodies
    (``_BODIES``, the dispatch module's included).
    """

    #: class name of the scalar simulator this kernel transcribes
    simulator = ""
    #: the every-tick module whose first output is the next slot number
    dispatch_module = ""
    #: its slot-successor state cells, formatted with the slot index
    successor_cell = ""
    #: plant snapshot keys gathered into float64 per-row arrays
    plant_keys: Tuple[str, ...] = ()
    #: every run lasts ``max_ticks``: rows are always live, so the
    #: kernel skips the live-row masks and runs full-slice fast paths
    fixed_length = False
    #: module name -> body(kernel, args, state) returning output arrays
    _BODIES: Dict[str, Callable] = {}

    @classmethod
    def supports(cls, probe) -> bool:
        return type(probe).__name__ == cls.simulator

    def __init__(self, probe, max_ticks: int):
        self.max_ticks = max_ticks
        self.n_slots = probe.executor.schedule.n_slots
        self.slot_modules: Dict[int, List[str]] = {}
        for module, slot in probe.module_slots.items():
            self.slot_modules.setdefault(slot, []).append(module)
        system = probe.system
        #: module -> (in ports, out ports, in signals, out signals)
        self.ports = {}
        for module in system.modules():
            name = module.name
            ins = list(module.inputs)
            outs = list(module.outputs)
            self.ports[name] = (
                ins,
                outs,
                [system.signal_of_input(name, p) for p in ins],
                [system.signal_of_output(name, p) for p in outs],
            )
        #: signal -> (SignalType, width), for store-write quantization
        self.quant = {
            name: (system.signal(name).sig_type, system.signal(name).width)
            for name in system.signal_names()
        }
        #: (module, cell) -> (cell_type, width), for memory-row flips
        self.state_spec = {}
        self.local_spec = {}
        for module in system.modules():
            for spec in module.state.specs():
                self.state_spec[(module.name, spec.name)] = (
                    spec.cell_type, spec.width
                )
            for spec in module.local_specs:
                self.local_spec[(module.name, spec.name)] = (
                    spec.cell_type, spec.width
                )
        #: system-input signal -> sensor-suite register
        self.registers = dict(probe._REGISTER_OF)
        #: state cells feeding the gathered dispatch schedule, by slot
        self.succ_cells = tuple(
            (self.dispatch_module, self.successor_cell.format(j))
            for j in range(self.n_slots)
        )
        self.slot_signal = self.ports[self.dispatch_module][3][0]
        self._mem: Optional[MemoryFlipPlan] = None
        self._succ = None  #: (rows, n_slots) successor table, per group
        self._row_ix = None

    def module_ports(self, module: str):
        ins, outs, _, _ = self.ports[module]
        return ins, outs

    @staticmethod
    def _rows(source, rows: Sequence[VectorRow], pick, dtype="int64"):
        """One array column per row: *pick* applied to each row's entry
        of *source* (``GroupJob.templates`` or ``GroupJob.cases``)."""
        return np.array(
            [pick(source[row.case_id]) for row in rows], dtype=dtype
        )

    def supports_injection(self, inj: RowInjection) -> bool:
        """Whether a row's injection can strike inside a batch
        (memory rows: int-backed cells the kernel hooks only)."""
        kind = inj.memory_kind
        if kind is None:
            return True
        if kind == "state":
            spec = self.state_spec.get((inj.module, inj.cell))
        elif kind == "signal":
            spec = self.quant.get(inj.cell)
        elif kind == "arg":
            ports = self.ports.get(inj.module)
            if ports is None or inj.cell not in ports[0]:
                return False
            spec = self.quant.get(ports[2][ports[0].index(inj.cell)])
        elif kind == "local":
            spec = self.local_spec.get((inj.module, inj.cell))
        else:
            return False
        return spec is not None and spec[0] is not SignalType.FLOAT

    def _mem_local(self, module: str, name: str, values):
        """Hook point of one scalar ``set_local``: armed memory rows
        strike the freshly quantized local value here."""
        if self._mem is None:
            return values
        return self._mem.local(module, name, values)

    def _q_store(self, signal: str, values):
        """Store-write quantization of *values* for *signal* (always a
        fresh array, so store cells never alias register arrays)."""
        sig_type, width = self.quant[signal]
        if sig_type is SignalType.BOOL:
            return q_bool(values)
        if sig_type is SignalType.INT:
            return q_int(values, width)
        if sig_type is SignalType.FLOAT:
            return np.array(values, dtype=np.int64, copy=True)
        return q_uint(np.asarray(values, dtype=np.int64), width)

    def _successors(self, slot):
        """Each row's successor-cell value for its *slot* (the gathered
        dispatch table; the dispatch body range-checks *slot*)."""
        return self._succ[self._row_ix, slot % self.n_slots]

    def _stack_successors(self, M) -> None:
        self._succ = np.stack(
            [M[module][cell] for module, cell in self.succ_cells], axis=1
        )

    # ------------------------------------------------------------------
    # Target hooks.
    # ------------------------------------------------------------------
    def _seed(self, job: GroupJob, P: Dict[str, Any], judged: bool) -> None:
        """Add the target's per-row arrays to *P* (which holds the
        ``plant_keys`` columns): sensor internals, case parameters and,
        when *judged* (memory/recovery rows), verdict accumulators."""

    def _advance_sensors(self, P, regs) -> None:
        """The sensor suite's per-tick advance onto *regs*."""
        raise NotImplementedError

    def _step_plant(self, P, S, t: int, entered):
        """Step the plant one tick from the actuator signals of *S*,
        accumulate judged rows' verdicts, and return the rows that
        leave the loop after this tick (None: none ever do)."""
        raise NotImplementedError

    def _outcome(self, P, n: int):
        """(completion tick per row, failed per row or None)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def run_group(self, job: GroupJob) -> GroupResult:
        rows = job.rows
        n = len(rows)
        n_slots = self.n_slots
        templates = job.templates
        seed = templates[rows[0].case_id]
        take = self._rows

        # ---- per-row signal store, module state cells, plant, registers
        S = {
            name: take(templates, rows, lambda t, k=name: t.signals[k])
            for name in seed.signals
        }
        M: Dict[str, Dict[str, Any]] = {
            module: {
                cell: take(
                    templates, rows,
                    lambda t, m=module, c=cell: t.modules[m][c],
                )
                for cell in seed.modules[module]
            }
            for module in self.ports
        }
        P = {
            key: take(templates, rows, lambda t, k=key: t.plant[k], "float64")
            for key in self.plant_keys
        }
        regs = {
            signal: take(templates, rows, lambda t, a=attr: t.sensors[a])
            for signal, attr in self.registers.items()
        }

        # ---- injection plan
        inj = [row.injection for row in rows]
        bitmask = np.array([1 << i.bit for i in inj], dtype=np.int64)
        first_inj = np.full(n, -1, dtype=np.int64)
        perm = mem = inj_tick = inj_sig = None
        if job.kind == "permeability":
            perm = _PermeabilityRows(self, job, bitmask, first_inj)
        elif job.kind in ("memory", "recovery"):
            mem = MemoryFlipPlan(self, rows, first_inj)
        else:
            inj_tick = np.array([i.tick for i in inj], dtype=np.int64)
            inj_sig = {
                signal: np.array(
                    [i.signal == signal for i in inj], dtype=bool
                )
                for signal in regs
            }
        self._seed(job, P, judged=mem is not None)

        bank = None
        if job.specs:
            if job.recover:
                bank = RecoveringBankArrays(
                    job.specs, n,
                    policies=job.policies, q_store=self._q_store,
                )
            else:
                bank = BankArrays(job.specs, n)

        self._mem = mem
        self._row_ix = np.arange(n)
        self._stack_successors(M)
        clock = self.dispatch_module
        retired = np.zeros(n, dtype=bool)
        running = None if self.fixed_length else np.ones(n, dtype=bool)
        entered = None  #: rows live this tick (None: all of them)
        batched = 0

        t = 0
        while t < self.max_ticks and (running is None or running.any()):
            if running is None:
                batched += n
            else:
                entered = running.copy()
                batched += int(entered.sum())

            # --- sensor advance (state evolution is not gated: rows
            # past their run compute harmless garbage), register reads
            self._advance_sensors(P, regs)
            for signal, values in regs.items():
                S[signal] = self._q_store(signal, values)

            # --- pre-tick system-input flips (detection, live rows)
            if inj_tick is not None:
                fire = inj_tick == t
                if entered is not None:
                    fire &= entered
                if fire.any():
                    for signal, is_sig in inj_sig.items():
                        m = fire & is_sig
                        if m.any():
                            regs[signal][m] ^= bitmask[m]
                            S[signal][m] ^= bitmask[m]
                    first_inj[fire] = t

            # --- pre-tick periodic memory flips (live rows)
            if mem is not None and mem.pre_tick(t, S, M, entered):
                self._stack_successors(M)

            slot = (t + 1) % n_slots
            if perm is None:
                # per-row dispatch (memory/recovery/detection rows):
                # exactly like the scalar loop, each row runs the
                # modules of its own — possibly corrupted — slot, so
                # dispatch-divergent rows stay in the batch instead of
                # retiring to the scalar path
                self._invoke(clock, S, M, None)
                cur = S[self.slot_signal]
                if (cur == slot).all():
                    for module in self.slot_modules.get(slot, ()):
                        self._invoke(module, S, M, None)
                else:
                    for value in np.unique(cur):
                        modules = self.slot_modules.get(int(value), ())
                        if not modules:
                            continue
                        row_mask = cur == value
                        for module in modules:
                            self._invoke(module, S, M, None, mask=row_mask)
            else:
                # permeability rows: the recorded invocation stream
                # assumes the golden schedule — retire live rows whose
                # dispatch diverged from it
                perm.invoke(self, clock, S, M, t, entered)
                diverged = ~retired & (S[self.slot_signal] != slot)
                if entered is not None:
                    diverged &= entered
                if diverged.any():
                    retired |= diverged
                for module in self.slot_modules.get(slot, ()):
                    perm.invoke(self, module, S, M, t, entered)

            # --- monitor bank (end of each dispatch cycle, live rows)
            if bank is not None and t % n_slots == n_slots - 1:
                bank.evaluate(S, t, mask=entered)

            leave = self._step_plant(P, S, t, entered)
            if leave is not None:
                running &= ~leave
            t += 1

        self._mem = None
        COUNTERS["vec_batched_ticks"] += batched

        completion, failed = self._outcome(P, n)
        return GroupResult(
            retired=retired.tolist(),
            injected=(first_inj >= 0).tolist(),
            first_injection_tick=[
                int(v) if v >= 0 else None for v in first_inj
            ],
            completion_tick=completion,
            rec_len=perm.length.tolist() if perm is not None else None,
            rec_ins=perm.ins if perm is not None else None,
            rec_outs=perm.outs if perm is not None else None,
            bank=[bank.row_records(r) for r in range(n)] if bank else None,
            failed=failed,
            actions=(
                bank.actions.tolist()
                if bank is not None and hasattr(bank, "actions")
                else None
            ),
        )

    # ------------------------------------------------------------------
    def _invoke(self, module, S, M, flip, mask=None):
        """Gather args from the store, apply marshal flips, run the
        module body, write outputs back through store quantization.
        Returns (post-marshal args, store read-back outputs) — the two
        tuples an :class:`~repro.model.system.InvocationRecord`
        captures.

        With *mask*, only the masked rows take the invocation: the
        body runs at full width, but outputs and state cells of rows
        outside the mask are merged back unchanged — those rows'
        (possibly corrupted) schedules did not dispatch *module* this
        tick — and armed memory strikes are confined to the mask."""
        ins, outs, in_sigs, out_sigs = self.ports[module]
        args = [S[sig].copy() for sig in in_sigs]
        if flip is not None:
            sel, port_idx, bitmask = flip
            if sel.any():
                for j in range(len(args)):
                    m = sel & (port_idx == j)
                    if m.any():
                        # xor of a bit < width on an in-range quantized
                        # value stays in range for every signal type
                        args[j][m] ^= bitmask[m]
        prev_live = None
        if self._mem is not None:
            if mask is not None:
                prev_live = self._mem.scoped_live(mask)
            self._mem.marshal(module, args)
        body = self._BODIES[module]
        st = M[module]
        out_arrays = []
        if mask is None:
            results = body(self, args, st)
            for sig, values in zip(out_sigs, results):
                S[sig] = self._q_store(sig, values)
                out_arrays.append(S[sig])
        else:
            saved_state = dict(st)
            saved_out = {sig: S[sig] for sig in out_sigs}
            results = body(self, args, st)
            for sig, values in zip(out_sigs, results):
                merged = np.where(
                    mask, self._q_store(sig, values), saved_out[sig]
                )
                S[sig] = merged
                out_arrays.append(merged)
            # module bodies reassign state cells (never mutate them in
            # place), so the pre-invoke references still hold the
            # unmasked rows' values
            for cell, old in saved_state.items():
                new = st[cell]
                if new is not old:
                    st[cell] = np.where(mask, new, old)
            if self._mem is not None:
                self._mem.restore_live(prev_live)
        return args, out_arrays


# ======================================================================
# Group planning.
# ======================================================================
@dataclass
class _Group:
    gid: int
    module: Optional[str]
    indices: List[int] = field(default_factory=list)


def _task_shape(kind: str, task: tuple, period_ticks: int = 0):
    """(group key, case, injection) of one campaign task tuple."""
    if kind == "permeability":
        module, in_port, case, from_tick, bit = task
        return (
            module,
            case,
            RowInjection(
                kind="arg", tick=from_tick, bit=bit, port=in_port
            ),
        )
    if kind in ("memory", "recovery"):
        location, case, bit, phase = task
        memory_kind, module, cell, cell_bit = location.vector_descriptor(bit)
        return (
            None,
            case,
            RowInjection(
                kind="memory",
                tick=phase,
                bit=cell_bit,
                memory_kind=memory_kind,
                module=module,
                cell=cell,
                period=period_ticks,
            ),
        )
    target, case, tick, bit = task
    return (
        None,
        case,
        RowInjection(kind="input", tick=tick, bit=bit, signal=target),
    )


def _plan_groups(
    kind: str,
    tasks: Sequence[tuple],
    batch_width: int,
    period_ticks: int = 0,
    supported: Optional[Callable[[RowInjection], bool]] = None,
) -> Tuple[Dict[int, _Group], List[_Group]]:
    """Contiguous runs of same-key tasks, capped at *batch_width*.

    Singleton groups are dropped — a batch of one is strictly worse
    than the scalar path.  Injections the kernel cannot strike inside
    a batch (*supported* says no — e.g. float-backed memory cells)
    stay on the scalar path and break the contiguous run.
    """
    groups: List[_Group] = []
    current: Optional[_Group] = None
    current_key: Any = object()
    for index, task in enumerate(tasks):
        key, _, injection = _task_shape(kind, task, period_ticks)
        if supported is not None and not supported(injection):
            current = None
            current_key = object()
            continue
        if (
            current is None
            or key != current_key
            or len(current.indices) >= batch_width
        ):
            current = _Group(gid=len(groups), module=key)
            current_key = key
            groups.append(current)
        current.indices.append(index)
    kept = [g for g in groups if len(g.indices) >= 2]
    index_of: Dict[int, _Group] = {}
    for group in kept:
        for index in group.indices:
            index_of[index] = group
    return index_of, kept


# ======================================================================
# The batch runner.
# ======================================================================
_RETIRED = object()
#: scalar rows per chunk when the chunk plan batches ungrouped indices.
_SCALAR_CHUNK = 32


def _kernel_for(probe):
    """The vector kernel class supporting *probe*, or ``None``."""
    if np is None:
        return None
    from repro.target.vectorize import ArrestmentVectorKernel
    from repro.watertank.vectorize import WatertankVectorKernel

    for kernel in (WatertankVectorKernel, ArrestmentVectorKernel):
        if kernel.supports(probe):
            return kernel
    return None


class BatchRunner:
    """Answers campaign task indices from vectorized batches.

    Wraps a campaign's scalar ``runner(index)`` callable.  Task
    indices that belong to a plannable batch are answered by running
    the whole batch through the target's vector kernel once (cached
    per process); everything else — audited rows, rows of unsupported
    targets or injections, retired rows — falls through to the wrapped
    scalar runner, which remains the semantic reference.

    Also exposes the two executor integration hooks:

    * :meth:`timeout_scale_for` — a batch leader computes up to
      ``len(group)`` runs under one per-task alarm, so its budget is
      scaled accordingly;
    * :meth:`chunk_plan` — pool chunks are aligned to batch
      boundaries, so exactly one worker computes each batch.
    """

    def __init__(
        self,
        kind: str,
        tasks: Sequence[tuple],
        inner: Callable[[int], Any],
        batch_width: int,
        factory: Callable[[Any], Any],
        auditor: Optional[Any] = None,
        goldens: Optional[Any] = None,
        direct_only: bool = True,
        specs: Sequence[Any] = (),
        policies: Optional[Any] = None,
        period_ticks: int = 0,
    ):
        self._kind = kind
        self._tasks = list(tasks)
        self._inner = inner
        self._auditor = auditor
        self._factory = factory
        self._goldens = goldens
        self._direct_only = direct_only
        self._specs = list(specs)
        self._policies = policies
        self._period = period_ticks
        self._width = batch_width
        self._cache: Dict[int, Dict[int, Any]] = {}
        self._served: Dict[int, int] = {}
        self._group_of: Dict[int, _Group] = {}
        self._groups: List[_Group] = []
        self._kernel = None
        self._templates: Dict[int, Any] = {}
        self._cases: Dict[int, Any] = {}
        self._pack = None
        self._golden_meta: Dict[Tuple[int, str], Tuple[int, int, int]] = {}
        if batch_width > 0 and len(self._tasks) >= 2:
            self._prepare(batch_width)

    # ------------------------------------------------------------------
    # Pre-fork preparation: plan, templates, golden shm pack.
    # ------------------------------------------------------------------
    def _prepare(self, batch_width: int) -> None:
        for task in self._tasks:
            _, case, _ = _task_shape(self._kind, task, self._period)
            self._cases.setdefault(case.case_id, case)
        first_case = next(iter(self._cases.values()))
        probe = self._factory(first_case)
        kernel_cls = _kernel_for(probe)
        if kernel_cls is None:
            return
        self._kernel = kernel_cls(probe)
        self._group_of, self._groups = _plan_groups(
            self._kind,
            self._tasks,
            batch_width,
            period_ticks=self._period,
            supported=getattr(self._kernel, "supports_injection", None),
        )
        if not self._groups:
            self._kernel = None
            return
        # tick-0 seeds, one per test case: captured before the pool
        # forks so workers share them copy-on-write
        for case_id, case in self._cases.items():
            self._templates[case_id] = self._factory(case).capture_state()
        if self._kind == "permeability" and self._goldens is not None:
            self._publish_golden_streams(probe)

    def _publish_golden_streams(self, probe) -> None:
        """Pack the golden invocation streams the batches will diff
        against into shared memory, once, pre-fork."""
        from repro.fi.shm import ShmArrayPack

        self._pack = ShmArrayPack()
        needed = set()
        for group in self._groups:
            for index in group.indices:
                _, case, _ = _task_shape(self._kind, self._tasks[index])
                needed.add((case.case_id, group.module))
        for case_id, module in sorted(needed):
            golden = self._goldens.get(self._cases[case_id])
            stream = golden.invocations.stream(module)
            mod = probe.system.module(module)
            n = len(stream)
            n_in = len(mod.inputs)
            n_out = len(mod.outputs)
            ins = np.zeros((n, n_in), dtype=np.int64)
            outs = np.zeros((n, n_out), dtype=np.int64)
            for i, (_, in_tuple, out_tuple) in enumerate(stream):
                ins[i] = in_tuple
                outs[i] = out_tuple
            key = f"g{case_id}:{module}"
            self._pack.publish(key + ":ins", ins)
            self._pack.publish(key + ":outs", outs)
            self._golden_meta[(case_id, module)] = (n, n_in, n_out)

    def close(self) -> None:
        if self._pack is not None:
            self._pack.close()
            self._pack = None

    # ------------------------------------------------------------------
    # Executor integration hooks (duck-typed).
    # ------------------------------------------------------------------
    def timeout_scale_for(self, index: int) -> int:
        """Per-task timeout multiplier: a batch leader simulates the
        whole group under its own alarm."""
        group = self._batchable(index)
        if group is None or group.gid in self._cache:
            return 1
        return len(group.indices)

    def chunk_plan(self, indices: Sequence[int]) -> List[List[int]]:
        """Pool chunks aligned to batch boundaries."""
        buckets: Dict[int, List[int]] = {}
        order: List[int] = []
        scalars: List[int] = []
        for index in indices:
            group = self._group_of.get(index)
            if group is None or self._kernel is None:
                scalars.append(index)
                continue
            bucket = buckets.get(group.gid)
            if bucket is None:
                bucket = buckets[group.gid] = []
                order.append(group.gid)
            bucket.append(index)
        chunks = [buckets[gid] for gid in order]
        chunks.extend(
            scalars[i:i + _SCALAR_CHUNK]
            for i in range(0, len(scalars), _SCALAR_CHUNK)
        )
        return chunks

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def _batchable(self, index: int) -> Optional[_Group]:
        if self._kernel is None:
            return None
        group = self._group_of.get(index)
        if group is None:
            return None
        if self._auditor is not None and self._auditor.should_audit(index):
            # audited rows re-run under the integrity machinery — the
            # scalar path stays their single source of truth
            return None
        return group

    def __call__(self, index: int) -> Any:
        group = self._batchable(index)
        if group is None:
            COUNTERS["vec_scalar_fallbacks"] += 1
            return self._inner(index)
        outcomes = self._cache.get(group.gid)
        if outcomes is None:
            outcomes = self._compute_group(group)
            self._cache[group.gid] = outcomes
        outcome = outcomes.get(index, _RETIRED)
        served = self._served.get(group.gid, 0) + 1
        self._served[group.gid] = served
        if served >= len(group.indices):
            # every row answered: drop the batch from the cache
            self._cache.pop(group.gid, None)
            self._served.pop(group.gid, None)
        if outcome is _RETIRED:
            return self._inner(index)
        COUNTERS["vec_rows"] += 1
        return outcome

    # ------------------------------------------------------------------
    # Batch computation and outcome assembly.
    # ------------------------------------------------------------------
    def _compute_group(self, group: _Group) -> Dict[int, Any]:
        import dataclasses

        rows = []
        for index in group.indices:
            _, case, injection = _task_shape(
                self._kind, self._tasks[index], self._period
            )
            rows.append(
                VectorRow(case_id=case.case_id, injection=injection)
            )
        job = GroupJob(
            kind=self._kind,
            module=group.module,
            rows=rows,
            cases=self._cases,
            templates=self._templates,
            specs=(
                self._specs
                if self._kind in ("detection", "memory", "recovery")
                else ()
            ),
            policies=self._policies if self._kind == "recovery" else None,
            recover=False,
        )
        result = self._kernel.run_group(job)
        wrapped = None
        if self._kind == "recovery":
            # the containment pass: same rows, same injections, but a
            # recovering bank poking substitutions into the store
            wrapped = self._kernel.run_group(
                dataclasses.replace(job, recover=True)
            )
        COUNTERS["vec_groups"] += 1
        COUNTERS["vec_group_capacity"] += self._width
        if len({row.case_id for row in rows}) > 1:
            COUNTERS["vec_cross_case_groups"] += 1
        outcomes: Dict[int, Any] = {}
        for row, index in enumerate(group.indices):
            retired = result.retired[row] or (
                wrapped is not None and wrapped.retired[row]
            )
            if retired:
                COUNTERS["vec_retired_rows"] += 1
                continue
            if self._kind == "permeability":
                outcomes[index] = self._permeability_outcome(
                    group, rows[row], result, row
                )
            elif self._kind == "memory":
                outcomes[index] = self._memory_outcome(result, row)
            elif self._kind == "recovery":
                outcomes[index] = self._recovery_outcome(
                    result, wrapped, row
                )
            else:
                outcomes[index] = self._detection_outcome(
                    rows[row], result, row
                )
        return outcomes

    def _permeability_outcome(
        self, group: _Group, row: VectorRow, result: GroupResult, r: int
    ) -> Optional[List[str]]:
        if not result.injected[r]:
            return None
        completed = result.completion_tick[r]
        first = result.first_injection_tick[r]
        if completed is not None and first is not None and first > completed:
            return None
        meta = self._golden_meta[(row.case_id, group.module)]
        n_golden, n_in, _ = meta
        key = f"g{row.case_id}:{group.module}"
        g_ins = self._pack.get(key + ":ins")
        g_outs = self._pack.get(key + ":outs")
        mod = self._kernel.module_ports(group.module)
        in_ports, out_ports = mod
        injected_idx = in_ports.index(row.injection.port)
        length = min(n_golden, result.rec_len[r])
        r_ins = result.rec_ins[r]
        r_outs = result.rec_outs[r]
        # first differing invocation per output port, then the ports
        # ordered by (invocation index, port order) — exactly the
        # discovery order of first_output_differences
        hits: List[Tuple[int, int, str]] = []
        for k, port in enumerate(out_ports):
            unequal = np.nonzero(
                g_outs[:length, k] != r_outs[:length, k]
            )[0]
            if unequal.size == 0:
                continue
            first_idx = int(unequal[0])
            direct = all(
                g_ins[first_idx, j] == r_ins[first_idx, j]
                for j in range(n_in)
                if j != injected_idx
            )
            if direct or not self._direct_only:
                hits.append((first_idx, k, port))
        hits.sort()
        return [port for _, _, port in hits]

    def _memory_outcome(self, result: GroupResult, r: int) -> Any:
        if not result.injected[r]:
            return None
        records = result.bank[r]
        return {
            "fired": sorted(
                name
                for name, (count, _) in records.items()
                if count > 0
            ),
            "failed": bool(result.failed[r]),
        }

    def _recovery_outcome(
        self, baseline: GroupResult, wrapped: GroupResult, r: int
    ) -> Any:
        if not baseline.injected[r]:
            return None
        records = baseline.bank[r]
        return {
            "detected": bool(
                any(count > 0 for count, _ in records.values())
            ),
            "baseline_failed": bool(baseline.failed[r]),
            "recovered_failed": bool(wrapped.failed[r]),
            "recovery_actions": int(wrapped.actions[r]),
        }

    def _detection_outcome(
        self, row: VectorRow, result: GroupResult, r: int
    ) -> Any:
        if not result.injected[r]:
            return "inactive"
        tick = row.injection.tick
        completed = result.completion_tick[r]
        if completed is not None and tick > completed:
            return "late"
        records = result.bank[r]
        fired = sorted(
            name
            for name, (count, first) in records.items()
            if count > 0 and first is not None and first >= tick
        )
        latencies: Dict[str, int] = {}
        for ea in fired:
            first = records[ea][1]
            if first is not None:
                latencies[ea] = first - tick
        return {"fired": fired, "latencies": latencies}


# ======================================================================
# Campaign-facing helpers.
# ======================================================================
def wrap_runner(
    kind: str,
    runner: Callable[[int], Any],
    tasks: Sequence[tuple],
    config: Optional[Any],
    factory: Callable[[Any], Any],
    auditor: Optional[Any] = None,
    goldens: Optional[Any] = None,
    direct_only: bool = True,
    specs: Sequence[Any] = (),
    policies: Optional[Any] = None,
    period_ticks: int = 0,
) -> Callable[[int], Any]:
    """The campaign's runner, batched when the config asks for it.

    Returns *runner* unchanged when batching is off (``batch_width``
    0), numpy is unavailable, a chaos hook is armed (chaos runs test
    the scalar path's fault handling, and the executor dispatches
    their tasks one at a time), or no batch could be planned — the
    scalar path needs no wrapper to stay correct.
    """
    width = config.vector.batch_width if config is not None else 0
    if width <= 0 or np is None or ChaosPlan.from_env(os.environ).armed:
        return runner
    batched = BatchRunner(
        kind=kind,
        tasks=tasks,
        inner=runner,
        batch_width=width,
        factory=factory,
        auditor=auditor,
        goldens=goldens,
        direct_only=direct_only,
        specs=specs,
        policies=policies,
        period_ticks=period_ticks,
    )
    if batched._kernel is None:
        batched.close()
        return runner
    return batched


def close_runner(runner: Any) -> None:
    """Release a wrapped runner's shared-memory segments (no-op for
    plain scalar runners)."""
    if isinstance(runner, BatchRunner):
        runner.close()
