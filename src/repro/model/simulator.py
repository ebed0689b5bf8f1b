"""The closed-loop simulator skeleton shared by every target.

The paper's method treats the system under test as black-box modules
executed in a feedback loop with a plant.  :class:`ClosedLoopSimulator`
is that loop's harness, independent of any one target: it owns the
slot-scheduled :class:`~repro.model.system.SystemExecutor`, the fault
injector's five hook lists (pre-tick, marshal, local write,
post-invoke, post-tick), the per-signal write traces
(:class:`SignalTraces`) that the golden-run comparison diffs, the
system-input registers, and checkpoint capture/restore
(:class:`SimulatorState`) for the fast-forward engine in
``repro.fi.snapshot``.

A target subclasses it with its plant, its sensor suite, its schedule,
its verdict and its tick loop (``run()``); see ``docs/extending.md``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.model.signal import Number
from repro.model.system import (
    ExecutorHooks,
    InvocationRecord,
    SlotSchedule,
    SystemExecutor,
    SystemModel,
)

__all__ = ["SignalTraces", "SimulatorState", "ClosedLoopSimulator"]

_EMPTY: Tuple = ()


class SignalTraces:
    """Per-signal streams of (tick, value) writes.

    Stored as parallel tick/value arrays per signal, so the golden-run
    comparison can diff whole streams at C speed without materializing
    pair lists, and the fast-forward engine can splice golden prefixes
    and suffixes by index (ticks within one stream are nondecreasing).
    """

    __slots__ = ("_ticks", "_values")

    def __init__(self) -> None:
        self._ticks: Dict[str, List[int]] = {}
        self._values: Dict[str, List[Number]] = {}

    def record(self, signal: str, tick: int, value: Number) -> None:
        ticks = self._ticks.get(signal)
        if ticks is None:
            ticks = self._ticks[signal] = []
            self._values[signal] = []
        ticks.append(tick)
        self._values[signal].append(value)

    def stream(self, signal: str) -> List[Tuple[int, Number]]:
        """The recorded write stream as (tick, value) pairs (a fresh
        list); empty for unknown signals."""
        return list(
            zip(self._ticks.get(signal, _EMPTY), self._values.get(signal, _EMPTY))
        )

    def signals(self) -> List[str]:
        return list(self._ticks)

    # ------------------------------------------------------------------
    # No-copy accessors (comparison hot path).
    # ------------------------------------------------------------------
    def ticks_of(self, signal: str) -> Sequence[int]:
        """Write ticks of *signal*, nondecreasing.  The internal array:
        treat as read-only."""
        return self._ticks.get(signal, _EMPTY)

    def values_of(self, signal: str) -> Sequence[Number]:
        """Write values of *signal*, parallel to :meth:`ticks_of`.
        The internal array: treat as read-only."""
        return self._values.get(signal, _EMPTY)

    def lengths(self) -> Dict[str, int]:
        """Per-signal stream lengths (a checkpoint's trace cut marks)."""
        return {signal: len(ticks) for signal, ticks in self._ticks.items()}

    # ------------------------------------------------------------------
    # Fast-forward splicing.
    # ------------------------------------------------------------------
    def splice_prefix(
        self, source: "SignalTraces", lengths: Mapping[str, int]
    ) -> None:
        """Replace this trace's streams with *source*'s first
        ``lengths[signal]`` writes (the golden prefix up to a
        checkpoint)."""
        for signal, n in lengths.items():
            if n:
                self._ticks[signal] = source._ticks[signal][:n]
                self._values[signal] = source._values[signal][:n]

    def extend_suffix(self, source: "SignalTraces", from_tick: int) -> None:
        """Append *source*'s writes at or after *from_tick* (the golden
        suffix after a resynchronization point)."""
        for signal, ticks in source._ticks.items():
            start = bisect_left(ticks, from_tick)
            if start < len(ticks):
                mine = self._ticks.get(signal)
                if mine is None:
                    mine = self._ticks[signal] = []
                    self._values[signal] = []
                mine.extend(ticks[start:])
                self._values[signal].extend(source._values[signal][start:])

    def first_difference(
        self, other: "SignalTraces", signal: str
    ) -> Optional[int]:
        """First tick at which the two streams of *signal* diverge.

        A difference is a changed value, a shifted write tick, or a
        write present in only one stream; ``None`` means the streams
        are identical.
        """
        mine_t = self._ticks.get(signal, _EMPTY)
        mine_v = self._values.get(signal, _EMPTY)
        theirs_t = other._ticks.get(signal, _EMPTY)
        theirs_v = other._values.get(signal, _EMPTY)
        # identical streams (the overwhelmingly common case) compare as
        # two array equalities at C speed
        if mine_t == theirs_t and mine_v == theirs_v:
            return None
        shorter = min(len(mine_t), len(theirs_t))
        for i in range(shorter):
            if mine_t[i] != theirs_t[i] or mine_v[i] != theirs_v[i]:
                return min(mine_t[i], theirs_t[i])
        longer = mine_t if len(mine_t) > len(theirs_t) else theirs_t
        return longer[shorter]


@dataclass
class SimulatorState:
    """Full closed-loop simulator state at the top of one tick.

    Captured before the sensor advance of ``tick``; restoring into a
    fresh simulator of the same test case and resuming ``run()``
    replays the remaining ticks bit-identically.  ``traces`` is a
    reference to the capturing simulator's trace object (golden
    checkpoints keep it so a restorer can splice the recorded prefix);
    :meth:`matches` ignores trace bookkeeping.
    """

    tick: int
    signals: Dict[str, Number]
    modules: Dict[str, Dict[str, Number]]
    plant: dict
    sensors: dict
    classifier: object
    loop: dict
    trace_lengths: Dict[str, int] = field(default_factory=dict)
    traces: Optional[SignalTraces] = None

    def matches(self, other: "SimulatorState") -> bool:
        """Exact state equality, ignoring trace bookkeeping."""
        return (
            self.tick == other.tick
            and self.signals == other.signals
            and self.modules == other.modules
            and self.plant == other.plant
            and self.sensors == other.sensors
            and self.classifier == other.classifier
            and self.loop == other.loop
        )


class ClosedLoopSimulator:
    """One closed-loop run of a target: software, plant, sensors, hooks.

    A subclass passes its system, schedule, plant and sensor suite to
    ``__init__``, names its system-input registers in
    :attr:`_REGISTER_OF`, keeps its own loop bookkeeping in
    :meth:`_loop_state` / :meth:`_restore_loop`, and writes ``run()``:
    per tick, advance the sensors, :meth:`_write_sensor_inputs`, run
    the dispatch module and the modules of its slot through
    ``executor``, step the plant, and judge the outcome.  A
    ``run()`` starts at ``self._start_tick`` (a restored checkpoint's
    tick) and calls ``self._tick_probe`` at the top of every tick.
    """

    #: system-input signal -> attribute of ``self.sensors`` holding the
    #: peripheral register that drives it
    _REGISTER_OF: Dict[str, str] = {}

    def __init__(
        self,
        test_case,
        system: SystemModel,
        dispatch_module: str,
        module_slots: Mapping[str, int],
        n_slots: int,
        plant,
        sensors,
        classifier=None,
        record_traces: bool = True,
    ):
        self.test_case = test_case
        self._record_traces = record_traces
        self.system = system
        self.module_slots = dict(module_slots)
        schedule = SlotSchedule(n_slots)
        schedule.every_tick(dispatch_module)
        for module, slot in self.module_slots.items():
            schedule.assign(slot, module)
        self._pre_tick: List[Callable[[int], None]] = []
        self._marshal: List[
            Callable[[str, Dict[str, Number]], Dict[str, Number]]
        ] = []
        self._local_write: List[Callable[[str, str, Number], Number]] = []
        self._post_invoke: List[Callable[[InvocationRecord], None]] = []
        self._post_tick: List[Callable[[int], None]] = []
        self._hooks = ExecutorHooks()
        self.executor = SystemExecutor(self.system, schedule, self._hooks)
        self.plant = plant
        self.sensors = sensors
        #: the target's failure classifier (``snapshot``/``restore``),
        #: or None when the verdict lives in the loop state
        self.classifier = classifier
        self.traces = SignalTraces()
        self._slot_map: Dict[int, List[str]] = {}
        for module, slot in self.module_slots.items():
            self._slot_map.setdefault(slot, []).append(module)
        self._start_tick = 0
        self._tick_probe: Optional[Callable[[int], bool]] = None
        self._rewire_hooks()

    # ------------------------------------------------------------------
    # Hook plumbing (the fault injector's attachment points).
    # ------------------------------------------------------------------
    def _rewire_hooks(self) -> None:
        """Install only the dispatchers with work to do.

        Hook dispatch costs a call (and a handler loop) per tick or
        per invocation; an empty handler list instead leaves the
        executor's ``hook is None`` fast path in place.
        """
        hooks = self._hooks
        hooks.pre_tick = self._run_pre_tick if self._pre_tick else None
        hooks.marshal = self._run_marshal if self._marshal else None
        hooks.local_write = (
            self._run_local_write if self._local_write else None
        )
        hooks.post_invoke = (
            self._run_post_invoke
            if self._record_traces or self._post_invoke
            else None
        )
        hooks.post_tick = self._run_post_tick if self._post_tick else None

    @property
    def record_traces(self) -> bool:
        return self._record_traces

    @record_traces.setter
    def record_traces(self, enabled: bool) -> None:
        self._record_traces = bool(enabled)
        self._rewire_hooks()

    def add_pre_tick(self, handler) -> None:
        self._pre_tick.append(handler)
        self._rewire_hooks()

    def add_marshal(self, handler) -> None:
        self._marshal.append(handler)
        self._rewire_hooks()

    def add_local_write(self, handler) -> None:
        self._local_write.append(handler)
        self._rewire_hooks()

    def add_post_invoke(self, handler) -> None:
        self._post_invoke.append(handler)
        self._rewire_hooks()

    def add_post_tick(self, handler) -> None:
        self._post_tick.append(handler)
        self._rewire_hooks()

    def set_tick_probe(self, probe: Optional[Callable[[int], bool]]) -> None:
        """Install a callable run at the top of every tick, before any
        simulation work.  Returning True stops the run immediately (the
        fast-forward engine's resynchronization exit); checkpoint
        recorders return False to keep the run going."""
        self._tick_probe = probe

    def _run_pre_tick(self, tick: int) -> None:
        for handler in self._pre_tick:
            handler(tick)

    def _run_marshal(self, module, args):
        for handler in self._marshal:
            args = handler(module, args)
        return args

    def _run_local_write(self, module, name, value):
        for handler in self._local_write:
            value = handler(module, name, value)
        return value

    def _run_post_invoke(self, record: InvocationRecord) -> None:
        if self._record_traces:
            for port, value in record.outputs.items():
                signal = self.system.signal_of_output(record.module, port)
                self.traces.record(signal, record.tick, value)
        for handler in self._post_invoke:
            handler(record)

    def _run_post_tick(self, tick: int) -> None:
        for handler in self._post_tick:
            handler(tick)

    # ------------------------------------------------------------------
    # System-input registers.
    # ------------------------------------------------------------------
    def corrupt_input(self, signal: str, bit: int) -> Tuple[Number, Number]:
        """Flip a bit of a peripheral register (a system input signal).

        The corruption lands in the register itself, so its persistence
        follows the register's refresh semantics: counters carry the
        error forward, a converter result is overwritten at the next
        conversion.  Returns (before, after).
        """
        attr = self._REGISTER_OF[signal]
        spec = self.system.signal(signal)
        before = getattr(self.sensors, attr)
        after = spec.flip_bit(before, bit)
        setattr(self.sensors, attr, after)
        self.executor.store.poke(signal, after)
        return before, after

    def _write_sensor_inputs(self, tick: int) -> None:
        store = self.executor.store
        for signal, attr in self._REGISTER_OF.items():
            store[signal] = getattr(self.sensors, attr)
            if self._record_traces:
                self.traces.record(signal, tick, store[signal])

    # ------------------------------------------------------------------
    # Checkpointing.
    # ------------------------------------------------------------------
    def _loop_state(self) -> dict:
        """The target's loop bookkeeping at the top of a tick."""
        return {}

    def _restore_loop(self, loop: dict) -> None:
        """Inverse of :meth:`_loop_state`."""

    def capture_state(self) -> SimulatorState:
        """Freeze the full closed loop at the top of the current tick."""
        classifier = self.classifier
        return SimulatorState(
            tick=self.executor.tick,
            signals=self.executor.store.snapshot(),
            modules={
                module.name: module.state.snapshot()
                for module in self.system.modules()
            },
            plant=self.plant.snapshot(),
            sensors=self.sensors.snapshot(),
            classifier=(
                classifier.snapshot() if classifier is not None else None
            ),
            loop=self._loop_state(),
            trace_lengths=self.traces.lengths() if self._record_traces else {},
            traces=self.traces if self._record_traces else None,
        )

    def restore_state(
        self, state: SimulatorState, restore_traces: bool = True
    ) -> None:
        """Resume from a :meth:`capture_state` snapshot: the next
        ``run()`` starts at ``state.tick`` and replays the remaining
        ticks bit-identically.  With ``restore_traces`` (and recording
        enabled on both sides) the recorded prefix is spliced in, so
        the final traces equal an uninterrupted run's."""
        self.executor.tick = state.tick
        self._start_tick = state.tick
        self.executor.store.restore(state.signals)
        for module in self.system.modules():
            module.state.restore(state.modules[module.name])
        self.plant.restore(state.plant)
        self.sensors.restore(state.sensors)
        if self.classifier is not None:
            self.classifier.restore(state.classifier)
        self._restore_loop(state.loop)
        if restore_traces and self._record_traces and state.traces is not None:
            self.traces.splice_prefix(state.traces, state.trace_lengths)
