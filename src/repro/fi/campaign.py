"""Fault-injection campaigns (paper Sections 5.3, 6.2 and 7).

Four campaign drivers:

* :class:`PermeabilityCampaign` — estimates every ``P^M_{i,k}`` of the
  system (Table 1): inject one bit flip into one module input per run,
  golden-run-compare the module's invocation stream, count *direct*
  first differences per output.
* :class:`DetectionCampaign` — the input error model comparison
  (Table 4): inject one bit flip into one system input signal per run
  and record which executable assertions detect it.
* :class:`MemoryCampaign` — the harsher error model (Fig. 3): inject a
  periodic bit flip (20 ms period) into one RAM or stack location per
  run, record detections and the failure verdict, and derive
  ``c_tot`` / ``c_fail`` / ``c_nofail`` per region for any EA set.
* :class:`RecoveryCampaign` — re-runs the memory error model with and
  without containment wrappers and compares failure verdicts.

Execution model
---------------
Every driver's ``run()`` is three steps: *plan*, *execute*,
*aggregate*.  The driver's ``_plan(system)`` pre-draws every random
parameter from the campaign RNG in the exact order the original
single-loop drivers drew them and returns a ``_CampaignPlan``: the
task list, the pure per-run function, the checkpoint fingerprint
parts, the fast-forward handle and, for the sampled campaigns, the
adaptive strata.  One module-private ``_execute`` runs every plan the
same way: it preloads the plan's checkpoint tracks, wraps each run in
the audit replay and (with ``batch_width`` > 0) the vectorized core,
dispatches the tasks through a
:class:`~repro.fi.executor.CampaignExecutor` (serially or on a
process pool), copies telemetry, integrity violations and stratum
reports onto the driver, and closes the executor and the runner on
every exit path.  The driver then folds the results in task order.
Campaigns are therefore deterministic given their seed,
**bit-identical between serial and parallel execution**, and every
run is a fresh simulator instance (no state leaks between runs).
Golden runs are shared through the process-wide
:data:`~repro.fi.executor.golden_cache`.

The sampled campaigns (permeability and detection) additionally
support **adaptive scheduling** (``config.sampling``): the pre-drawn
task list is unchanged, but batches are dispatched per stratum through
an :class:`~repro.fi.adaptive.AdaptiveSampler`, which stops a stratum
as soon as its Wilson intervals certify the estimates (architectural
zero, saturated, or within the half-width target).  The enumerative
campaigns (memory and recovery) visit every (location, test case)
pair exactly once and ignore the adaptive options.

Campaigns accept either a bare simulator factory or a registered
:class:`~repro.targets.TargetSystem` (anything with a
``simulator_factory`` attribute); the shared execution options live in
a :class:`~repro.fi.executor.CampaignConfig` passed as ``config=``.
Explicit constructor arguments win over config values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.edm.assertions import AssertionSpec
from repro.edm.monitors import MonitorBank
from repro.errors import CampaignError
from repro.fi.adaptive import (
    SKIPPED,
    AdaptiveSampler,
    AdaptiveStratum,
    StratumReport,
    stopping_rule_from,
)
from repro.fi.executor import (
    CampaignConfig,
    CampaignExecutor,
    CampaignTelemetry,
    TaskFailure,
    fingerprint_of,
    golden_cache,
)
from repro.fi.golden import (
    InvocationLog,
    SimulatorFactory,
    first_output_differences,
)
from repro.fi.integrity import (
    IntegrityViolation,
    RunAuditor,
    golden_sentinel,
)
from repro.fi.injector import FaultInjector
from repro.fi.memory import MemoryLocation, MemoryMap, Region
from repro.fi.models import (
    DEFAULT_PERIOD_TICKS,
    InputSignalFlip,
    ModuleInputFlip,
    PeriodicMemoryFlip,
)
from repro.fi.snapshot import FastForward
from repro.fi.vector import close_runner, wrap_runner
from repro.target.testcases import TestCase

__all__ = [
    "PermeabilityCampaign",
    "PermeabilityEstimate",
    "DetectionCampaign",
    "DetectionResult",
    "LatencyStats",
    "MemoryCampaign",
    "MemoryCampaignResult",
    "MemoryRunRecord",
    "CoverageTriple",
    "RecoveryCampaign",
    "RecoveryOutcome",
    "RecoveryResult",
]


# ======================================================================
# The shared campaign pipeline.
# ======================================================================
def _resolve_factory(factory) -> SimulatorFactory:
    """Accept a simulator factory or anything carrying one.

    A :class:`~repro.targets.TargetSystem` (or any object with a
    callable ``simulator_factory`` attribute) stands in for its
    factory, so campaigns can be pointed at a registered target
    directly.
    """
    if not callable(factory):
        simulator_factory = getattr(factory, "simulator_factory", None)
        if callable(simulator_factory):
            return simulator_factory
        raise CampaignError(
            f"factory must be callable or provide a simulator_factory, "
            f"got {factory!r}"
        )
    return factory


def _resolve_test_cases(
    factory,
    test_cases: Optional[Sequence[TestCase]],
    config: Optional[CampaignConfig],
) -> List[TestCase]:
    if test_cases is None and config is not None:
        test_cases = config.test_cases
    if test_cases is None and not callable(factory):
        default_cases = getattr(factory, "standard_test_cases", None)
        if callable(default_cases):
            test_cases = default_cases()
    if not test_cases:
        raise CampaignError("at least one test case is required")
    return list(test_cases)


def _target_label(factory) -> str:
    name = getattr(factory, "name", None)
    if isinstance(name, str):
        return name
    return getattr(factory, "__qualname__", type(factory).__name__)


class _Campaign:
    """Constructor plumbing and run-time attributes of every driver."""

    def __init__(
        self,
        factory,
        test_cases: Optional[Sequence[TestCase]],
        seed: Optional[int],
        config: Optional[CampaignConfig],
    ):
        self.factory = _resolve_factory(factory)
        self.test_cases = _resolve_test_cases(factory, test_cases, config)
        if seed is None:
            seed = config.seed if config is not None else 2002
        self.seed = seed
        self.rng = random.Random(self.seed)
        self.config = config
        self._target = _target_label(factory)
        self.goldens = golden_cache.store_for(self._target, self.factory)
        self.telemetry: Optional[CampaignTelemetry] = None
        self.integrity_violations: List[IntegrityViolation] = []
        #: per-stratum spend reports (adaptive campaigns only).
        self.stratum_reports: List[StratumReport] = []


def _runs_budget(config: Optional[CampaignConfig], runs: int) -> int:
    """Per-stratum budget: ``max_runs`` caps adaptive campaigns."""
    if config is not None and config.sampling.enabled:
        return config.sampling.max_runs or runs
    return runs


def _strata(labels: Sequence[str], runs: int) -> List[AdaptiveStratum]:
    """One stratum of *runs* consecutive tasks per label, in order."""
    return [
        AdaptiveStratum(
            label=label, indices=tuple(range(i * runs, (i + 1) * runs))
        )
        for i, label in enumerate(labels)
    ]


@dataclass
class _CampaignPlan:
    """One campaign's pre-drawn work, as :func:`_execute` runs it.

    ``one_run(task, ff)`` is the pure per-run function.  A plan
    without a fast-forward handle (``ff`` is ``None``) records no
    checkpoint tracks and is never audited; its ``one_run`` gets
    ``None``.  ``case_of``/``tick_of`` tell the track preload which
    test case a task runs and at which tick its injection starts.
    ``wrap`` holds the kind-specific :func:`wrap_runner` arguments.
    ``strata``/``counts_of`` allow adaptive dispatch.  ``layout`` is
    what the driver's aggregation needs besides the results.
    """

    tasks: List[Tuple]
    one_run: Callable[[Tuple, Optional[FastForward]], Any]
    fingerprint: List[Any]
    ff: Optional[FastForward] = None
    case_of: Optional[Callable[[Tuple], TestCase]] = None
    tick_of: Optional[Callable[[Tuple], int]] = None
    wrap: Dict[str, Any] = field(default_factory=dict)
    strata: Optional[List[AdaptiveStratum]] = None
    counts_of: Optional[Callable] = None
    layout: Any = None


def _preload_tracks(plan: _CampaignPlan) -> None:
    """Record the checkpoint tracks a plan's tasks will need, up front.

    Runs in the campaign's serial phase — before the process pool
    forks — so workers inherit the tracks through copy-on-write
    instead of each recording their own.
    """
    needed: Dict[int, Any] = {}
    for task in plan.tasks:
        if plan.ff.wants_track(plan.tick_of(task)):
            test_case = plan.case_of(task)
            needed.setdefault(test_case.case_id, test_case)
    plan.ff.preload(list(needed.values()))


def _execute(
    campaign: _Campaign,
    kind: str,
    build: Callable[[Any], _CampaignPlan],
) -> Tuple[_CampaignPlan, List[Any]]:
    """The pipeline every driver's ``run()`` goes through.

    ``build(system)`` pre-draws the plan.  It runs after the executor
    is constructed, so the executor's telemetry window covers the
    golden runs the pre-draw computes.  Then the plan's checkpoint
    tracks are preloaded, each run is audit-wrapped and (with
    ``batch_width`` > 0) batched, and the tasks are dispatched —
    through an :class:`AdaptiveSampler` when the config asks for it
    and the plan has strata.  Telemetry, integrity violations and
    stratum reports land on *campaign*.  The executor and the wrapped
    runner are closed on every exit path.  Returns the plan and its
    results in task order.
    """
    config = campaign.config
    executor = CampaignExecutor(config, campaign=kind)
    runner = None
    try:
        plan = build(campaign.factory(campaign.test_cases[0]).system)
        tasks = plan.tasks
        if plan.ff is not None:
            _preload_tracks(plan)
        # a sampled audit replay re-checks fast-forwarded runs; without
        # a fast-forward handle the auditor runs each task once, as is
        auditor = RunAuditor(plan.ff, config, campaign=kind)

        def runner(index: int) -> Any:
            task = tasks[index]
            return auditor.run(index, lambda ff: plan.one_run(task, ff))

        # batch_width > 0: answer contiguous task spans from the
        # vectorized core (bit-identical; see repro.fi.vector)
        runner = wrap_runner(
            kind, runner, tasks, config, campaign.factory,
            auditor=auditor, **plan.wrap,
        )
        fingerprint = fingerprint_of(*plan.fingerprint)
        # the drift sentinel guards every pool worker, audited or not
        sentinel = golden_sentinel(campaign.factory, campaign.test_cases[0])
        if (
            plan.strata is not None
            and config is not None
            and config.sampling.enabled
        ):
            dispatcher = AdaptiveSampler(
                executor,
                plan.strata,
                plan.counts_of,
                rule=stopping_rule_from(config),
                min_batch=config.sampling.min_batch,
            )
            results = dispatcher.run(
                runner, len(tasks), fingerprint, sentinel=sentinel
            )
            campaign.stratum_reports = list(dispatcher.reports)
        else:
            dispatcher = executor
            results = executor.run_tasks(
                runner, len(tasks), fingerprint, sentinel=sentinel
            )
            campaign.stratum_reports = []
        campaign.telemetry = dispatcher.telemetry
        campaign.integrity_violations = list(dispatcher.violations)
    finally:
        executor.close()
        close_runner(runner)
    return plan, results


def _collect_failures(results: Sequence[Any]) -> List[TaskFailure]:
    """The quarantined tasks of an executor result list.

    Aggregation loops skip :class:`TaskFailure` entries (a quarantined
    run contributes no observation — it is neither an active error nor
    an inactive one) and surface them on the campaign result, so a
    faulty campaign completes with the surviving runs while the losses
    stay accounted for.  With no faults the list is empty and results
    are bit-identical to a serial run.
    """
    return [r for r in results if isinstance(r, TaskFailure)]


# ======================================================================
# Permeability estimation (Table 1).
# ======================================================================
@dataclass
class PermeabilityEstimate:
    """Raw counts and derived estimates for all pairs of one system."""

    #: (module, in_port, out_port) -> direct-error count
    direct_counts: Dict[Tuple[str, str, str], int]
    #: (module, in_port) -> active (injected) run count
    active_runs: Dict[Tuple[str, str], int]
    #: (module, in_port, out_port) -> estimated permeability
    values: Dict[Tuple[str, str, str], float]
    #: quarantined runs (empty on a fault-free campaign)
    task_failures: List[TaskFailure] = field(default_factory=list)

    def value(self, module: str, in_port: str, out_port: str) -> float:
        try:
            return self.values[(module, in_port, out_port)]
        except KeyError:
            raise CampaignError(
                f"no permeability estimated for "
                f"{module}.{in_port}->{out_port}"
            ) from None


class PermeabilityCampaign(_Campaign):
    """Estimate error permeabilities by module-input fault injection.

    For each module input port, ``runs_per_input`` injection runs are
    performed, cycling over the test cases.  Each run flips one
    uniformly chosen bit of the input value at one uniformly chosen
    invocation within the golden run's duration.  Only *direct* output
    errors are counted (Section 5.3).
    """

    def __init__(
        self,
        factory: SimulatorFactory,
        test_cases: Optional[Sequence[TestCase]] = None,
        runs_per_input: int = 32,
        seed: Optional[int] = None,
        direct_only: bool = True,
        config: Optional[CampaignConfig] = None,
        modules: Optional[Sequence[str]] = None,
    ):
        """*direct_only* selects the paper's accounting (Section 5.3:
        count only direct output errors, excluding errors that left
        through another output and came back).  Setting it to False
        counts every first difference — the ablation of design
        decision D2 in DESIGN.md.

        *modules* restricts injection to the named modules (the
        compositional-reuse path of ``repro.place.cache``: only
        modules whose fingerprint changed are re-injected).  ``None``
        injects every module.  A restricted campaign still draws every
        module's parameters, so each kept module's runs are exactly
        those of the full campaign.  The restriction is part of the
        campaign fingerprint, so restricted and full campaigns never
        share checkpoints."""
        if runs_per_input <= 0:
            raise CampaignError(
                f"runs_per_input must be positive, got {runs_per_input}"
            )
        super().__init__(factory, test_cases, seed, config)
        self.runs_per_input = runs_per_input
        self.direct_only = direct_only
        self.modules = tuple(modules) if modules is not None else None
        self._ff = FastForward(self.factory, self._target, config=config)

    def run(self) -> PermeabilityEstimate:
        plan, results = _execute(self, "permeability", self._plan)
        out_ports: Dict[Tuple[str, str], Tuple[str, ...]] = plan.layout
        direct: Dict[Tuple[str, str, str], int] = {}
        active: Dict[Tuple[str, str], int] = {}
        for (module, in_port), outputs in out_ports.items():
            active[(module, in_port)] = 0
            for out_port in outputs:
                direct[(module, in_port, out_port)] = 0
        for (module, in_port, *_), hits in zip(plan.tasks, results):
            if (
                hits is None
                or hits is SKIPPED
                or isinstance(hits, TaskFailure)
            ):
                continue
            active[(module, in_port)] += 1
            for out_port in hits:
                direct[(module, in_port, out_port)] += 1
        values = {
            (m, i, k): (
                direct[(m, i, k)] / active[(m, i)] if active[(m, i)] else 0.0
            )
            for (m, i, k) in direct
        }
        return PermeabilityEstimate(
            direct_counts=direct,
            active_runs=active,
            values=values,
            task_failures=_collect_failures(results),
        )

    def _plan(self, system) -> _CampaignPlan:
        if self.modules is not None:
            known = {module.name for module in system.modules()}
            unknown = [m for m in self.modules if m not in known]
            if unknown:
                raise CampaignError(
                    f"unknown modules {unknown}; "
                    f"system has {sorted(known)}"
                )
        runs_budget = _runs_budget(self.config, self.runs_per_input)
        # Pre-draw every random parameter in the legacy serial loop
        # order (module -> in_port -> run_index), for every module:
        # a restricted campaign drops the other modules' tasks only
        # after drawing them.  The adaptive path pre-draws the
        # identical full-budget list — a stopped stratum simply never
        # dispatches its tail.
        out_ports: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        tasks: List[Tuple[str, str, TestCase, int, int]] = []
        for module in system.modules():
            kept = self.modules is None or module.name in self.modules
            for in_port in module.inputs:
                signal = system.signal_of_input(module.name, in_port)
                width = system.signal(signal).width
                drawn = []
                for run_index in range(runs_budget):
                    test_case = self.test_cases[
                        run_index % len(self.test_cases)
                    ]
                    golden = self.goldens.get(test_case)
                    from_tick = self.rng.randrange(0, golden.completion_tick)
                    bit = self.rng.randrange(0, width)
                    drawn.append(
                        (module.name, in_port, test_case, from_tick, bit)
                    )
                if kept:
                    out_ports[(module.name, in_port)] = tuple(module.outputs)
                    tasks.extend(drawn)

        ports_of = {
            f"{m}.{i}": outputs for (m, i), outputs in out_ports.items()
        }

        def counts_of(stratum, executed):
            active_n = 0
            hits_per_port = {port: 0 for port in ports_of[stratum.label]}
            for hits in executed:
                if hits is None or isinstance(hits, TaskFailure):
                    continue
                active_n += 1
                for out_port in hits:
                    hits_per_port[out_port] += 1
            return {
                port: (count, active_n)
                for port, count in hits_per_port.items()
            }

        fingerprint = [
            "permeability", system.name, self.seed,
            runs_budget, self.direct_only,
            [case.label for case in self.test_cases],
        ]
        if self.modules is not None:
            # tagged, so checkpoints of restricted campaigns that drew
            # only their own modules' parameters never resume
            fingerprint.append(["modules", *sorted(self.modules)])
        return _CampaignPlan(
            tasks=tasks,
            one_run=lambda task, ff: self._one_run(*task, ff=ff),
            fingerprint=fingerprint,
            ff=self._ff,
            case_of=lambda task: task[2],
            tick_of=lambda task: task[3],
            wrap={"goldens": self.goldens, "direct_only": self.direct_only},
            strata=_strata(list(ports_of), runs_budget),
            counts_of=counts_of,
            layout=out_ports,
        )

    def _one_run(
        self,
        module: str,
        in_port: str,
        test_case: TestCase,
        from_tick: int,
        bit: int,
        ff: Optional[FastForward] = None,
    ) -> Optional[List[str]]:
        """One injection run; returns output ports hit directly.

        ``None`` means the injection never became active (the flip was
        not applied before the run ended).  *ff* overrides the
        campaign's fast-forward handle (the audit replay passes a
        disabled twin to force a full run from tick 0).
        """
        golden = self.goldens.get(test_case)
        engine = ff if ff is not None else self._ff
        simulator, _, arm = engine.launch(test_case, from_tick)
        mod = simulator.system.module(module)
        injector = FaultInjector(
            ModuleInputFlip(module, in_port, from_tick, bit)
        ).attach(simulator)
        log = InvocationLog([module]).attach(simulator)
        # a fast-forwarded run never executed the prefix, so seed its
        # log with the golden invocations before the resume tick to
        # keep the lock-step comparison aligned
        log.prime(golden.invocations, simulator.executor.tick)
        arm(injector)
        result = simulator.run()
        if not injector.injected:
            return None
        completed = result.completion_tick
        if (
            completed is not None
            and injector.first_injection_tick is not None
            and injector.first_injection_tick > completed
        ):
            return None
        differences = first_output_differences(
            golden.invocations.stream(module),
            log.stream(module),
            mod.inputs,
            mod.outputs,
            in_port,
        )
        return [
            diff.out_port
            for diff in differences.values()
            if diff.direct or not self.direct_only
        ]


# ======================================================================
# Detection under the input error model (Table 4).
# ======================================================================
@dataclass(frozen=True)
class LatencyStats:
    """Detection-latency summary over a set of detections (in ticks)."""

    count: int
    mean: float
    median: float
    maximum: int

    @classmethod
    def from_samples(cls, samples: Sequence[int]) -> "LatencyStats":
        if not samples:
            return cls(0, 0.0, 0.0, 0)
        ordered = sorted(samples)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            median = float(ordered[mid])
        else:
            median = (ordered[mid - 1] + ordered[mid]) / 2.0
        return cls(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            median=median,
            maximum=ordered[-1],
        )


@dataclass
class DetectionResult:
    """Outcome of one :class:`DetectionCampaign`.

    ``n_err`` counts *active* errors per targeted signal; per-EA
    detections only count firings at or after the injection tick.
    ``run_latencies`` records, for each detecting EA of each active
    run, the detection latency in ticks (first firing minus injection
    tick) — the second axis, besides coverage, on which EDM sets are
    compared in the literature (the paper's reference [18]).
    """

    targets: List[str]
    ea_names: List[str]
    n_injected: Dict[str, int]
    n_err: Dict[str, int]
    #: (target signal, ea name) -> detection count
    detections: Dict[Tuple[str, str], int]
    #: target signal -> runs where at least one EA of the bank fired
    any_detections: Dict[str, int]
    #: target signal -> per-run fired-EA name sets (for set coverages)
    run_records: Dict[str, List[frozenset]]
    #: target signal -> per-run {ea name -> latency in ticks}
    run_latencies: Dict[str, List[Dict[str, int]]] = field(
        default_factory=dict
    )
    #: quarantined runs (empty on a fault-free campaign)
    task_failures: List[TaskFailure] = field(default_factory=list)

    def latency_stats(
        self,
        target: Optional[str] = None,
        ea_subset: Optional[Iterable[str]] = None,
    ) -> LatencyStats:
        """Latency of the *first* detection per run, over the chosen
        targets and EA subset."""
        subset = frozenset(ea_subset) if ea_subset is not None else None
        samples: List[int] = []
        targets = [target] if target is not None else self.targets
        for name in targets:
            for per_run in self.run_latencies.get(name, []):
                relevant = [
                    latency
                    for ea, latency in per_run.items()
                    if subset is None or ea in subset
                ]
                if relevant:
                    samples.append(min(relevant))
        return LatencyStats.from_samples(samples)

    def coverage(self, target: str, ea_name: str) -> float:
        n = self.n_err.get(target, 0)
        return self.detections.get((target, ea_name), 0) / n if n else 0.0

    def total_coverage(
        self, target: str, ea_subset: Optional[Iterable[str]] = None
    ) -> float:
        """Combined coverage of an EA subset for one target signal."""
        n = self.n_err.get(target, 0)
        if not n:
            return 0.0
        if ea_subset is None:
            return self.any_detections.get(target, 0) / n
        subset = frozenset(ea_subset)
        hits = sum(
            1 for fired in self.run_records[target] if fired & subset
        )
        return hits / n

    def combined(
        self, ea_subset: Optional[Iterable[str]] = None
    ) -> Dict[str, float]:
        """Per-EA (or subset-total) coverage over *all* targets (row "All")."""
        total_err = sum(self.n_err.values())
        if not total_err:
            return {"total": 0.0}
        if ea_subset is None:
            per_ea = {
                ea: sum(
                    self.detections.get((t, ea), 0) for t in self.targets
                ) / total_err
                for ea in self.ea_names
            }
            per_ea["total"] = (
                sum(self.any_detections.values()) / total_err
            )
            return per_ea
        subset = frozenset(ea_subset)
        hits = sum(
            1
            for target in self.targets
            for fired in self.run_records[target]
            if fired & subset
        )
        return {"total": hits / total_err}


class DetectionCampaign(_Campaign):
    """Measure EA detection coverage for errors at the system inputs.

    Every run: one transient bit flip in one system input signal at a
    uniformly chosen tick within the golden run's duration; the full
    EA bank monitors passively, so any EA-set's coverage can be
    derived from one campaign.
    """

    def __init__(
        self,
        factory: SimulatorFactory,
        test_cases: Optional[Sequence[TestCase]] = None,
        assertion_specs: Sequence[AssertionSpec] = (),
        runs_per_signal: int = 80,
        targets: Optional[Sequence[str]] = None,
        seed: Optional[int] = None,
        config: Optional[CampaignConfig] = None,
    ):
        if runs_per_signal <= 0:
            raise CampaignError(
                f"runs_per_signal must be positive, got {runs_per_signal}"
            )
        super().__init__(factory, test_cases, seed, config)
        self.specs = list(assertion_specs)
        self.runs_per_signal = runs_per_signal
        self.targets = list(targets) if targets is not None else None
        self._ff = FastForward(
            self.factory, self._target, config=config,
            bank_specs=self.specs,
        )

    def run(self) -> DetectionResult:
        plan, results = _execute(self, "detection", self._plan)
        targets: List[str] = plan.layout
        n_injected: Dict[str, int] = {t: 0 for t in targets}
        n_err: Dict[str, int] = {t: 0 for t in targets}
        detections: Dict[Tuple[str, str], int] = {}
        any_detections: Dict[str, int] = {t: 0 for t in targets}
        run_records: Dict[str, List[frozenset]] = {t: [] for t in targets}
        run_latencies: Dict[str, List[Dict[str, int]]] = {
            t: [] for t in targets
        }
        for (target, _, _, _), outcome in zip(plan.tasks, results):
            if outcome is SKIPPED or isinstance(outcome, TaskFailure):
                continue  # skipped or quarantined: no observation
            n_injected[target] += 1
            if not isinstance(outcome, dict):
                continue  # "inactive" / "late": injection not an error
            fired = frozenset(outcome["fired"])
            n_err[target] += 1
            run_records[target].append(fired)
            run_latencies[target].append(
                {ea: int(lat) for ea, lat in outcome["latencies"].items()}
            )
            if fired:
                any_detections[target] += 1
            for ea in fired:
                key = (target, ea)
                detections[key] = detections.get(key, 0) + 1
        return DetectionResult(
            targets=targets,
            ea_names=[spec.name for spec in self.specs],
            n_injected=n_injected,
            n_err=n_err,
            detections=detections,
            any_detections=any_detections,
            run_records=run_records,
            run_latencies=run_latencies,
            task_failures=_collect_failures(results),
        )

    def _plan(self, system) -> _CampaignPlan:
        targets = list(
            self.targets
            if self.targets is not None
            else system.system_inputs()
        )
        runs_budget = _runs_budget(self.config, self.runs_per_signal)
        # pre-draw (target -> run_index), legacy order
        tasks: List[Tuple[str, TestCase, int, int]] = []
        for target in targets:
            width = system.signal(target).width
            for run_index in range(runs_budget):
                test_case = self.test_cases[run_index % len(self.test_cases)]
                golden = self.goldens.get(test_case)
                tick = self.rng.randrange(0, golden.completion_tick)
                bit = self.rng.randrange(0, width)
                tasks.append((target, test_case, tick, bit))

        def counts_of(stratum, executed):
            # monitored proportion: any-EA detection coverage over
            # the *active* errors (dict outcomes) of the stratum
            active_n = 0
            detected = 0
            for outcome in executed:
                if not isinstance(outcome, dict):
                    continue
                active_n += 1
                if outcome["fired"]:
                    detected += 1
            return {"coverage": (detected, active_n)}

        return _CampaignPlan(
            tasks=tasks,
            one_run=lambda task, ff: self._one_run(*task, ff=ff),
            fingerprint=[
                "detection", system.name, self.seed,
                runs_budget, targets, [spec.name for spec in self.specs],
                [case.label for case in self.test_cases],
            ],
            ff=self._ff,
            case_of=lambda task: task[1],
            tick_of=lambda task: task[2],
            wrap={"specs": self.specs},
            strata=_strata(targets, runs_budget),
            counts_of=counts_of,
            layout=targets,
        )

    def _one_run(
        self,
        target: str,
        test_case: TestCase,
        tick: int,
        bit: int,
        ff: Optional[FastForward] = None,
    ) -> Any:
        """One injection run; JSON-encodable outcome.

        ``"inactive"``: flip never applied; ``"late"``: applied after
        completion (not an error); otherwise a dict with the fired EA
        names and their latencies.  *ff* overrides the campaign's
        fast-forward handle (the audit replay passes a disabled twin).
        """
        engine = ff if ff is not None else self._ff
        simulator, bank, arm = engine.launch(test_case, tick)
        injector = FaultInjector(
            InputSignalFlip(target, tick, bit)
        ).attach(simulator)
        arm(injector)
        result = simulator.run()
        if not injector.injected:
            return "inactive"
        completed = result.completion_tick
        if completed is not None and tick > completed:
            return "late"
        fired = sorted(bank.fired_eas(after_tick=tick))
        latencies: Dict[str, int] = {}
        for ea in fired:
            first = bank.state(ea).first_fire_tick
            if first is not None:
                latencies[ea] = first - tick
        return {"fired": fired, "latencies": latencies}


# ======================================================================
# The harsher, periodic memory error model (Fig. 3).
# ======================================================================
@dataclass(frozen=True)
class CoverageTriple:
    """The paper's Fig. 3 measures for one bar group."""

    c_tot: float
    c_fail: float
    c_nofail: float
    n_runs: int
    n_fail: int


@dataclass
class MemoryRunRecord:
    """One memory-model run: where, what fired, and the verdict."""

    region: Region
    location_label: str
    fired: frozenset
    failed: bool


@dataclass
class MemoryCampaignResult:
    """Outcome of one :class:`MemoryCampaign`."""

    records: List[MemoryRunRecord]
    ea_names: List[str]
    #: quarantined runs (empty on a fault-free campaign)
    task_failures: List[TaskFailure] = field(default_factory=list)

    def coverage(
        self,
        ea_subset: Iterable[str],
        region: Optional[Region] = None,
    ) -> CoverageTriple:
        """``c_tot`` / ``c_fail`` / ``c_nofail`` of an EA set.

        With *region* given, restrict to errors injected into that
        area (the RAM / Stack bar groups of Fig. 3); otherwise compute
        the Total group.
        """
        subset = frozenset(ea_subset)
        rows = [
            r for r in self.records
            if region is None or r.region is region
        ]
        if not rows:
            return CoverageTriple(0.0, 0.0, 0.0, 0, 0)
        fail_rows = [r for r in rows if r.failed]
        nofail_rows = [r for r in rows if not r.failed]

        def cov(selection: List[MemoryRunRecord]) -> float:
            if not selection:
                return 0.0
            return sum(1 for r in selection if r.fired & subset) / len(
                selection
            )

        return CoverageTriple(
            c_tot=cov(rows),
            c_fail=cov(fail_rows),
            c_nofail=cov(nofail_rows),
            n_runs=len(rows),
            n_fail=len(fail_rows),
        )


def _memory_model_tasks(campaign, system, rng: random.Random):
    """The pre-draw shared by the memory and recovery campaigns.

    One ``(location, test case, bit, phase)`` task per pair, drawn in
    (location -> test case) order, plus the fingerprint parts common
    to both campaigns.
    """
    locations = (
        campaign._locations
        if campaign._locations is not None
        else MemoryMap(system).locations()
    )
    tasks: List[Tuple[MemoryLocation, TestCase, int, int]] = []
    for location in locations:
        for test_case in campaign.test_cases:
            bit = rng.randrange(0, location.valid_bits)
            # random phase within the period: the injection train
            # must not be systematically aligned with the slot
            # schedule, or flips into producer-rewritten stores
            # would always be overwritten before anyone reads them
            phase = rng.randrange(0, campaign.period_ticks)
            tasks.append((location, test_case, bit, phase))
    fingerprint = [
        system.name, campaign.seed, campaign.period_ticks,
        [spec.name for spec in campaign.specs],
        [location.label for location in locations],
        [case.label for case in campaign.test_cases],
    ]
    return tasks, fingerprint


# ======================================================================
# Recovery (ERM) effectiveness under the memory error model.
# ======================================================================
@dataclass(frozen=True)
class RecoveryOutcome:
    """One location+test-case pair, run twice: detect-only vs wrapped."""

    region: Region
    location_label: str
    detected: bool
    baseline_failed: bool
    recovered_failed: bool
    recovery_actions: int


@dataclass
class RecoveryResult:
    """Outcome of one :class:`RecoveryCampaign`."""

    outcomes: List[RecoveryOutcome]
    #: quarantined runs (empty on a fault-free campaign)
    task_failures: List[TaskFailure] = field(default_factory=list)

    def failure_rate(
        self, with_recovery: bool, region: Optional[Region] = None
    ) -> float:
        rows = [
            o for o in self.outcomes
            if region is None or o.region is region
        ]
        if not rows:
            return 0.0
        failed = sum(
            1 for o in rows
            if (o.recovered_failed if with_recovery else o.baseline_failed)
        )
        return failed / len(rows)

    def failures_prevented(self, region: Optional[Region] = None) -> int:
        return sum(
            1 for o in self.outcomes
            if (region is None or o.region is region)
            and o.baseline_failed
            and not o.recovered_failed
        )

    def failures_introduced(self, region: Optional[Region] = None) -> int:
        """Runs where containment made things worse (possible: a
        recovery substitution is itself a disturbance)."""
        return sum(
            1 for o in self.outcomes
            if (region is None or o.region is region)
            and not o.baseline_failed
            and o.recovered_failed
        )


class RecoveryCampaign(_Campaign):
    """Measure the effect of containment wrappers (ERMs) at the
    EA-guarded signals under the harsher error model.

    Each (location, test case) pair runs twice with the identical
    injection train: once with a detect-only bank (the paper's
    experiments) and once with a :class:`RecoveringMonitorBank`; the
    failure verdicts are compared.

    The campaign enumerates its fault space exhaustively (one run per
    pair), so the adaptive-sampling options of
    :class:`~repro.fi.executor.CampaignConfig` do not apply and are
    ignored.
    """

    def __init__(
        self,
        factory: SimulatorFactory,
        test_cases: Optional[Sequence[TestCase]] = None,
        assertion_specs: Sequence[AssertionSpec] = (),
        locations: Optional[Sequence[MemoryLocation]] = None,
        period_ticks: int = DEFAULT_PERIOD_TICKS,
        seed: Optional[int] = None,
        policies=None,
        config: Optional[CampaignConfig] = None,
    ):
        super().__init__(factory, test_cases, seed, config)
        self.specs = list(assertion_specs)
        self.period_ticks = period_ticks
        self.policies = policies
        self._locations = list(locations) if locations is not None else None

    def run(self) -> RecoveryResult:
        plan, results = _execute(self, "recovery", self._plan)
        outcomes: List[RecoveryOutcome] = []
        for (location, _, _, _), outcome in zip(plan.tasks, results):
            if outcome is None or isinstance(outcome, TaskFailure):
                continue
            outcomes.append(
                RecoveryOutcome(
                    region=location.region,
                    location_label=location.label,
                    detected=bool(outcome["detected"]),
                    baseline_failed=bool(outcome["baseline_failed"]),
                    recovered_failed=bool(outcome["recovered_failed"]),
                    recovery_actions=int(outcome["recovery_actions"]),
                )
            )
        return RecoveryResult(
            outcomes=outcomes,
            task_failures=_collect_failures(results),
        )

    def _plan(self, system) -> _CampaignPlan:
        # every run() redraws from the seed; no fast-forward (and so no
        # track preload or audit replay), see _one_run
        tasks, fingerprint = _memory_model_tasks(
            self, system, random.Random(self.seed)
        )
        return _CampaignPlan(
            tasks=tasks,
            one_run=lambda task, ff: self._one_run(*task),
            fingerprint=["recovery", *fingerprint, self.policies],
            wrap={
                "specs": self.specs,
                "policies": self.policies,
                "period_ticks": self.period_ticks,
            },
        )

    def _one_run(
        self,
        location: MemoryLocation,
        test_case: TestCase,
        bit: int,
        phase: int,
    ) -> Optional[Dict[str, Any]]:
        from repro.edm.recovery import RecoveringMonitorBank

        # no fast-forward here: the recovering bank rewrites store
        # values (the run is not a pure function of the golden prefix),
        # and the periodic injection starts within the first period
        # anyway, so there is no redundant prefix to skip
        spec = PeriodicMemoryFlip(
            location, bit,
            period_ticks=self.period_ticks, start_tick=phase,
        )

        baseline_sim = self.factory(test_case)
        baseline_sim.record_traces = False
        baseline_inj = FaultInjector(spec).attach(baseline_sim)
        baseline_bank = MonitorBank(self.specs).attach(baseline_sim)
        baseline = baseline_sim.run()

        wrapped_sim = self.factory(test_case)
        wrapped_sim.record_traces = False
        FaultInjector(spec).attach(wrapped_sim)
        wrapped_bank = RecoveringMonitorBank(
            self.specs, policies=self.policies
        ).attach(wrapped_sim)
        wrapped = wrapped_sim.run()

        if not baseline_inj.injected:
            return None
        return {
            "detected": bool(baseline_bank.fired_eas()),
            "baseline_failed": baseline.verdict.failed,
            "recovered_failed": wrapped.verdict.failed,
            "recovery_actions": wrapped_bank.recovery_count,
        }


class MemoryCampaign(_Campaign):
    """Periodic bit flips into RAM and stack locations (Section 7).

    Enumerates (a subset of) the memory map's locations; for each
    location, one run per test case with a random bit of the
    location's byte, flipped every ``period_ticks`` for the entire
    arrestment.  An error is detected if an EA fires at least once
    during the run.

    The campaign enumerates its fault space exhaustively (one run per
    (location, test case) pair), so the adaptive-sampling options of
    :class:`~repro.fi.executor.CampaignConfig` do not apply and are
    ignored.
    """

    def __init__(
        self,
        factory: SimulatorFactory,
        test_cases: Optional[Sequence[TestCase]] = None,
        assertion_specs: Sequence[AssertionSpec] = (),
        locations: Optional[Sequence[MemoryLocation]] = None,
        period_ticks: int = DEFAULT_PERIOD_TICKS,
        seed: Optional[int] = None,
        config: Optional[CampaignConfig] = None,
    ):
        super().__init__(factory, test_cases, seed, config)
        self.specs = list(assertion_specs)
        self.period_ticks = period_ticks
        self._locations = list(locations) if locations is not None else None
        # periodic flips never quiesce, so only the prefix before the
        # first period boundary can be skipped; with the default period
        # (20 ticks) every phase lands before the first checkpoint and
        # the engine stays entirely out of the way
        self._ff = FastForward(
            self.factory, self._target, config=config,
            bank_specs=self.specs, resync=False,
        )

    def run(self) -> MemoryCampaignResult:
        plan, results = _execute(self, "memory", self._plan)
        records: List[MemoryRunRecord] = []
        for (location, _, _, _), outcome in zip(plan.tasks, results):
            if outcome is None or isinstance(outcome, TaskFailure):
                continue
            records.append(
                MemoryRunRecord(
                    region=location.region,
                    location_label=location.label,
                    fired=frozenset(outcome["fired"]),
                    failed=bool(outcome["failed"]),
                )
            )
        return MemoryCampaignResult(
            records=records,
            ea_names=[spec.name for spec in self.specs],
            task_failures=_collect_failures(results),
        )

    def _plan(self, system) -> _CampaignPlan:
        # only runs that actually fast-forwarded are ever audited
        tasks, fingerprint = _memory_model_tasks(self, system, self.rng)
        return _CampaignPlan(
            tasks=tasks,
            one_run=lambda task, ff: self._one_run(*task, ff=ff),
            fingerprint=["memory", *fingerprint],
            ff=self._ff,
            case_of=lambda task: task[1],
            tick_of=lambda task: task[3],
            wrap={"specs": self.specs, "period_ticks": self.period_ticks},
        )

    def _one_run(
        self,
        location: MemoryLocation,
        test_case: TestCase,
        bit: int,
        phase: int,
        ff: Optional[FastForward] = None,
    ) -> Optional[Dict[str, Any]]:
        engine = ff if ff is not None else self._ff
        simulator, bank, _ = engine.launch(test_case, phase)
        injector = FaultInjector(
            PeriodicMemoryFlip(
                location,
                bit,
                period_ticks=self.period_ticks,
                start_tick=phase,
            )
        ).attach(simulator)
        result = simulator.run()
        if not injector.injected:
            return None
        return {
            "fired": sorted(bank.fired_eas()),
            "failed": result.verdict.failed,
        }
