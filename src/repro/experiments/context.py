"""Shared context for the paper experiments.

An :class:`ExperimentContext` fixes the target system, the workload
scale (how many test cases, injection runs and memory locations), the
random seed, and the execution options (worker count, checkpointing),
and caches the expensive fault-injection campaigns so that the
analytic experiments (Tables 2, 5, the profiles, the extended
selection) reuse the Table-1 campaign instead of re-running it.

Scales
------
``test``
    Minimal workload for the unit/integration test suite.
``bench``
    Default for the benchmark harness: large enough that the paper's
    qualitative shape is reproduced, small enough to run in minutes.
``full``
    Full-envelope campaigns over all 25 test cases (slowest).

The environment variable ``REPRO_SCALE`` overrides the default scale
used by the benchmarks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.core.permeability import PermeabilityMatrix
from repro.analysis.estimators import matrix_from_estimate
from repro.errors import ExperimentError
from repro.fi.adaptive import StratumReport
from repro.fi.campaign import (
    DetectionCampaign,
    DetectionResult,
    MemoryCampaign,
    MemoryCampaignResult,
    PermeabilityCampaign,
    PermeabilityEstimate,
)
from repro.fi.executor import (
    BACKENDS,
    AdaptivePolicy,
    CampaignConfig,
    CampaignTelemetry,
    CheckpointPolicy,
    FastForwardPolicy,
    FaultTolerancePolicy,
    IntegrityPolicy,
    VectorPolicy,
)
from repro.fi.store import STORE_BACKENDS, SqliteResultStore
from repro.fi.memory import MemoryMap
from repro.model.graph import SignalGraph
from repro.target.simulation import ArrestmentSimulator
from repro.target.testcases import TestCase
from repro.targets import TargetSystem, get_target

__all__ = ["ScaleConfig", "SCALES", "ExperimentContext", "default_scale"]


@dataclass(frozen=True)
class ScaleConfig:
    """Workload sizing of one scale."""

    name: str
    #: stride over the 25 standard test cases (1 = all)
    test_case_stride: int
    #: permeability campaign: injection runs per module input
    runs_per_input: int
    #: detection campaign: injection runs per system input signal
    runs_per_signal: int
    #: memory campaign: stride over memory locations (1 = all)
    location_stride: int
    #: memory campaign: stride over the context's test cases
    memory_case_stride: int


SCALES: Dict[str, ScaleConfig] = {
    "test": ScaleConfig("test", 12, 6, 10, 9, 3),
    "bench": ScaleConfig("bench", 6, 16, 36, 3, 2),
    "full": ScaleConfig("full", 1, 80, 400, 1, 1),
}


def default_scale() -> str:
    """Scale selected by ``REPRO_SCALE`` (default: ``bench``)."""
    scale = os.environ.get("REPRO_SCALE", "bench")
    if scale not in SCALES:
        raise ExperimentError(
            f"REPRO_SCALE must be one of {sorted(SCALES)}, got {scale!r}"
        )
    return scale


class ExperimentContext:
    """Caches campaigns and derived artefacts for one target + scale
    + seed.

    *target* is a registered target name or a
    :class:`~repro.targets.TargetSystem` (default: the paper's
    arrestment system).  *jobs* > 1 runs the campaigns on a process
    pool; *backend* pins the execution backend (``serial`` or
    ``process``; ``None`` derives it from *jobs*); *checkpoint_dir*
    enables checkpointing of partially completed campaigns, and
    *resume* picks existing checkpoints up instead of starting
    fresh.

    Fault-tolerance knobs: *task_timeout* bounds each injection run's
    wall clock, *retries* bounds the attempts a failing task gets
    before quarantine (``None`` keeps the executor default), and
    *event_log* appends a JSONL record of run events (shared by all
    campaigns of the context; each record carries its campaign name).

    Fast-forward knobs: *fast_forward* toggles the snapshot engine
    (golden checkpoints + prefix skipping + resynchronization; results
    are bit-identical either way), *checkpoint_stride* sets the
    distance between golden checkpoints in ticks (``None`` keeps the
    engine default), and *track_pool* flattens golden tracks into
    shared-memory columns pre-fork so checkpoint restores read out of
    shared segments (bit-identical either way).

    Integrity knobs: *audit_fraction* re-executes that fraction of
    fast-forwarded runs full-length and field-diffs the results,
    *audit_seed* fixes the audit sample (``None`` uses the campaign
    seed), and *integrity_policy* selects how violations — audit
    mismatches, checkpoint digest failures, worker drift — are
    handled (``strict`` aborts, ``repair`` self-heals, ``off``
    disables verification; ``None`` keeps the executor default).

    Adaptive-sampling knobs: *adaptive* switches the sampled
    campaigns (permeability, detection) to sequential Wilson-bound
    scheduling; *ci_level* and *ci_halfwidth* set the confidence
    level and two-sided precision target (half-width 0 disables early
    stopping while keeping the batched scheduler — bit-identical to
    fixed-n); *min_batch* is the per-stratum batch size per round and
    *max_runs* overrides the scale's per-stratum budget.
    """

    def __init__(
        self,
        scale: str = "bench",
        seed: int = 2002,
        target: Union[str, TargetSystem] = "arrestment",
        jobs: int = 1,
        backend: Optional[str] = None,
        resume: bool = False,
        checkpoint_dir: Optional[str] = None,
        task_timeout: Optional[float] = None,
        retries: Optional[int] = None,
        event_log: Optional[str] = None,
        fast_forward: bool = True,
        checkpoint_stride: Optional[int] = None,
        track_pool: bool = True,
        batch_width: int = 0,
        audit_fraction: float = 0.0,
        audit_seed: Optional[int] = None,
        integrity_policy: Optional[str] = None,
        adaptive: bool = False,
        ci_level: Optional[float] = None,
        ci_halfwidth: Optional[float] = None,
        min_batch: Optional[int] = None,
        max_runs: Optional[int] = None,
        store_backend: Optional[str] = None,
        results_db: Optional[str] = None,
        run_name: Optional[str] = None,
    ):
        if scale not in SCALES:
            raise ExperimentError(
                f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
            )
        if store_backend is not None and store_backend not in STORE_BACKENDS:
            raise ExperimentError(
                f"unknown store backend {store_backend!r}; "
                f"choose from {STORE_BACKENDS}"
            )
        if backend is not None and backend not in BACKENDS:
            raise ExperimentError(
                f"unknown execution backend {backend!r}; "
                f"choose from {BACKENDS}"
            )
        self.scale = SCALES[scale]
        self.seed = seed
        self.target: TargetSystem = (
            get_target(target) if isinstance(target, str) else target
        )
        self.jobs = jobs
        self.backend = backend
        self.resume = resume
        self.task_timeout = task_timeout
        self.retries = retries
        self.event_log = event_log
        self.fast_forward = fast_forward
        self.checkpoint_stride = checkpoint_stride
        self.track_pool = track_pool
        self.batch_width = batch_width
        self.audit_fraction = audit_fraction
        self.audit_seed = audit_seed
        self.integrity_policy = integrity_policy
        self.adaptive = adaptive
        self.ci_level = ci_level
        self.ci_halfwidth = ci_halfwidth
        self.min_batch = min_batch
        self.max_runs = max_runs
        if resume and checkpoint_dir is None:
            checkpoint_dir = os.path.join(
                ".repro-checkpoints",
                f"{self.target.name}-{self.scale.name}-{seed}",
            )
        self.checkpoint_dir = checkpoint_dir
        self.store_backend = store_backend
        self.results_db = results_db
        self.run_name = run_name or (
            f"{self.target.name}-{self.scale.name}-seed{seed}"
        )
        # shadows the class-level staticmethod: campaigns and
        # benchmarks read ``ctx.simulator_factory`` as a plain callable
        self.simulator_factory = self.target.simulator_factory
        self.test_cases: List[TestCase] = list(
            self.target.standard_test_cases()
        )[:: self.scale.test_case_stride]
        #: per-campaign execution telemetry of the campaigns run so far
        self.telemetries: Dict[str, CampaignTelemetry] = {}
        #: per-campaign stratum spend reports (adaptive campaigns only)
        self.stratum_reports: Dict[str, List[StratumReport]] = {}
        self._estimate: Optional[PermeabilityEstimate] = None
        self._matrix: Optional[PermeabilityMatrix] = None
        self._detection: Optional[DetectionResult] = None
        self._memory: Optional[MemoryCampaignResult] = None
        self._system = None
        self._graph: Optional[SignalGraph] = None

    # ------------------------------------------------------------------
    # Building blocks.
    # ------------------------------------------------------------------
    simulator_factory = staticmethod(ArrestmentSimulator)

    def campaign_config(self, campaign: str) -> CampaignConfig:
        """The shared execution config, with a per-campaign checkpoint.

        The JSON backend keeps one ``<campaign>.json`` file per
        campaign (the legacy layout); the sqlite backend keeps every
        campaign of the context in one shared ``results.db`` database.
        """
        checkpoint = None
        if self.checkpoint_dir is not None:
            if self.store_backend == "sqlite":
                path = os.path.join(self.checkpoint_dir, "results.db")
                if not self.resume and os.path.exists(path):
                    # fresh start requested: drop this campaign's
                    # records, keep the rest of the database
                    with SqliteResultStore(path) as store:
                        store.discard_campaign(campaign)
            else:
                path = os.path.join(self.checkpoint_dir, f"{campaign}.json")
                if not self.resume and os.path.exists(path):
                    os.remove(path)  # fresh start requested
            checkpoint = CheckpointPolicy(
                path=path, backend=self.store_backend
            )
        ft_kwargs = {"task_timeout": self.task_timeout}
        if self.retries is not None:
            ft_kwargs["retries"] = self.retries
        ff_kwargs = {
            "enabled": self.fast_forward,
            "track_pool": self.track_pool,
        }
        if self.checkpoint_stride is not None:
            ff_kwargs["checkpoint_stride"] = self.checkpoint_stride
        integrity_kwargs = {
            "audit_fraction": self.audit_fraction,
            "audit_seed": self.audit_seed,
        }
        if self.integrity_policy is not None:
            integrity_kwargs["policy"] = self.integrity_policy
        sampling_kwargs = {"enabled": self.adaptive}
        if self.ci_level is not None:
            sampling_kwargs["ci_level"] = self.ci_level
        if self.ci_halfwidth is not None:
            sampling_kwargs["ci_halfwidth"] = self.ci_halfwidth
        if self.min_batch is not None:
            sampling_kwargs["min_batch"] = self.min_batch
        if self.max_runs is not None:
            sampling_kwargs["max_runs"] = self.max_runs
        return CampaignConfig(
            seed=self.seed,
            jobs=self.jobs,
            backend=self.backend,
            event_log_path=self.event_log,
            checkpoint=checkpoint,
            fault_tolerance=FaultTolerancePolicy(**ft_kwargs),
            fastforward=FastForwardPolicy(**ff_kwargs),
            integrity=IntegrityPolicy(**integrity_kwargs),
            sampling=AdaptivePolicy(**sampling_kwargs),
            vector=VectorPolicy(batch_width=self.batch_width),
        )

    def _run_campaign(self, name: str, campaign):
        """Run *campaign* and record it under *name*: its telemetry,
        its stratum reports (adaptive campaigns only) and, with
        ``results_db`` set, its result under ``<run_name>/<name>``."""
        result = campaign.run()
        if self.results_db is not None:
            with SqliteResultStore(self.results_db) as store:
                store.save_result(
                    result,
                    run=f"{self.run_name}/{name}",
                    meta={
                        "target": self.target.name,
                        "scale": self.scale.name,
                        "seed": self.seed,
                        "adaptive": self.adaptive,
                        "campaign": name,
                    },
                )
        self.telemetries[name] = campaign.telemetry
        if campaign.stratum_reports:
            self.stratum_reports[name] = campaign.stratum_reports
        return result

    @property
    def system(self):
        if self._system is None:
            self._system = self.simulator_factory(self.test_cases[0]).system
        return self._system

    @property
    def graph(self) -> SignalGraph:
        if self._graph is None:
            self._graph = SignalGraph(self.system)
        return self._graph

    def assertion_specs(self):
        return list(self.target.assertion_specs())

    # ------------------------------------------------------------------
    # Campaign caches.
    # ------------------------------------------------------------------
    def permeability_estimate(self) -> PermeabilityEstimate:
        if self._estimate is None:
            self._estimate = self._run_campaign(
                "permeability",
                PermeabilityCampaign(
                    self.simulator_factory,
                    self.test_cases,
                    runs_per_input=self.scale.runs_per_input,
                    config=self.campaign_config("permeability"),
                ),
            )
        return self._estimate

    def measured_matrix(self) -> PermeabilityMatrix:
        if self._matrix is None:
            self._matrix = matrix_from_estimate(
                self.system, self.permeability_estimate()
            )
        return self._matrix

    def detection_result(self) -> DetectionResult:
        if self._detection is None:
            self._detection = self._run_campaign(
                "detection",
                DetectionCampaign(
                    self.simulator_factory,
                    self.test_cases,
                    self.assertion_specs(),
                    runs_per_signal=self.scale.runs_per_signal,
                    config=self.campaign_config("detection"),
                ),
            )
        return self._detection

    def memory_result(self) -> MemoryCampaignResult:
        if self._memory is None:
            locations = MemoryMap(self.system).locations()[
                :: self.scale.location_stride
            ]
            self._memory = self._run_campaign(
                "memory",
                MemoryCampaign(
                    self.simulator_factory,
                    self.test_cases[:: self.scale.memory_case_stride],
                    self.assertion_specs(),
                    locations=locations,
                    config=self.campaign_config("memory"),
                ),
            )
        return self._memory
