"""The benchmark's four workloads, each driven through the package's
public entry points.

A workload object is built with ``(seed, work_dir)``.  Its
``setup()`` does the imports and builds what a user has ready before
the first result: the experiment context, a serving daemon, or the
placement inputs.  ``run()`` does the measured work and returns::

    {"phases": {metric: seconds}, # per-campaign / per-solve times
     "digests": {key: digest},    # result digests, checked by run.py
     "tables": [...],             # placement tables (place-resolve)
     "failed": n,                 # quarantined tasks, failed jobs
     "extra": {...}}              # service queue figures

``close()`` releases what ``setup()`` started; it must run even when
``run()`` raised.

Digest keys are ``<target>/<campaign>/<seed>``: the oracle (scalar
full replay, see ``oracle.py``) computes the same keys.
"""

from __future__ import annotations

import os
import signal
import statistics
import threading
import time
from typing import Dict, Tuple

#: the campaigns of the paper, as ExperimentContext methods
CAMPAIGNS = {
    "permeability": "permeability_estimate",
    "detection": "detection_result",
    "memory": "memory_result",
}
TARGETS = ("arrestment", "watertank")
#: every workload runs at the smallest scale: a benchmark run gets
#: 50 s, and one bench-scale paper-ff pass alone takes 26 s
SCALE = "test"
#: modules of the arrestment target, invalidated one at a time
PLACE_MODULES = ("CLOCK", "DIST_S", "CALC", "PRES_S", "V_REG", "PRES_A")
#: service-burst: seeds per target, and the bound on the whole burst
BURST_SEEDS = 3
BURST_DEADLINE_S = 60.0


def _dump_stacks() -> None:
    """Every process of the sample's group dumps its threads' stacks
    (sample.py registers the handler; forked children inherit it)."""
    os.killpg(os.getpgrp(), signal.SIGUSR1)
    time.sleep(1.0)


def burst_specs(seed: int):
    """(target, seed, run name) of the six table1 jobs of a burst."""
    return [
        (target, s, f"{target}-s{s}")
        for s in range(seed, seed + BURST_SEEDS) for target in TARGETS
    ]


def _archived_digests(results_db: str, entries) -> Tuple[Dict[str, str], int]:
    """Digests of the results archived in *results_db*, as
    ``(digest key, archived run name)`` pairs, and their
    quarantined-task count."""
    from repro.fi.store import SqliteResultStore

    digests: Dict[str, str] = {}
    failed = 0
    with SqliteResultStore(results_db) as db:
        for key, run in entries:
            result = db.load_result(run)
            digests[key] = digest_of(result)
            failed += len(result.task_failures)
    return digests, failed


def digest_of(result) -> str:
    """Canonical digest of a campaign result's persisted envelope, its
    record lists sorted: the order a code path happens to build its
    dicts in (the placement cache merges per-module payloads in sorted
    port order) is not part of the result."""
    import json

    from repro.fi.integrity import canonical_digest
    from repro.fi.serialization import result_to_document

    document = result_to_document(result)
    document.pop("digest")
    return canonical_digest({
        key: sorted(value, key=lambda item: json.dumps(item, sort_keys=True))
        if isinstance(value, list) else value
        for key, value in document.items()
    })


def _campaign_outputs(ctx, target: str, seed: int, digests) -> int:
    """Add the digests of a context's campaigns to *digests*; returns
    their quarantined-task count."""
    failed = 0
    for name, method in CAMPAIGNS.items():
        result = getattr(ctx, method)()
        digests[f"{target}/{name}/{seed}"] = digest_of(result)
        failed += len(result.task_failures)
    return failed


class PaperFF:
    """All eight experiments via ``run_all``, default engine, on a
    2-worker pool (``python -m repro.experiments --jobs 2``)."""

    def __init__(self, seed, work_dir):
        self.seed = seed

    def setup(self):
        from repro.experiments.context import ExperimentContext
        from repro.experiments.runner import run_all

        self.run_all = run_all
        self.ctx = ExperimentContext(scale=SCALE, seed=self.seed, jobs=2)

    def run(self):
        ctx, phases = self.ctx, {}
        # time each campaign where the experiments first ask for it;
        # the wrappers live on this context instance only
        for name, method in CAMPAIGNS.items():
            inner = getattr(ctx, method)

            def timed(inner=inner, name=name):
                started = time.perf_counter()
                try:
                    return inner()
                finally:
                    phases[f"{name}_s"] = phases.get(f"{name}_s", 0.0) + (
                        time.perf_counter() - started
                    )

            setattr(ctx, method, timed)
        self.run_all(ctx, echo=lambda line: None)
        digests: Dict[str, str] = {}
        failed = _campaign_outputs(ctx, "arrestment", self.seed, digests)
        return {"phases": phases, "digests": digests, "failed": failed}

    def close(self):
        return True


class VectorPool:
    """Every campaign on both targets through the vector core, on a
    2-worker process pool with sqlite checkpoints and one results
    database (``--batch-width 256 --jobs 2 --store sqlite
    --results-db``)."""

    def __init__(self, seed, work_dir):
        self.seed, self.work_dir = seed, work_dir
        self.results_db = os.path.join(work_dir, "results.db")

    def setup(self):
        from repro.experiments.context import ExperimentContext

        self.contexts = {
            target: ExperimentContext(
                scale=SCALE, seed=self.seed, target=target, batch_width=256,
                jobs=2, backend="process", store_backend="sqlite",
                checkpoint_dir=os.path.join(self.work_dir, target),
                results_db=self.results_db, run_name=target,
            )
            for target in TARGETS
        }

    def run(self):
        phases = {f"{name}_s": 0.0 for name in CAMPAIGNS}
        for ctx in self.contexts.values():
            for name, method in CAMPAIGNS.items():
                started = time.perf_counter()
                getattr(ctx, method)()
                phases[f"{name}_s"] += time.perf_counter() - started
        digests, failed = _archived_digests(self.results_db, [
            (f"{target}/{name}/{self.seed}", f"{target}/{name}")
            for target in TARGETS for name in CAMPAIGNS
        ])
        return {"phases": phases, "digests": digests, "failed": failed}

    def close(self):
        return True


class ServiceBurst:
    """An open burst of table1 jobs through an in-process daemon."""

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.spool = os.path.join(work_dir, "spool")
        self.daemon = self.thread = self.client = None

    def setup(self):
        from repro.service import ServiceClient, ServiceDaemon
        from repro.service.scheduler import SchedulerConfig

        self.daemon = ServiceDaemon(
            self.spool,
            SchedulerConfig(budget=2, max_jobs=1),
            status_interval_s=0.1,
            echo=lambda *_: None,
        )
        self.thread = threading.Thread(target=self.daemon.serve, daemon=True)
        self.thread.start()
        self.client = ServiceClient(self.spool)
        deadline = time.monotonic() + 30
        while not self.client.alive():
            if time.monotonic() > deadline:
                _dump_stacks()
                raise RuntimeError("service daemon did not come up")
            time.sleep(0.01)

    def run(self):
        from repro.service.jobs import JobQueue

        runs = {}
        for target, seed, run_name in burst_specs(self.seed):
            reply = self.client.submit({
                "experiment": "table1", "scale": SCALE,
                "seed": seed, "target": target, "jobs": 2,
                "store": "sqlite", "run_name": run_name,
            })
            runs[reply["job"]] = (target, seed, run_name)
        deadline = time.monotonic() + BURST_DEADLINE_S
        while True:
            depth = self.client.status()["queue"]
            if depth["queued"] == 0 and depth["running"] == 0:
                break
            if time.monotonic() > deadline:
                _dump_stacks()
                raise RuntimeError(
                    f"burst not done after {BURST_DEADLINE_S:.0f} s: {depth}"
                )
            time.sleep(0.05)
        with JobQueue(os.path.join(self.spool, "queue.db")) as queue:
            jobs = [job for job in queue.jobs() if job.id in runs]
        digests, failed = _archived_digests(
            os.path.join(self.spool, "results.db"),
            [(f"{target}/permeability/{seed}", f"{run_name}/permeability")
             for target, seed, run_name in
             (runs[job.id] for job in jobs if job.state == "done")],
        )
        failed += sum(1 for job in jobs if job.state != "done")
        finished = [job for job in jobs if job.finished_ts is not None]
        latency = [job.finished_ts - job.submitted_ts for job in finished]
        waits = [job.started_ts - job.submitted_ts for job in finished]
        runs_s = [job.finished_ts - job.started_ts for job in finished]
        return {
            # the mean, not the median: the median of six jobs moves
            # with whichever job lands in the middle
            "phases": {"job_latency_s": statistics.fmean(latency)},
            "digests": digests,
            "failed": failed,
            "extra": {
                "queue_wait_s": statistics.fmean(waits),
                "job_run_s": statistics.fmean(runs_s),
                "claims": sum(job.attempts for job in jobs),
                "jobs": len(jobs),
            },
        }

    def close(self):
        """Drain the daemon and join it; True when it stopped."""
        if self.thread is None:
            return True
        try:
            if self.client is not None and self.client.alive():
                self.client.drain()
        finally:
            self.thread.join(timeout=60)
        return not self.thread.is_alive()


class PlaceResolve:
    """Cold solve, one-module re-solves, then a warm solve."""

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.cache_path = os.path.join(work_dir, "place-cache.db")
        self.cache = None

    def setup(self):
        import repro.place as place
        from repro.edm.catalogue import EH_SET, PA_SET
        from repro.experiments.context import SCALES
        from repro.targets import get_target

        self.place = place
        self.target = get_target("arrestment")
        self.system = self.target.build_system()
        self.specs = self.target.assertion_specs()
        scale = SCALES[SCALE]
        self.cases = list(self.target.standard_test_cases())[
            :: scale.test_case_stride
        ]
        self.runs = scale.runs_per_input
        by_signal = {spec.signal: spec for spec in self.specs}
        # the CLI's default budget: the PA hand set's footprint
        pa_specs = [by_signal[s] for s in PA_SET if s in by_signal]
        self.budget = place.Budget(
            rom_bytes=sum(spec.rom_bytes for spec in pa_specs),
            ram_bytes=sum(spec.ram_bytes for spec in pa_specs),
        )
        self.hand_sets = [
            (name, [s for s in signals if s in by_signal])
            for name, signals in (("EH", EH_SET), ("PA", PA_SET))
        ]
        self.cache = place.PlacementCache(self.cache_path)

    def _solve(self, invalidate=()):
        place = self.place
        started = time.perf_counter()
        estimate, _ = place.cached_estimate(
            self.target, self.cases, self.cache,
            runs_per_input=self.runs, seed=self.seed,
            invalidate=invalidate,
        )
        instance = place.instance_from_estimate(
            self.system, estimate, self.specs, self.budget
        )
        place.greedy_solve(instance)
        ilp = place.ilp_solve(instance)
        hand = [
            (name, place.items_for_signals(instance, members))
            for name, members in self.hand_sets
        ]
        table = place.build_report(
            self.target.name, instance, ilp, hand
        ).render()
        return time.perf_counter() - started, table, estimate

    def run(self):
        cold_s, table, estimate = self._solve()
        tables = [table]
        resolves = []
        for module in PLACE_MODULES:
            elapsed, table, _ = self._solve(invalidate=(module,))
            resolves.append(elapsed)
            tables.append(table)
        warm_s, table, _ = self._solve()
        tables.append(table)
        return {
            "phases": {
                "place_cold_s": cold_s,
                "place_resolve_s": statistics.median(resolves),
                "place_warm_s": warm_s,
            },
            "digests": {
                f"arrestment/permeability/{self.seed}": digest_of(estimate)
            },
            "tables": tables,
            "failed": len(estimate.task_failures),
        }

    def close(self):
        if self.cache is not None:
            self.cache.close()
        return True


WORKLOADS = {
    "paper-ff": PaperFF,
    "vector-pool": VectorPool,
    "service-burst": ServiceBurst,
    "place-resolve": PlaceResolve,
}
