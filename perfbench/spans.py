"""Span tracing for the benchmark's traced runs.

The program carries no spans of its own, so this module wraps the
public entry points of each layer from the outside (``install``) and
times every call.  A span's *self time* is its duration minus the
time of the spans it directly caused; spans are aggregated in memory
per name as ``[calls, total_s, self_s]`` next to a set of counters.

Forked processes (executor pool workers, service job children) inherit
the wrappers.  Each one resets its aggregates after the fork and
writes them to ``<trace dir>/<pid>.json``; :func:`collect` merges
those files with the calling process's own aggregates.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

_state = threading.local()
_lock = threading.Lock()
_spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
_counters: Dict[str, float] = defaultdict(float)
_dir: List[str] = []  # trace directory, set by install()
_root_pid = os.getpid()

#: spans after which a forked process writes its aggregates out: pool
#: workers are SIGTERMed at teardown and multiprocessing children skip
#: exit hooks, so a child writes after each unit of work instead
_FLUSH_AFTER = {"executor.chunk", "experiment"}


def _stack() -> List[float]:
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = _state.stack = []
    return stack


def count(name: str, value: float = 1) -> None:
    with _lock:
        _counters[name] += value


def span(name: str, fn: Callable, before: Callable = None,
         after: Callable = None) -> Callable:
    """*fn* wrapped so each call records one *name* span.

    *before(args)* may return ``False`` to skip recording (a cache
    hit); anything else it returns is handed to *after(result, args,
    token)*, which runs on return and counts the call's outcome.
    """

    def wrapper(*args, **kwargs):
        token = before(args) if before is not None else None
        if token is False:
            return fn(*args, **kwargs)
        stack = _stack()
        stack.append(0.0)  # child time accumulated by nested spans
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            children = stack.pop()
            if stack:
                stack[-1] += elapsed
            with _lock:
                entry = _spans[name]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - children
        if after is not None:
            after(result, args, token)
        if name in _FLUSH_AFTER and os.getpid() != _root_pid:
            flush()
        return result

    # pickled by reference into pool workers: resolve to the wrapper
    for attr in ("__module__", "__qualname__", "__name__", "__doc__"):
        setattr(wrapper, attr, getattr(fn, attr, None))
    return wrapper


def patch(owner: Any, attr: str, name: str, **hooks) -> None:
    setattr(owner, attr, span(name, getattr(owner, attr), **hooks))


def snapshot() -> Dict[str, Any]:
    with _lock:
        return {
            "spans": {k: list(v) for k, v in _spans.items()},
            "counters": dict(_counters),
        }


def flush() -> None:
    """Write this process's aggregates to its per-pid file."""
    if not _dir:
        return
    path = os.path.join(_dir[0], f"{os.getpid()}.json")
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(snapshot(), handle)
    os.replace(path + ".tmp", path)


def _after_fork() -> None:
    with _lock:
        _spans.clear()
        _counters.clear()
    _state.stack = []


def collect() -> Dict[str, Any]:
    """This process's aggregates merged with every forked child's."""
    merged = snapshot()
    names = sorted(os.listdir(_dir[0])) if _dir else []
    for name in names:
        if not name.endswith(".json"):
            continue
        with open(os.path.join(_dir[0], name), encoding="utf-8") as handle:
            part = json.load(handle)
        for key, (calls, total, self_s) in part["spans"].items():
            entry = merged["spans"].setdefault(key, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for key, value in part["counters"].items():
            merged["counters"][key] = merged["counters"].get(key, 0) + value
    merged["processes"] = 1 + len(names)
    return merged


# ----------------------------------------------------------------------
# The layer boundaries.
# ----------------------------------------------------------------------
_TELEMETRY_COUNTERS = (
    "executed_runs", "retries", "busy_s", "wall_s",
    "cache_hits", "cache_misses", "ff_restores", "ff_resyncs",
    "ff_ticks_saved", "ff_tracks", "store_flushes",
    "store_records_written", "store_bytes_written", "vec_rows",
    "vec_groups", "vec_batched_ticks", "vec_retired_rows",
    "vec_group_capacity",
)


def _absorb_telemetry(result, args, token) -> None:
    telemetry = args[0].telemetry
    for field in _TELEMETRY_COUNTERS:
        count(f"telemetry.{field}", float(getattr(telemetry, field)))
    # worker capacity the campaign had: wall x jobs
    count("telemetry.capacity_s", telemetry.wall_s * telemetry.jobs)


def _sim_start_tick(args) -> int:
    # a fast-forwarded run starts at its restored checkpoint's tick
    return args[0].executor.tick


def _sim_after(result, args, start_tick) -> None:
    count("sim.ticks", result.ticks_run - start_tick)


def _golden_miss(args) -> bool:
    store, test_case = args[0], args[1]
    return test_case.case_id not in store._cache


def _ilp_after(result, args, token) -> None:
    count("place.ilp_nodes", result.nodes)


def _lookup_after(result, args, token) -> None:
    count("place.cache_hits" if result is not None else
          "place.cache_misses")


def install(trace_dir: str) -> None:
    """Wrap every layer boundary; call before anything forks."""
    import repro.experiments.runner as runner
    import repro.fi.campaign as campaign
    import repro.fi.executor as executor
    import repro.fi.golden as golden
    import repro.fi.shm as shm
    import repro.fi.snapshot as snapshot_mod
    import repro.fi.store as store
    import repro.fi.vector as vector
    import repro.place as place
    import repro.place.cache as place_cache
    from repro.target.simulation import ArrestmentSimulator
    from repro.target.vectorize import ArrestmentVectorKernel
    from repro.watertank.simulation import WaterTankSimulator
    from repro.watertank.vectorize import WatertankVectorKernel

    os.makedirs(trace_dir, exist_ok=True)
    _dir[:] = [trace_dir]
    os.register_at_fork(after_in_child=_after_fork)

    for exp_id in list(runner.EXPERIMENTS):
        runner.EXPERIMENTS[exp_id] = span(
            "experiment", runner.EXPERIMENTS[exp_id]
        )
    for cls in (campaign.PermeabilityCampaign, campaign.DetectionCampaign,
                campaign.MemoryCampaign):
        patch(cls, "run", "campaign")
    patch(golden.GoldenRunStore, "get", "golden", before=_golden_miss)
    patch(snapshot_mod, "record_track", "snapshot.record")
    patch(snapshot_mod.FastForward, "launch", "snapshot.launch")
    for cls in (ArrestmentSimulator, WaterTankSimulator):
        patch(cls, "run", "sim", before=_sim_start_tick, after=_sim_after)
    patch(vector.BatchRunner, "_compute_group", "vector.group")
    for cls in (ArrestmentVectorKernel, WatertankVectorKernel):
        patch(cls, "run_group", "vector.kernel")
    patch(campaign, "first_output_differences", "compare")
    patch(executor.CampaignExecutor, "run_tasks", "executor.campaign",
          after=_absorb_telemetry)
    patch(executor, "_execute_attempt", "executor.task")
    patch(executor, "_pool_chunk", "executor.chunk")
    patch(shm.ShmArrayPack, "publish", "shm.publish")
    patch(snapshot_mod.TrackPool, "publish", "shm.track_publish")
    for cls in (store.SqliteResultStore, store.JsonCheckpointStore):
        patch(cls, "flush", "store.flush")
    patch(place, "cached_estimate", "place.estimate")
    patch(place_cache.PlacementCache, "lookup", "place.cache_io",
          after=_lookup_after)
    patch(place_cache.PlacementCache, "store", "place.cache_io")
    patch(place, "instance_from_estimate", "place.model")
    patch(place, "greedy_solve", "place.greedy")
    patch(place, "ilp_solve", "place.ilp", after=_ilp_after)
