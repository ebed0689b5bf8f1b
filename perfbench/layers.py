"""Per-layer metrics from the span aggregates of traced samples.

Each metric is computed per traced sample from its merged aggregates
(``spans.collect()``) and reported as the median over the traced
samples of the run.  A layer the workload does not run reports 0; the
service and placement layers, which only one workload each runs, are
reported for that workload only.
Counters named ``telemetry.*`` are the campaign executors'
``CampaignTelemetry`` fields, summed over campaigns and processes.

Layer -> metrics -> the end-to-end metric and workload each should
move is tabulated in ``README.md``.
"""

import statistics


def _calls(t, name):
    return t["spans"].get(name, [0, 0.0, 0.0])[0]


def _total(t, name):
    return t["spans"].get(name, [0, 0.0, 0.0])[1]


def _self(t, name):
    return t["spans"].get(name, [0, 0.0, 0.0])[2]


def _count(t, name):
    return t["counters"].get(name, 0.0)


def _tel(t, field):
    return _count(t, f"telemetry.{field}")


def _ratio(a, b):
    return a / b if b else 0.0


#: span name prefix -> layer whose self time it counts towards
LAYER_OF = {
    "experiment": "analysis", "campaign": "campaign", "golden": "golden",
    "snapshot": "snapshot", "sim": "sim", "vector": "vector",
    "compare": "compare", "executor": "executor", "shm": "shm",
    "store": "store", "place": "place",
}


def self_times(t):
    """Layer -> self time (seconds, summed over processes)."""
    out = {layer: 0.0 for layer in LAYER_OF.values()}
    for name, (_, _, self_s) in t["spans"].items():
        out[LAYER_OF[name.split(".")[0]]] += self_s
    return out


def _extra(field):
    """A service-burst figure the sample read from the job queue."""
    return lambda t, s: s["extra"][field]


def _job_run_s(t, s):
    """Mean experiment time inside the service's job children."""
    return _ratio(_total(t, "experiment"), _calls(t, "experiment"))


#: name -> (unit, value from (trace aggregates, sample))
METRICS = {
    "golden.runs": ("count", lambda t, s: _calls(t, "golden")),
    "golden.busy_s": ("s", lambda t, s: _total(t, "golden")),
    "snapshot.tracks": ("count", lambda t, s: _tel(t, "ff_tracks")),
    "snapshot.record_s": ("s", lambda t, s: _total(t, "snapshot.record")),
    "snapshot.restores": ("count", lambda t, s: _tel(t, "ff_restores")),
    "snapshot.resyncs": ("count", lambda t, s: _tel(t, "ff_resyncs")),
    "snapshot.ticks_saved": ("count",
                             lambda t, s: _tel(t, "ff_ticks_saved")),
    "snapshot.launch_s": ("s", lambda t, s: _total(t, "snapshot.launch")),
    "sim.scalar_runs": ("count", lambda t, s: _calls(t, "sim")),
    "sim.scalar_s": ("s", lambda t, s: _total(t, "sim")),
    "sim.ticks_per_s": ("1/s", lambda t, s: _ratio(
        _count(t, "sim.ticks"), _total(t, "sim"))),
    "vector.rows": ("count", lambda t, s: _tel(t, "vec_rows")),
    "vector.groups": ("count", lambda t, s: _tel(t, "vec_groups")),
    "vector.occupancy": ("fraction", lambda t, s: _ratio(
        _tel(t, "vec_rows"), _tel(t, "vec_group_capacity"))),
    "vector.retired_rows": ("count",
                            lambda t, s: _tel(t, "vec_retired_rows")),
    "vector.batched_ticks": ("count",
                             lambda t, s: _tel(t, "vec_batched_ticks")),
    "vector.kernel_s": ("s", lambda t, s: _total(t, "vector.kernel")),
    "compare.calls": ("count", lambda t, s: _calls(t, "compare")),
    "compare.s": ("s", lambda t, s: _total(t, "compare")),
    "executor.runs": ("count", lambda t, s: _tel(t, "executed_runs")),
    "executor.runs_per_s": ("1/s", lambda t, s: _ratio(
        _tel(t, "executed_runs"), _tel(t, "wall_s"))),
    "executor.worker_util": ("fraction", lambda t, s: _ratio(
        _tel(t, "busy_s"), _tel(t, "capacity_s"))),
    "executor.retries": ("count", lambda t, s: _tel(t, "retries")),
    "executor.golden_hit_rate": ("fraction", lambda t, s: _ratio(
        _tel(t, "cache_hits"),
        _tel(t, "cache_hits") + _tel(t, "cache_misses"))),
    "shm.tracks_published": ("count",
                             lambda t, s: _calls(t, "shm.track_publish")),
    "shm.publish_s": ("s", lambda t, s: _self(t, "shm.track_publish")
                      + _total(t, "shm.publish")),
    "store.flushes": ("count", lambda t, s: _tel(t, "store_flushes")),
    "store.flush_s": ("s", lambda t, s: _total(t, "store.flush")),
    "store.bytes": ("count", lambda t, s: _tel(t, "store_bytes_written")),
    "store.records": ("count",
                      lambda t, s: _tel(t, "store_records_written")),
    "analysis.s": ("s", lambda t, s: _self(t, "experiment")),
}
for _layer in sorted(set(LAYER_OF.values()) - {"analysis", "place"}):
    METRICS[f"{_layer}.self_s"] = (
        "s", lambda t, s, layer=_layer: self_times(t)[layer]
    )
METRICS["trace.wall_s"] = ("s", lambda t, s: s["wall_s"])

#: layers that only one workload runs: printed and kept in the run
#: record of that workload, not part of the result line
WORKLOAD_METRICS = {
    "service-burst": {
        "service.queue_wait_s": ("s", _extra("queue_wait_s")),
        "service.run_s": ("s", _job_run_s),
        # claimed-to-finished time not spent in the experiment: fork,
        # context set-up, result archive, reaping
        "service.overhead_s": ("s", lambda t, s: _extra("job_run_s")(t, s)
                               - _job_run_s(t, s)),
        "service.claims": ("count", _extra("claims")),
    },
    "place-resolve": {
        "place.inject_s": ("s", lambda t, s: _total(t, "campaign")),
        "place.cache_hits": ("count", lambda t, s: _count(t, "place.cache_hits")),
        "place.cache_misses": ("count",
                               lambda t, s: _count(t, "place.cache_misses")),
        "place.cache_io_s": ("s", lambda t, s: _total(t, "place.cache_io")),
        "place.model_s": ("s", lambda t, s: _total(t, "place.model")),
        "place.greedy_s": ("s", lambda t, s: _total(t, "place.greedy")),
        "place.ilp_s": ("s", lambda t, s: _total(t, "place.ilp")),
        "place.ilp_nodes": ("count", lambda t, s: _count(t, "place.ilp_nodes")),
        "place.self_s": ("s", lambda t, s: self_times(t)["place"]),
    },
}


def per_layer(samples, workload):
    """(result-line metrics, workload-only metrics): name -> (unit,
    values over the traced samples).  The result line also carries
    ``trace.overhead_s``, traced minus untraced median wall time."""
    traced = [s for s in samples if s["trace_on"] and s["ok"]]
    plain = [s for s in samples if not s["trace_on"] and s["ok"]]

    def values(table):
        return {
            name: (unit, [float(read(s["trace"], s)) for s in traced])
            for name, (unit, read) in table.items()
        }

    listed = values(METRICS)
    overhead = (statistics.median(s["wall_s"] for s in traced)
                - statistics.median(s["wall_s"] for s in plain))
    listed["trace.overhead_s"] = ("s", [overhead])
    return listed, values(WORKLOAD_METRICS.get(workload, {}))
