"""Process-wide execution counters of the campaign engines.

One table of ints, keyed by the
:class:`~repro.fi.executor.CampaignTelemetry` field each entry feeds.
The fast-forward engine, the audit replay and the vectorized batch
core (with its target kernels) increment their entries by name.

The table is module-global so forked pool workers can count into
their own copy: the executor snapshots it around every task attempt
and ships the non-zero :func:`since` delta home beside the task
result, and snapshots it around every run to count the work done in
the parent process.
"""

from __future__ import annotations

from typing import Dict

#: counter name (= the ``CampaignTelemetry`` field it feeds) -> count
COUNTERS: Dict[str, int] = dict.fromkeys(
    (
        # fast-forward engine (repro.fi.snapshot)
        "ff_restores",
        "ff_resyncs",
        "ff_ticks_saved",
        "ff_tracks",
        # audit replay (repro.fi.integrity)
        "audits",
        "audit_mismatches",
        "audit_repairs",
        # vectorized batch core (repro.fi.vector and the target kernels)
        "vec_rows",
        "vec_groups",
        "vec_batched_ticks",
        "vec_retired_rows",
        "vec_scalar_fallbacks",
        "vec_cross_case_groups",
        "vec_group_capacity",
    ),
    0,
)


def since(before: Dict[str, int]) -> Dict[str, int]:
    """The non-zero increments since the snapshot ``dict(COUNTERS)``."""
    return {
        name: value - before[name]
        for name, value in COUNTERS.items()
        if value != before[name]
    }
