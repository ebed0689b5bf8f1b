"""CLI entry point: ``python -m repro.experiments [ids...]``.

Options
-------
``--scale {test,bench,full}``
    Workload scale (default: ``REPRO_SCALE`` or ``bench``).
``--seed N``
    Campaign seed (default 2002).
``--target NAME``
    Registered target system (default ``arrestment``).
``--jobs N`` / ``--backend {serial,process}``
    Worker processes for the fault-injection campaigns (default 1,
    i.e. serial; results are bit-identical either way), and an
    explicit backend pin overriding the jobs-derived default.
``--resume`` / ``--checkpoint-dir DIR``
    Checkpoint campaigns to disk and resume partial ones.
``--task-timeout S`` / ``--retries N``
    Fault tolerance: per-run wall-clock budget and per-task attempt
    budget; exhausted tasks are quarantined instead of aborting.
``--event-log PATH``
    Append a JSONL log of campaign run events for forensics.
``--checkpoint-stride N`` / ``--no-fast-forward``
    Snapshot engine: distance between golden checkpoints in ticks,
    and an off switch (results are bit-identical either way).
``--audit-fraction F`` / ``--audit-seed N`` / ``--integrity-policy P``
    Result integrity: re-execute a seeded fraction of fast-forwarded
    runs full-length and field-diff the outcomes; ``strict`` aborts
    on a violation, ``repair`` (default) self-heals, ``off`` disables
    verification (audits, checkpoint digests and drift sentinels).
``--adaptive`` / ``--fixed-n``
    Campaign scheduling: ``--adaptive`` switches the sampled
    campaigns to sequential Wilson-bound batching with early
    stopping; ``--fixed-n`` (default) runs the full per-stratum
    budget unconditionally.
``--ci-level L`` / ``--ci-halfwidth W`` / ``--min-batch N`` / ``--max-runs N``
    Adaptive-sampling tuning: confidence level (default 0.95),
    two-sided half-width target (default 0.2; 0 disables early
    stopping while keeping the batched scheduler), per-stratum batch
    size per round (default 4), and per-stratum budget override
    (default: the scale's run count).
``--store {json,sqlite}`` / ``--results-db PATH`` / ``--run-name NAME``
    Result store: checkpoint backend selection (sqlite streams every
    campaign into one ``results.db``; results are bit-identical to
    the json backend), plus a results database that archives finished
    campaign results under ``<run-name>/<campaign>`` for
    ``python -m repro analyze`` to list, show and diff.
``ids``
    Experiment ids to run (default: all).  Known ids:
    table1 table2 table3 table4 figure3 table5 profiles extended.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.context import ExperimentContext, SCALES, default_scale
from repro.experiments.runner import EXPERIMENTS, run_all
from repro.targets import available_targets


def add_execution_options(parser: argparse.ArgumentParser) -> None:
    """The campaign-execution flags shared by the CLI entry points."""
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default=None,
        help="workload scale (default: REPRO_SCALE or bench)",
    )
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument(
        "--target", choices=available_targets(), default="arrestment",
        help="registered target system (default: arrestment)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for campaigns (default: 1 = serial)",
    )
    parser.add_argument(
        "--backend", choices=("serial", "process"), default=None,
        help="pin the execution backend (default: derived from "
        "--jobs; results are bit-identical either way)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume partially completed campaigns from checkpoints",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="directory for campaign checkpoints "
        "(default with --resume: .repro-checkpoints/<target>-<scale>-<seed>)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="S",
        help="per-run wall-clock budget in seconds "
        "(default: unlimited; exceeded runs are retried, then quarantined)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="extra attempts for a failing run before it is "
        "quarantined as a TaskFailure (default: 1)",
    )
    parser.add_argument(
        "--event-log", default=None, metavar="PATH",
        help="append campaign run events (task finish/retry/failure, "
        "checkpoint flushes, pool respawns) to this JSONL file",
    )
    parser.add_argument(
        "--checkpoint-stride", type=int, default=None, metavar="N",
        help="ticks between golden snapshots for fast-forwarded "
        "injection runs (default: engine default)",
    )
    parser.add_argument(
        "--no-fast-forward", action="store_true",
        help="disable the snapshot/fast-forward engine and simulate "
        "every injected run from tick 0 (results are bit-identical)",
    )
    parser.add_argument(
        "--no-track-pool", action="store_true",
        help="keep golden checkpoint tracks as plain dicts instead "
        "of shared-memory columns (results are bit-identical)",
    )
    parser.add_argument(
        "--batch-width", type=int, default=0, metavar="N",
        help="vectorized batch core: advance up to N injected runs "
        "per tick in each worker (default: 0 = scalar path; results "
        "are bit-identical)",
    )
    parser.add_argument(
        "--audit-fraction", type=float, default=0.0, metavar="F",
        help="fraction of fast-forwarded runs re-executed full-length "
        "and field-diffed against the fast-forward result (default: 0)",
    )
    parser.add_argument(
        "--audit-seed", type=int, default=None, metavar="N",
        help="seed of the deterministic audit sample "
        "(default: the campaign seed)",
    )
    parser.add_argument(
        "--integrity-policy", choices=("strict", "repair", "off"),
        default=None, metavar="P",
        help="how integrity violations are handled: strict aborts, "
        "repair self-heals from a trusted recomputation (default), "
        "off disables verification",
    )
    scheduling = parser.add_mutually_exclusive_group()
    scheduling.add_argument(
        "--adaptive", action="store_true",
        help="sequential Wilson-bound scheduling: dispatch the "
        "sampled campaigns in per-stratum batches and stop each "
        "stratum once its estimates are certified (architectural "
        "zero, saturated, or within the half-width target)",
    )
    scheduling.add_argument(
        "--fixed-n", action="store_true",
        help="run the full per-stratum budget unconditionally "
        "(the default)",
    )
    parser.add_argument(
        "--ci-level", type=float, default=None, metavar="L",
        help="confidence level of the adaptive stopping intervals "
        "(default: 0.95)",
    )
    parser.add_argument(
        "--ci-halfwidth", type=float, default=None, metavar="W",
        help="two-sided Wilson half-width target that stops a "
        "stratum (default: 0.2; 0 disables early stopping entirely, "
        "making the adaptive schedule bit-identical to fixed-n)",
    )
    parser.add_argument(
        "--min-batch", type=int, default=None, metavar="N",
        help="injection runs dispatched per stratum per adaptive "
        "round (default: 4)",
    )
    parser.add_argument(
        "--max-runs", type=int, default=None, metavar="N",
        help="per-stratum budget cap for adaptive campaigns "
        "(default: the scale's per-stratum run count)",
    )
    parser.add_argument(
        "--store", choices=("json", "sqlite"), default=None,
        help="checkpoint store backend: json keeps one legacy "
        "<campaign>.json file per campaign, sqlite streams every "
        "campaign into one <checkpoint-dir>/results.db database "
        "(default: by path suffix, i.e. json)",
    )
    parser.add_argument(
        "--results-db", default=None, metavar="PATH",
        help="also save finished campaign results into this sqlite "
        "results database, queryable with 'python -m repro analyze'",
    )
    parser.add_argument(
        "--run-name", default=None, metavar="NAME",
        help="run name for results saved to --results-db "
        "(default: <target>-<scale>-seed<seed>)",
    )


def context_from_args(args: argparse.Namespace) -> ExperimentContext:
    return ExperimentContext(
        scale=args.scale or default_scale(),
        seed=args.seed,
        target=args.target,
        jobs=args.jobs,
        backend=args.backend,
        resume=args.resume,
        checkpoint_dir=args.checkpoint_dir,
        task_timeout=args.task_timeout,
        retries=args.retries,
        event_log=args.event_log,
        fast_forward=not args.no_fast_forward,
        checkpoint_stride=args.checkpoint_stride,
        track_pool=not args.no_track_pool,
        batch_width=args.batch_width,
        audit_fraction=args.audit_fraction,
        audit_seed=args.audit_seed,
        integrity_policy=args.integrity_policy,
        adaptive=args.adaptive,
        ci_level=args.ci_level,
        ci_halfwidth=args.ci_halfwidth,
        min_batch=args.min_batch,
        max_runs=args.max_runs,
        store_backend=args.store,
        results_db=args.results_db,
        run_name=args.run_name,
    )


def report_telemetry(ctx: ExperimentContext) -> None:
    for telemetry in ctx.telemetries.values():
        print(telemetry.render(), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "ids",
        nargs="*",
        choices=list(EXPERIMENTS) + [[]],
        help="experiments to run (default: all)",
    )
    add_execution_options(parser)
    args = parser.parse_args(argv)
    ctx = context_from_args(args)
    run_all(ctx, only=args.ids or None)
    report_telemetry(ctx)
    return 0


if __name__ == "__main__":
    sys.exit(main())
