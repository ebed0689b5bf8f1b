"""One benchmark sample, in a fresh process.

    python3 perfbench/sample.py WORKLOAD --seed N --work DIR \
        --out FILE [--trace] [--setup-only]

Set-up runs from interpreter start: imports, then the workload's
``setup()``.  The sample then records ``time.monotonic()`` as its
ready time (the clock is shared by every process on the host, so the
parent turns it into ``setup_s``), runs the workload unless
``--setup-only``, and writes one JSON object to ``--out``.  With
``--trace`` the layer wrappers of ``spans.py`` are installed before
set-up and the merged span aggregates join the output.
"""

import argparse
import faulthandler
import json
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (Linux
    reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    # hang diagnostics: forked children inherit the handler, and the
    # parent signals the whole session before killing an overrun
    faulthandler.register(signal.SIGUSR1, all_threads=True)

    if args.trace:
        import spans as tracer

        tracer.install(os.path.join(args.work, "spans"))
    from workloads import WORKLOADS

    os.makedirs(args.work, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.work)
    out = {"ok": False}
    stopped = False
    try:
        workload.setup()
        out["ready"] = time.monotonic()
        if not args.setup_only:
            out.update(workload.run())
            out["wall_s"] = time.monotonic() - out["ready"]
        out["ok"] = True
    except Exception:
        out["error"] = traceback.format_exc()
    finally:
        try:
            stopped = workload.close()
        except Exception:
            out["ok"] = False
            out.setdefault("error", traceback.format_exc())
    if not stopped:
        out["ok"] = False
        out.setdefault("error", "workload did not shut down")
    out["peak_rss_mb"] = _peak_rss_mb()
    if args.trace:
        out["trace"] = tracer.collect()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    if not stopped:
        # threads of a workload that failed to stop would block a
        # normal exit; leave without them (the parent kills the session)
        sys.stdout.flush()
        os._exit(1)
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
