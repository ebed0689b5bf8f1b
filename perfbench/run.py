"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload paper-ff --seed 2002 \
        --seconds 50 --trace 0

Run from the repository root; the package is imported from ``src/``.
Each sample runs in a fresh process (``sample.py``), because the
golden-run cache is process-global and a CLI user pays for it on
every run.  With ``--trace 0`` the run takes whole-workload samples
while the next one fits in ``--seconds``, then set-up-only samples,
and reports the end-to-end metrics as medians.  With ``--trace 1`` it
alternates untraced and traced samples and reports the per-layer
metrics of the traced ones plus the tracing overhead.

Every result is checked against scalar full replay (``oracle.py``,
cached per seed in ``perfbench/.oracle/``, computed before any timing
starts).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is nonzero when any check failed.  A record of the run (host,
versions, commit, seed, per-sample values, medians and quartiles) is
written to ``perfbench/runs/``.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import CAMPAIGNS, SCALE, TARGETS, burst_specs  # noqa: E402

WORKLOAD_NAMES = ("paper-ff", "vector-pool", "service-burst",
                  "place-resolve")
#: set-ups timed per untraced run (set-up-only samples fill up what
#: the whole-workload samples leave)
SETUP_SAMPLES = 8
#: the whole command, oracle included, ends within this bound
HARD_LIMIT_S = 170.0
#: oracle processes run side by side (the host has 2 cores)
ORACLE_WORKERS = 2

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# ----------------------------------------------------------------------
# Processes.
# ----------------------------------------------------------------------
def run_process(argv, timeout):
    """Run *argv* in its own session; kill the whole session when it
    overruns or leaves processes behind.  Returns the exit code, or
    ``None`` on timeout.  An overrunning session first gets SIGUSR1,
    on which every sample process dumps its threads' stacks."""
    proc = subprocess.Popen(argv, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        code = None
        try:
            os.killpg(proc.pid, signal.SIGUSR1)
            time.sleep(1.0)
        except ProcessLookupError:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return code


def oracle_needs(workload, seed):
    """(target, campaign, seed) triples whose reference digest is
    needed: the keys of the digests the workload produces."""
    if workload == "paper-ff":
        return [("arrestment", c, seed) for c in CAMPAIGNS]
    if workload == "vector-pool":
        return [(t, c, seed) for t in TARGETS for c in CAMPAIGNS]
    if workload == "service-burst":
        return [(t, "permeability", s) for t, s, _ in burst_specs(seed)]
    return [("arrestment", "permeability", seed)]


def load_oracle(workload, seed, deadline):
    """Reference digests, computed where not cached, one campaign per
    process and ORACLE_WORKERS processes at a time."""
    cache_dir = os.path.join(HERE, ".oracle", SCALE)
    os.makedirs(cache_dir, exist_ok=True)
    digests, missing, running = {}, [], []
    for target, campaign, s in oracle_needs(workload, seed):
        key = f"{target}/{campaign}/{s}"
        path = os.path.join(cache_dir, key.replace("/", "-") + ".json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                digests.update(json.load(handle))
        else:
            missing.append((target, campaign, s, path))
    try:
        while missing or running:
            while missing and len(running) < ORACLE_WORKERS:
                target, campaign, s, path = missing.pop(0)
                argv = [
                    sys.executable, os.path.join(HERE, "oracle.py"),
                    "--target", target, "--seed", str(s),
                    "--campaign", campaign, "--out", path,
                ]
                running.append((subprocess.Popen(
                    argv, cwd=ROOT, start_new_session=True), path))
            proc, path = running[0]
            timeout = max(1.0, deadline - time.monotonic())
            if proc.wait(timeout=timeout) != 0:
                raise RuntimeError(f"oracle failed: {' '.join(proc.args)}")
            running.pop(0)
            with open(path, encoding="utf-8") as handle:
                digests.update(json.load(handle))
    finally:
        for proc, _ in running:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    return digests


def take_sample(args, index, deadline, trace=False, setup_only=False):
    """One sample process in a fresh work directory; its output, with
    ``setup_s`` (spawn to ready) and ``duration_s`` (spawn to exit)."""
    work = os.path.join(HERE, ".work", f"{os.getpid()}-{index}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "sample.json")
    argv = [
        sys.executable, os.path.join(HERE, "sample.py"), args.workload,
        "--seed", str(args.seed), "--work", work, "--out", out,
    ]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    spawned = time.monotonic()
    code = run_process(argv, deadline - spawned)
    sample = {"ok": False, "error": f"sample exited with {code}"}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as handle:
            sample = json.load(handle)
    shutil.rmtree(work, ignore_errors=True)
    if code is None:
        sample = {"ok": False, "error": "sample timed out"}
    if "ready" in sample:
        sample["setup_s"] = sample["ready"] - spawned
    sample["duration_s"] = time.monotonic() - spawned
    sample["trace_on"] = trace
    return sample


# ----------------------------------------------------------------------
# Checks.
# ----------------------------------------------------------------------
def check(samples, oracle):
    """(attempted, failed, notes): every result digest against the
    oracle, every placement table against the cold one, plus each
    sample's own failed operations.  A sample that crashed counts as
    one failed operation."""
    attempted = failed = 0
    notes = []
    for sample in samples:
        if not sample["ok"]:
            attempted += 1
            failed += 1
            notes.append(sample.get("error", "sample failed").strip())
            continue
        for key, digest in sorted(sample.get("digests", {}).items()):
            attempted += 1
            if oracle.get(key) != digest:
                failed += 1
                notes.append(f"digest mismatch: {key}")
        tables = sample.get("tables", [])
        for i, table in enumerate(tables[1:], 1):
            attempted += 1
            if table != tables[0]:
                failed += 1
                notes.append(f"placement table {i} differs from the cold one")
        attempted += sample.get("extra", {}).get("jobs", 0)
        failed += sample.get("failed", 0)
    return attempted, failed, notes


# ----------------------------------------------------------------------
# The run.
# ----------------------------------------------------------------------
def measure(args, start):
    """Whole-workload samples while the next one fits in --seconds
    (at least one of each kind), then set-up-only samples until
    SETUP_SAMPLES set-ups were timed."""
    deadline = start + HARD_LIMIT_S
    began = time.monotonic()
    samples = []
    kinds = [False, True] if args.trace else [False]
    longest = 0.0
    while True:
        for trace in kinds:
            sample = take_sample(args, len(samples), deadline, trace=trace)
            samples.append(sample)
            longest = max(longest, sample["duration_s"])
            if not sample["ok"]:
                return samples
        used = time.monotonic() - began
        if used + longest * len(kinds) > args.seconds:
            break
        if time.monotonic() + longest * len(kinds) > deadline - 10:
            break
    while not args.trace and len(samples) < SETUP_SAMPLES:
        samples.append(take_sample(args, len(samples), deadline,
                                   setup_only=True))
    return samples


def summarize(values):
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def end_to_end(samples):
    timed = [s for s in samples if s["ok"] and "wall_s" in s
             and not s["trace_on"]]
    stats = {
        "setup_s": summarize([s["setup_s"] for s in samples if s["ok"]]),
        "wall_s": summarize([s["wall_s"] for s in timed]),
        "peak_rss_mb": summarize([s["peak_rss_mb"] for s in timed]),
    }
    phases = {}
    for sample in timed:
        for name, value in sample.get("phases", {}).items():
            phases.setdefault(name, []).append(value)
    extras = {name: summarize(values) for name, values in phases.items()}
    return stats, extras


def git_commit():
    """The checkout's commit, read from ``.git`` without leaving it."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_record(args, samples, metrics, extras, verdict):
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    record = {
        "workload": args.workload, "seed": args.seed, "scale": SCALE,
        "seconds": args.seconds, "trace": args.trace,
        "host": platform.node(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy_version,
        "commit": git_commit(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "verdict": verdict, "metrics": metrics, "extras": extras,
        "samples": [
            {k: v for k, v in s.items() if k not in ("tables", "trace")}
            for s in samples
        ],
    }
    runs = os.path.join(HERE, "runs")
    os.makedirs(runs, exist_ok=True)
    name = (f"{record['utc']}-{args.workload}-s{args.seed}"
            f"-t{int(args.trace)}-{os.getpid()}.json")
    with open(os.path.join(runs, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no package sources under {ROOT}/src/repro",
              file=sys.stderr)
        return 2

    oracle = load_oracle(args.workload, args.seed, start + HARD_LIMIT_S - 30)
    samples = measure(args, start)
    attempted, failed, notes = check(samples, oracle)
    verdict = {"correct": failed == 0, "attempted": attempted,
               "failed": failed, "failed_frac": failed / attempted,
               "notes": notes}
    metrics, extras = {}, {}
    # figures come from the samples that ran to the end, even when a
    # check failed; the verdict and the exit code carry the failure
    kinds = {s["trace_on"] for s in samples if s["ok"] and "wall_s" in s}
    if kinds == ({False, True} if args.trace else {False}):
        if args.trace:
            listed, local = layers.per_layer(samples, args.workload)
            metrics, extras = (
                {name: dict(summarize(values), unit=unit)
                 for name, (unit, values) in table.items()}
                for table in (listed, local)
            )
        else:
            stats, extras = end_to_end(samples)
            metrics = {
                name: dict(stats[name], unit=unit)
                for name, unit in END_TO_END.items()
            }
    write_record(args, samples, metrics, extras, verdict)

    for note in notes:
        print(f"check failed: {note}")
    print(f"workload {args.workload}  seed {args.seed}  scale {SCALE}  "
          f"samples {len(samples)}")
    for name, stat in list(metrics.items()) + list(extras.items()):
        print(f"  {name:<26} {stat['median']:.6g} {stat.get('unit', 's')}  "
              f"(q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}, n={stat['n']})")
    print(f"  {'failed_frac':<24} {verdict['failed_frac']:.4f} "
          f"({failed}/{attempted})")
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {
            name: {"value": stat["median"], "unit": stat["unit"]}
            for name, stat in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
