"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py [WORKLOAD ...]

Runs every workload (or the named ones) once untraced and once traced,
with a one-second budget so each run takes a single sample, and checks:

- the result line names every metric of ``BENCHMARK.json`` with its
  unit, and no other metric;
- the run is correct;
- the per-layer self times sum to no more than the traced ``wall_s``
  times the number of processes that can run spans at once.

Exits 1 if any check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

#: processes that can hold open spans at once: a campaign's process
#: waits on its two pool workers (the service runs one job at a time);
#: only place-resolve runs serial
CONCURRENCY = {"place-resolve": 1}


def expected_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    listed = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in listed}


def run_once(workload, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", "2002", "--seconds", "1",
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]), lines[:-1]


def main():
    workloads = sys.argv[1:] or list(run.WORKLOAD_NAMES)
    problems = []
    for workload in workloads:
        for trace in (0, 1):
            units = expected_units(trace)
            code, result, lines = run_once(workload, trace)
            tag = f"{workload} --trace {trace}"
            print(f"{tag}: exit {code}, "
                  f"{result['failed']}/{result['attempted']} failed")
            if code != 0 or not result["correct"]:
                problems.append(f"{tag}: incorrect run")
                problems.extend(f"  {line}" for line in lines
                                if line.startswith("check failed"))
            metrics = result["metrics"]
            if not metrics:  # no sample ran to the end
                continue
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != units:
                problems.append(f"{tag}: metrics/units differ from "
                                f"BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(units.items()))}")
            if trace:
                self_sum = sum(metric["value"]
                               for name, metric in metrics.items()
                               if name.endswith(".self_s"))
                self_sum += metrics["analysis.s"]["value"]
                limit = (metrics["trace.wall_s"]["value"]
                         * CONCURRENCY.get(workload, 3))
                print(f"  self times {self_sum:.3f} s <= {limit:.3f} s")
                if self_sum > limit:
                    problems.append(f"{tag}: self times {self_sum:.3f} s "
                                    f"exceed {limit:.3f} s")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
