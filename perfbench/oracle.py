"""Reference digests from scalar full replay.

    python3 perfbench/oracle.py --target T --seed N \
        --campaign permeability --out FILE

Runs one campaign with fast-forward off and no batching (the reference
engine every other engine must reproduce) and writes
``{"<target>/<campaign>/<seed>": digest}`` to ``--out``.  ``run.py``
caches these files per seed under ``perfbench/.oracle/``.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--target", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--campaign", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from repro.experiments.context import ExperimentContext
    from workloads import CAMPAIGNS, SCALE, digest_of

    ctx = ExperimentContext(
        scale=SCALE, seed=args.seed, target=args.target,
        fast_forward=False, track_pool=False, batch_width=0,
    )
    result = getattr(ctx, CAMPAIGNS[args.campaign])()
    digests = {f"{args.target}/{args.campaign}/{args.seed}": digest_of(result)}
    with open(args.out + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(digests, handle)
    os.replace(args.out + ".tmp", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
