#!/usr/bin/env python3
"""Print the make-up of a workload's corpus for a seed, without measuring.

    python3 bench/describe.py --workload ged-stress --seed 1
"""

import argparse
import json
import sys

import run  # the workload table and the path of the program
from corpora import describe


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, run.SRC)
    records, make, _, _ = run.WORKLOADS[args.workload]
    print(json.dumps(describe(make(args.seed, records)), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
