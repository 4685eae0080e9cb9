#!/usr/bin/env python3
"""Line-interactive similarity scorer used by the test suite.

Protocol (one request per line on stdin, one reply per line on stdout):

    in:  {"candidate": "...", "reference": "..."}
    out: 0.37

Scores are scripted: a candidate containing a marker like ``[s=0.37]``
scores that value; otherwise exact equality scores 1.0 and anything else
scores 0.0. Replies are flushed per line so a batch driver never deadlocks.

Flags:
    --fail-after N   exit abruptly after N replies (crash-recovery tests)
    --hang-after N   keep reading but stop replying after N replies (deadline tests)
    --banner         print a junk line before the first reply (protocol noise)
"""

import argparse
import json
import re
import sys

MARKER = re.compile(r"\[s=([0-9.]+)\]")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--fail-after", type=int, default=None)
    ap.add_argument("--hang-after", type=int, default=None)
    ap.add_argument("--banner", action="store_true")
    args = ap.parse_args()

    if args.banner:
        print("stub scorer ready", flush=True)

    served = 0
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        if args.hang_after is not None and served >= args.hang_after:
            continue
        req = json.loads(line)
        cand, ref = req["candidate"], req["reference"]
        m = MARKER.search(cand)
        if m:
            score = float(m.group(1))
        else:
            score = 1.0 if cand == ref else 0.0
        print(f"{score}", flush=True)
        served += 1
        if args.fail_after is not None and served >= args.fail_after:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
