#!/usr/bin/env python3
"""External similarity scorer that returns the builtin token-overlap F1.

Speaks the line protocol of `rgraph score --scorer-cmd`: one JSON request
{"candidate": ..., "reference": ...} per line on stdin, one score per line
on stdout, flushed. The score is `reference.token_f1`, so a run with this
scorer must score exactly like a builtin-overlap run. At end of input it appends
{"requests": n, "repeated": m} to the file named by --log; `repeated` counts
pairs it had already been asked about, which the toolkit's pair cache should
make 0.

    python3 bench/stub_scorer.py --log path/to/stub.log
"""

import argparse
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from reference import token_f1  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--log", required=True)
    args = ap.parse_args()
    # the toolkit closes stdin and then terminates the scorer at once; run to
    # the end of input regardless, so the log line is always written
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    seen = set()
    requests = repeated = 0
    for line in sys.stdin:
        if not line.strip():
            continue
        req = json.loads(line)
        pair = (req["candidate"], req["reference"])
        requests += 1
        if pair in seen:
            repeated += 1
        seen.add(pair)
        sys.stdout.write(repr(token_f1(*pair)) + "\n")
        sys.stdout.flush()
    with open(args.log, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"requests": requests, "repeated": repeated}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
