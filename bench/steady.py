#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly in two sets and compare.

    python3 bench/steady.py          # every workload, 10 runs per set
    python3 bench/steady.py --smoke  # tiny corpora, for the benchmark's own tests

Each run is `bench/run.py --trace 0` for run_seconds of BENCHMARK.json with
a seed of its own (set k uses seeds 1000k+1, 1000k+2, ...). For every
end-to-end metric it prints each set's median and quartiles and the spread
(q3 - q1) / median. The check fails when a spread exceeds the metric's
bound, when the two sets' medians differ by more than the bound (in either
direction), when the share of failed operations differs between sets, or
when a run is incorrect. It then makes two traced runs per workload with one seed
and fails unless every count among the per-layer metrics repeats exactly.
In --smoke mode the bounds are not applied: tiny corpora measure nothing
steady, and the mode exists to exercise the whole path quickly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
COUNT_UNITS = ("count", "calls/record")
RUNS = 10
SMOKE_RUNS, SMOKE_SECONDS, SMOKE_RECORDS = 3, 1, 60


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: float, trace: int, records: int | None) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if records:
        cmd += ["--records", str(records)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--smoke", action="store_true", help="tiny corpora, 3 runs, bounds not applied")
    args = ap.parse_args(argv)

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    runs = SMOKE_RUNS if args.smoke else RUNS
    seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    records = SMOKE_RECORDS if args.smoke else None
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    problems: list[str] = []
    table: dict = {}
    for workload in workloads:
        sets = []
        for k in (1, 2):
            results = []
            for i in range(1, runs + 1):
                started = time.perf_counter()
                result = run_once(workload, 1000 * k + i, seconds, 0, records)
                print(f"{workload} set {k} run {i}: {time.perf_counter() - started:.1f}s "
                      + " ".join(f"{n}={v['value']:.5g}" for n, v in result["metrics"].items()),
                      file=sys.stderr)
                if not result["correct"]:
                    problems.append(f"{workload}: set {k} run {i} is incorrect")
                results.append(result)
            sets.append(results)
        shares = [{r["failed"] / r["attempted"] for r in results} for results in sets]
        if len(shares[0] | shares[1]) != 1:
            problems.append(f"{workload}: failed shares differ: {sorted(shares[0] | shares[1])}")
        table[workload] = {}
        for name, m in bounds.items():
            stats = [spread([r["metrics"][name]["value"] for r in results]) for results in sets]
            table[workload][name] = [
                {"median": s[0], "q1": s[1], "q3": s[2], "spread": s[3]} for s in stats
            ]
            print(f"{workload:12} {name:26} bound {m['bound']:.2f}  "
                  + "  ".join(f"set{k + 1} median {s[0]:.5g} spread {s[3]:.3f}" for k, s in enumerate(stats)))
            if args.smoke:
                continue
            for k, s in enumerate(stats):
                if s[3] > m["bound"]:
                    problems.append(f"{workload} {name}: set {k + 1} spread {s[3]:.3f} > bound {m['bound']}")
            first, second = stats[0][0], stats[1][0]
            if abs(second - first) / first > m["bound"]:
                problems.append(f"{workload} {name}: medians {first:.5g} and {second:.5g} differ by "
                                f"{abs(second - first) / first:.3f} > bound {m['bound']}")

        traced = [run_once(workload, 7, seconds, 1, records) for _ in range(2)]
        counts = [
            {n: v["value"] for n, v in t["metrics"].items() if v["unit"] in COUNT_UNITS} for t in traced
        ]
        if counts[0] != counts[1]:
            diff = {n: (counts[0][n], counts[1][n]) for n in counts[0] if counts[0][n] != counts[1].get(n)}
            problems.append(f"{workload}: per-layer counts differ between traced runs: {diff}")
        missing = {m["name"] for m in spec["per_layer"]} - set(traced[0]["metrics"])
        if missing:
            problems.append(f"{workload}: traced run lacks {sorted(missing)}")
        table[workload]["per_layer"] = traced[0]["metrics"]

    os.makedirs(os.path.join(ROOT, ".bench_runs"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_runs", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump({"runs": runs, "seconds": seconds, "smoke": args.smoke, "table": table,
                   "problems": problems}, fh, indent=1)
    for p in problems:
        print("FAIL:", p)
    print("steady: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
