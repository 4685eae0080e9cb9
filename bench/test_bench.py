"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import reference as ref  # noqa: E402


def test_brute_force_finds_the_swapped_mapping():
    # the planted pattern: a zero-cost mapping exists only with a and b crossed
    question = "(1) alpha beta gamma. (2) which one? (3) A) x y (4) B) z w"
    gold = ref.parse_graph("arc", question, "(1) -> (5): red apple; (1) -> (6): green pear; (5) & (6) -> (7): The answer is A);")
    pred = ref.parse_graph("arc", question, "(1) -> (5): red apple green pear; (1) -> (6): red apple; (5) & (6) -> (7): The answer is A);")
    assert ref.brute_force_delta(pred, gold) == 0
    rp, rg = ref.reduce(pred), ref.reduce(gold)
    assert ref.mapping_cost(pred, gold, rp, rg, {5: 5, 6: 6}) == 1
    assert rp.norm == rg.norm == 4 + 3 + 4


def test_truncated_proof_keeps_complete_clauses():
    clauses, cut = ref.split_proof("(1) -> (3): a b; (3) -> (4): c d; (4) -> (")
    assert [t for _, t, _ in clauses] == [3, 4] and cut


def test_steady_smoke():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "steady.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip().endswith("steady: ok")


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_one_result_line(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "ged-stress", "--seed", "3",
         "--seconds", "1", "--trace", trace, "--records", "40"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] > 0  # the planted family fails today
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "acc9-mixed", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
