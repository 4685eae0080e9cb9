"""Output checks, computed apart from the program.

Each check returns problems as strings. Problems that belong to one record
are keyed by its id, so a run can count failed records; the rest concern the
whole run (byte identity, aggregates, scorer behaviour).
"""

from __future__ import annotations

import json
import math

import reference as ref

BRUTE_FORCE_SAMPLE = 40  # first records in corpus order with <= 5 editable steps per side
BRUTE_FORCE_MAX_STEPS = 5


class Findings:
    def __init__(self) -> None:
        self.by_record: dict[str, list[str]] = {}
        self.run: list[str] = []

    def record(self, record_id: str, problem: str) -> None:
        self.by_record.setdefault(record_id, []).append(problem)

    def to_json(self, limit: int = 20) -> dict:
        return {
            "run": self.run,
            "records_failed": len(self.by_record),
            "records": dict(list(self.by_record.items())[:limit]),
        }


def read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _delta_checks(out: Findings, row: dict, pred: ref.Graph, gold: ref.Graph) -> tuple[ref.Reduced, ref.Reduced]:
    """Invariants of every answer-correct row."""
    rid, delta = row["id"], row["ged_delta"]
    rp, rg = ref.reduce(pred), ref.reduce(gold)
    if delta is None:
        out.record(rid, "answer-correct row has no edit distance")
        return rp, rg
    if row["graph_accurate"] != (delta == 0):
        out.record(rid, f"graph_accurate={row['graph_accurate']} but delta={delta}")
    denom = max(rp.norm, rg.norm)
    expected = 1.0 if denom == 0 else max(0.0, min(1.0, 1.0 - delta / denom))
    if not math.isclose(row["graph_similarity"], expected, rel_tol=1e-12, abs_tol=1e-12):
        out.record(rid, f"similarity {row['graph_similarity']} != 1 - {delta}/{denom}")
    size_difference = abs(rp.nodes - rg.nodes) + abs(len(rp.edges) - len(rg.edges))
    if delta < size_difference:
        out.record(rid, f"delta {delta} below the node plus edge count difference {size_difference}")
    return rp, rg


def _zero_checks(out: Findings, row: dict) -> None:
    if row["graph_similarity"] != 0.0 or row["graph_accurate"]:
        out.record(row["id"], "wrong-answer or malformed row does not score 0")


def check_acc9(out: Findings, lines: list[str], facts: list[dict], rows: list[dict]) -> None:
    """Variants of acceptance criterion 9 against a reference parse of each line."""
    for line, fact, row in zip(lines, facts, rows):
        obj = json.loads(line)
        rid = obj["id"]
        if row["id"] != rid:
            out.run.append(f"row order differs at {rid}")
            return
        gold = ref.parse_graph(obj["task"], obj["question"], obj["proof"])
        try:
            clauses, cut = ref.split_proof(obj["predicted_proof"])
        except ValueError:
            clauses, cut = [], False
        malformed = not clauses
        if row["malformed"] != malformed or row["truncated"] != (cut and not malformed):
            out.record(rid, f"malformed/truncated {row['malformed']}/{row['truncated']} unexpected")
        if malformed:
            _zero_checks(out, row)
            continue
        pred = ref.Graph(gold.task, gold.premises, tuple((p, t) for p, _, t in clauses))
        correct = ref.answer(pred) == ref.answer(gold)
        if row["answer_correct"] != correct:
            out.record(rid, f"answer_correct={row['answer_correct']}, reference says {correct}")
        if fact["variant"] == "exact" and not (
            row["answer_correct"] and row["graph_accurate"]
            and row["graph_similarity"] == 1.0 and row["ged_delta"] == 0.0
        ):
            out.record(rid, "exact copy is not accurate with similarity 1 and delta 0")
        if not row["answer_correct"]:
            _zero_checks(out, row)
        else:
            _delta_checks(out, row, pred, gold)


def check_edited(out: Findings, lines: list[str], facts: list[dict], rows: list[dict]) -> None:
    """Edit-script workloads: every prediction keeps the gold answer."""
    sampled = 0
    for line, fact, row in zip(lines, facts, rows):
        obj = json.loads(line)
        rid = obj["id"]
        if row["id"] != rid:
            out.run.append(f"row order differs at {rid}")
            return
        gold = ref.parse_graph(obj["task"], obj["question"], obj["proof"])
        pred = ref.parse_graph(obj["task"], obj["question"], obj["predicted_proof"])
        if row["malformed"] or row["truncated"] or not row["answer_correct"]:
            out.record(rid, "edited prediction keeps the gold answer but did not score as answer-correct")
            continue
        rp, rg = _delta_checks(out, row, pred, gold)
        delta = row["ged_delta"]
        if delta is None:
            continue
        if row["ged_exact"]:
            pairs = {int(p): g for p, g in fact["pairs"].items()}
            script = ref.mapping_cost(pred, gold, rp, rg, pairs)
            if delta > script:
                out.record(rid, f"exact delta {delta} exceeds the edit script's cost {script}")
        small = len(rp.editable) <= BRUTE_FORCE_MAX_STEPS and len(rg.editable) <= BRUTE_FORCE_MAX_STEPS
        if small and sampled < BRUTE_FORCE_SAMPLE:
            sampled += 1
            brute = ref.brute_force_delta(pred, gold)
            if delta != brute:
                out.record(rid, f"delta {delta} != brute force {brute}")


def check_aggregates(out: Findings, rows: list[dict], report: dict) -> None:
    """Recompute the report's per-task and overall rows from the score rows."""

    def breakdown(label: str, group: list[dict]) -> dict:
        n = len(group)
        flags = [r["ged_exact"] for r in group if r["ged_exact"] is not None]
        return {
            "task": label,
            "count": n,
            "answer_accuracy": 100.0 * sum(r["answer_correct"] for r in group) / n,
            "reasoning_graph_accuracy": 100.0 * sum(r["graph_accurate"] for r in group) / n,
            "graph_similarity": 100.0 * sum(r["graph_similarity"] for r in group) / n,
            "malformed": sum(r["malformed"] for r in group),
            "truncated": sum(r["truncated"] for r in group),
            "ged_exact_fraction": sum(flags) / len(flags) if flags else None,
        }

    groups: dict[str, list[dict]] = {}
    for r in rows:
        groups.setdefault(r["task"], []).append(r)
    expected = {t: breakdown(t, g) for t, g in groups.items()}
    expected["all"] = breakdown("all", rows)
    got = {t["task"]: t for t in report["tasks"]}
    got["all"] = report["overall"]
    if set(got) != set(expected):
        out.run.append(f"report tasks {sorted(got)} != {sorted(expected)}")
        return
    for task, want in expected.items():
        for key, value in want.items():
            have = got[task][key]
            same = (
                have == value if value is None or isinstance(value, (int, str))
                else have is not None and math.isclose(have, value, rel_tol=1e-9, abs_tol=1e-9)
            )
            if not same:
                out.run.append(f"report {task}.{key} = {have}, recomputed {value}")
    if report["skipped"]:
        out.run.append(f"report skipped {len(report['skipped'])} records")


def check_soft_scorer(out: Findings, external: str, builtin: str, stub_log: tuple) -> None:
    """An exact stub of the builtin score changes no score, and the pair cache holds."""
    with open(external + ".scores.jsonl", "rb") as a, open(builtin + ".scores.jsonl", "rb") as b:
        if a.read() != b.read():
            out.run.append("external-scorer scores differ from the builtin-overlap run")
    with open(external + ".report.json", encoding="utf-8") as a, open(builtin + ".report.json", encoding="utf-8") as b:
        ext, own = json.load(a), json.load(b)
    if "similarity" in ext:
        out.run.append(f"report carries {ext['similarity']!r}")
    if {k: v for k, v in ext.items() if k != "scorer"} != {k: v for k, v in own.items() if k != "scorer"}:
        out.run.append("external-scorer report differs from the builtin-overlap report")
    stats = read_stub_log(*stub_log)
    if stats["requests"] == 0:
        out.run.append("the stub scorer served no request")
    if stats["repeated"]:
        out.run.append(f"the stub scorer saw {stats['repeated']} repeated pairs")


def read_stub_log(path: str, start: int, end: int) -> dict:
    """Sum the lines stub scorer processes appended at exit between two file offsets."""
    total = {"requests": 0, "repeated": 0}
    with open(path, "rb") as fh:
        fh.seek(start)
        for line in fh.read(end - start).decode("utf-8").splitlines():
            stats = json.loads(line)
            for key in total:
                total[key] += stats[key]
    return total
