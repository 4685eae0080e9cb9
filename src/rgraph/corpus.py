"""Corpus ingestion, dataset statistics and inter-rater agreement.

A corpus is JSON Lines: one record per line with keys id, task, question,
proof, and optionally predicted_proof. Ingestion validates each line all
the way through graph validation: a record that survives carries a parsed
gold graph with zero violations. Bad lines are collected with their line
numbers; the run continues.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .codec import LinearizedExample, components_from_block, parse, serialize
from .errors import (
    FileUnreadableError,
    InsufficientRatersError,
    ReasoningGraphError,
    SchemaError,
)
from .graph import QaComponents, ReasoningGraph, validate
from .tasks import TASK_ORDER, TaskSpec, get_task

STEP_DISPLAY_CAP = 15
IN_DEGREE_DISPLAY_CAP = 8

OVERALL_LABEL = "all"


@dataclass(frozen=True)
class CorpusRecord:
    id: str
    task: TaskSpec
    components: QaComponents
    gold: ReasoningGraph
    predicted_proof: str | None = None

    def to_json(self) -> dict:
        example = serialize(self.gold)
        out: dict = {
            "id": self.id,
            "task": self.task.name,
            "question": example.question_block,
            "proof": example.proof_block,
        }
        if self.predicted_proof is not None:
            out["predicted_proof"] = self.predicted_proof
        return out


@dataclass(frozen=True)
class IngestReport:
    records: tuple[CorpusRecord, ...]
    errors: tuple[SchemaError, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def record_from_strings(
    record_id: str,
    task: TaskSpec | str,
    question: str,
    proof: str,
    predicted_proof: str | None = None,
) -> CorpusRecord:
    """Build a validated record from linearized blocks.

    Raises the underlying codec/graph error on unparseable input and
    SchemaError (line 0) when the gold graph has validation violations.
    """
    spec = get_task(task) if isinstance(task, str) else task
    components = components_from_block(spec, question)
    gold = parse(LinearizedExample(spec, question, proof), components)
    violations = validate(gold)
    if violations:
        details = "; ".join(f"{v.rule}: {v.message}" for v in violations[:3])
        raise SchemaError(0, f"gold graph is invalid: {details}")
    return CorpusRecord(record_id, spec, components, gold, predicted_proof)


def _record_from_obj(obj: object, line_no: int) -> CorpusRecord:
    if not isinstance(obj, dict):
        raise SchemaError(line_no, "record is not a JSON object")
    for key in ("id", "task", "question", "proof"):
        if key not in obj:
            raise SchemaError(line_no, f"missing required key {key!r}")
        if not isinstance(obj[key], str):
            raise SchemaError(line_no, f"key {key!r} is not a string")
    for key in ("question", "proof"):
        if not obj[key].strip():
            raise SchemaError(line_no, f"key {key!r} is empty")
    predicted = obj.get("predicted_proof")
    if predicted is not None and not isinstance(predicted, str):
        raise SchemaError(line_no, "key 'predicted_proof' is not a string")
    try:
        task = get_task(obj["task"])
    except KeyError as e:
        raise SchemaError(line_no, str(e.args[0])) from None
    try:
        return record_from_strings(
            obj["id"], task, obj["question"], obj["proof"], predicted
        )
    except SchemaError as e:
        raise SchemaError(line_no, e.message) from None
    except ReasoningGraphError as e:
        raise SchemaError(line_no, f"gold record does not parse: {e}") from None


def read_line(line_no: int, line: str) -> CorpusRecord | SchemaError | None:
    """One corpus line: its record, the error that rejects it, or None if blank."""
    if not line.strip():
        return None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        return SchemaError(line_no, f"invalid JSON: {e.msg}")
    try:
        return _record_from_obj(obj, line_no)
    except SchemaError as e:
        return e


def duplicate_error(line_no: int, record_id: str, seen: set[str]) -> SchemaError | None:
    """The error for a record id already in seen; otherwise add it to seen."""
    if record_id in seen:
        return SchemaError(line_no, f"duplicate record id {record_id!r}")
    seen.add(record_id)
    return None


def ingest_lines(lines: Iterable[str]) -> IngestReport:
    records: list[CorpusRecord] = []
    errors: list[SchemaError] = []
    seen_ids: set[str] = set()
    for line_no, line in enumerate(lines, start=1):
        item = read_line(line_no, line)
        if isinstance(item, CorpusRecord):
            item = duplicate_error(line_no, item.id, seen_ids) or item
        if isinstance(item, SchemaError):
            errors.append(item)
        elif item is not None:
            records.append(item)
    return IngestReport(tuple(records), tuple(errors))


def ingest(path: str) -> IngestReport:
    try:
        with open(path, encoding="utf-8") as fh:
            return ingest_lines(fh)
    except OSError as e:
        raise FileUnreadableError(f"cannot read {path}: {e}") from e


def write_records(path: str, records: Iterable[CorpusRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_json(), ensure_ascii=False) + "\n")


@dataclass(frozen=True)
class TaskStats:
    task: str
    n_questions: int
    n_steps: int
    step_histogram: dict[int, int]  # steps per question -> question count
    mean_steps: float
    frac_over_10_steps: float
    in_degree_histogram: dict[int, int]  # premises per step -> step count
    frac_in_degree_ge_2: float

    def to_json(self) -> dict:
        return {
            "task": self.task,
            "questions": self.n_questions,
            "steps": self.n_steps,
            "step_histogram": {str(k): v for k, v in sorted(self.step_histogram.items())},
            "mean_steps": self.mean_steps,
            "frac_over_10_steps": self.frac_over_10_steps,
            "in_degree_histogram": {
                str(k): v for k, v in sorted(self.in_degree_histogram.items())
            },
            "frac_in_degree_ge_2": self.frac_in_degree_ge_2,
        }


@dataclass(frozen=True)
class DatasetStats:
    per_task: tuple[TaskStats, ...]
    overall: TaskStats

    def to_json(self) -> dict:
        return {
            "tasks": [t.to_json() for t in self.per_task],
            "overall": self.overall.to_json(),
        }


def _task_stats(label: str, graphs: Sequence[ReasoningGraph]) -> TaskStats:
    step_histogram: dict[int, int] = {}
    in_degree_histogram: dict[int, int] = {}
    total_steps = 0
    over_10 = 0
    ge_2 = 0
    for graph in graphs:
        n_steps = len(graph.step_ids)
        step_histogram[n_steps] = step_histogram.get(n_steps, 0) + 1
        total_steps += n_steps
        if n_steps > 10:
            over_10 += 1
        for i in graph.step_ids:
            d = graph.in_degree(i)
            in_degree_histogram[d] = in_degree_histogram.get(d, 0) + 1
            if d >= 2:
                ge_2 += 1
    n = len(graphs)
    return TaskStats(
        task=label,
        n_questions=n,
        n_steps=total_steps,
        step_histogram=step_histogram,
        mean_steps=total_steps / n if n else 0.0,
        frac_over_10_steps=over_10 / n if n else 0.0,
        in_degree_histogram=in_degree_histogram,
        frac_in_degree_ge_2=ge_2 / total_steps if total_steps else 0.0,
    )


def corpus_stats(records: Sequence[CorpusRecord]) -> DatasetStats:
    """Structural statistics over the gold graphs, broken down by task."""
    by_task: dict[str, list[ReasoningGraph]] = {}
    for record in records:
        by_task.setdefault(record.task.name, []).append(record.gold)
    ordered = [t for t in TASK_ORDER if t in by_task]
    ordered += sorted(t for t in by_task if t not in TASK_ORDER)
    per_task = tuple(_task_stats(t, by_task[t]) for t in ordered)
    overall = _task_stats(OVERALL_LABEL, [r.gold for r in records])
    return DatasetStats(per_task, overall)


def _capped_histogram(counts: dict[int, int], cap: int) -> list[tuple[str, int]]:
    rows: list[tuple[str, int]] = []
    tail = 0
    for k in sorted(counts):
        if k >= cap:
            tail += counts[k]
        else:
            rows.append((str(k), counts[k]))
    if tail:
        rows.append((f"{cap}+", tail))
    return rows


def _render_task_stats(stats: TaskStats) -> list[str]:
    lines = [f"[{stats.task}]"]
    lines.append(f"  questions: {stats.n_questions}")
    lines.append(f"  reasoning steps: {stats.n_steps}")
    lines.append(f"  mean steps per question: {stats.mean_steps:.2f}")
    lines.append(f"  questions with more than 10 steps: {stats.frac_over_10_steps:.1%}")
    lines.append("  steps per question:")
    for label, count in _capped_histogram(stats.step_histogram, STEP_DISPLAY_CAP):
        lines.append(f"    {label:>3}: {count}")
    lines.append(f"  steps with 2 or more premises: {stats.frac_in_degree_ge_2:.1%}")
    lines.append("  premises per step:")
    for label, count in _capped_histogram(
        stats.in_degree_histogram, IN_DEGREE_DISPLAY_CAP
    ):
        lines.append(f"    {label:>3}: {count}")
    return lines


def render_stats(stats: DatasetStats) -> str:
    lines: list[str] = []
    for task_stats in stats.per_task:
        lines.extend(_render_task_stats(task_stats))
    lines.extend(_render_task_stats(stats.overall))
    return "\n".join(lines)


@dataclass(frozen=True)
class KappaResult:
    kappa: float
    observed_agreement: float
    expected_agreement: float
    degenerate: bool


def fleiss_kappa_details(matrix: Sequence[Sequence[int]]) -> KappaResult:
    """Fleiss' kappa for a subjects x categories table of rating counts.

    Every row must sum to the same number of raters (at least 2). When the
    expected agreement is 1 (all raters used one category throughout),
    kappa's usual form divides by zero; agreement is then perfect and the
    result is 1.0 with the degenerate flag set.
    """
    if not matrix:
        raise InsufficientRatersError("the rating table is empty")
    n_raters = sum(matrix[0])
    if n_raters < 2:
        raise InsufficientRatersError("each subject needs at least 2 ratings")
    n_categories = len(matrix[0])
    totals = [0] * n_categories
    p_sum = 0.0
    for row in matrix:
        if len(row) != n_categories:
            raise InsufficientRatersError("ragged rating table")
        if any(c < 0 for c in row):
            raise InsufficientRatersError("negative rating count")
        if sum(row) != n_raters:
            raise InsufficientRatersError(
                f"every subject needs exactly {n_raters} ratings"
            )
        p_sum += (sum(c * c for c in row) - n_raters) / (n_raters * (n_raters - 1))
        for j, c in enumerate(row):
            totals[j] += c
    n_subjects = len(matrix)
    p_bar = p_sum / n_subjects
    grand = n_subjects * n_raters
    p_bar_e = sum((t / grand) ** 2 for t in totals)
    if math.isclose(p_bar_e, 1.0):
        return KappaResult(1.0, p_bar, p_bar_e, degenerate=True)
    kappa = (p_bar - p_bar_e) / (1.0 - p_bar_e)
    return KappaResult(kappa, p_bar, p_bar_e, degenerate=False)


def fleiss_kappa(matrix: Sequence[Sequence[int]]) -> float:
    return fleiss_kappa_details(matrix).kappa
