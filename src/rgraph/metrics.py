"""The three evaluation metrics and the record-scoring pipeline.

For each question with a predicted proof:

- answer accuracy: the predicted final answer equals the gold one;
- reasoning graph accuracy: beyond the answer, the predicted graph aligns
  step-for-step with the gold graph (same translated premise sets, similar
  texts, same edges);
- graph similarity: 1 - delta / max(|N_p| + |E_p|, |N_g| + |E_g|), where
  delta is the graph edit distance and the norms count the reduced graphs.
  A wrong or malformed answer scores 0; a graph-accurate prediction scores
  1; everything else lands in between and is clamped to [0, 1].

Hallucinated zero-antecedent steps are ignored everywhere except through
their absence: edges they fed never existed, and they do not count toward
the normalization.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from .codec import parse_model_output
from .corpus import CorpusRecord
from .errors import (
    AnswerTypeMismatchError,
    ExternalScorerUnavailableError,
    ReasoningGraphError,
)
from .ged import GedOutcome, ged
from .graph import AnswerValue, ReasoningGraph, extract_answer
from .similarity import (
    DEFAULT_SOFT_THRESHOLD,
    ExternalScorer,
    default_policy,
    sigma,
)
from .tasks import TASK_ORDER

SigmaFn = Callable[[str, str], bool]

OVERALL_LABEL = "all"


def answer_accuracy(predicted: AnswerValue, gold: AnswerValue) -> bool:
    """Equality of two extracted answers of the same type."""
    if type(predicted) is not type(gold):
        raise AnswerTypeMismatchError(
            f"cannot compare {type(predicted).__name__} with {type(gold).__name__}"
        )
    return predicted == gold


def reasoning_graph_accuracy(
    pred: ReasoningGraph, gold: ReasoningGraph, sigma_fn: SigmaFn
) -> bool:
    """Answers match and a zero-cost step mapping exists (edit distance 0)."""
    return ged(pred, gold, sigma_fn).delta == 0.0


def eq1_similarity(outcome: GedOutcome) -> float:
    if math.isinf(outcome.delta):
        return 0.0
    denom = max(outcome.norm_terms)
    if denom == 0:
        return 1.0 if outcome.delta == 0 else 0.0
    return max(0.0, min(1.0, 1.0 - outcome.delta / denom))


def graph_similarity(
    pred: ReasoningGraph, gold: ReasoningGraph, sigma_fn: SigmaFn
) -> tuple[float, GedOutcome]:
    """Normalized edit-distance similarity and the distance that backs it."""
    outcome = ged(pred, gold, sigma_fn)
    return eq1_similarity(outcome), outcome


@dataclass(frozen=True)
class QuestionScore:
    qid: str
    task: str
    answer_correct: bool
    graph_accurate: bool
    similarity: float
    malformed: bool
    truncated: bool
    parse_error: str | None = None
    delta: float | None = None
    ged_exact: bool | None = None

    def to_json(self) -> dict:
        return {
            "id": self.qid,
            "task": self.task,
            "answer_correct": self.answer_correct,
            "graph_accurate": self.graph_accurate,
            "graph_similarity": self.similarity,
            "malformed": self.malformed,
            "truncated": self.truncated,
            "parse_error": self.parse_error,
            "ged_delta": self.delta,
            "ged_exact": self.ged_exact,
        }


def score_question(
    record: CorpusRecord,
    scorer: ExternalScorer | None = None,
    threshold: float = DEFAULT_SOFT_THRESHOLD,
) -> QuestionScore:
    """All three metrics for one record; requires a predicted proof."""
    if record.predicted_proof is None:
        raise ValueError(f"record {record.id!r} has no predicted proof")
    policy = default_policy(record.task, scorer, threshold)
    gold = record.gold
    mp = parse_model_output(record.predicted_proof, record.task, record.components)
    if mp.graph is None:
        return QuestionScore(
            qid=record.id,
            task=record.task.name,
            answer_correct=False,
            graph_accurate=False,
            similarity=0.0,
            malformed=True,
            truncated=False,
            parse_error=f"{mp.failure.error}: {mp.failure.message}",
        )
    pred = mp.graph

    try:
        answer_correct = extract_answer(pred) == extract_answer(gold)
    except ReasoningGraphError:
        answer_correct = False
    if not answer_correct:
        return QuestionScore(
            qid=record.id,
            task=record.task.name,
            answer_correct=False,
            graph_accurate=False,
            similarity=0.0,
            malformed=False,
            truncated=mp.truncated,
        )

    def sigma_fn(candidate: str, reference: str) -> bool:
        return sigma(policy, candidate, reference)

    # graph accuracy is a zero-cost mapping
    outcome = ged(pred, gold, sigma_fn)
    return QuestionScore(
        qid=record.id,
        task=record.task.name,
        answer_correct=True,
        graph_accurate=outcome.delta == 0.0,
        similarity=eq1_similarity(outcome),
        malformed=False,
        truncated=mp.truncated,
        delta=None if math.isinf(outcome.delta) else outcome.delta,
        ged_exact=outcome.exact,
    )


@dataclass(frozen=True)
class ScoreRun:
    scores: tuple[QuestionScore, ...]
    skipped: tuple[str, ...]  # record ids lacking a predicted proof
    fallback: bool = False  # external scorer died; finished on builtin overlap


def _score_payload(payload: tuple[CorpusRecord, float]) -> QuestionScore:
    record, threshold = payload
    return score_question(record, scorer=None, threshold=threshold)


def score_records(
    records: Sequence[CorpusRecord],
    scorer: ExternalScorer | None = None,
    threshold: float = DEFAULT_SOFT_THRESHOLD,
    jobs: int = 1,
) -> ScoreRun:
    """Score every record that has a predicted proof, preserving order.

    An external scorer pins the run to one process: the scorer is a single
    stateful subprocess and its responses must stay paired with requests.
    """
    scorable = [r for r in records if r.predicted_proof is not None]
    skipped = tuple(r.id for r in records if r.predicted_proof is None)
    if jobs > 1 and scorer is None and len(scorable) > 1:
        payloads = [(r, threshold) for r in scorable]
        chunk = max(1, len(payloads) // (jobs * 4))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            scores = tuple(pool.map(_score_payload, payloads, chunksize=chunk))
        return ScoreRun(scores, skipped)

    fallback = False
    collected: list[QuestionScore] = []
    for r in scorable:
        try:
            collected.append(score_question(r, scorer=scorer, threshold=threshold))
        except ExternalScorerUnavailableError:
            # the run must survive a dying scorer: finish on the builtin
            # overlap score and mark the report
            fallback = True
            scorer = None
            collected.append(score_question(r, scorer=None, threshold=threshold))
    return ScoreRun(tuple(collected), skipped, fallback=fallback)


@dataclass(frozen=True)
class TaskBreakdown:
    task: str
    count: int
    answer_accuracy: float  # percentages, 0..100
    reasoning_graph_accuracy: float
    graph_similarity: float
    malformed: int
    truncated: int
    ged_exact_fraction: float | None

    def to_json(self) -> dict:
        return {
            "task": self.task,
            "count": self.count,
            "answer_accuracy": self.answer_accuracy,
            "reasoning_graph_accuracy": self.reasoning_graph_accuracy,
            "graph_similarity": self.graph_similarity,
            "malformed": self.malformed,
            "truncated": self.truncated,
            "ged_exact_fraction": self.ged_exact_fraction,
        }


@dataclass(frozen=True)
class RunReport:
    rows: tuple[TaskBreakdown, ...]
    overall: TaskBreakdown
    skipped: tuple[str, ...]
    fallback_similarity: bool = False

    def to_json(self) -> dict:
        payload = {
            "tasks": [row.to_json() for row in self.rows],
            "overall": self.overall.to_json(),
            "skipped": list(self.skipped),
        }
        if self.fallback_similarity:
            payload["similarity"] = "fallback-similarity"
        return payload


def _breakdown(label: str, scores: Sequence[QuestionScore]) -> TaskBreakdown:
    n = len(scores)
    ged_flags = [s.ged_exact for s in scores if s.ged_exact is not None]
    return TaskBreakdown(
        task=label,
        count=n,
        answer_accuracy=100.0 * sum(s.answer_correct for s in scores) / n if n else 0.0,
        reasoning_graph_accuracy=(
            100.0 * sum(s.graph_accurate for s in scores) / n if n else 0.0
        ),
        graph_similarity=100.0 * sum(s.similarity for s in scores) / n if n else 0.0,
        malformed=sum(s.malformed for s in scores),
        truncated=sum(s.truncated for s in scores),
        ged_exact_fraction=(
            sum(ged_flags) / len(ged_flags) if ged_flags else None
        ),
    )


def aggregate(run: ScoreRun) -> RunReport:
    by_task: dict[str, list[QuestionScore]] = {}
    for s in run.scores:
        by_task.setdefault(s.task, []).append(s)
    ordered = [t for t in TASK_ORDER if t in by_task]
    ordered += sorted(t for t in by_task if t not in TASK_ORDER)
    rows = tuple(_breakdown(t, by_task[t]) for t in ordered)
    return RunReport(
        rows,
        _breakdown(OVERALL_LABEL, run.scores),
        run.skipped,
        fallback_similarity=run.fallback,
    )


def render_table(report: RunReport) -> str:
    """Metrics as rows, tasks as columns, percentages to one decimal."""
    columns = [row.task for row in report.rows] + [OVERALL_LABEL]
    cells: dict[str, list[str]] = {
        "questions": [],
        "answer accuracy %": [],
        "graph accuracy %": [],
        "graph similarity %": [],
        "malformed": [],
    }
    for row in list(report.rows) + [report.overall]:
        cells["questions"].append(str(row.count))
        cells["answer accuracy %"].append(f"{row.answer_accuracy:.1f}")
        cells["graph accuracy %"].append(f"{row.reasoning_graph_accuracy:.1f}")
        cells["graph similarity %"].append(f"{row.graph_similarity:.1f}")
        cells["malformed"].append(str(row.malformed))
    label_width = max(len(k) for k in cells)
    widths = [
        max(len(columns[j]), max(len(cells[k][j]) for k in cells))
        for j in range(len(columns))
    ]
    lines = [
        " ".join(
            [" " * label_width]
            + [columns[j].rjust(widths[j]) for j in range(len(columns))]
        )
    ]
    for name, values in cells.items():
        lines.append(
            " ".join(
                [name.ljust(label_width)]
                + [values[j].rjust(widths[j]) for j in range(len(columns))]
            )
        )
    return "\n".join(lines)
