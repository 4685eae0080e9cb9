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

import concurrent.futures
import math
import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .codec import parse_model_output
from .corpus import CorpusRecord, duplicate_error, read_line
from .errors import (
    AnswerTypeMismatchError,
    ExternalScorerUnavailableError,
    SchemaError,
)
from .ged import GedOutcome, ged
from .graph import AnswerValue, ReasoningGraph
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


def _zero_row(
    record: CorpusRecord,
    malformed: bool = False,
    truncated: bool = False,
    parse_error: str | None = None,
) -> QuestionScore:
    """A row that scores 0 on all three metrics."""
    return QuestionScore(
        record.id, record.task.name, False, False, 0.0, malformed, truncated, parse_error
    )


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
        parse_error = f"{mp.failure.error}: {mp.failure.message}"
        return _zero_row(record, malformed=True, parse_error=parse_error)
    pred = mp.graph
    if pred.answer is None or pred.answer != gold.answer:
        return _zero_row(record, truncated=mp.truncated)

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


class _Rater:
    """score_question in this process. Once the external scorer is
    unavailable, the rest of the run uses the builtin overlap score; any
    other error scores the record 0 and is named, with its type, in
    parse_error."""

    def __init__(self, scorer: ExternalScorer | None, threshold: float):
        self.scorer, self.threshold, self.fallback = scorer, threshold, False

    def __call__(self, record: CorpusRecord) -> QuestionScore:
        try:
            return score_question(record, self.scorer, self.threshold)
        except ExternalScorerUnavailableError:
            if self.scorer is None:
                raise
            self.scorer, self.fallback = None, True
            return self(record)
        except Exception as e:  # one record must never abort a run
            return _zero_row(record, parse_error=f"{type(e).__name__}: {e}")


def score_records(
    records: Sequence[CorpusRecord],
    scorer: ExternalScorer | None = None,
    threshold: float = DEFAULT_SOFT_THRESHOLD,
    jobs: int = 1,
) -> ScoreRun:
    """Score, in order and in this process, each record with a predicted proof.

    jobs must be 1: score_lines spreads raw corpus lines over processes."""
    if jobs != 1:
        raise ValueError(f"score_records runs in one process (jobs={jobs}); use score_lines")
    rate = _Rater(scorer, threshold)
    scores = tuple(rate(r) for r in records if r.predicted_proof is not None)
    skipped = tuple(r.id for r in records if r.predicted_proof is None)
    return ScoreRun(scores, skipped, fallback=rate.fallback)


class LineScore(NamedTuple):
    """A valid corpus line: its record's id and task, and its score if scored."""

    line_no: int
    qid: str
    task: str
    score: QuestionScore | None


LineResult = LineScore | SchemaError | None  # None: a blank line
Chunk = list[tuple[int, str]]  # numbered lines

MAX_CHUNK_LINES = 256  # bounds the lines a worker holds at once
_FORK = multiprocessing.get_context("fork")


def score_line(
    line_no: int, line: str, rate: Callable[[CorpusRecord], QuestionScore | None]
) -> LineResult:
    """One corpus line read, and its record scored by rate."""
    item = read_line(line_no, line)
    if not isinstance(item, CorpusRecord):
        return item
    return LineScore(line_no, item.id, item.task.name, rate(item))


def _wanted(record: CorpusRecord, task: str | None) -> bool:
    return record.predicted_proof is not None and task in (None, record.task.name)


def score_lines(
    lines: Iterable[str],
    n_lines: int,
    task: str | None = None,
    scorer: ExternalScorer | None = None,
    threshold: float = DEFAULT_SOFT_THRESHOLD,
    jobs: int = 1,
) -> tuple[ScoreRun, tuple[SchemaError, ...]]:
    """Read and score a corpus given as its n_lines raw lines, in order.

    Lines are read as ingest_lines reads them: a repeated id is rejected
    whatever its task, then only records of `task` (a task name), if given,
    are kept. Returns the run and the errors of the rejected lines.

    With jobs > 1 and no external scorer, worker processes read and score
    chunks of lines. An external scorer pins the run to this process: it is
    a single stateful subprocess whose replies must stay paired with requests.
    """
    numbered = enumerate(lines, start=1)
    seen: set[str] = set()
    rate = _Rater(scorer, threshold)
    if jobs > 1 and scorer is None and n_lines > 1:
        size = min(MAX_CHUNK_LINES, -(-n_lines // (4 * jobs)))
        results = _pooled(numbered, size, task, threshold, jobs)
    else:

        def rate_new(record: CorpusRecord) -> QuestionScore | None:
            # results are consumed one by one, so seen holds every earlier id
            return rate(record) if _wanted(record, task) and record.id not in seen else None

        results = (score_line(n, line, rate_new) for n, line in numbered)
    scores: list[QuestionScore] = []
    skipped: list[str] = []
    errors: list[SchemaError] = []
    for result in results:
        if isinstance(result, LineScore):
            result = duplicate_error(result.line_no, result.qid, seen) or result
        if isinstance(result, SchemaError):
            errors.append(result)
        elif result is not None and task in (None, result.task):
            if result.score is None:
                skipped.append(result.qid)
            else:
                scores.append(result.score)
    return ScoreRun(tuple(scores), tuple(skipped), rate.fallback), tuple(errors)


def _score_chunk(
    chunk: Chunk, task: str | None, threshold: float, broken: BaseException | None = None
) -> list[LineResult]:
    """score_line over a chunk; every record scores 0 when its pool broke."""
    rate_any = _Rater(None, threshold)

    def rate(record: CorpusRecord) -> QuestionScore | None:
        if not _wanted(record, task):
            return None
        if broken is not None:
            return _zero_row(record, parse_error=f"{type(broken).__name__}: {broken}")
        return rate_any(record)

    return [score_line(n, line, rate) for n, line in chunk]


def _exit_with_parent(parent: int) -> None:
    """Pool initializer: end this worker once the process that started it is gone."""

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.25)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _pooled(
    numbered: Iterator[tuple[int, str]], size: int, task: str | None, threshold: float, jobs: int
) -> Iterator[LineResult]:
    """Score chunks of `size` lines in `jobs` processes, in order, at most
    2 * jobs chunks in flight.

    A worker that dies breaks its pool. The chunks the pool had not
    answered go, one at a time, to a new pool; a chunk that breaks a pool
    on its own scores 0, and the file goes on.
    """
    chunks = iter(lambda: list(islice(numbered, size)), [])
    queue: deque[Chunk] = deque()  # read from the file, not yet answered
    suspects = 0  # chunks at the head of queue left unanswered by a broken pool
    while True:
        futures: deque[concurrent.futures.Future] = deque()
        # fork, whatever the platform's default: the watchdog compares each
        # worker's parent with this process
        with concurrent.futures.ProcessPoolExecutor(
            jobs, mp_context=_FORK, initializer=_exit_with_parent, initargs=(os.getpid(),)
        ) as pool:
            try:
                while True:
                    width = 1 if suspects else 2 * jobs
                    while len(queue) < width and (chunk := next(chunks, None)):
                        queue.append(chunk)
                    while len(futures) < min(width, len(queue)):
                        chunk = queue[len(futures)]
                        futures.append(pool.submit(_score_chunk, chunk, task, threshold))
                    if not queue:
                        return
                    yield from futures[0].result()
                    futures.popleft()
                    queue.popleft()
                    suspects = max(0, suspects - 1)
            except BrokenProcessPool as e:
                broken = e
        if suspects:
            suspects -= 1
            yield from _score_chunk(queue.popleft(), task, threshold, broken)
        else:
            suspects = len(queue)


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
