"""Linearized text encoding of reasoning graphs.

An example is rendered as two blocks::

    $question$ = (1) <tlu> (2) <tlu> ... (n) <tlu>
    $proof$ = (a) & (b) -> (c): <step text>; (d) -> (e): <step text>;

The question block numbers the premise TLUs consecutively from 1. Each proof
clause lists its premise ids (or the marker ``(0)`` for a step with no
antecedents), an arrow to a fresh consecutive target id, and the step text
terminated by ``;``. Step text may itself contain parentheses, ``&`` and
``->``; the parser anchors on the first arrow after the premise list and
splits clauses only at a ``;`` that is followed by a new premise list (or the
end of the block), so ordinary math expressions survive round trips.

Canonical form (what ``serialize`` emits): single spaces between elements,
premises in ascending id order joined by `` & ``, steps in ascending target
order, every clause terminated by ``;``. Premise order inside a clause is
not semantic; parsing accepts any order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    CodecError,
    DuplicateStepIdError,
    NonConsecutiveStepIdError,
    ProofSyntaxError,
)
from .graph import QaComponents, ReasoningGraph, build, state_key
from .tasks import AnswerType, TaskSpec

_BLOCKS_RE = re.compile(
    r"\s*\$question\$\s*=\s*(?P<q>.*?)\s*\$proof\$\s*=\s*(?P<p>.*?)\s*\Z",
    re.DOTALL,
)
_PROOF_PREFIX_RE = re.compile(r"\s*\$proof\$\s*=\s*")
_MARKER_RE = re.compile(r"\((\d+)\)")
_CLAUSE_SEP_RE = re.compile(r";\s*(?=\(\d+\)\s*(?:&|->)|\Z)")
_CLAUSE_RE = re.compile(
    r"\s*\((\d+)\)((?:\s*&\s*\(\d+\))*)\s*->\s*\((\d+)\)\s*:\s*(.*)\Z",
    re.DOTALL,
)
_OPTION_RE = re.compile(r"^([A-E])\)")
_QUESTION_END_RE = re.compile(r"\?\s*$")
_CONTINUATION_RE = re.compile(r"(?:,|\band\b|\bthen\b)\s*$")


@dataclass(frozen=True, slots=True)
class LinearizedExample:
    task: TaskSpec
    question_block: str
    proof_block: str


@dataclass(frozen=True, slots=True)
class ParseFailure:
    """A recoverable parse outcome; the metrics layer scores it 0."""

    error: str
    message: str
    position: int | None = None


@dataclass(frozen=True, slots=True)
class ModelProofParse:
    """Outcome of tolerant model-output parsing.

    Exactly one of graph/failure is set. ``truncated`` marks an output whose
    final clause was cut off mid-generation; the graph then holds only the
    complete clauses.
    """

    graph: ReasoningGraph | None
    failure: ParseFailure | None = None
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return self.graph is not None


def split_blocks(raw: str) -> tuple[str, str]:
    """Split a "$question$ = ... $proof$ = ..." string into its two blocks."""
    m = _BLOCKS_RE.match(raw)
    if not m:
        raise ProofSyntaxError(0, '"$question$ = ... $proof$ = ..." blocks')
    return m.group("q"), m.group("p")


def _split_numbered(block: str) -> list[str]:
    """Cut a question block at its consecutive (1) (2) ... markers."""
    marks: list[tuple[int, int]] = []
    expected = 1
    for m in _MARKER_RE.finditer(block):
        preceded_ok = m.start() == 0 or block[m.start() - 1].isspace()
        if preceded_ok and int(m.group(1)) == expected:
            marks.append((m.start(), m.end()))
            expected += 1
    if not marks:
        raise ProofSyntaxError(0, "a numbered TLU marker like (1)")
    if block[: marks[0][0]].strip():
        raise ProofSyntaxError(0, "the question block to start at marker (1)")
    texts: list[str] = []
    for i, (_, tstart) in enumerate(marks):
        tend = marks[i + 1][0] if i + 1 < len(marks) else len(block)
        text = block[tstart:tend].strip()
        if not text:
            raise ProofSyntaxError(tstart, f"text for TLU ({i + 1})")
        texts.append(text)
    return texts


def _detect_options(tlus: list[str]) -> int:
    """Index where the trailing A) B) ... option run starts, or len(tlus).

    The run's lettered TLUs must read A, B, C, ... consecutively; TLUs in
    between that carry no letter marker continue the preceding option.
    """
    n = len(tlus)
    for start in range(n):
        first = _OPTION_RE.match(tlus[start])
        if not first or first.group(1) != "A":
            continue
        letters = [
            m.group(1) for t in tlus[start:] if (m := _OPTION_RE.match(t))
        ]
        expected = [chr(ord("A") + k) for k in range(len(letters))]
        if len(letters) >= 2 and letters == expected:
            return start
    return n


def infer_components(task: TaskSpec, tlus: list[str]) -> QaComponents:
    """Assign question-block TLUs to context/question/options regions.

    State-manipulation tasks: a leading run of "<object> has <state>"
    sentences is the context, the remaining action sentences the question.
    Multiple-choice / number tasks: the trailing option run (if any) is
    detected first; the question region starts at the last "?"-terminated
    TLU before it, widened backwards over mid-sentence continuations (TLUs
    ending with "," / "and" / "then"), and runs through the last pre-option
    TLU; everything earlier is context. The three regions are contiguous, so
    node numbering is preserved.
    """
    if task.answer_type is AnswerType.STATE_PREDICTION:
        split = 0
        while split < len(tlus) and state_key(tlus[split]):
            split += 1
        for t in tlus[split:]:
            if state_key(t):
                raise ProofSyntaxError(
                    0, "initial object states to precede all action sentences"
                )
        return QaComponents(context=tlus[:split], question=tlus[split:])

    opt_start = _detect_options(tlus) if task.n_options else len(tlus)
    if task.n_options and opt_start == len(tlus):
        raise ProofSyntaxError(0, "a trailing option list A) B) ... for this task")

    options: list[list[str]] = []
    for t in tlus[opt_start:]:
        if _OPTION_RE.match(t):
            options.append([t])
        else:
            options[-1].append(t)

    region = tlus[:opt_start]
    if not region:
        raise ProofSyntaxError(0, "at least one TLU before the option list")
    anchor = len(region) - 1
    for i in range(len(region) - 1, -1, -1):
        if _QUESTION_END_RE.search(region[i]):
            anchor = i
            break
    q_start = anchor
    while q_start > 0 and _CONTINUATION_RE.search(region[q_start - 1]):
        q_start -= 1
    return QaComponents(
        context=region[:q_start],
        question=region[q_start:],
        options=options,
    )


@dataclass(frozen=True, slots=True)
class _Clause:
    premises: frozenset[int]
    target: int
    text: str


def _parse_clauses(block: str) -> tuple[list[_Clause], str | None]:
    """Split and parse proof clauses.

    Returns (clauses, tail) where tail is unparsed trailing text after the
    last ';' (None when the block is fully terminated).
    """
    if not block.strip():
        return [], None
    pieces: list[tuple[int, str]] = []
    last = 0
    for m in _CLAUSE_SEP_RE.finditer(block):
        pieces.append((last, block[last : m.start()]))
        last = m.end()
    tail = block[last:]
    clauses: list[_Clause] = []
    for offset, clause in pieces:
        if not clause.strip():
            continue
        m = _CLAUSE_RE.match(clause)
        if not m:
            raise ProofSyntaxError(
                offset, "a clause like '(1) & (2) -> (4): text' before ';'"
            )
        premises = {int(m.group(1))}
        premises.update(int(x) for x in _MARKER_RE.findall(m.group(2)))
        target = int(m.group(3))
        text = m.group(4).strip()
        if 0 in premises and len(premises) > 1:
            raise ProofSyntaxError(offset, "the empty-premise marker (0) to appear alone")
        if not text:
            raise ProofSyntaxError(offset, f"non-empty text for step ({target})")
        clauses.append(_Clause(frozenset(premises), target, text))
    return clauses, (tail if tail.strip() else None)


def _assemble(
    task: TaskSpec, components: QaComponents, clauses: list[_Clause]
) -> ReasoningGraph:
    n_premises = (
        len(components.context)
        + len(components.question)
        + sum(len(o) for o in components.options)
    )
    assigned = n_premises
    ordered: list[tuple[frozenset[int], str]] = []
    for clause in clauses:
        if clause.target <= assigned:
            raise DuplicateStepIdError(f"step id ({clause.target}) is already assigned")
        if clause.target != assigned + 1:
            raise NonConsecutiveStepIdError(
                f"expected step id ({assigned + 1}), found ({clause.target})"
            )
        assigned += 1
        ordered.append((clause.premises, clause.text))
    return build(task, components, ordered)


def components_from_block(task: TaskSpec, question_block: str) -> QaComponents:
    """Split a numbered question block into its typed regions."""
    return infer_components(task, _split_numbered(question_block))


def parse(example: LinearizedExample) -> ReasoningGraph:
    """Strict parse of a linearized example into a reasoning graph.

    Raises codec/graph errors on malformed input; see parse_model_output for
    the tolerant variant used on model generations.
    """
    components = components_from_block(example.task, example.question_block)
    steps, tail = _parse_clauses(example.proof_block)
    if tail is not None:
        raise ProofSyntaxError(
            len(example.proof_block) - len(tail), "';' terminating the final clause"
        )
    return _assemble(example.task, components, steps)


def parse_model_output(
    raw_proof: str, task: TaskSpec, components: QaComponents
) -> ModelProofParse:
    """Tolerant parse of a model-generated proof block.

    The question side always comes from the gold components. All failures
    are returned as ParseFailure values (never raised): downstream scoring
    maps them to zero scores. A block whose final clause was cut off before
    its ';' yields the complete clauses with truncated=True.
    """
    try:
        block = _PROOF_PREFIX_RE.sub("", raw_proof, count=1)
        steps, tail = _parse_clauses(block)
        if not steps:
            return ModelProofParse(
                graph=None,
                failure=ParseFailure(
                    "EmptyProofError", "the proof block contains no clauses", 0
                ),
            )
        graph = _assemble(task, components, steps)
        return ModelProofParse(graph=graph, truncated=tail is not None)
    except ProofSyntaxError as e:
        return ModelProofParse(
            graph=None,
            failure=ParseFailure("ProofSyntaxError", str(e), e.position),
        )
    except CodecError as e:
        return ModelProofParse(
            graph=None, failure=ParseFailure(type(e).__name__, str(e))
        )
    except Exception as e:  # defensive: arbitrary bytes must never abort a run
        return ModelProofParse(
            graph=None, failure=ParseFailure(type(e).__name__, str(e))
        )


def serialize(graph: ReasoningGraph) -> LinearizedExample:
    """Render a graph in canonical linear form."""
    q_parts = [f"({i}) {graph.nodes[i].text}" for i in graph.premise_ids]
    clauses = []
    for i in graph.step_ids:
        premises = graph.parents(i)
        plist = " & ".join(f"({p})" for p in premises) if premises else "(0)"
        clauses.append(f"{plist} -> ({i}): {graph.nodes[i].text};")
    return LinearizedExample(
        task=graph.task,
        question_block=" ".join(q_parts),
        proof_block=" ".join(clauses),
    )


def render(example: LinearizedExample) -> str:
    """One-string form of an example."""
    return (
        f"$question$ = {example.question_block} $proof$ = {example.proof_block}"
    )
