"""Reasoning-graph data model.

A reasoning graph is a DAG whose nodes each carry one text unit (TLU):
question components (context / question / options) plus the reasoning steps
of a proof, with edges running premise -> conclusion. Node ids are 1-based
integers; the id 0 is reserved at API boundaries as the "no antecedents"
marker and never names a real node.
"""

from __future__ import annotations

import enum
import heapq
import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from functools import cached_property
from typing import Iterable, Mapping

from .errors import (
    CycleError,
    DanglingPremiseError,
    EmptyStepTextError,
    MissingAnswerNodeError,
    ReasoningGraphError,
    UnknownNodeError,
    UnparseableAnswerTextError,
)
from .tasks import AnswerType, TaskSpec

ANSWER_PREFIX = "The answer is"

ORDINALS = (
    "first",
    "second",
    "third",
    "fourth",
    "fifth",
    "sixth",
    "seventh",
    "eighth",
    "ninth",
    "tenth",
)
_ORDINAL_INDEX = {w: i + 1 for i, w in enumerate(ORDINALS)}

_BEAKER_STATE_RE = re.compile(rf"^({'|'.join(ORDINALS)}) beaker has (.+)$")
_POSITION_STATE_RE = re.compile(r"^position (\d+) has (.+)$")


class NodeKind(enum.Enum):
    CONTEXT = "context"
    QUESTION = "question"
    OPTION = "option"
    ANSWER = "answer"
    REASONING_STEP = "reasoning_step"


PREMISE_KINDS = frozenset({NodeKind.CONTEXT, NodeKind.QUESTION, NodeKind.OPTION})
STEP_KINDS = frozenset({NodeKind.REASONING_STEP, NodeKind.ANSWER})


@dataclass(frozen=True, slots=True)
class Node:
    kind: NodeKind
    text: str


# --- answer values ---


@dataclass(frozen=True, slots=True)
class Choice:
    letter: str


@dataclass(frozen=True, slots=True)
class Number:
    value: Decimal


@dataclass(frozen=True)
class WorldState:
    """Combined per-object state; objects keyed e.g. "beaker3" / "position5"."""

    states: tuple[tuple[str, str], ...]

    def __init__(self, states: Mapping[str, str] | Iterable[tuple[str, str]]):
        items = states.items() if isinstance(states, Mapping) else states
        object.__setattr__(self, "states", tuple(sorted(items)))

    def as_dict(self) -> dict[str, str]:
        return dict(self.states)


AnswerValue = Choice | Number | WorldState


@dataclass(frozen=True)
class QaComponents:
    """The question side of an example, already segmented into TLUs.

    For state-manipulation tasks `context` holds the initial object states
    and `question` holds the action sentences.
    """

    context: tuple[str, ...] = ()
    question: tuple[str, ...] = ()
    options: tuple[tuple[str, ...], ...] = ()

    def __init__(
        self,
        context: Iterable[str] = (),
        question: Iterable[str] = (),
        options: Iterable[Iterable[str]] = (),
    ):
        object.__setattr__(self, "context", tuple(context))
        object.__setattr__(self, "question", tuple(question))
        object.__setattr__(self, "options", tuple(tuple(o) for o in options))


@dataclass(frozen=True, eq=True)
class ReasoningGraph:
    task: TaskSpec
    nodes: dict[int, Node] = field(default_factory=dict)
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    # Instances are treated as immutable after construction; the cached
    # adjacency maps and derived facts below rely on that.

    def __hash__(self) -> int:  # nodes dict is not hashable; derive one
        return hash((self.task.name, tuple(sorted(self.nodes)), self.edges))

    @cached_property
    def _parents(self) -> dict[int, tuple[int, ...]]:
        acc: dict[int, list[int]] = {i: [] for i in self.nodes}
        for u, v in self.edges:
            if v in acc:
                acc[v].append(u)
        return {i: tuple(sorted(ps)) for i, ps in acc.items()}

    @cached_property
    def _children(self) -> dict[int, tuple[int, ...]]:
        acc: dict[int, list[int]] = {i: [] for i in self.nodes}
        for u, v in self.edges:
            if u in acc:
                acc[u].append(v)
        return {i: tuple(sorted(cs)) for i, cs in acc.items()}

    def parents(self, node_id: int) -> tuple[int, ...]:
        self._require(node_id)
        return self._parents[node_id]

    def children(self, node_id: int) -> tuple[int, ...]:
        self._require(node_id)
        return self._children[node_id]

    def in_degree(self, node_id: int) -> int:
        return len(self.parents(node_id))

    def text(self, node_id: int) -> str:
        self._require(node_id)
        return self.nodes[node_id].text

    def kind(self, node_id: int) -> NodeKind:
        self._require(node_id)
        return self.nodes[node_id].kind

    @cached_property
    def premise_ids(self) -> tuple[int, ...]:
        return tuple(i for i in sorted(self.nodes) if self.nodes[i].kind in PREMISE_KINDS)

    @cached_property
    def step_ids(self) -> tuple[int, ...]:
        return tuple(i for i in sorted(self.nodes) if self.nodes[i].kind in STEP_KINDS)

    @cached_property
    def topo_order(self) -> tuple[int, ...]:
        """topological_order(self); raises CycleError, uncached, on a cycle."""
        return tuple(topological_order(self))

    @cached_property
    def answer(self) -> AnswerValue | None:
        """extract_answer(self), or None where it raises."""
        try:
            return extract_answer(self)
        except ReasoningGraphError:
            return None

    @cached_property
    def answer_node_id(self) -> int | None:
        """The final sink node whose text starts with the answer prefix."""
        best: int | None = None
        for i in self.step_ids:
            if self.nodes[i].text.startswith(ANSWER_PREFIX) and not self._children.get(i):
                best = i
        return best

    @cached_property
    def zero_antecedent_step_ids(self) -> tuple[int, ...]:
        """Steps with no incoming edges; the answer node is never included."""
        return tuple(
            i
            for i in self.step_ids
            if not self._parents.get(i) and i != self.answer_node_id
        )

    def _require(self, node_id: int) -> None:
        if node_id not in self.nodes:
            raise UnknownNodeError(f"node {node_id} is not in the graph")


@dataclass(frozen=True, slots=True)
class Violation:
    rule: str
    nodes: tuple[int, ...]
    message: str


def build(
    task: TaskSpec,
    components: QaComponents,
    steps: Iterable[tuple[Iterable[int], str]],
) -> ReasoningGraph:
    """Assemble a graph from components and (premises, text) steps.

    Component TLUs are numbered 1..n in order (context, question, then the
    flattened options); steps continue the numbering. Step premises must
    reference already-assigned ids; an empty premise collection (or the
    marker id 0 alone) yields a step with no incoming edges.
    """
    nodes: dict[int, Node] = {}
    edges: set[tuple[int, int]] = set()

    def add(kind: NodeKind, text: str) -> int:
        stripped = text.strip()
        if not stripped:
            raise EmptyStepTextError(f"node {len(nodes) + 1} has empty text")
        nodes[len(nodes) + 1] = Node(kind, stripped)
        return len(nodes)

    for t in components.context:
        add(NodeKind.CONTEXT, t)
    for t in components.question:
        add(NodeKind.QUESTION, t)
    for option in components.options:
        for t in option:
            add(NodeKind.OPTION, t)

    for premises, text in steps:
        premise_set = {int(p) for p in premises}
        if 0 in premise_set:
            if len(premise_set) > 1:
                raise DanglingPremiseError(
                    "the empty-premise marker 0 must appear alone"
                )
            premise_set = set()
        stripped = text.strip()
        if not stripped:
            raise EmptyStepTextError(f"step {len(nodes) + 1} has empty text")
        step_id = len(nodes) + 1
        for p in premise_set:
            if p not in nodes:
                raise DanglingPremiseError(
                    f"step {step_id} references unassigned premise {p}"
                )
        kind = NodeKind.ANSWER if stripped.startswith(ANSWER_PREFIX) else NodeKind.REASONING_STEP
        nodes[step_id] = Node(kind, stripped)
        edges.update((p, step_id) for p in premise_set)

    return ReasoningGraph(task=task, nodes=nodes, edges=frozenset(edges))


def topological_order(graph: ReasoningGraph) -> list[int]:
    """Kahn's algorithm with an ascending-id tie-break (deterministic)."""
    indeg = {i: 0 for i in graph.nodes}
    for u, v in graph.edges:
        if u in indeg and v in indeg:
            indeg[v] += 1
    ready = [i for i, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for c in graph._children.get(i, ()):
            if c not in indeg:  # edge endpoint outside the node set
                continue
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    if len(order) != len(graph.nodes):
        raise CycleError("graph contains a directed cycle")
    return order


def ancestors(graph: ReasoningGraph, node_id: int) -> set[int]:
    """All nodes with a directed path to node_id (node_id excluded)."""
    graph._require(node_id)
    seen: set[int] = set()
    stack = list(graph.parents(node_id))
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        stack.extend(graph._parents.get(u, ()))
    return seen


def validate(graph: ReasoningGraph) -> list[Violation]:
    """Check structural invariants; returns violations, never raises."""
    out: list[Violation] = []

    unknown = sorted(
        {i for e in graph.edges for i in e if i not in graph.nodes}
    )
    if unknown:
        out.append(
            Violation("UnknownNode", tuple(unknown), "edge endpoint not in node set")
        )

    empty = tuple(i for i in sorted(graph.nodes) if not graph.nodes[i].text.strip())
    if empty:
        out.append(Violation("EmptyNodeText", empty, "node text is empty"))

    bad_targets = tuple(
        sorted(
            v
            for _, v in graph.edges
            if v in graph.nodes and graph.nodes[v].kind in (NodeKind.CONTEXT, NodeKind.QUESTION)
        )
    )
    if bad_targets:
        out.append(
            Violation(
                "IllegalEdgeTarget",
                bad_targets,
                "edges may only end at option, answer or reasoning-step nodes",
            )
        )

    order_bad = tuple(
        sorted(
            {
                v
                for u, v in graph.edges
                if u in graph.nodes
                and v in graph.nodes
                and graph.nodes[v].kind in STEP_KINDS
                and u >= v
            }
        )
    )
    if order_bad:
        out.append(
            Violation(
                "TopologicalOrderViolation",
                order_bad,
                "a step's id must be greater than all its premise ids",
            )
        )

    try:
        graph.topo_order  # computing the order detects a cycle
    except CycleError:
        out.append(Violation("CycleDetected", (), "graph contains a directed cycle"))

    if graph.task.answer_type is not AnswerType.STATE_PREDICTION:
        sinks = [
            i
            for i in graph.step_ids
            if graph.nodes[i].text.startswith(ANSWER_PREFIX) and not graph._children.get(i)
        ]
        if len(sinks) != 1:
            out.append(
                Violation(
                    "MissingAnswerNode",
                    tuple(sinks),
                    f'expected exactly one sink starting "{ANSWER_PREFIX}", found {len(sinks)}',
                )
            )

    return out


# --- answer extraction ---

_CHOICE_RE = re.compile(r"^\(?([A-E])\)?\s*[.!,]?$")
_NUMBER_RE = re.compile(r"^\$?([-+]?[\d,]*\.?\d+)\s*[%.!,)]?$")


def _parse_answer_text(text: str, answer_type: AnswerType) -> AnswerValue:
    payload = text[len(ANSWER_PREFIX) :].strip()
    if answer_type is AnswerType.MULTIPLE_CHOICE:
        m = _CHOICE_RE.match(payload)
        if not m:
            raise UnparseableAnswerTextError(f"not an option letter: {payload!r}")
        return Choice(m.group(1))
    m = _NUMBER_RE.match(payload)
    if not m:
        raise UnparseableAnswerTextError(f"not a number: {payload!r}")
    try:
        return Number(Decimal(m.group(1).replace(",", "")))
    except InvalidOperation:
        raise UnparseableAnswerTextError(f"not a number: {payload!r}") from None


def state_key(text: str) -> tuple[str, str] | None:
    """Parse "<object> has <state>" texts to a (object key, state) pair."""
    m = _BEAKER_STATE_RE.match(text)
    if m:
        return f"beaker{_ORDINAL_INDEX[m.group(1)]}", m.group(2).strip()
    m = _POSITION_STATE_RE.match(text)
    if m:
        return f"position{int(m.group(1))}", m.group(2).strip()
    return None


def extract_answer(graph: ReasoningGraph) -> AnswerValue:
    """Read the answer a graph asserts.

    Choice/number tasks: parse the final sink node that starts with
    "The answer is". State tasks: combine, per tracked object, the last
    state asserted by a reasoning step (in topological order), falling back
    to the object's initial context state.
    """
    if graph.task.answer_type is AnswerType.STATE_PREDICTION:
        tracked: dict[str, str] = {}
        for i in graph.premise_ids:
            node = graph.nodes[i]
            if node.kind is NodeKind.CONTEXT:
                ks = state_key(node.text)
                if ks:
                    tracked[ks[0]] = ks[1]
        if not tracked:
            raise MissingAnswerNodeError("no tracked object states in the question")
        step_set = set(graph.step_ids)
        for i in graph.topo_order:
            if i not in step_set:
                continue
            ks = state_key(graph.nodes[i].text)
            if ks and ks[0] in tracked:
                tracked[ks[0]] = ks[1]
        return WorldState(tracked)

    node_id = graph.answer_node_id
    if node_id is None:
        raise MissingAnswerNodeError(
            f'no sink node starting "{ANSWER_PREFIX}" was found'
        )
    return _parse_answer_text(graph.nodes[node_id].text, graph.task.answer_type)
