"""Reference computations the output checks compare the program against.

Nothing here imports the program. The linearized format, the three σ
policies, the reduced-graph norms, the cost of a node mapping, a brute-force
edit distance and answer extraction are written again from the format and
metric definitions in the top-level README, so a check can catch the program
disagreeing with its own contract.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal

ANSWER_PREFIX = "The answer is"
SOFT_THRESHOLD = 0.25
SCONE_TASKS = ("scone-alchemy", "scone-scene", "scone-tangrams")
MATH_TASKS = ("gsm8k", "aqua-rat")

_MARKER_RE = re.compile(r"\((\d+)\)")
_CLAUSE_SEP_RE = re.compile(r";\s*(?=\(\d+\)\s*(?:&|->)|\Z)")
_CLAUSE_RE = re.compile(
    r"\s*\((\d+)\)((?:\s*&\s*\(\d+\))*)\s*->\s*\((\d+)\)\s*:\s*(.*)\Z", re.DOTALL
)
_NUMBER_RE = re.compile(r"\d{1,3}(?:,\d{3})+(?:\.\d+)?|\d+(?:\.\d+)?")
_PUNCT = str.maketrans("", "", string.punctuation)
_ORDINALS = ("first", "second", "third", "fourth", "fifth", "sixth", "seventh")
_STATE_RE = re.compile(
    rf"^(?:({'|'.join(_ORDINALS)}) beaker|position (\d+)) has (.+)$"
)


@dataclass(frozen=True)
class Graph:
    """A parsed linearized example: premise texts and (premises, text) steps."""

    task: str
    premises: tuple[str, ...]
    steps: tuple[tuple[frozenset[int], str], ...]  # step i has id P + 1 + i

    @property
    def n_premises(self) -> int:
        return len(self.premises)

    def step_id(self, index: int) -> int:
        return self.n_premises + 1 + index

    def text(self, node: int) -> str:
        if node <= self.n_premises:
            return self.premises[node - 1]
        return self.steps[node - self.n_premises - 1][1]


def split_question(block: str) -> tuple[str, ...]:
    """Cut a question block at its consecutive (1) (2) ... markers."""
    cuts = []
    expected = 1
    for m in _MARKER_RE.finditer(block):
        if (m.start() == 0 or block[m.start() - 1].isspace()) and int(m.group(1)) == expected:
            cuts.append((m.start(), m.end()))
            expected += 1
    return tuple(
        block[end : (cuts[i + 1][0] if i + 1 < len(cuts) else len(block))].strip()
        for i, (_, end) in enumerate(cuts)
    )


def split_proof(block: str) -> tuple[list[tuple[frozenset[int], int, str]], bool]:
    """Complete clauses as (premises, target, text), and whether a tail was cut off.

    Raises ValueError on a complete clause that does not parse.
    """
    block = re.sub(r"^\s*\$proof\$\s*=\s*", "", block, count=1)
    clauses = []
    last = 0
    for m in _CLAUSE_SEP_RE.finditer(block):
        piece = block[last : m.start()]
        last = m.end()
        if not piece.strip():
            continue
        c = _CLAUSE_RE.match(piece)
        if c is None:
            raise ValueError(f"bad clause {piece!r}")
        premises = {int(c.group(1))} | {int(x) for x in _MARKER_RE.findall(c.group(2))}
        clauses.append((frozenset(premises - {0}), int(c.group(3)), c.group(4).strip()))
    return clauses, bool(block[last:].strip())


def parse_graph(task: str, question: str, proof: str) -> Graph:
    premises = split_question(question)
    clauses, _ = split_proof(proof)
    for k, (_, target, _) in enumerate(clauses):
        if target != len(premises) + 1 + k:
            raise ValueError(f"step id {target} out of sequence")
    return Graph(task, premises, tuple((p, t) for p, _, t in clauses))


def serialize_proof(n_premises: int, steps) -> str:
    """Canonical proof block for (premises, text) steps numbered after the premises."""
    out = []
    for k, (premises, text) in enumerate(steps):
        plist = " & ".join(f"({p})" for p in sorted(premises)) if premises else "(0)"
        out.append(f"{plist} -> ({n_premises + 1 + k}): {text};")
    return " ".join(out)


def serialize_question(tlus) -> str:
    return " ".join(f"({i}) {t}" for i, t in enumerate(tlus, start=1))


# --- σ, the step-text similarity test ---


def math_values(text: str) -> frozenset[Decimal]:
    return frozenset(Decimal(m.group().replace(",", "")) for m in _NUMBER_RE.finditer(text))


def token_f1(candidate: str, reference: str) -> float:
    """Token-multiset F1 over lowercased, punctuation-stripped tokens."""
    cand = Counter(candidate.lower().translate(_PUNCT).split())
    ref = Counter(reference.lower().translate(_PUNCT).split())
    if not cand or not ref:
        return 1.0 if cand == ref else 0.0
    common = sum((cand & ref).values())
    if common == 0:
        return 0.0
    precision = common / sum(cand.values())
    recall = common / sum(ref.values())
    return 2 * precision * recall / (precision + recall)


def sigma(task: str, candidate: str, reference: str) -> bool:
    if task in SCONE_TASKS:
        return candidate.strip() == reference.strip()
    if task in MATH_TASKS:
        return math_values(candidate) == math_values(reference)
    return token_f1(candidate, reference) > SOFT_THRESHOLD


# --- answers ---


def answer(graph: Graph):
    """The answer a graph asserts, or None when it asserts none."""
    if graph.task in SCONE_TASKS:
        states = {}
        for text in graph.premises:
            m = _STATE_RE.match(text)
            if m:
                states[m.group(1) or m.group(2)] = m.group(3).strip()
        for _, text in graph.steps:  # ids ascend along every edge: id order is topological
            m = _STATE_RE.match(text)
            if m and (m.group(1) or m.group(2)) in states:
                states[m.group(1) or m.group(2)] = m.group(3).strip()
        return tuple(sorted(states.items())) or None
    node = answer_node(graph)
    if node is None:
        return None
    payload = graph.text(node)[len(ANSWER_PREFIX) :].strip().rstrip(").!,").lstrip("($")
    return payload.replace(",", "")


def answer_node(graph: Graph) -> int | None:
    if graph.task in SCONE_TASKS:
        return None
    fed = {u for premises, _ in graph.steps for u in premises}
    best = None
    for k, (_, text) in enumerate(graph.steps):
        node = graph.step_id(k)
        if text.startswith(ANSWER_PREFIX) and node not in fed:
            best = node
    return best


# --- edit distance ---


@dataclass(frozen=True)
class Reduced:
    """A graph without its zero-antecedent steps, as the edit distance sees it."""

    editable: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    answer: int | None
    nodes: int

    @property
    def norm(self) -> int:
        return self.nodes + len(self.edges)


def reduce(graph: Graph) -> Reduced:
    node_answer = answer_node(graph)
    dropped = {
        graph.step_id(k)
        for k, (premises, _) in enumerate(graph.steps)
        if not premises and graph.step_id(k) != node_answer
    }
    edges = frozenset(
        (u, graph.step_id(k))
        for k, (premises, _) in enumerate(graph.steps)
        for u in premises
        if u not in dropped and graph.step_id(k) not in dropped
    )
    editable = tuple(
        graph.step_id(k)
        for k in range(len(graph.steps))
        if graph.step_id(k) not in dropped and graph.step_id(k) != node_answer
    )
    return Reduced(editable, edges, node_answer, graph.n_premises + len(graph.steps) - len(dropped))


def mapping_cost(
    pred: Graph, gold: Graph, rp: Reduced, rg: Reduced, pairs: dict[int, int], similar=None
) -> int:
    """Unit edit cost of matching editable pred steps to gold steps by `pairs`.

    Premises map to themselves and the answer nodes to each other; every
    unmatched editable step is one deletion or insertion, every matched pair
    whose texts fail σ one substitution, and every edge without a partner
    under the mapping one edge edit.
    """
    mu = {i: i for i in range(1, pred.n_premises + 1)}
    if rp.answer is not None and rg.answer is not None:
        mu[rp.answer] = rg.answer
    mu.update(pairs)
    cost = len(rp.editable) + len(rg.editable) - 2 * len(pairs)
    if similar is None:
        similar = {(p, g): sigma(pred.task, pred.text(p), gold.text(g)) for p, g in pairs.items()}
    cost += sum(1 for pair in pairs.items() if not similar[pair])
    matched = sum(1 for u, v in rp.edges if u in mu and v in mu and (mu[u], mu[v]) in rg.edges)
    return cost + len(rp.edges) + len(rg.edges) - 2 * matched


def brute_force_delta(pred: Graph, gold: Graph) -> int:
    """Minimum mapping cost over every partial injection of pred steps into gold steps."""
    rp, rg = reduce(pred), reduce(gold)
    similar = {
        (p, g): sigma(pred.task, pred.text(p), gold.text(g)) for p in rp.editable for g in rg.editable
    }
    best = None

    def extend(k: int, pairs: dict[int, int], used: set[int]) -> None:
        nonlocal best
        if k == len(rp.editable):
            cost = mapping_cost(pred, gold, rp, rg, pairs, similar)
            if best is None or cost < best:
                best = cost
            return
        p = rp.editable[k]
        extend(k + 1, pairs, used)
        for g in rg.editable:
            if g not in used:
                pairs[p] = g
                used.add(g)
                extend(k + 1, pairs, used)
                del pairs[p]
                used.discard(g)

    extend(0, {}, set())
    return best
