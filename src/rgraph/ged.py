"""Graph edit distance between two reasoning graphs over shared premises.

Unit costs throughout. Premise nodes are anchored to themselves (both
graphs linearize the same question block), and the two answer nodes are
anchored to each other: that pair costs 0 when the extracted answers are
equal and the whole distance is infinite when they are not. Steps with no
antecedents (other than the answer node) are hallucinated leaves; they are
removed, along with their incident edges, before any matching happens, and
the normalization terms count the reduced graphs.

One depth-first branch-and-bound search finds the cheapest step mapping
(after Blumenthal & Gamper, "On the exact computation of the graph edit
distance", Pattern Recognit. Lett. 2020). It assigns the predicted editable
steps in topological order, each to an unused gold step or to deletion.
An edge is matched only when its target's pair is, and a step's parents are
assigned before the step, so every choice has a fixed local cost:

- p -> g costs the sigma miss + |par p| + |par g| - 2 * matched, where
  matched counts the parents of p whose images are parents of g;
- deleting p costs 1 + |par p|, and a gold step left unmatched 1 + |par g|;
- edges into the answer node are settled once every step is assigned.

Two lower bounds on what is left prune the search. A child is skipped
when its cost so far plus |steps left - free gold steps| + |their in-edges
- in-edges of the free gold steps| cannot beat the best mapping found. A
node is skipped when its cost so far plus the cheapest choice of each step
left cannot, counting a parent not yet assigned as matched wherever it
could be, plus the gold steps that must stay unmatched.

Until the first mapping is complete, children are tried sigma-similar
first, so that mapping is a greedy matching like the bipartite
approximation of Riesen & Bunke (Image Vis. Comput. 2009). After it,
children are tried cheapest first, and sigma is evaluated only for a
candidate that can still beat the best mapping found. The search stops
after SEARCH_BUDGET expanded nodes; the result is exact when it finished.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

from .errors import ExactnessBoundExceededError, ReasoningGraphError
from .graph import ReasoningGraph, extract_answer, topological_order

SigmaFn = Callable[[str, str], bool]

DEFAULT_EXACT_BOUND = 6  # editable steps per side that exact_ged accepts
SEARCH_BUDGET = 30_000  # expanded nodes per search

Edge = tuple[int, int]

_DELETE = 1 << 62  # the child that deletes the predicted step; sorts last


@dataclass(frozen=True)
class GedOutcome:
    """An edit distance plus the mapping that witnesses it.

    delta is math.inf when the answers disagree. mapping covers premises
    (identity), the answer pair when anchored, and the matched steps,
    keyed by predicted node id. exact is true when the search finished, so
    delta is the minimum. norm_terms are the reduced |N| + |E| of the
    predicted and gold graphs, in that order.
    """

    delta: float
    mapping: dict[int, int]
    exact: bool
    norm_terms: tuple[int, int]


@dataclass(frozen=True)
class _Side:
    graph: ReasoningGraph
    steps: tuple[int, ...]  # editable, topologically ordered
    edges: frozenset[Edge]  # reduced
    parents: dict[int, frozenset[int]]  # reduced, editable steps + answer
    norm: int


@dataclass(frozen=True)
class _Prepared:
    pred: _Side
    gold: _Side
    anchors: dict[int, int]
    answers_equal: bool


def _make_side(graph: ReasoningGraph) -> _Side:
    dropped = graph.zero_antecedent_step_ids
    edges = frozenset(
        (u, v) for (u, v) in graph.edges if u not in dropped and v not in dropped
    )
    answer_id = graph.answer_node_id
    step_ids = set(graph.step_ids)
    steps = tuple(
        i
        for i in topological_order(graph)
        if i in step_ids and i not in dropped and i != answer_id
    )
    parents: dict[int, frozenset[int]] = {}
    for i in steps:
        parents[i] = frozenset(u for u in graph.parents(i) if u not in dropped)
    if answer_id is not None:
        parents[answer_id] = frozenset(
            u for u in graph.parents(answer_id) if u not in dropped
        )
    norm = (len(graph.nodes) - len(dropped)) + len(edges)
    return _Side(graph, steps, edges, parents, norm)


def _prepare(pred: ReasoningGraph, gold: ReasoningGraph) -> _Prepared:
    pred_side = _make_side(pred)
    gold_side = _make_side(gold)
    if pred.premise_ids != gold.premise_ids:
        raise ValueError(
            "graphs must linearize the same question block "
            f"(premises {sorted(pred.premise_ids)} vs {sorted(gold.premise_ids)})"
        )
    anchors = {i: i for i in pred.premise_ids}
    try:
        pred_answer = extract_answer(pred)
        gold_answer = extract_answer(gold)
        answers_equal = pred_answer == gold_answer
    except ReasoningGraphError:
        answers_equal = False
    if answers_equal and not pred.task.is_scone:
        anchors[pred.answer_node_id] = gold.answer_node_id
    return _Prepared(pred_side, gold_side, anchors, answers_equal)


class _Stop(Exception):
    """Unwinds the search: it ran out of budget or reached its floor."""


def _search(
    prep: _Prepared,
    sigma: SigmaFn,
    misses: dict[tuple[int, int], int],
    upper: float,
    floor: int,
) -> tuple[float, tuple[tuple[int, int], ...], bool]:
    """The cheapest mapping costing less than upper: (cost, pairs, finished).

    cost is upper when no mapping is cheaper. A mapping costing floor, a
    known lower bound, ends the search as finished. misses memoises
    1 - sigma per (predicted step, gold step) and is shared between
    searches of one instance.
    """
    pred, gold = prep.pred, prep.gold
    steps, gold_steps = pred.steps, gold.steps
    n = len(steps)
    pred_parents = [pred.parents[p] for p in steps]
    gold_parents = gold.parents
    tail_in = [0] * (n + 1)  # in-edges of steps[i:]
    for i in range(n - 1, -1, -1):
        tail_in[i] = tail_in[i + 1] + len(pred_parents[i])
    # parents as bit masks over gold node ids; a predicted step's parents
    # split into anchored ones (fixed image) and steps (with their position)
    gold_masks = {
        g: (sum(1 << u for u in gold_parents[g]), len(gold_parents[g]))
        for g in gold_steps
    }
    position = {p: i for i, p in enumerate(steps)}
    anchored_bits = [
        sum(1 << prep.anchors[u] for u in parents if u in prep.anchors)
        for parents in pred_parents
    ]
    step_parents = [
        [(u, position[u]) for u in parents if u in position] for parents in pred_parents
    ]
    # edges into the answer node, settled at the leaf
    pred_step_set, gold_step_set = set(steps), set(gold_steps)
    pred_rest = [(u, v) for (u, v) in pred.edges if v not in pred_step_set]
    gold_rest = frozenset((u, v) for (u, v) in gold.edges if v not in gold_step_set)
    rest_floor = abs(len(pred_rest) - len(gold_rest))
    rest_total = len(pred_rest) + len(gold_rest)

    mu = dict(prep.anchors)
    used: set[int] = set()
    best = upper
    best_pairs: tuple[tuple[int, int], ...] = ()
    expanded = 0
    finished = True

    def miss(p: int, g: int) -> int:
        m = misses.get((p, g))
        if m is None:
            m = 0 if sigma(pred.graph.text(p), gold.graph.text(g)) else 1
            misses[(p, g)] = m
        return m

    def descend(i: int, g: int, cost: int, free_count: int, free_in: int) -> None:
        if g == _DELETE:
            visit(i + 1, cost, free_count, free_in)
            return
        p = steps[i]
        mu[p] = g
        used.add(g)
        visit(i + 1, cost, free_count - 1, free_in - len(gold_parents[g]))
        used.discard(g)
        del mu[p]

    def steps_floor(i: int, limit: int) -> int:
        # each step still to assign costs at least its cheapest choice, its
        # parents not yet assigned counted as matched wherever they could be;
        # returns early once the sum reaches limit
        free = [gold_masks[g] for g in gold_steps if g not in used]
        total = rest_floor
        for j in range(i, n):
            image = anchored_bits[j]
            open_parents = 0
            for u, at in step_parents[j]:
                if at >= i:
                    open_parents += 1
                elif u in mu:
                    image |= 1 << mu[u]
            degree = len(pred_parents[j])
            cheapest = 1 + degree
            for mask, degree_g in free:
                matched = (image & mask).bit_count() + open_parents
                if matched >= degree_g:
                    local = degree - degree_g
                else:
                    local = degree + degree_g - 2 * matched
                if local < cheapest:
                    cheapest = local
            total += cheapest
            if total >= limit:
                return total
        unmatched = len(free) - (n - i)
        if unmatched > 0:
            total += unmatched * (1 + min(degree_g for _, degree_g in free))
        return total

    def visit(i: int, cost: int, free_count: int, free_in: int) -> None:
        nonlocal best, best_pairs, expanded, finished
        if i == n:
            matched = sum(
                1
                for u, v in pred_rest
                if u in mu and v in mu and (mu[u], mu[v]) in gold_rest
            )
            total = cost + free_count + free_in + rest_total - 2 * matched
            if total < best:
                best = total
                best_pairs = tuple((p, mu[p]) for p in steps if p in mu)
                if total <= floor:
                    raise _Stop
            return
        expanded += 1
        if expanded > SEARCH_BUDGET and best < math.inf:
            finished = False
            raise _Stop
        if best < math.inf and steps_floor(i, best - cost) >= best - cost:
            return
        p = steps[i]
        parents = pred_parents[i]
        image = {mu[u] for u in parents if u in mu}
        left, tail = n - i - 1, tail_in[i + 1]
        base = cost + rest_floor
        delete_cost = 1 + len(parents)
        delete_f = base + delete_cost + abs(left - free_count) + abs(tail - free_in)
        # (bound on the total, local cost, gold step), sigma not yet counted
        candidates = []
        for g in gold_steps:
            if g not in used:
                parents_g = gold_parents[g]
                local = len(parents) + len(parents_g) - 2 * len(image & parents_g)
                rest = abs(left - free_count + 1) + abs(tail - free_in + len(parents_g))
                candidates.append((base + local + rest, local, g))

        if best == math.inf:
            # no mapping yet: sigma-similar gold steps first, deletion last
            order = []
            for f, local, g in candidates:
                m = miss(p, g)
                order.append((m, local + m, g, f + m))
            order.sort()
            for _, local, g, f in order:
                if f < best:
                    descend(i, g, cost + local, free_count, free_in)
            if delete_f < best:
                descend(i, _DELETE, cost + delete_cost, free_count, free_in)
            return

        # cheapest first; an entry whose sigma is unknown holds the least it
        # can cost and is queued again with the miss once sigma is known
        heap = [(delete_f, 0, _DELETE, delete_cost)]
        for f, local, g in candidates:
            m = misses.get((p, g))
            if m is None:
                heap.append((f, 1, g, local))
            else:
                heap.append((f + m, 0, g, local + m))
        heapq.heapify(heap)
        while heap:
            f, unknown, g, local = heapq.heappop(heap)
            if f >= best:
                break
            if unknown and miss(p, g):
                heapq.heappush(heap, (f + 1, 0, g, local + 1))
                continue
            descend(i, g, cost + local, free_count, free_in)

    free_in = sum(len(gold_parents[g]) for g in gold_steps)
    try:
        visit(0, 0, len(gold_steps), free_in)
    except _Stop:
        pass
    return best, best_pairs, finished


def _solve(prep: _Prepared, sigma: SigmaFn) -> GedOutcome:
    norm_terms = (prep.pred.norm, prep.gold.norm)
    if not prep.answers_equal:
        return GedOutcome(math.inf, dict(prep.anchors), True, norm_terms)
    misses: dict[tuple[int, int], int] = {}
    # a zero-cost mapping decides graph accuracy and needs sigma only for
    # structurally perfect candidates; failing that, search for the cheapest,
    # which costs at least 1 when the first search finished
    cost, pairs, finished = _search(prep, sigma, misses, 1, 0)
    if cost != 0:
        floor = 1 if finished else 0
        cost, pairs, finished = _search(prep, sigma, misses, math.inf, floor)
    mapping = dict(prep.anchors)
    mapping.update(pairs)
    return GedOutcome(float(cost), mapping, finished, norm_terms)


def ged(pred: ReasoningGraph, gold: ReasoningGraph, sigma: SigmaFn) -> GedOutcome:
    """The cheapest edit distance the search finds; exact when it finished."""
    return _solve(_prepare(pred, gold), sigma)


def exact_ged(
    pred: ReasoningGraph,
    gold: ReasoningGraph,
    sigma: SigmaFn,
    bound: int = DEFAULT_EXACT_BOUND,
) -> GedOutcome:
    """Provably minimal edit distance; refuses oversized instances.

    At the default bound the whole search tree fits the budget, so the
    search always finishes.
    """
    prep = _prepare(pred, gold)
    n_pred, n_gold = len(prep.pred.steps), len(prep.gold.steps)
    if prep.answers_equal and (n_pred > bound or n_gold > bound):
        raise ExactnessBoundExceededError(
            f"instance has {n_pred} x {n_gold} editable steps; "
            f"exact_ged is bounded at {bound} per side"
        )
    return _solve(prep, sigma)


def approx_ged(pred: ReasoningGraph, gold: ReasoningGraph, sigma: SigmaFn) -> GedOutcome:
    """The search at any instance size; never below the exact distance."""
    return ged(pred, gold, sigma)
