"""Graph edit distance tests: the search vs the oracle, its budget, its wrappers."""

import importlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import GSM8K_AGES
from oracles import oracle_ged, oracle_norm_terms, random_graph, random_graph_pair
from rgraph.codec import LinearizedExample, parse
from rgraph.errors import ExactnessBoundExceededError
from rgraph.ged import approx_ged, exact_ged, ged
from rgraph.graph import QaComponents, build
from rgraph.similarity import sigma_math
from rgraph.tasks import get_task


def ages_graph():
    return parse(
        LinearizedExample(
            task=get_task("gsm8k"),
            question_block=GSM8K_AGES.question,
            proof_block=GSM8K_AGES.proof,
        )
    )


def small_graph(step_texts, answer="The answer is 7"):
    comps = QaComponents(context=("c1", "c2"), question=("q",), options=())
    steps = []
    prev = None
    for text in step_texts:
        steps.append(({1} if prev is None else {prev}, text))
        prev = len(comps.context) + len(comps.question) + len(steps)
    steps.append(({prev} if prev else {1}, answer))
    return build(get_task("gsm8k"), comps, steps)


class TestIdentity:
    def test_self_distance_zero_exact(self):
        g = ages_graph()
        out = exact_ged(g, g, sigma_math)
        assert out.delta == 0.0
        assert out.exact

    def test_self_distance_zero_approx(self):
        g = ages_graph()
        out = approx_ged(g, g, sigma_math)
        assert out.delta == 0.0

    def test_norm_terms_match_oracle(self):
        g = ages_graph()
        out = exact_ged(g, g, sigma_math)
        assert out.norm_terms == oracle_norm_terms(g, g)
        # ages fixture: 9 nodes + 8 edges per side
        assert out.norm_terms == (17, 17)


class TestAnswerGate:
    def test_mismatched_answers_cost_infinite(self):
        a = small_graph(["half of 48 is 24"], answer="The answer is 7")
        b = small_graph(["half of 48 is 24"], answer="The answer is 8")
        out = exact_ged(a, b, sigma_math)
        assert math.isinf(out.delta)

    def test_unparseable_answer_counts_as_unequal(self):
        a = small_graph(["half of 48 is 24"], answer="The answer is 7")
        b = small_graph(["half of 48 is 24"], answer="The answer is banana")
        assert math.isinf(exact_ged(a, b, sigma_math).delta)

    def test_premise_mismatch_rejected(self):
        a = small_graph(["s"])
        comps = QaComponents(context=("c1",), question=("q",), options=())
        b = build(
            get_task("gsm8k"), comps, [({1}, "s"), ({3}, "The answer is 7")]
        )
        with pytest.raises(ValueError):
            exact_ged(a, b, sigma_math)


class TestSingleEdits:
    def test_one_substitution_costs_one(self):
        a = small_graph(["the value is 10"])
        b = small_graph(["the value is 11"])
        assert exact_ged(a, b, sigma_math).delta == 1.0

    def test_extra_step_costs_node_plus_edges(self):
        a = small_graph(["step 1 has 10", "step 2 has 20"])
        b = small_graph(["step 1 has 10"])
        # pred chains c1 -> s1 -> s2 -> ans, gold c1 -> s1 -> ans: deleting
        # s2 costs 1, its two incident edges cost 2, and the answer's gold
        # premise edge (s1 -> ans) has no pred counterpart, costing 1 more
        out = exact_ged(a, b, sigma_math)
        assert out.delta == 4.0
        assert out.delta == oracle_ged(a, b, sigma_math)

    def test_zero_antecedent_steps_excluded(self):
        comps = QaComponents(context=("c",), question=("q",), options=())
        a = build(
            get_task("gsm8k"),
            comps,
            [
                ({0}, "one hour has 60 minutes"),
                ({1}, "compute 5"),
                ({3, 4}, "The answer is 5"),
            ],
        )
        b = build(
            get_task("gsm8k"),
            comps,
            [
                ({0}, "a totally different aside about 99"),
                ({1}, "compute 5"),
                ({3, 4}, "The answer is 5"),
            ],
        )
        out = exact_ged(a, b, sigma_math)
        # the hallucinated/zero-antecedent steps differ but are dropped; the
        # edge from each into the answer is also dropped on both sides
        assert out.delta == 0.0
        assert out.norm_terms == oracle_norm_terms(a, b)

    def test_bound_exceeded_raises(self):
        texts = [f"step number {i} is {i}" for i in range(8)]
        g = small_graph(texts)
        with pytest.raises(ExactnessBoundExceededError):
            exact_ged(g, g, sigma_math, bound=6)

    def test_dispatcher_falls_back_to_approx(self):
        # beyond exact_ged's bound, ged runs the same search and still
        # finishes on this instance
        texts = [f"step number {i} is {i}" for i in range(8)]
        g = small_graph(texts)
        out = ged(g, g, sigma_math)
        assert out.exact
        assert out.delta == 0.0


class TestBudget:
    def test_tiny_budget_returns_an_upper_bound(self, monkeypatch):
        rng = random.Random(5)
        pairs = [random_graph_pair(rng) for _ in range(200)]
        full = [ged(pred, gold, sigma_math) for pred, gold in pairs]
        monkeypatch.setattr(importlib.import_module("rgraph.ged"), "SEARCH_BUDGET", 1)
        cut = [ged(pred, gold, sigma_math) for pred, gold in pairs]
        assert all(out.exact for out in full)
        assert any(not out.exact for out in cut)
        for unbudgeted, budgeted in zip(full, cut):
            assert budgeted.delta >= unbudgeted.delta
            if budgeted.exact:
                assert budgeted.delta == unbudgeted.delta


class TestOracleEquivalence:
    N_PAIRS = 300

    def test_exact_matches_oracle_and_approx_upper_bounds(self):
        rng = random.Random(20260814)
        checked = 0
        for _ in range(self.N_PAIRS):
            pred, gold = random_graph_pair(rng)
            want = oracle_ged(pred, gold, sigma_math)
            got = exact_ged(pred, gold, sigma_math)
            assert got.delta == want, (pred, gold)
            assert got.norm_terms == oracle_norm_terms(pred, gold)
            approx = approx_ged(pred, gold, sigma_math)
            if math.isinf(want):
                assert math.isinf(approx.delta)
            else:
                assert approx.delta >= got.delta
            checked += 1
        assert checked == self.N_PAIRS

    def test_wrong_answer_pairs_hit_infinite_route(self):
        from rgraph.codec import serialize

        rng = random.Random(99)
        seen_inf = 0
        for _ in range(50):
            pred, gold = random_graph_pair(rng)
            ex = serialize(pred)
            flipped = parse(
                LinearizedExample(
                    task=ex.task,
                    question_block=ex.question_block,
                    proof_block=ex.proof_block.replace(
                        "The answer is 7", "The answer is 8"
                    ),
                )
            )
            out = exact_ged(flipped, gold, sigma_math)
            oracle = oracle_ged(flipped, gold, sigma_math)
            assert math.isinf(out.delta) and math.isinf(oracle)
            seen_inf += 1
        assert seen_inf == 50


class TestProperties:
    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_symmetry_of_cost(self, seed):
        rng = random.Random(seed)
        pred, gold = random_graph_pair(rng)
        ab = exact_ged(pred, gold, sigma_math).delta
        ba = exact_ged(gold, pred, sigma_math).delta
        assert ab == ba

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_approx_never_below_exact(self, seed):
        rng = random.Random(seed)
        pred, gold = random_graph_pair(rng)
        exact = exact_ged(pred, gold, sigma_math).delta
        approx = approx_ged(pred, gold, sigma_math).delta
        assert approx >= exact or (math.isinf(exact) and math.isinf(approx))

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_approx_identity_is_zero(self, seed):
        g = random_graph(random.Random(seed))
        assert approx_ged(g, g, sigma_math).delta == 0.0

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_delta_integral_when_finite(self, seed):
        rng = random.Random(seed)
        pred, gold = random_graph_pair(rng)
        d = exact_ged(pred, gold, sigma_math).delta
        if not math.isinf(d):
            assert d == int(d) and d >= 0
