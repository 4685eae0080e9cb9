"""Metric tests: answer accuracy, graph accuracy, Eq.-1 similarity, pipeline."""

import math
import random
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import ALL_FIXTURES, AR_LSAT_LOCKERS, ARC_SUN, GSM8K_AGES
from oracles import oracle_ged, random_graph_pair
from rgraph.codec import LinearizedExample, parse, serialize
from rgraph.corpus import record_from_strings
from rgraph.errors import AnswerTypeMismatchError
from rgraph.ged import exact_ged, ged
from rgraph.graph import Choice, Number, QaComponents, build
from rgraph.metrics import (
    OVERALL_LABEL,
    aggregate,
    answer_accuracy,
    eq1_similarity,
    graph_similarity,
    reasoning_graph_accuracy,
    render_table,
    score_question,
    score_records,
)
from rgraph.similarity import (
    ExternalScorer,
    builtin_overlap_score,
    sigma_exact,
    sigma_math,
)
from rgraph.tasks import get_task

STUB = f"{sys.executable} {Path(__file__).parent / 'stub_scorer.py'}"


def sigma_soft_builtin(candidate: str, reference: str) -> bool:
    """The default soft sigma: builtin overlap F1 above 0.25 (not transitive)."""
    return builtin_overlap_score(candidate, reference) > 0.25


def fixture_graph(fx):
    return parse(
        LinearizedExample(
            task=get_task(fx.task),
            question_block=fx.question,
            proof_block=fx.proof,
        )
    )


def fixture_record(fx, predicted=None):
    return record_from_strings(
        fx.name, fx.task, fx.question, fx.proof, predicted
    )


def substitute_step_text(fx, old_fragment: str, new_text: str) -> str:
    """Replace one step's text in a fixture proof, keeping the structure."""
    assert old_fragment in fx.proof
    return fx.proof.replace(old_fragment, new_text)


class TestAnswerAccuracy:
    def test_equal_numbers(self):
        assert answer_accuracy(Number(Decimal(12)), Number(Decimal("12.0")))

    def test_unequal_numbers(self):
        assert not answer_accuracy(Number(Decimal(12)), Number(Decimal(13)))

    def test_choices(self):
        assert answer_accuracy(Choice("A"), Choice("A"))
        assert not answer_accuracy(Choice("A"), Choice("B"))

    def test_type_mismatch_raises(self):
        with pytest.raises(AnswerTypeMismatchError):
            answer_accuracy(Choice("A"), Number(Decimal(1)))


class TestReasoningGraphAccuracy:
    @pytest.mark.parametrize("fx", ALL_FIXTURES, ids=lambda f: f.name)
    def test_self_accuracy(self, fx):
        g = fixture_graph(fx)
        assert reasoning_graph_accuracy(g, g, sigma_exact)

    def test_identity_alignment(self):
        g = fixture_graph(GSM8K_AGES)
        out = ged(g, g, sigma_math)
        assert out.delta == 0.0
        assert out.mapping == {i: i for i in g.nodes}

    def test_misaligned_premises_unmatched(self):
        comps = QaComponents(context=("c1", "c2"), question=("q",), options=())
        pred = build(
            get_task("gsm8k"),
            comps,
            [({1}, "value 10"), ({4}, "The answer is 10")],
        )
        gold = build(
            get_task("gsm8k"),
            comps,
            [({2}, "value 10"), ({4}, "The answer is 10")],
        )
        out = ged(pred, gold, sigma_math)
        # the steps still pair up; only the two premise edges differ
        assert out.mapping[4] == 4
        assert out.delta == 2.0
        assert not reasoning_graph_accuracy(pred, gold, sigma_math)

    def test_zero_antecedent_steps_invisible(self):
        comps = QaComponents(context=("c",), question=("q",), options=())
        pred = build(
            get_task("gsm8k"),
            comps,
            [
                ({0}, "an aside about 99"),
                ({1}, "value 10"),
                ({3, 4}, "The answer is 10"),
            ],
        )
        gold = build(
            get_task("gsm8k"),
            comps,
            [({1}, "value 10"), ({3}, "The answer is 10")],
        )
        out = ged(pred, gold, sigma_math)
        assert out.mapping[4] == 3 and out.mapping[5] == 4
        assert 3 not in out.mapping
        assert reasoning_graph_accuracy(pred, gold, sigma_math)

    def test_soft_sigma_accuracy_finds_the_crossed_pairing(self):
        # "red apple green pear" is similar to both gold steps, "red apple"
        # only to the first: only the crossed pairing costs nothing
        gold = (
            "(1) -> (9): red apple; (1) -> (10): green pear; "
            "(9) & (10) -> (11): The answer is A);"
        )
        pred = (
            "(1) -> (9): red apple green pear; (1) -> (10): red apple; "
            "(9) & (10) -> (11): The answer is A);"
        )
        record = record_from_strings("crossed", "arc", ARC_SUN.question, gold, pred)
        s = score_question(record)
        assert s.answer_correct and s.graph_accurate
        assert s.delta == 0.0 and s.similarity == 1.0 and s.ged_exact

    def test_wrong_answer_fails(self):
        comps = QaComponents(context=("c",), question=("q",), options=())
        a = build(get_task("gsm8k"), comps, [({1}, "The answer is 1")])
        b = build(get_task("gsm8k"), comps, [({1}, "The answer is 2")])
        assert not reasoning_graph_accuracy(a, b, sigma_math)

    def test_rewired_edge_fails(self):
        comps = QaComponents(context=("c1", "c2"), question=("q",), options=())
        pred = build(
            get_task("gsm8k"),
            comps,
            [({1}, "value 10"), ({4}, "The answer is 10")],
        )
        gold = build(
            get_task("gsm8k"),
            comps,
            [({2}, "value 10"), ({4}, "The answer is 10")],
        )
        assert not reasoning_graph_accuracy(pred, gold, sigma_math)

    def test_dissimilar_step_text_fails(self):
        fx = GSM8K_AGES
        mutated = substitute_step_text(
            fx,
            "Therefore, 1 year means an increase in the sum of their ages by 1 * 2 = 2 years.",
            "an unrelated remark mentioning 987654321",
        )
        pred = fixture_graph(
            type(fx)(fx.name, fx.task, fx.question, mutated)
        )
        gold = fixture_graph(fx)
        assert not reasoning_graph_accuracy(pred, gold, sigma_math)


class TestEq1Similarity:
    def test_graph_accurate_scores_one(self):
        g = fixture_graph(GSM8K_AGES)
        sim, outcome = graph_similarity(g, g, sigma_math)
        assert sim == 1.0 and outcome.delta == 0.0

    def test_wrong_answer_scores_zero(self):
        comps = QaComponents(context=("c",), question=("q",), options=())
        a = build(get_task("gsm8k"), comps, [({1}, "The answer is 1")])
        b = build(get_task("gsm8k"), comps, [({1}, "The answer is 2")])
        sim, outcome = graph_similarity(a, b, sigma_math)
        assert sim == 0.0 and math.isinf(outcome.delta)

    def test_single_substitution_formula(self):
        # ages fixture: 9 nodes + 8 edges = 17 terms per side
        fx = GSM8K_AGES
        mutated = substitute_step_text(
            fx,
            "Therefore, 1 year means an increase in the sum of their ages by 1 * 2 = 2 years.",
            "an unrelated remark mentioning 987654321",
        )
        pred = fixture_graph(type(fx)(fx.name, fx.task, fx.question, mutated))
        gold = fixture_graph(fx)
        outcome = exact_ged(pred, gold, sigma_math)
        assert outcome.delta == 1.0
        assert max(outcome.norm_terms) == 17
        assert eq1_similarity(outcome) == pytest.approx(1 - 1 / 17)

    @given(st.integers(0, 50_000))
    @settings(max_examples=150, deadline=None)
    def test_similarity_in_unit_interval(self, seed):
        pred, gold = random_graph_pair(random.Random(seed))
        sim, _ = graph_similarity(pred, gold, sigma_math)
        assert 0.0 <= sim <= 1.0

    @given(st.integers(0, 50_000))
    @settings(max_examples=100, deadline=None)
    def test_accuracy_iff_zero_distance(self, seed):
        pred, gold = random_graph_pair(random.Random(seed))
        for sigma_fn in (sigma_math, sigma_soft_builtin):
            rga = reasoning_graph_accuracy(pred, gold, sigma_fn)
            assert rga == (oracle_ged(pred, gold, sigma_fn) == 0.0)


class TestScoreQuestion:
    @pytest.mark.parametrize("fx", ALL_FIXTURES, ids=lambda f: f.name)
    def test_gold_vs_gold_perfect(self, fx):
        s = score_question(fixture_record(fx, fx.proof))
        assert s.answer_correct and s.graph_accurate
        assert s.similarity == 1.0
        assert s.delta == 0.0 and s.ged_exact

    def test_wrong_answer_zeroes(self):
        fx = GSM8K_AGES
        wrong = fx.proof.replace("The answer is 12", "The answer is 13")
        s = score_question(fixture_record(fx, wrong))
        assert not s.answer_correct and not s.graph_accurate
        assert s.similarity == 0.0
        assert not s.malformed

    def test_malformed_zeroes_with_typed_error(self):
        s = score_question(fixture_record(GSM8K_AGES, "garbage ; ; -> ("))
        assert s.malformed
        assert s.similarity == 0.0
        assert s.parse_error.startswith("EmptyProofError")

    def test_truncated_flag_set(self):
        fx = GSM8K_AGES
        cut = fx.proof[: fx.proof.index("The answer is 12") + len("The answer")]
        s = score_question(fixture_record(fx, cut))
        assert s.truncated
        # the cut clause was dropped, so no answer step survives
        assert not s.answer_correct and s.similarity == 0.0

    def test_mutated_step_scores_formula(self):
        fx = GSM8K_AGES
        mutated = substitute_step_text(
            fx,
            "Therefore, 1 year means an increase in the sum of their ages by 1 * 2 = 2 years.",
            "an unrelated remark mentioning 987654321",
        )
        s = score_question(fixture_record(fx, mutated))
        assert s.answer_correct and not s.graph_accurate
        assert s.similarity == pytest.approx(1 - 1 / 17)
        assert s.delta == 1.0 and s.ged_exact

    def test_missing_prediction_raises(self):
        with pytest.raises(ValueError):
            score_question(fixture_record(GSM8K_AGES, None))

    def test_json_keys_stable(self):
        s = score_question(fixture_record(GSM8K_AGES, GSM8K_AGES.proof))
        assert list(s.to_json()) == [
            "id",
            "task",
            "answer_correct",
            "graph_accurate",
            "graph_similarity",
            "malformed",
            "truncated",
            "parse_error",
            "ged_delta",
            "ged_exact",
        ]


def mixed_records():
    records = []
    for fx in ALL_FIXTURES:
        records.append(fixture_record(fx, fx.proof))
    fx = GSM8K_AGES
    records.append(
        record_from_strings(
            "wrong-answer",
            fx.task,
            fx.question,
            fx.proof,
            fx.proof.replace("The answer is 12", "The answer is 13"),
        )
    )
    records.append(
        record_from_strings("malformed", fx.task, fx.question, fx.proof, "@@@@")
    )
    records.append(
        record_from_strings("skipped-one", fx.task, fx.question, fx.proof, None)
    )
    return records


class TestScoreRecords:
    def test_skip_and_order(self):
        run = score_records(mixed_records())
        assert run.skipped == ("skipped-one",)
        assert [s.qid for s in run.scores][: len(ALL_FIXTURES)] == [
            f.name for f in ALL_FIXTURES
        ]

    def test_parallel_equals_serial(self):
        records = mixed_records()
        serial = score_records(records, jobs=1)
        parallel = score_records(records, jobs=3)
        assert serial.scores == parallel.scores
        assert serial.skipped == parallel.skipped

    def test_dying_scorer_triggers_fallback(self):
        # several distinct step pairs, so the scorer is asked more than once
        records = [fixture_record(AR_LSAT_LOCKERS, AR_LSAT_LOCKERS.proof)] * 3
        with ExternalScorer(f"{STUB} --fail-after 1") as scorer:
            run = score_records(records, scorer=scorer)
        assert run.fallback
        assert len(run.scores) == 3
        # identical texts still align under the builtin fallback
        assert all(s.graph_accurate for s in run.scores)

    def test_healthy_scorer_no_fallback(self):
        records = [fixture_record(ARC_SUN, ARC_SUN.proof)]
        with ExternalScorer(STUB) as scorer:
            run = score_records(records, scorer=scorer)
        assert not run.fallback
        assert run.scores[0].graph_accurate


class TestAggregate:
    def test_rows_and_overall(self):
        run = score_records(mixed_records())
        report = aggregate(run)
        tasks = [row.task for row in report.rows]
        assert tasks == sorted(
            set(tasks),
            key=lambda t: ["arc", "scone-alchemy", "scone-scene", "scone-tangrams",
                           "gsm8k", "aqua-rat", "ar-lsat"].index(t),
        )
        assert report.overall.task == OVERALL_LABEL
        assert report.overall.count == len(run.scores)
        assert report.overall.malformed == 1
        assert report.skipped == ("skipped-one",)

    def test_percentages(self):
        fx = GSM8K_AGES
        records = [
            fixture_record(fx, fx.proof),
            record_from_strings(
                "wrong",
                fx.task,
                fx.question,
                fx.proof,
                fx.proof.replace("The answer is 12", "The answer is 13"),
            ),
        ]
        report = aggregate(score_records(records))
        row = next(r for r in report.rows if r.task == "gsm8k")
        assert row.answer_accuracy == 50.0
        assert row.reasoning_graph_accuracy == 50.0
        assert row.graph_similarity == 50.0

    def test_fallback_marks_report(self):
        records = [fixture_record(AR_LSAT_LOCKERS, AR_LSAT_LOCKERS.proof)] * 3
        with ExternalScorer(f"{STUB} --fail-after 1") as scorer:
            report = aggregate(score_records(records, scorer=scorer))
        assert report.fallback_similarity
        assert report.to_json()["similarity"] == "fallback-similarity"

    def test_render_table_shape(self):
        report = aggregate(score_records(mixed_records()))
        table = render_table(report)
        lines = table.splitlines()
        assert lines[0].split()[-1] == OVERALL_LABEL
        assert lines[1].startswith("questions")
        assert any(line.startswith("graph similarity %") for line in lines)
