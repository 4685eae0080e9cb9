"""Similarity policy tests: exact, math-value-set, soft threshold, scorers."""

import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgraph.errors import ExternalScorerUnavailableError
from rgraph.similarity import (
    DEFAULT_SOFT_THRESHOLD,
    ExternalScorer,
    PolicyKind,
    SimilarityPolicy,
    builtin_overlap_score,
    default_policy,
    extract_math_values,
    sigma,
    sigma_exact,
    sigma_math,
    sigma_soft,
)
from rgraph.tasks import get_task

STUB = f"{sys.executable} {Path(__file__).parent / 'stub_scorer.py'}"


def values(*nums) -> frozenset:
    return frozenset(Decimal(str(n)) for n in nums)


class TestSigmaExact:
    def test_identity(self):
        assert sigma_exact("position 5 has no person", "position 5 has no person")

    def test_different_color(self):
        assert not sigma_exact("1 green chemical", "1 red chemical")

    def test_outer_whitespace_trimmed(self):
        assert sigma_exact("a ", "a")

    def test_inner_whitespace_significant(self):
        assert not sigma_exact("a  b", "a b")


class TestExtractMathValues:
    def test_printed_example(self):
        got = extract_math_values("Natalia sold 48/2 = 24 clips in May")
        assert got == values(48, 2, 24)

    def test_no_numbers(self):
        assert extract_math_values("no numbers here") == frozenset()

    def test_speed_example(self):
        got = extract_math_values("Speed in miles/minutes = 60 * 540 = 32400")
        assert got == values(60, 540, 32400)

    def test_decimal_and_duplicates_collapse(self):
        assert extract_math_values("0.6 and 0.6 again") == values("0.6")

    def test_thousands_commas(self):
        assert extract_math_values("cost is 1,234 dollars") == values(1234)

    def test_sign_after_equals(self):
        assert extract_math_values("x = -5") == values(-5)

    def test_sign_after_paren(self):
        assert extract_math_values("f(-5) is big") == values(-5)

    def test_leading_sign_at_start(self):
        assert extract_math_values("-12 degrees outside") == values(-12)

    def test_infix_minus_is_not_a_sign(self):
        assert extract_math_values("44 - 20 = 24 more years") == values(44, 20, 24)

    def test_percent_is_surface_literal(self):
        assert extract_math_values("rose by 60%") == values(60)

    def test_numeric_equality_across_formats(self):
        assert extract_math_values("24") == extract_math_values("24.0")


class TestSigmaMath:
    def test_same_value_sets(self):
        assert sigma_math("8+12=20 years", "sum 20 from 8 and 12")

    def test_algebra_counterexample(self):
        assert not sigma_math("k = 91", "1/13 = 7/k")

    def test_both_empty(self):
        assert sigma_math("", "")

    def test_number_free_suffix_invariance(self):
        assert sigma_math("48/2 = 24 clips", "24 from 48 over 2")
        assert sigma_math("48/2 = 24 clips okay", "24 from 48 over 2 indeed")


class TestBuiltinOverlap:
    def test_identical(self):
        assert builtin_overlap_score("a b c", "a b c") == 1.0

    def test_disjoint(self):
        assert builtin_overlap_score("a b", "x y") == 0.0

    def test_two_thirds(self):
        assert builtin_overlap_score("a b c", "a b d") == pytest.approx(2 / 3)

    def test_case_and_punctuation_insensitive(self):
        assert builtin_overlap_score("The Sun rises!", "the sun rises") == 1.0

    def test_symmetric(self):
        a, b = "one two three", "two three four five"
        assert builtin_overlap_score(a, b) == builtin_overlap_score(b, a)

    def test_empty_sides(self):
        assert builtin_overlap_score("", "") == 1.0
        assert builtin_overlap_score("a", "") == 0.0


class TestDefaultPolicies:
    @pytest.mark.parametrize(
        "task,kind",
        [
            ("scone-alchemy", PolicyKind.EXACT),
            ("scone-scene", PolicyKind.EXACT),
            ("scone-tangrams", PolicyKind.EXACT),
            ("gsm8k", PolicyKind.MATH_VALUE_SET),
            ("aqua-rat", PolicyKind.MATH_VALUE_SET),
            ("arc", PolicyKind.SOFT_THRESHOLD),
            ("ar-lsat", PolicyKind.SOFT_THRESHOLD),
        ],
    )
    def test_task_mapping(self, task, kind):
        assert default_policy(get_task(task)).kind is kind

    def test_soft_default_threshold(self):
        p = default_policy(get_task("arc"))
        assert p.threshold == DEFAULT_SOFT_THRESHOLD == 0.25


class TestSigmaSoftBuiltin:
    def test_identity_true(self):
        p = SimilarityPolicy(PolicyKind.SOFT_THRESHOLD)
        text = "the sun rising and setting is the event that occurs once per day"
        assert sigma_soft(text, text, p)

    def test_disjoint_false(self):
        p = SimilarityPolicy(PolicyKind.SOFT_THRESHOLD)
        assert not sigma_soft("alpha beta", "gamma delta", p)

    def test_threshold_is_strict(self):
        # score exactly at the threshold must NOT pass
        p = SimilarityPolicy(PolicyKind.SOFT_THRESHOLD, threshold=2 / 3)
        assert builtin_overlap_score("a b c", "a b d") == pytest.approx(2 / 3)
        assert not sigma_soft("a b c", "a b d", p)
        looser = SimilarityPolicy(PolicyKind.SOFT_THRESHOLD, threshold=0.6)
        assert sigma_soft("a b c", "a b d", looser)


class TestExternalScorer:
    def test_scripted_scores_and_gate(self):
        with ExternalScorer(STUB) as scorer:
            p = SimilarityPolicy(PolicyKind.SOFT_THRESHOLD, scorer=scorer)
            assert scorer.score("same text", "same text") == 1.0
            assert scorer.score("left [s=0.30]", "right") == 0.30
            # 0.25 exactly fails the strict > gate; 0.26 passes
            assert not sigma_soft("x [s=0.25]", "y", p)
            assert sigma_soft("x [s=0.26]", "y", p)

    def test_order_preserving_batch(self):
        with ExternalScorer(STUB) as scorer:
            pairs = [(f"p{i} [s=0.{i}{i}]", "ref") for i in range(1, 8)]
            got = scorer.score_batch(pairs)
            assert got == [float(f"0.{i}{i}") for i in range(1, 8)]

    def test_results_cached(self):
        with ExternalScorer(f"{STUB} --fail-after 1") as scorer:
            assert scorer.score("a [s=0.5]", "b") == 0.5
            # second identical request never reaches the dead process
            assert scorer.score("a [s=0.5]", "b") == 0.5

    def test_dead_scorer_raises_unavailable(self):
        with ExternalScorer(f"{STUB} --fail-after 1") as scorer:
            scorer.score("a [s=0.5]", "b")
            with pytest.raises(ExternalScorerUnavailableError):
                scorer.score("c [s=0.5]", "d")

    def test_exited_scorer_is_not_restarted(self):
        with ExternalScorer(f"{STUB} --fail-after 1") as scorer:
            scorer.score("a [s=0.5]", "b")
            time.sleep(0.5)  # the scorer has exited before the next request
            for _ in range(2):
                with pytest.raises(ExternalScorerUnavailableError):
                    scorer.score("c [s=0.5]", "d")

    def test_unstartable_command_raises(self):
        with ExternalScorer("/no/such/binary-xyz") as scorer:
            with pytest.raises(ExternalScorerUnavailableError):
                scorer.score("a", "b")

    def test_non_numeric_reply_raises(self):
        with ExternalScorer(f"{STUB} --banner") as scorer:
            with pytest.raises(ExternalScorerUnavailableError):
                scorer.score("a", "b")


_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60
)


class TestProperties:
    @given(_texts)
    @settings(max_examples=200)
    def test_all_sigmas_reflexive(self, text):
        assert sigma_exact(text, text)
        assert sigma_math(text, text)
        p = SimilarityPolicy(PolicyKind.SOFT_THRESHOLD)
        stripped = text.strip()
        if stripped:
            assert sigma_soft(stripped, stripped, p) or builtin_overlap_score(
                stripped, stripped
            ) <= p.threshold

    @given(_texts, _texts)
    @settings(max_examples=200)
    def test_overlap_in_unit_interval_and_symmetric(self, a, b):
        s = builtin_overlap_score(a, b)
        assert 0.0 <= s <= 1.0
        assert s == builtin_overlap_score(b, a)

    @given(_texts, _texts, _texts)
    @settings(max_examples=200)
    def test_math_invariant_under_number_free_suffix(self, a, b, junk):
        suffix = "".join(ch for ch in junk if not ch.isdigit())
        assert sigma_math(a, b) == sigma_math(a + " " + suffix, b + " " + suffix)

    @given(_texts, _texts)
    @settings(max_examples=100)
    def test_sigma_dispatcher_matches_parts(self, a, b):
        assert sigma(SimilarityPolicy(PolicyKind.EXACT), a, b) == sigma_exact(a, b)
        assert sigma(SimilarityPolicy(PolicyKind.MATH_VALUE_SET), a, b) == sigma_math(
            a, b
        )
