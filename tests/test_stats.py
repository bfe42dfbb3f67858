"""Statistics: incomplete beta vs high-precision oracle, Welch, Holm."""

import mpmath
import numpy as np
import pytest

from memgrad.artifacts import invalid_at
from memgrad.stats import (compare_groups, holm_bonferroni,
                           regularized_incomplete_beta, student_t_two_tailed_p,
                           welch_t_test)

BP_ACCS = [90.62, 91.18, 89.89, 87.87, 90.44]
SFF_ACCS = [88.05, 90.44, 87.68, 89.89, 91.36]
CF_ACCS = [91.18, 90.62, 89.52, 90.44, 86.03]


def betainc_oracle(a, b, x):
    """Arbitrary-precision regularized incomplete beta."""
    with mpmath.workdps(50):
        return float(mpmath.betainc(a, b, 0, x, regularized=True))


class TestIncompleteBeta:
    # canned (a, b, x) cases spanning symmetric, asymmetric, and extreme tails
    CASES = [
        (0.5, 0.5, 0.3), (0.5, 0.5, 0.999), (1.0, 1.0, 0.42),
        (2.0, 3.0, 0.15), (2.0, 3.0, 0.85), (4.0, 0.5, 0.2),
        (0.5, 4.0, 0.95), (10.0, 10.0, 0.5), (10.0, 10.0, 0.01),
        (50.0, 0.5, 0.99), (0.5, 50.0, 0.02), (2.5, 2.5, 0.5),
        (1.5, 0.5, 0.7), (3.0, 7.0, 0.3), (7.0, 3.0, 0.7),
        (20.0, 1.0, 0.9), (1.0, 20.0, 0.1), (100.0, 100.0, 0.45),
        (0.1, 0.1, 0.5), (5.0, 2.0, 0.6),
    ]

    @pytest.mark.parametrize("a,b,x", CASES)
    def test_matches_high_precision_oracle(self, a, b, x):
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            betainc_oracle(a, b, x), abs=1e-6, rel=1e-6)

    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestStudentT:
    def test_symmetric_in_t(self):
        assert student_t_two_tailed_p(1.7, 5.0) == pytest.approx(
            student_t_two_tailed_p(-1.7, 5.0), rel=1e-12)

    def test_zero_statistic(self):
        assert student_t_two_tailed_p(0.0, 7.0) == pytest.approx(1.0)

    def test_against_oracle(self):
        # oracle: 2 * (1 - CDF) of Student t via mpmath's incomplete beta
        for t, df in [(1.0, 4.0), (2.5, 8.3), (0.57, 7.96), (4.0, 2.0)]:
            expected = betainc_oracle(df / 2, 0.5, df / (df + t * t))
            assert student_t_two_tailed_p(t, df) == pytest.approx(expected,
                                                                  rel=1e-9)


class TestWelch:
    def test_reproduces_reported_p_values(self):
        assert welch_t_test(BP_ACCS, SFF_ACCS) == pytest.approx(0.586, abs=0.002)
        assert welch_t_test(BP_ACCS, CF_ACCS) == pytest.approx(0.697, abs=0.002)
        assert welch_t_test(SFF_ACCS, CF_ACCS) == pytest.approx(0.951, abs=0.002)

    def test_symmetric_in_arguments(self):
        assert welch_t_test(BP_ACCS, CF_ACCS) == pytest.approx(
            welch_t_test(CF_ACCS, BP_ACCS), rel=1e-12)

    def test_shift_invariance(self):
        shifted_a = [v + 13.5 for v in BP_ACCS]
        shifted_b = [v + 13.5 for v in SFF_ACCS]
        assert welch_t_test(shifted_a, shifted_b) == pytest.approx(
            welch_t_test(BP_ACCS, SFF_ACCS), rel=1e-9)

    def test_identical_samples(self):
        assert welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_degenerate_zero_variance(self):
        assert welch_t_test([2.0, 2.0], [2.0, 2.0]) == 1.0
        assert welch_t_test([2.0, 2.0], [3.0, 3.0]) == 0.0

    def test_sample_size_guard(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [1.0, 2.0])

    def test_against_scipy(self):
        from scipy import stats as sp_stats
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.normal(0, 1, int(rng.integers(2, 12)))
            b = rng.normal(0.3, 1.7, int(rng.integers(2, 12)))
            expected = sp_stats.ttest_ind(a, b, equal_var=False).pvalue
            assert welch_t_test(a, b) == pytest.approx(expected, rel=1e-9)


class TestHolm:
    def test_retains_paper_pvalues(self):
        decisions = holm_bonferroni([0.586, 0.697, 0.951], alpha=0.05)
        assert decisions == [False, False, False]

    def test_step_down_rule(self):
        # 0.001 <= 0.05/2 -> reject; 0.5 > 0.05/1 -> retain
        assert holm_bonferroni([0.001, 0.5], alpha=0.05) == [True, False]

    def test_empty(self):
        assert holm_bonferroni([], alpha=0.05) == []

    def test_monotonicity(self):
        # 0.03 > 0.05/2 stops the step-down, so 0.04 is retained even though
        # it would pass its own unadjusted threshold
        decisions = holm_bonferroni([0.001, 0.04, 0.03], alpha=0.05)
        assert decisions == [True, False, False]

    def test_all_rejected_when_cascade_holds(self):
        assert holm_bonferroni([0.01, 0.04, 0.02], alpha=0.05) == [True, True, True]

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            holm_bonferroni([0.5], alpha=0.0)


class TestCompareGroups:
    def test_report_of_paper_groups(self):
        groups = {"bp": BP_ACCS, "sff": SFF_ACCS, "cf": CF_ACCS}
        payload = compare_groups(groups, alpha=0.05)
        assert invalid_at(payload, "stats_report.schema.json") is None
        assert list(payload) == ["groups", "pairwise", "alpha"]
        assert payload["groups"] == {
            name: {"mean": float(np.mean(v)), "std": float(np.std(v, ddof=1))}
            for name, v in groups.items()}
        pairs = [("bp", "sff"), ("bp", "cf"), ("sff", "cf")]
        assert payload["pairwise"] == [
            {"a": a, "b": b, "p_value": welch_t_test(groups[a], groups[b]),
             "reject": False} for a, b in pairs]
        assert [e["p_value"] for e in payload["pairwise"]] == pytest.approx(
            [0.586, 0.697, 0.951], abs=0.002)
        assert payload["alpha"] == 0.05

    def test_holm_decisions_in_pair_order(self):
        groups = {"a": [1.0, 1.1, 0.9], "b": [5.0, 5.2, 4.8], "c": [1.05, 0.95, 1.0],
                  "d": [5.1, 4.9, 5.0]}
        payload = compare_groups(groups, alpha=0.05)
        p_values = [e["p_value"] for e in payload["pairwise"]]
        decisions = [e["reject"] for e in payload["pairwise"]]
        assert decisions == holm_bonferroni(p_values, 0.05)
        assert any(decisions) and not all(decisions)

    def test_needs_two_groups(self):
        with pytest.raises(ValueError):
            compare_groups({"only": [1.0, 2.0]})
