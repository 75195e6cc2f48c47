"""Score formulas, ROC/AUC against concordance, and the Welch t-test."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aeimpute import metrics


class TestPredictionScores:
    def test_perfect_prediction(self):
        s = metrics.prediction_scores([1, 2, 3], [1, 2, 3])
        assert s.mse == 0 and s.rmse == 0 and s.mae == 0

    def test_constant_offset(self):
        s = metrics.prediction_scores([0, 0], [2, 2])
        assert s.mse == 4 and s.rmse == 2 and s.mae == 2

    def test_direct_arithmetic(self):
        s = metrics.prediction_scores([0, 1], [1, 3])
        assert s.mse == pytest.approx(2.5)
        assert s.rmse == pytest.approx(math.sqrt(2.5))
        assert s.mae == pytest.approx(1.5)

    def test_pearson_known_value(self):
        s = metrics.prediction_scores([1, 2, 3, 4], [2, 4, 6, 8])
        assert s.pearson_r == pytest.approx(1.0)
        s = metrics.prediction_scores([1, 2, 3, 4], [8, 6, 4, 2])
        assert s.pearson_r == pytest.approx(-1.0)

    def test_pearson_undefined_on_constant(self):
        assert metrics.prediction_scores([1, 1, 1], [1, 2, 3]).pearson_r is None
        assert metrics.prediction_scores([1, 2, 3], [5, 5, 5]).pearson_r is None

    def test_length_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            metrics.prediction_scores([1, 2], [1])
        with pytest.raises(ValueError):
            metrics.prediction_scores([], [])

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=50),
        st.data(),
    )
    @settings(max_examples=80)
    def test_rmse_mse_mae_relations(self, actual, data):
        predicted = data.draw(
            st.lists(st.floats(-100, 100), min_size=len(actual), max_size=len(actual))
        )
        s = metrics.prediction_scores(actual, predicted)
        assert s.rmse**2 == pytest.approx(s.mse, abs=1e-12 * max(1.0, s.mse))
        assert s.mae <= s.rmse + 1e-12


class TestRocCurve:
    def test_perfect_separation(self):
        curve = metrics.roc_curve([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0])
        assert curve.auc == 1.0

    def test_total_tie(self):
        curve = metrics.roc_curve([0.5, 0.5], [1, 0])
        assert curve.auc == 0.5
        assert curve.points == ((0.0, 0.0), (1.0, 1.0))

    def test_three_of_four_concordant(self):
        curve = metrics.roc_curve([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert curve.auc == pytest.approx(0.75, abs=1e-12)

    def test_endpoints_and_monotone_fpr(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(0, 1, 50)
        labels = rng.integers(0, 2, 50)
        labels[0], labels[1] = 0, 1
        curve = metrics.roc_curve(scores, labels)
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)
        fprs = [p[0] for p in curve.points]
        assert (np.diff(fprs) >= 0).all()

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            metrics.roc_curve([0.1, 0.9], [1, 1])
        with pytest.raises(ValueError, match="positive"):
            metrics.roc_curve([0.1, 0.9], [0, 0])

    @staticmethod
    def concordance(scores, labels):
        scores = np.asarray(scores, dtype=float)
        labels = np.asarray(labels)
        pos = scores[labels == 1][:, None]
        neg = scores[labels == 0][None, :]
        wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
        return wins / (pos.shape[0] * neg.shape[1])

    @given(st.data())
    @settings(max_examples=120)
    def test_auc_equals_tie_adjusted_concordance(self, data):
        n = data.draw(st.integers(4, 200))
        decimals = data.draw(st.integers(1, 3))  # coarse scores force ties
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scores = np.round(rng.uniform(0, 1, n), decimals)
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        curve = metrics.roc_curve(scores, labels)
        assert curve.auc == pytest.approx(self.concordance(scores, labels), abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(7)
        scores = rng.uniform(0, 1, 80)
        labels = rng.integers(0, 2, 80)
        labels[:2] = [0, 1]
        base = metrics.roc_curve(scores, labels).auc
        for transform in (lambda s: 3 * s + 1, np.exp, lambda s: s**3):
            assert metrics.roc_curve(transform(scores), labels).auc == pytest.approx(
                base, abs=1e-12
            )


def t_pdf(x: float, df: float) -> float:
    lognorm = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    return math.exp(lognorm) * (1 + x * x / df) ** (-(df + 1) / 2)


@functools.cache
def gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the rule, solved once per node count (read-only)."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


def p_two_tailed_quadrature(t: float, df: float, nodes: int = 400) -> float:
    """Independent oracle: Gauss-Legendre integration of the density."""
    xs, ws = gauss_legendre(nodes)
    half = abs(t) / 2.0
    mapped = half * xs + half
    integral = half * sum(w * t_pdf(x, df) for x, w in zip(mapped, ws))
    return 1.0 - 2.0 * integral


class TestWelch:
    def test_identical_samples(self):
        r = metrics.welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.t_statistic == 0.0
        assert r.p_value == 1.0

    def test_known_example_against_quadrature(self):
        r = metrics.welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert r.t_statistic == pytest.approx(-1.0)
        assert r.degrees_of_freedom == pytest.approx(8.0)
        oracle = p_two_tailed_quadrature(r.t_statistic, r.degrees_of_freedom)
        assert r.p_value == pytest.approx(oracle, abs=1e-6)

    def test_swap_negates_t_preserves_p(self):
        a = [1.0, 2.5, 3.0, 4.8]
        b = [2.0, 3.1, 5.2]
        r1 = metrics.welch_t_test(a, b)
        r2 = metrics.welch_t_test(b, a)
        assert r1.t_statistic == pytest.approx(-r2.t_statistic, rel=1e-12)
        assert r1.p_value == pytest.approx(r2.p_value, rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 1, 12)
        b = rng.normal(0.4, 2, 9)
        r1 = metrics.welch_t_test(a, b)
        r2 = metrics.welch_t_test(a + 100, b + 100)
        assert r1.t_statistic == pytest.approx(r2.t_statistic, rel=1e-9)
        assert r1.p_value == pytest.approx(r2.p_value, rel=1e-9)

    def test_both_constant_equal_is_defined_limit(self):
        r = metrics.welch_t_test([2.0, 2.0, 2.0], [2.0, 2.0])
        assert r.t_statistic == 0.0 and r.p_value == 1.0

    def test_both_constant_unequal_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            metrics.welch_t_test([2.0, 2.0], [3.0, 3.0])

    def test_one_constant_sample_allowed(self):
        r = metrics.welch_t_test([2.0, 2.0, 2.0], [1.0, 3.0, 5.0])
        assert 0.0 <= r.p_value <= 1.0
        assert r.degrees_of_freedom == pytest.approx(2.0)

    def test_short_samples_rejected(self):
        with pytest.raises(ValueError):
            metrics.welch_t_test([1.0], [1.0, 2.0])

    def test_p_values_against_quadrature_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), rng.integers(2, 60))
            b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), rng.integers(2, 60))
            r = metrics.welch_t_test(a, b)
            oracle = p_two_tailed_quadrature(r.t_statistic, r.degrees_of_freedom)
            assert r.p_value == pytest.approx(oracle, abs=1e-6)


class TestComparisonMatrix:
    def sample_errors(self, k=5, n=30, seed=0):
        rng = np.random.default_rng(seed)
        return {f"m{i}": rng.normal(i * 0.1, 1.0, n) for i in range(k)}

    def test_pair_count_for_five_methods(self):
        matrix = metrics.comparison_matrix(self.sample_errors())
        assert len(matrix.pairs()) == 10

    def test_symmetric_with_unit_diagonal(self):
        matrix = metrics.comparison_matrix(self.sample_errors())
        np.testing.assert_array_equal(matrix.p_values, matrix.p_values.T)
        np.testing.assert_array_equal(np.diag(matrix.p_values), 1.0)

    def test_entries_match_pairwise_tests(self):
        errors = self.sample_errors(k=3)
        matrix = metrics.comparison_matrix(errors)
        names = matrix.methods
        for i in range(3):
            for j in range(i + 1, 3):
                expected = metrics.welch_t_test(errors[names[i]], errors[names[j]]).p_value
                assert matrix.p_values[i, j] == expected

    def test_requires_two_methods(self):
        with pytest.raises(ValueError):
            metrics.comparison_matrix({"only": [1.0, 2.0]})

    def test_degenerate_samples_propagate(self):
        with pytest.raises(ValueError):
            metrics.comparison_matrix({"a": [1.0, 1.0], "b": [2.0, 2.0]})


class TestIncompleteBeta:
    def test_boundaries_exact(self):
        assert metrics.regularized_incomplete_beta(3.0, 0.5, 0.0) == 0.0
        assert metrics.regularized_incomplete_beta(3.0, 0.5, 1.0) == 1.0

    def test_symmetric_half(self):
        # I_x(a, a) at x = 1/2 is exactly 1/2 by symmetry.
        for a in (0.5, 1.0, 2.5, 7.0):
            assert metrics.regularized_incomplete_beta(a, a, 0.5) == pytest.approx(
                0.5, abs=1e-12
            )

    def test_uniform_case_is_identity(self):
        for x in np.linspace(0, 1, 21):
            assert metrics.regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(
                x, abs=1e-12
            )

    @given(
        a=st.floats(1e-3, 1e4),
        b=st.floats(1e-3, 1e4),
        x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_continued_fraction_equals_two_half_step_reference(self, a, b, x):
        # The continued fraction updates (c, d) once per term; the reference
        # writes out the even and odd terms of each iteration separately.
        assert metrics._beta_continued_fraction(a, b, x) == reference_continued_fraction(a, b, x)


def reference_continued_fraction(a: float, b: float, x: float) -> float:
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        coef = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + coef * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coef / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        coef = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + coef * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coef / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < 1e-15:
            break
    return h
