"""Score formulas, ROC/AUC against concordance, and the paired comparison
of methods against oracles that compute it another way."""

import functools
import itertools
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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


def kernel_matrix(scores, labels) -> np.ndarray:
    """The n+ x n- matrix of psi(positive, negative): 1 where the positive
    scores higher, 1/2 on a tie, 0 otherwise."""
    scores, labels = np.asarray(scores, dtype=float), np.asarray(labels)
    pos, neg = scores[labels == 1][:, None], scores[labels == 0][None, :]
    return (pos > neg) + 0.5 * (pos == neg)


def delong_oracle(scores_a, scores_b, labels) -> tuple[float, float]:
    """(delta AUC, two-sided p) with DeLong's covariance computed directly from
    the two kernel matrices: the 2 x 2 sample covariances of the methods'
    row means (over the positives) and column means (over the negatives),
    contrasted by (1, -1), and the normal tail from NormalDist."""
    kernels = [kernel_matrix(s, labels) for s in (scores_a, scores_b)]
    contrast = np.array([1.0, -1.0])
    variance = sum(
        contrast @ np.cov([k.mean(axis=axis) for k in kernels]) @ contrast / kernels[0].shape[1 - axis]
        for axis in (1, 0)
    )
    delta = kernels[0].mean() - kernels[1].mean()
    if variance == 0.0:
        return delta, float(delta == 0.0)
    return delta, 2.0 * NormalDist().cdf(-abs(delta) / math.sqrt(variance))


@functools.cache
def patterns_by_wins(n: int) -> np.ndarray:
    """How many of the 2^n sign patterns of n records hold each count of
    A-wins, by enumerating every pattern (read-only)."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    counts = np.bincount(bits.sum(axis=1), minlength=n + 1)
    counts.flags.writeable = False
    return counts


def sign_test_oracle(wins_a: int, wins_b: int) -> float:
    """The share of all sign patterns of the untied records whose split is
    at least as uneven as the one seen."""
    n = wins_a + wins_b
    counts = patterns_by_wins(n)
    uneven = np.minimum(np.arange(n + 1), n - np.arange(n + 1)) <= min(wins_a, wins_b)
    return float(counts[uneven].sum()) / 2**n


def paired_errors(wins_a: int, wins_b: int, ties: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Shuffled squared-error pairs with the given wins and ties."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.1, 1.0, wins_a + wins_b + ties)
    step = np.concatenate([-np.ones(wins_a), np.ones(wins_b), np.zeros(ties)]) * rng.uniform(0.01, 0.09, b.size)
    order = rng.permutation(b.size)
    return (b + step)[order], b[order]


class TestDeLong:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_variance_matches_the_kernel_matrix(self, data):
        n = data.draw(st.integers(4, 120))
        decimals = data.draw(st.integers(1, 3))  # coarse scores force ties
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        labels = rng.integers(0, 2, n)
        labels[:4] = [0, 0, 1, 1]
        a = np.round(rng.uniform(0, 1, n) + data.draw(st.floats(0, 1)) * labels, decimals)
        b = np.round(rng.uniform(0, 1, n) + data.draw(st.floats(0, 1)) * labels, decimals)
        result = metrics.delong_test(a, b, labels)
        delta, p = delong_oracle(a, b, labels)
        assert result["delta_auc"] == metrics.roc_curve(a, labels).auc - metrics.roc_curve(b, labels).auc
        assert result["delta_auc"] == pytest.approx(delta, abs=1e-12)
        assert result["p_value"] == pytest.approx(p, abs=1e-9)

    def test_identical_scores_give_p_one(self):
        scores, labels = [0.1, 0.4, 0.35, 0.8, 0.7], [0, 0, 1, 1, 1]
        assert metrics.delong_test(scores, scores, labels) == {"delta_auc": 0.0, "p_value": 1.0}

    def test_zero_variance_with_a_difference_gives_p_zero(self):
        # A separates the classes (every placement 1), B ties everything (every
        # placement 1/2): the paired differences are constant in each class.
        labels = [0, 0, 1, 1]
        result = metrics.delong_test([0.1, 0.2, 0.8, 0.9], [0.5] * 4, labels)
        assert result == {"delta_auc": 0.5, "p_value": 0.0}
        assert delong_oracle([0.1, 0.2, 0.8, 0.9], [0.5] * 4, labels) == (0.5, 0.0)

    def test_swap_negates_delta_and_keeps_p(self):
        rng = np.random.default_rng(3)
        labels = np.array([0, 1] * 20)
        a, b = rng.uniform(0, 1, 40) + 0.3 * labels, rng.uniform(0, 1, 40)
        ab, ba = metrics.delong_test(a, b, labels), metrics.delong_test(b, a, labels)
        assert ab["delta_auc"] == -ba["delta_auc"] and ab["p_value"] == pytest.approx(ba["p_value"], rel=1e-12)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(7)
        labels = np.array([0, 1] * 30)
        a, b = rng.uniform(0, 1, 60) + 0.2 * labels, rng.uniform(0, 1, 60)
        base = metrics.delong_test(a, b, labels)
        moved = metrics.delong_test(np.exp(a), 3 * b + 1, labels)
        assert moved["delta_auc"] == pytest.approx(base["delta_auc"], abs=1e-12)
        assert moved["p_value"] == pytest.approx(base["p_value"], abs=1e-12)

    @pytest.mark.parametrize("labels", [[0, 1, 1, 1], [1, 0, 0, 0]])
    def test_needs_two_records_of_each_class(self, labels):
        with pytest.raises(ValueError, match="at least 2 records of each class"):
            metrics.delong_test([0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1], labels)


class TestSignTest:
    @given(wins_a=st.integers(0, 16), wins_b=st.integers(0, 16), ties=st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_p_matches_an_enumeration_of_every_sign_pattern(self, wins_a, wins_b, ties):
        assume(wins_a + wins_b + ties > 0 and wins_a + wins_b <= 16)
        result = metrics.sign_test(*paired_errors(wins_a, wins_b, ties))
        assert (result["wins_a"], result["wins_b"], result["ties"]) == (wins_a, wins_b, ties)
        assert result["p_value"] == pytest.approx(sign_test_oracle(wins_a, wins_b), abs=1e-15)

    def test_known_values(self):
        # Two-sided: 2 * P(X <= 1) for n = 5 is 2 * 6/32.
        assert metrics.sign_test(*paired_errors(4, 1, 0))["p_value"] == 0.375
        assert metrics.sign_test(*paired_errors(3, 3, 2))["p_value"] == 1.0

    def test_only_ties_give_p_one(self):
        errors = [0.1, 0.2, 0.3]
        assert metrics.sign_test(errors, errors) == {"wins_a": 0, "wins_b": 0, "ties": 3, "p_value": 1.0}

    def test_large_samples_stay_exact(self):
        # 250 records, as in a credit-sized test block: the tail sum is exact.
        result = metrics.sign_test(*paired_errors(150, 100, 0))
        expected = 2 * sum(math.comb(250, i) for i in range(101)) / 2**250
        assert result["p_value"] == expected and 0.0 < expected < 0.01

    def test_unpaired_samples_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            metrics.sign_test([0.1, 0.2], [0.1])


def holm_oracle(p_values) -> list[float]:
    """Holm's adjustment by its definition: for each p, the largest over the
    p-values ranked at or before it of min(1, (m - rank) * p)."""
    m = len(p_values)
    ranked = sorted(range(m), key=lambda i: (p_values[i], i))
    rank = {i: r for r, i in enumerate(ranked)}
    return [max(min(1.0, (m - rank[j]) * p_values[j]) for j in range(m) if rank[j] <= rank[i]) for i in range(m)]


class TestHolm:
    def test_known_example(self):
        assert metrics.holm([0.01, 0.04, 0.03, 0.5]) == [0.04, 0.09, 0.09, 0.5]

    @given(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.05, 1.0]), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_definition(self, p_values):
        adjusted = metrics.holm(p_values)
        assert adjusted == pytest.approx(holm_oracle(p_values), abs=1e-15)
        assert all(p <= q <= 1.0 for p, q in zip(p_values, adjusted))


class TestComparisonMatrix:
    def sample_errors(self, k=5, n=30, seed=0):
        rng = np.random.default_rng(seed)
        return {f"m{i}": rng.normal(i * 0.1, 1.0, n) ** 2 for i in range(k)}

    def test_prediction_pairs_follow_the_keys_and_hold_the_sign_test(self):
        # Keys in reverse sorted order: the pairs follow the keys, not their sort.
        errors = dict(reversed(self.sample_errors(k=4).items()))
        pairs = metrics.comparison_matrix(errors)
        assert [entry["pair"] for entry in pairs] == list(itertools.combinations(errors, 2))
        adjusted = metrics.holm([entry["p_value"] for entry in pairs])
        for entry, p_holm in zip(pairs, adjusted):
            a, b = entry["pair"]
            assert entry == {"pair": (a, b), **metrics.sign_test(errors[a], errors[b]), "p_holm": p_holm}

    def test_classification_pairs_hold_delong(self):
        rng = np.random.default_rng(1)
        labels = np.array([0, 1] * 15)
        scores = {m: rng.uniform(0, 1, 30) + shift * labels for m, shift in (("ga", 0.5), ("rf", 0.2), ("ns", 0))}
        pairs = metrics.comparison_matrix(scores, labels)
        adjusted = metrics.holm([entry["p_value"] for entry in pairs])
        for entry, p_holm in zip(pairs, adjusted):
            a, b = entry["pair"]
            assert entry == {"pair": (a, b), **metrics.delong_test(scores[a], scores[b], labels), "p_holm": p_holm}

    def test_one_method_has_no_pair(self):
        assert metrics.comparison_matrix({"only": [1.0, 2.0]}) == []
