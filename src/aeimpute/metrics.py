"""Prediction and classification metrics, and the paired comparison of methods.

Prediction quality: MSE, RMSE, MAE and Pearson correlation; MAE averages
absolute deviations, not squared ones.  Classification quality: the ROC
curve over descending score thresholds and its trapezoidal area, the
tie-adjusted probability that a random positive outscores a random negative.
Every method imputes the same test records, so each pair of methods is
compared on paired records, with Holm's adjustment across the pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PredictionScores:
    mse: float
    rmse: float
    mae: float
    pearson_r: float | None  # None when either input is constant


@dataclass(frozen=True)
class RocCurve:
    points: tuple[tuple[float, float], ...]  # (fpr, tpr), from (0,0) to (1,1)
    auc: float


def _paired_vectors(first, second) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(first, dtype=float).ravel()
    b = np.asarray(second, dtype=float).ravel()
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size} values")
    if a.size == 0:
        raise ValueError("inputs must be non-empty")
    return a, b


def prediction_scores(actual, predicted) -> PredictionScores:
    a, p = _paired_vectors(actual, predicted)
    diff = a - p
    mse = float(diff @ diff) / a.size
    mae = float(np.abs(diff).sum()) / a.size

    ca = a - a.mean()
    cp = p - p.mean()
    denom = math.sqrt(float(ca @ ca)) * math.sqrt(float(cp @ cp))
    pearson = float(ca @ cp) / denom if denom > 0 else None
    return PredictionScores(mse=mse, rmse=math.sqrt(mse), mae=mae, pearson_r=pearson)


def roc_curve(scores, labels) -> RocCurve:
    """ROC points over descending distinct thresholds plus the (0,0) origin.

    Tied scores move as one group, producing the diagonal segments that make
    the trapezoidal area equal to tie-adjusted pairwise concordance.
    """
    s = np.asarray(scores, dtype=float).ravel()
    y = np.asarray(labels).ravel().astype(int)
    if s.size != y.size:
        raise ValueError(f"length mismatch: {s.size} scores vs {y.size} labels")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0/1")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0:
        raise ValueError("labels contain no positive (1) examples")
    if n_neg == 0:
        raise ValueError("labels contain no negative (0) examples")

    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    # Indices where a threshold group (equal scores) ends.
    group_end = np.flatnonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))
    tp = np.cumsum(y_sorted)[group_end]
    fp = (group_end + 1) - tp

    points = [(0.0, 0.0)]
    points.extend((float(fp_i) / n_neg, float(tp_i) / n_pos) for fp_i, tp_i in zip(fp, tp))

    auc = 0.0
    for (f0, t0), (f1, t1) in zip(points[:-1], points[1:]):
        auc += (f1 - f0) * (t0 + t1) / 2.0
    return RocCurve(points=tuple(points), auc=float(auc))


def _shares_below(sample: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each value's share of ``sample`` below it, ties counting 1/2."""
    ordered = np.sort(sample)
    return (np.searchsorted(ordered, values, "left") + np.searchsorted(ordered, values, "right")) / (2 * ordered.size)


def delong_test(scores_a, scores_b, labels) -> dict:
    """DeLong's z-test on two correlated AUCs (DeLong, DeLong & Clarke-Pearson,
    *Biometrics* 44(3), 1988): ``delta_auc``, A's :func:`roc_curve` area less
    B's, and its two-sided ``p_value``.  Its variance sums, over each class, the
    sample variance of the records' paired placement differences over the class
    size.  A zero variance gives p = 1 where the positives' differences, whose
    mean is the AUCs' difference, are all exactly 0, else p = 0: two trapezoid
    sums of equal areas may differ in the last bit."""
    y = np.asarray(labels).ravel()
    delta = roc_curve(scores_a, y).auc - roc_curve(scores_b, y).auc
    positive = y == 1
    if min(positive.sum(), y.size - positive.sum()) < 2:
        raise ValueError("DeLong's variance needs at least 2 records of each class")
    a, b = _paired_vectors(scores_a, scores_b)
    variance = 0.0
    for cls in (~positive, positive):  # positives last; a negative's placement is 1 less its share here
        d = _shares_below(a[~cls], a[cls]) - _shares_below(b[~cls], b[cls])
        variance += float(d.var(ddof=1)) / d.size
    p = math.erfc(abs(delta / math.sqrt(variance)) / math.sqrt(2.0)) if variance > 0.0 else float(not d.any())
    return {"delta_auc": delta, "p_value": p}


def sign_test(errors_a, errors_b) -> dict:
    """The exact two-sided sign test on paired errors: ``wins_a`` and
    ``wins_b``, the records where A's or B's error is lower, the ``ties``,
    which it drops, and ``p_value``, 1 where only ties remain."""
    a, b = _paired_vectors(errors_a, errors_b)
    wins_a, wins_b = int((a < b).sum()), int((a > b).sum())
    n = wins_a + wins_b
    tail = sum(math.comb(n, i) for i in range(min(wins_a, wins_b) + 1))
    return {"wins_a": wins_a, "wins_b": wins_b, "ties": a.size - n, "p_value": min(1.0, 2 * tail / 2**n)}


def holm(p_values) -> list[float]:
    """Holm's step-down adjustment (Holm, *Scand. J. Statist.* 6(2), 1979):
    the i-th smallest of m p-values times m - i + 1, capped at 1 and raised
    to the largest adjusted value before it, in the order given."""
    p = np.asarray(p_values, dtype=float)
    order = np.argsort(p, kind="stable")
    adjusted = np.empty_like(p)
    adjusted[order] = np.maximum.accumulate(np.minimum(1.0, (p.size - np.arange(p.size)) * p[order]))
    return adjusted.tolist()


def comparison_matrix(samples: dict, labels=None) -> list[dict]:
    """Every unordered pair (a, b) of ``samples``' keys, in key order, tested
    on the records they share: by :func:`delong_test` on their scores where
    ``labels`` holds the 0/1 truth, else by :func:`sign_test` on their
    squared errors.  Each entry holds ``pair``, the test's entries, and
    ``p_holm``, the :func:`holm` adjustment of ``p_value`` across the pairs."""
    test = sign_test if labels is None else (lambda a, b: delong_test(a, b, labels))
    pairs = [{"pair": (a, b), **test(samples[a], samples[b])} for a, b in itertools.combinations(samples, 2)]
    for entry, adjusted in zip(pairs, holm([entry["p_value"] for entry in pairs])):
        entry["p_holm"] = adjusted
    return pairs
