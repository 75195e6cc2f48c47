"""Prediction and classification metrics plus Welch's two-sample t-test.

Prediction quality: MSE, RMSE, MAE and Pearson correlation.  MAE averages
absolute (not squared) deviations, so it stays distinct from MSE.
Classification quality: ROC curve over descending score thresholds and its
trapezoidal area, which equals the tie-adjusted probability that a random
positive outscores a random negative.  Method comparison: two-tailed Welch
t-tests over per-record error samples, collected into a symmetric p-value
matrix.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    degrees_of_freedom: float
    p_value: float


def _paired_vectors(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=float).ravel()
    p = np.asarray(predicted, dtype=float).ravel()
    if a.size != p.size:
        raise ValueError(f"length mismatch: {a.size} actual vs {p.size} predicted")
    if a.size == 0:
        raise ValueError("inputs must be non-empty")
    return a, p


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


_TINY = 1e-300


def _lentz_update(coef: float, c: float, d: float) -> tuple[float, float]:
    """One modified-Lentz term: the new (c, d), each kept off zero."""
    d = 1.0 + coef * d
    if abs(d) < _TINY:
        d = _TINY
    c = 1.0 + coef / c
    if abs(c) < _TINY:
        c = _TINY
    return c, 1.0 / d


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz-style continued fraction for the incomplete beta integral."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    # c starts at infinity so that the first term leaves it at exactly 1.
    c, d = _lentz_update(-qab * x / qap, math.inf, 1.0)
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        c, d = _lentz_update(m * (b - m) * x / ((qam + m2) * (a + m2)), c, d)
        h *= d * c
        c, d = _lentz_update(-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), c, d)
        step = d * c
        h *= step
        if abs(step - 1.0) < 1e-15:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) to ~1e-14, via the symmetric continued-fraction split."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_two_tailed_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if t == 0.0:
        return 1.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def welch_t_test(a, b) -> TTestResult:
    """Two-tailed two-sample t-test with unequal variances (Welch).

    Two constant samples with equal means return the defined limit t=0, p=1;
    constant samples with different means have no finite statistic and raise.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size < 2 or b.size < 2:
        raise ValueError("each sample needs at least 2 observations")
    na, nb = a.size, b.size
    var_a = float(a.var(ddof=1))
    var_b = float(b.var(ddof=1))
    mean_diff = float(a.mean() - b.mean())

    if var_a == 0.0 and var_b == 0.0:
        if mean_diff == 0.0:
            return TTestResult(0.0, float(na + nb - 2), 1.0)
        raise ValueError("both samples are constant with different means")

    qa = var_a / na
    qb = var_b / nb
    se = math.sqrt(qa + qb)
    df = (qa + qb) ** 2 / (qa * qa / (na - 1) + qb * qb / (nb - 1))

    t = mean_diff / se
    return TTestResult(t, df, student_t_two_tailed_p(t, df))


def comparison_matrix(per_method_errors) -> np.ndarray:
    """Pairwise Welch p-values over every unordered pair of methods: the
    symmetric (k, k) matrix with unit diagonal, rows and columns in key order."""
    samples = list(per_method_errors.values())
    k = len(samples)
    if k < 2:
        raise ValueError("need at least 2 methods to compare")
    pv = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            pv[i, j] = pv[j, i] = welch_t_test(samples[i], samples[j]).p_value
    return pv
