"""Random forest regression: bagged CART trees with random feature subsets.

Each tree grows on a bootstrap resample of the training rows (same size,
with replacement).  At every node a random subset of ``mtry`` predictor
columns is considered and the best split maximizes the reduction in the
target's summed squared error; candidate thresholds are the midpoints
between consecutive distinct sorted values.  Forest predictions average the
per-tree leaf means, and for a 0/1-coded target that average doubles as a
class score.

Each tree draws from its own generator, derived from (seed, tree index), so
the trees are grown on every available core (:func:`aeimpute.parallel.fork_map`)
with results identical to a one-process fit, and no option to set.  A node
scores all of its candidate columns in one vectorized pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .parallel import fork_map
from .seeding import derive_seed


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    mtry: int | None = None  # default resolves to floor(sqrt(d)) at fit time
    min_leaf: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.mtry is not None and self.mtry < 1:
            raise ValueError("mtry must be >= 1")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")


@dataclass(frozen=True)
class CartTree:
    """Array-arena binary regression tree.

    ``feature[i] == -1`` marks node i as a leaf with prediction ``value[i]``;
    internal nodes route a row left when row[feature] < threshold.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Leaf values for the rows of an (R, d) predictor block.

        All rows descend together, one tree level per step; a row stops at
        its leaf while the others go on.
        """
        node = np.zeros(x.shape[0], dtype=np.intp)
        inner = np.flatnonzero(self.feature[node] >= 0)
        while inner.size:
            at = node[inner]
            goes_left = x[inner, self.feature[at]] < self.threshold[at]
            node[inner] = np.where(goes_left, self.left[at], self.right[at])
            inner = inner[self.feature[node[inner]] >= 0]
        return self.value[node]


@dataclass(frozen=True)
class Forest:
    trees: tuple[CartTree, ...]
    config: ForestConfig
    target_column: int
    predictor_columns: tuple[int, ...]
    binary_target: bool

    def predict(self, known_rows) -> np.ndarray:
        """Mean of per-tree predictions for each row of an (R, d) predictor block."""
        x = np.asarray(known_rows, dtype=float)
        if x.ndim != 2 or x.shape[1] != len(self.predictor_columns):
            raise ValueError(
                f"expected rows of {len(self.predictor_columns)} predictor values, "
                f"got shape {x.shape}"
            )
        # Row r's votes lie contiguous in memory, so the mean sums them in the
        # order np.mean sums one row's list of votes, bit for bit.
        votes = np.empty((x.shape[0], len(self.trees)))
        for j, tree in enumerate(self.trees):
            votes[:, j] = tree.predict(x)
        return votes.mean(axis=1)

    def classify(self, known_rows, threshold: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
        """Class labels (score >= threshold -> 1) plus the scores themselves.

        The default is the report's rule for hard labels: threshold 0.5,
        ties to 1.
        """
        if not self.binary_target:
            raise ValueError(
                "classify requires a forest fitted with binary_target=True"
            )
        scores = self.predict(known_rows)
        return (scores >= threshold).astype(int), scores


def _node_sse(cum_s: float, cum_q: float, count: int) -> float:
    return cum_q - (cum_s * cum_s) / count


# Gains within this fraction of the node SSE count as tied; different
# features can induce the same partition, whose mathematically equal gains
# round differently, so exact comparison would break the tie rule.
_TIE_RTOL = 1e-9


def _split_gains(x_cols: np.ndarray, y: np.ndarray, min_leaf: int):
    """(parent SSE, sorted columns, gains) of a node, for all its columns at once.

    Each column of ``x_cols`` is sorted stably, y and y*y are summed down it,
    and ``gains[i, k]`` is the SSE reduction of splitting column k after its
    sorted position i.  Positions between equal values, or leaving fewer than
    ``min_leaf`` rows on a side, score -inf.
    """
    n = y.size
    total_s = y.sum()
    total_q = float(y @ y)
    parent_sse = _node_sse(total_s, total_q, n)

    order = x_cols.argsort(axis=0, kind="stable")
    sx = x_cols[order, np.arange(x_cols.shape[1])]
    sy = y[order]
    cs = sy.cumsum(axis=0)[:-1]
    cq = (sy * sy).cumsum(axis=0)[:-1]
    left_n = np.arange(1, n)[:, None]
    left_sse = cq - cs ** 2 / left_n
    right_sse = (total_q - cq) - (total_s - cs) ** 2 / (n - left_n)
    gains = parent_sse - left_sse - right_sse
    gains[~(sx[:-1] < sx[1:])] = -np.inf
    gains[: min_leaf - 1] = -np.inf
    gains[n - min_leaf :] = -np.inf
    return parent_sse, sx, gains


def _best_split(x_cols: np.ndarray, y: np.ndarray, features: np.ndarray, min_leaf: int):
    """Best (feature, threshold, left_mask) by SSE reduction, or None.

    ``x_cols`` holds the node's rows of the candidate columns: column k is
    feature ``features[k]``, in ascending feature order.  All candidates are
    scored in one pass (:func:`_split_gains`).

    Ties (up to a relative tolerance of the node SSE) break toward the lower
    column index then the lower threshold: features are scanned in ascending
    order, and a candidate replaces the incumbent only when its gain exceeds
    the incumbent's by more than the tolerance.
    """
    parent_sse, sx, gains = _split_gains(x_cols, y, min_leaf)
    if parent_sse < 0.0:  # y differs only in its last bits and rounds below 0
        return None
    tol = _TIE_RTOL * parent_sse
    # Per feature, the lowest threshold among those tied with its maximum.
    pick = (gains >= gains.max(axis=0) - tol).argmax(axis=0)
    best_gain = 0.0
    best = None
    for k, j in enumerate(pick):
        if gains[j, k] > best_gain + tol:
            best_gain = gains[j, k]
            best = k
    if best is None:
        return None
    j = pick[best]
    lo, hi = sx[j, best], sx[j + 1, best]
    thr = 0.5 * (lo + hi)
    if not lo < thr:  # midpoint rounded onto the left value
        thr = hi
    return int(features[best]), float(thr), x_cols[:, best] < thr


def _grow_tree(
    x: np.ndarray, y: np.ndarray, rng: np.random.Generator, mtry: int, min_leaf: int
) -> CartTree:
    """Depth-first growth (left child first); rng feeds the per-node feature draw."""
    d = x.shape[1]
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    # Stack entries: (sample indices, parent node id, is_left_child).
    stack: list[tuple[np.ndarray, int, bool]] = [(np.arange(x.shape[0]), -1, False)]
    while stack:
        idx, parent, is_left = stack.pop()
        node_id = len(feature)
        if parent >= 0:
            (left if is_left else right)[parent] = node_id

        ys = y[idx]
        constant = bool((ys == ys[0]).all())
        split = None
        if idx.size >= 2 * min_leaf and not constant:
            chosen = np.sort(rng.choice(d, size=mtry, replace=False))
            split = _best_split(x[idx[:, None], chosen], ys, chosen, min_leaf)

        if split is None:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            # A constant node's mean is its value exactly, bit for bit.
            value.append(float(ys[0]) if constant else float(ys.mean()))
        else:
            f, thr, left_mask = split
            feature.append(f)
            threshold.append(thr)
            left.append(-1)
            right.append(-1)
            value.append(float(ys.mean()))
            # Push right first so the left child is grown (and draws) first.
            stack.append((idx[~left_mask], node_id, False))
            stack.append((idx[left_mask], node_id, True))

    return CartTree(
        feature=np.array(feature, dtype=int),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=int),
        right=np.array(right, dtype=int),
        value=np.array(value, dtype=float),
    )


def fit(train_rows, target_column: int, cfg: ForestConfig | None = None,
        binary_target: bool = False, bootstrap: bool = True) -> Forest:
    """Grow a forest predicting ``target_column`` from every other column.

    ``binary_target=True`` validates at fit time that the target holds only
    0/1 codes, enabling :meth:`Forest.classify` later.  Per-tree generators
    are derived from (seed, tree index), so trees are independent of growth
    order and the fit is reproducible.  The trees are grown on every
    available core through :func:`aeimpute.parallel.fork_map`, bit for bit
    as a one-process fit grows them.  ``bootstrap=False`` is a test hook: it
    grows each tree on the full sample instead of a resample.
    """
    cfg = cfg or ForestConfig()
    rows = np.asarray(train_rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise ValueError("train_rows must be a 2-D matrix with >= 2 columns")
    n, width = rows.shape
    if not 0 <= target_column < width:
        raise ValueError(f"target column {target_column} out of range [0, {width})")
    if n < 2 * cfg.min_leaf:
        raise ValueError(
            f"need at least {2 * cfg.min_leaf} rows for min_leaf={cfg.min_leaf}, got {n}"
        )

    predictors = tuple(c for c in range(width) if c != target_column)
    d = len(predictors)
    mtry = cfg.mtry if cfg.mtry is not None else max(1, int(math.isqrt(d)))
    if mtry > d:
        raise ValueError(f"mtry={mtry} exceeds the {d} available predictors")

    x = rows[:, predictors]
    y = rows[:, target_column]
    if binary_target and not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("binary_target=True but target codes are not all 0/1")

    def grow(t: int) -> CartTree:
        rng = np.random.default_rng(derive_seed(cfg.seed, "tree", t))
        sample = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        return _grow_tree(x[sample], y[sample], rng, mtry, cfg.min_leaf)

    return Forest(
        trees=tuple(fork_map(grow, range(cfg.n_trees))),
        config=cfg,
        target_column=target_column,
        predictor_columns=predictors,
        binary_target=binary_target,
    )
