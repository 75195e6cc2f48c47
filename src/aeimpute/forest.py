"""Random forest regression: bagged CART trees with random feature subsets.

Each tree grows on a bootstrap resample of the training rows (same size,
with replacement).  At every node a random subset of ``mtry`` predictor
columns is considered and the best split maximizes the reduction in the
target's summed squared error; candidate thresholds are the midpoints
between consecutive distinct sorted values.  Forest predictions average the
per-tree leaf means, and for a 0/1-coded target that average doubles as a
class score.  A forest predicts from whole rows of its fit's width and
selects its predictor columns itself, so no caller needs its column layout.

Each tree draws from its own generator, derived from (seed, tree index), so
the trees are grown on every available core (:func:`aeimpute.parallel.fork_map`)
with results identical to a one-process fit, and no option to set.  A node
scores all of its candidate columns in one vectorized pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import check_column
from .parallel import fork_map
from .seeding import derive_seed


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    mtry: int | None = None  # default resolves to floor(sqrt(d)) at fit time
    min_leaf: int = 5

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.mtry is not None and self.mtry < 1:
            raise ValueError("mtry must be >= 1")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class Forest:
    trees: tuple[CartTree, ...]
    predictor_columns: tuple[int, ...]

    def predict(self, rows) -> np.ndarray:
        """Mean of per-tree predictions for each row of an (R, d + 1) block.

        The rows have the fit's width; the trees read their
        ``predictor_columns`` and never the target column.
        """
        x = np.asarray(rows, dtype=float)
        width = len(self.predictor_columns) + 1
        if x.ndim != 2 or x.shape[1] != width:
            raise ValueError(f"expected rows of the fit's {width} columns, got shape {x.shape}")
        x = x[:, self.predictor_columns]
        # Row r's votes lie contiguous in memory, so the mean sums them in the
        # order np.mean sums one row's list of votes, bit for bit.
        votes = np.empty((x.shape[0], len(self.trees)))
        for j, tree in enumerate(self.trees):
            votes[:, j] = tree.predict(x)
        return votes.mean(axis=1)


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
    parent_sse = total_q - (total_s * total_s) / n

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
    """Depth-first growth (left child first) of one ``[feature, threshold, left,
    right, value]`` record per node; rng feeds the per-node feature draw."""
    d = x.shape[1]
    nodes: list[list] = []
    # Stack entries: (sample indices, parent record, the parent's slot for this child).
    stack: list[tuple[np.ndarray, list | None, int]] = [(np.arange(x.shape[0]), None, 0)]
    while stack:
        idx, parent, slot = stack.pop()
        if parent is not None:
            parent[slot] = len(nodes)
        ys = y[idx]
        constant = bool((ys == ys[0]).all())
        # A constant node's mean is its value exactly, bit for bit.
        node = [-1, 0.0, -1, -1, float(ys[0]) if constant else float(ys.mean())]
        nodes.append(node)
        if idx.size >= 2 * min_leaf and not constant:
            chosen = np.sort(rng.choice(d, size=mtry, replace=False))
            split = _best_split(x[idx[:, None], chosen], ys, chosen, min_leaf)
            if split is not None:
                node[0], node[1], left_mask = split
                # Push right first so the left child is grown (and draws) first.
                stack.append((idx[~left_mask], node, 3))
                stack.append((idx[left_mask], node, 2))
    feature, threshold, left, right, value = zip(*nodes)
    return CartTree(
        feature=np.array(feature, dtype=int),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=int),
        right=np.array(right, dtype=int),
        value=np.array(value, dtype=float),
    )


def resolve_mtry(cfg: ForestConfig, n_columns: int, n_rows: int | None = None) -> int:
    """The predictors tried at each node: ``cfg.mtry``, else floor(sqrt(d))
    of the d = n_columns - 1 predictors (at least 1).  The one statement of
    what ``cfg`` asks of a fit's table: more than d raise ValueError, and so
    do fewer than 2 x ``min_leaf`` rows, given the fit's ``n_rows``."""
    if n_rows is not None and n_rows < 2 * cfg.min_leaf:
        raise ValueError(f"rf needs at least {2 * cfg.min_leaf} train rows for "
                         f"rf.min_leaf = {cfg.min_leaf}, got {n_rows}")
    d = n_columns - 1
    mtry = cfg.mtry if cfg.mtry is not None else max(1, math.isqrt(d))
    if mtry > d:
        raise ValueError(f"rf.mtry = {mtry} exceeds the {d} predictors of a {n_columns}-column table")
    return mtry


def fit(train_rows, target_column: int, cfg: ForestConfig | None = None, *, seed: int) -> Forest:
    """Grow a forest predicting ``target_column`` from every other column.

    Per-tree generators are derived from (seed, tree index), so trees are
    independent of growth order and the fit is reproducible.  The trees are
    grown on every available core through :func:`aeimpute.parallel.fork_map`,
    bit for bit as a one-process fit grows them, also in a forked worker.
    Tree t draws its bootstrap sample first, then its per-node feature
    subsets, from the generator of ``derive_seed(seed, "tree", t)``.
    A ``target_column`` that :func:`aeimpute.data.check_column` rejects
    raises.  Each node tries :func:`resolve_mtry` predictors, which also
    rejects too few rows; the forest keeps no copy of the configuration.  A
    0/1 target is not checked here; the experiment checks its own.
    """
    cfg = cfg or ForestConfig()
    rows = np.asarray(train_rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise ValueError("train_rows must be a 2-D matrix with >= 2 columns")
    n, width = rows.shape
    check_column(target_column, width)
    mtry = resolve_mtry(cfg, width, n)
    predictors = tuple(c for c in range(width) if c != target_column)
    x = rows[:, predictors]
    y = rows[:, target_column]

    def grow(t: int) -> CartTree:
        rng = np.random.default_rng(derive_seed(seed, "tree", t))
        sample = rng.integers(0, n, size=n)
        return _grow_tree(x[sample], y[sample], rng, mtry, cfg.min_leaf)

    return Forest(trees=tuple(fork_map(grow, range(cfg.n_trees))), predictor_columns=predictors)
