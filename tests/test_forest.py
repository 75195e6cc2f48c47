"""CART/forest growth, prediction, classification, and reference checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aeimpute import forest, parallel
from aeimpute.forest import CartTree, Forest, ForestConfig
from aeimpute.seeding import derive_seed

from conftest import child_processes, deadline


def step_rows(rng, n, extra_features=1):
    """Predictors uniform on [0,1]; target steps from 0 to 1 at x0 = 0.5."""
    cols = [rng.uniform(0, 1, n) for _ in range(1 + extra_features)]
    y = (cols[0] > 0.5).astype(float)
    return np.stack(cols + [y], axis=1)


def full_sample_tree(rows, target_column, cfg, seed=0):
    """Tree 0 of a fit with ``cfg`` and ``seed``, grown on every row, in order,
    instead of a bootstrap sample.

    It draws its node features from tree 0's generator, as :func:`forest.fit` does.
    """
    x = np.delete(rows, target_column, axis=1)
    mtry = forest.resolve_mtry(cfg, rows.shape[1])
    rng = np.random.default_rng(derive_seed(seed, "tree", 0))
    return forest._grow_tree(x, rows[:, target_column].copy(), rng, mtry, cfg.min_leaf)


def leaf_tree(prediction):
    return CartTree(
        feature=np.array([-1]),
        threshold=np.array([0.0]),
        left=np.array([-1]),
        right=np.array([-1]),
        value=np.array([float(prediction)]),
    )


class TestFit:
    def test_constant_target_predicts_constant(self):
        rng = np.random.default_rng(0)
        rows = np.column_stack([rng.uniform(0, 1, 30), np.full(30, 0.7)])
        f = forest.fit(rows, 1, ForestConfig(n_trees=5, min_leaf=1), seed=0)
        assert (f.predict(rng.uniform(0, 1, size=(5, 2))) == 0.7).all()

    def test_fully_grown_tree_memorizes(self):
        rng = np.random.default_rng(1)
        rows = np.column_stack([rng.permutation(40) / 40.0, rng.uniform(0, 1, 40)])
        cfg = ForestConfig(n_trees=1, min_leaf=1, mtry=1)
        tree = full_sample_tree(rows, 1, cfg)
        np.testing.assert_array_equal(tree.predict(rows[:, :1]), rows[:, 1])

    def test_step_function_held_out_mae(self):
        rng = np.random.default_rng(3)
        train = step_rows(rng, 200)
        test = step_rows(rng, 200)
        f = forest.fit(train, 2, ForestConfig(n_trees=100), seed=1)
        preds = f.predict(test)
        assert np.abs(preds - test[:, 2]).mean() < 0.05

    def test_insufficient_rows_rejected(self):
        rows = np.random.default_rng(0).uniform(0, 1, size=(7, 3))
        with pytest.raises(ValueError, match="^rf needs at least 8 train rows for rf.min_leaf = 4, got 7$"):
            forest.fit(rows, 2, ForestConfig(min_leaf=4), seed=0)

    def test_mtry_out_of_range_rejected(self):
        rows = np.random.default_rng(0).uniform(0, 1, size=(20, 3))
        with pytest.raises(ValueError, match="mtry"):
            forest.fit(rows, 2, ForestConfig(mtry=5), seed=0)
        with pytest.raises(ValueError, match=r"rf\.mtry = 3 exceeds the 2 predictors of a 3-column table"):
            forest.resolve_mtry(ForestConfig(mtry=3), 3)
        assert forest.resolve_mtry(ForestConfig(mtry=2), 3) == 2

    @pytest.mark.parametrize("d", [1, 3, 4, 13, 24])
    def test_unset_mtry_resolves_to_floor_sqrt_d(self, d):
        rows = np.random.default_rng(0).uniform(0, 1, size=(12, d + 1))
        assert forest.resolve_mtry(ForestConfig(), d + 1) == int(d**0.5)
        assert forest.resolve_mtry(ForestConfig(mtry=1), d + 1) == 1
        # The fit tries resolve_mtry's count: it grows the trees of that mtry.
        unset = forest.fit(rows, d, ForestConfig(n_trees=2), seed=0)
        resolved = forest.fit(rows, d, ForestConfig(n_trees=2, mtry=int(d**0.5)), seed=0)
        for a, b in zip(unset.trees, resolved.trees, strict=True):
            np.testing.assert_array_equal(a.feature, b.feature)
            np.testing.assert_array_equal(a.threshold, b.threshold)

    def test_tree_layout_is_depth_first_left_child_first(self):
        # Node order, draws, dtypes and bits of one small tree: its nodes are
        # numbered depth-first, each left child before its right.
        rows = step_rows(np.random.default_rng(5), 10)
        tree = forest.fit(rows, 2, ForestConfig(n_trees=1, min_leaf=2), seed=4).trees[0]
        assert tree.feature.tolist() == [1, 1, -1, 0, -1, -1, -1]
        assert tree.threshold.tolist() == [
            0.7483000745983643, 0.4639852854784423, 0.0, 0.4251390588239127, 0.0, 0.0, 0.0
        ]
        assert tree.left.tolist() == [1, 2, -1, 4, -1, -1, -1]
        assert tree.right.tolist() == [6, 3, -1, 5, -1, -1, -1]
        assert tree.value.tolist() == [0.4, 0.6666666666666666, 1.0, 0.5, 0.0, 1.0, 0.0]
        assert [a.dtype for a in (tree.feature, tree.left, tree.right)] == [np.dtype(int)] * 3
        assert [a.dtype for a in (tree.threshold, tree.value)] == [np.dtype(float)] * 2

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        rows = step_rows(rng, 60)
        f1 = forest.fit(rows, 2, ForestConfig(n_trees=10), seed=5)
        f2 = forest.fit(rows, 2, ForestConfig(n_trees=10), seed=5)
        query = rng.uniform(0, 1, size=(10, 3))
        np.testing.assert_array_equal(f1.predict(query), f2.predict(query))


class TestPredict:
    def test_mean_of_single_leaf_trees(self):
        f = Forest(
            trees=(leaf_tree(0.2), leaf_tree(0.6)),
            predictor_columns=(0,),
        )
        assert f.predict([[0.5, 0.3]]) == pytest.approx([0.4])

    def test_constant_forest(self):
        f = Forest(
            trees=(leaf_tree(0.9),) * 3,
            predictor_columns=(0,),
        )
        assert f.predict([[0.1, 0.3]]).tolist() == [0.9]

    def test_duplicated_trees_leave_prediction_unchanged(self):
        rng = np.random.default_rng(6)
        rows = step_rows(rng, 60)
        base = forest.fit(rows, 2, ForestConfig(n_trees=1), seed=7)
        doubled = Forest(
            trees=base.trees * 2,
            predictor_columns=base.predictor_columns,
        )
        query = rng.uniform(0, 1, size=(10, 3))
        np.testing.assert_array_equal(doubled.predict(query), base.predict(query))

    def test_step_at_extreme_with_many_trees(self):
        rng = np.random.default_rng(3)
        train = step_rows(rng, 200)
        f = forest.fit(train, 2, ForestConfig(n_trees=500), seed=2)
        assert abs(f.predict([[0.9, 0.5, 0.0]])[0] - 1.0) < 0.05

    def test_prediction_within_target_range(self):
        rng = np.random.default_rng(8)
        rows = np.column_stack([rng.uniform(0, 1, 80), rng.uniform(0.2, 0.8, 80)])
        f = forest.fit(rows, 1, ForestConfig(n_trees=30), seed=9)
        lo, hi = rows[:, 1].min(), rows[:, 1].max()
        preds = f.predict(rng.uniform(0, 1, size=(30, 2)))
        assert ((lo <= preds) & (preds <= hi)).all()

    def test_wrong_width_rejected(self):
        rng = np.random.default_rng(8)
        f = forest.fit(step_rows(rng, 40), 2, ForestConfig(n_trees=2), seed=0)
        with pytest.raises(ValueError, match=r"^expected rows of the fit's 3 columns, got shape \(1, 2\)$"):
            f.predict([[0.1, 0.2]])  # the predictors alone
        with pytest.raises(ValueError, match="fit's 3 columns"):
            f.predict([0.1, 0.2, 0.3])  # one row is still a block of one

    def test_target_column_never_read(self):
        # A forest reads whole rows of its fit's width and only their
        # predictor columns: whatever the target column holds, each row's
        # prediction is the per-tree walk of its predictors, bit for bit.
        rng = np.random.default_rng(11)
        train = rng.uniform(0, 1, size=(60, 4))
        f = forest.fit(train, 1, ForestConfig(n_trees=20, min_leaf=2), seed=3)
        query = rng.uniform(0, 1, size=(25, 4))
        expected = np.array([np.mean([walk_row(t, np.delete(q, 1)) for t in f.trees]) for q in query])
        for poke in (rng.uniform(0, 1, 25), np.full(25, np.nan), np.full(25, -1e300)):
            poked = query.copy()
            poked[:, 1] = poke
            np.testing.assert_array_equal(f.predict(poked).view(np.uint64), expected.view(np.uint64))


# --- exhaustive-split reference ----------------------------------------------

def reference_cart(x, y, min_leaf):
    """Plain-loop CART: every feature, every midpoint, SSE reduction.

    Applies the same tie semantics as the implementation: gains within a
    relative tolerance of the node SSE are ties, resolved toward the lower
    feature index then the lower threshold.
    """

    def sse(vals):
        mean = sum(vals) / len(vals)
        return sum((v - mean) ** 2 for v in vals)

    def build(indices):
        ys = [y[i] for i in indices]
        node = {"value": sum(ys) / len(ys)}
        if len(indices) < 2 * min_leaf or all(v == ys[0] for v in ys):
            return node
        parent = sse(ys)
        tol = 1e-9 * parent
        best = None
        for f in range(x.shape[1]):
            candidates = []
            xs = sorted({x[i, f] for i in indices})
            for lo, hi in zip(xs[:-1], xs[1:]):
                thr = 0.5 * (lo + hi)
                if not lo < thr:
                    thr = hi
                left = [i for i in indices if x[i, f] < thr]
                right = [i for i in indices if x[i, f] >= thr]
                if len(left) < min_leaf or len(right) < min_leaf:
                    continue
                gain = parent - sse([y[i] for i in left]) - sse([y[i] for i in right])
                candidates.append((gain, thr, left, right))
            if not candidates:
                continue
            top = max(c[0] for c in candidates)
            gain, thr, left, right = next(c for c in candidates if c[0] >= top - tol)
            if gain > (best[0] if best else 0.0) + tol:
                best = (gain, f, thr, left, right)
        if best is None:
            return node
        _, f, thr, left, right = best
        node.update(feature=f, threshold=thr, left=build(left), right=build(right))
        return node

    return build(list(range(x.shape[0])))


def reference_predict(node, row):
    while "feature" in node:
        node = node["left"] if row[node["feature"]] < node["threshold"] else node["right"]
    return node["value"]


class TestReferenceEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("min_leaf", [1, 3])
    def test_single_tree_matches_exhaustive_cart(self, seed, min_leaf):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(15, 51))
        x = rng.uniform(0, 1, size=(n, 3))
        y = np.sin(3 * x[:, 0]) + 0.5 * x[:, 1] + rng.normal(0, 0.1, n)
        rows = np.column_stack([x, y])
        cfg = ForestConfig(n_trees=1, min_leaf=min_leaf, mtry=3)
        tree = full_sample_tree(rows, 3, cfg, seed)
        ref = reference_cart(x, y, min_leaf)
        query = rng.uniform(0, 1, size=(40, 3))
        expected = [reference_predict(ref, q) for q in query]
        np.testing.assert_allclose(tree.predict(query), expected, rtol=0, atol=1e-12)

    def test_row_order_invariance_with_unique_splits(self):
        # Same splits regardless of row order; leaf means may differ in the
        # last bits because summation order changes.
        rng = np.random.default_rng(10)
        n = 40
        x = rng.uniform(0, 1, size=(n, 2))
        y = x[:, 0] * 2 + rng.normal(0, 0.05, n)
        rows = np.column_stack([x, y])
        cfg = ForestConfig(n_trees=1, min_leaf=2, mtry=2)
        t1 = full_sample_tree(rows, 2, cfg, seed=3)
        t2 = full_sample_tree(rows[rng.permutation(n)], 2, cfg, seed=3)
        np.testing.assert_array_equal(t1.feature, t2.feature)
        np.testing.assert_array_equal(t1.threshold, t2.threshold)
        np.testing.assert_array_equal(t1.left, t2.left)
        np.testing.assert_array_equal(t1.right, t2.right)
        np.testing.assert_allclose(t1.value, t2.value, rtol=0, atol=1e-12)


def walk_row(tree, row):
    """One row down one tree, node by node: the reference for the block walk."""
    i = 0
    while tree.feature[i] >= 0:
        i = tree.left[i] if row[tree.feature[i]] < tree.threshold[i] else tree.right[i]
    return float(tree.value[i])


class TestBlockWalk:
    @given(seed=st.integers(0, 2**32 - 1), n_trees=st.integers(1, 120), rows=st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_equals_per_row_walk_and_mean(self, seed, n_trees, rows):
        # The block must give each row the bits of the per-row walk averaged
        # with np.mean over that row's list of tree votes.
        rng = np.random.default_rng(seed)
        train = np.column_stack([rng.uniform(0, 1, size=(50, 3)), rng.normal(0, 1, 50)])
        f = forest.fit(train, 3, ForestConfig(n_trees=n_trees, min_leaf=2), seed=seed)
        query = rng.uniform(-0.1, 1.1, size=(rows, 3))
        expected = [np.mean([walk_row(t, q) for t in f.trees]) for q in query]
        np.testing.assert_array_equal(f.predict(np.column_stack([query, np.full(rows, np.nan)])), expected)
        for t in f.trees[:3]:
            np.testing.assert_array_equal(t.predict(query), [walk_row(t, q) for q in query])


# --- one-pass node split -------------------------------------------------------

def reference_feature_gains(xs, y, min_leaf):
    """(sorted xs, admissible split positions, their gains) for one column.

    The per-feature part of the loop that the one-pass split replaced.
    """
    n = y.size
    total_s = y.sum()
    total_q = float(y @ y)
    parent_sse = total_q - (total_s * total_s) / n
    order = np.argsort(xs, kind="stable")
    sx = xs[order]
    sy = y[order]
    boundaries = np.flatnonzero(sx[:-1] < sx[1:])
    sizes_ok = (boundaries + 1 >= min_leaf) & (n - boundaries - 1 >= min_leaf)
    boundaries = boundaries[sizes_ok]
    cs = np.cumsum(sy)
    cq = np.cumsum(sy * sy)
    left_n = boundaries + 1
    left_sse = cq[boundaries] - cs[boundaries] ** 2 / left_n
    right_sse = (total_q - cq[boundaries]) - (total_s - cs[boundaries]) ** 2 / (n - left_n)
    return sx, boundaries, parent_sse - left_sse - right_sse


def reference_best_split(x_cols, y, features, min_leaf):
    """The per-feature split loop that the one-pass ``_best_split`` replaced.

    ``x_cols`` holds every column of the node's rows; ``features`` names the
    candidates.
    """
    total_s = y.sum()
    parent_sse = float(y @ y) - (total_s * total_s) / y.size
    tol = forest._TIE_RTOL * parent_sse

    best_gain = 0.0
    best = None
    for f in np.sort(features):
        xs = x_cols[:, f]
        sx, boundaries, gains = reference_feature_gains(xs, y, min_leaf)
        if boundaries.size == 0:
            continue
        j = int(np.flatnonzero(gains >= gains.max() - tol)[0])
        if gains[j] > best_gain + tol:
            lo, hi = sx[boundaries[j]], sx[boundaries[j] + 1]
            thr = 0.5 * (lo + hi)
            if not lo < thr:
                thr = hi
            best_gain = float(gains[j])
            best = (int(f), float(thr), xs < thr)
    return best


def reference_split_on_candidates(x_cols, y, features, min_leaf):
    """:func:`reference_best_split` called as the tree calls ``_best_split``.

    The tree passes only the candidate columns, in ascending feature order,
    so scanning them by position keeps the tie rule.
    """
    split = reference_best_split(x_cols, y, np.arange(len(features)), min_leaf)
    if split is None:
        return None
    k, thr, left = split
    return int(features[k]), thr, left


@st.composite
def split_nodes(draw):
    """A node's rows, targets, candidate features and min_leaf.

    Columns take few distinct values (repeats), some are constant, and some
    copy or mirror another column, so that gains tie across features exactly
    or within the tie tolerance.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 7))
    rng = np.random.default_rng(seed)
    levels = draw(st.sampled_from([2, 3, 5, 1000]))
    x = rng.integers(0, levels, size=(n, d)) / levels
    for c in range(d):
        kind = draw(st.sampled_from(["free", "constant", "copy", "mirror"]))
        if kind == "constant":
            x[:, c] = x[0, c]
        elif kind == "copy" and c > 0:
            x[:, c] = x[:, draw(st.integers(0, c - 1))]
        elif kind == "mirror" and c > 0:
            x[:, c] = 1.0 - x[:, draw(st.integers(0, c - 1))]
    y_levels = draw(st.sampled_from([2, 4, 1000]))
    y = rng.integers(0, y_levels, size=n) / y_levels
    if draw(st.booleans()):
        y = np.where(x[:, 0] < 0.5, 0.25, 0.75) + (y if y_levels == 1000 else 0.0)
    mtry = draw(st.integers(1, d))
    features = np.sort(rng.choice(d, size=mtry, replace=False))
    min_leaf = draw(st.integers(1, max(1, n // 2)))
    return x, y, features, min_leaf


class TestOnePassSplit:
    @given(split_nodes())
    @settings(max_examples=400, deadline=None)
    def test_equals_per_feature_loop(self, node):
        x, y, features, min_leaf = node
        expected = reference_best_split(x, y, features, min_leaf)
        got = forest._best_split(x[:, features], y, features, min_leaf)
        if expected is None:
            assert got is None
            return
        assert got is not None
        assert got[0] == expected[0]
        assert np.float64(got[1]).view(np.uint64) == np.float64(expected[1]).view(np.uint64)
        np.testing.assert_array_equal(got[2], expected[2])

    @given(split_nodes())
    @settings(max_examples=300, deadline=None)
    def test_gain_table_equals_per_feature_gains(self, node):
        x, y, features, min_leaf = node
        _, sx, gains = forest._split_gains(x[:, features], y, min_leaf)
        for k, f in enumerate(features):
            ref_sx, boundaries, ref_gains = reference_feature_gains(x[:, f], y, min_leaf)
            np.testing.assert_array_equal(sx[:, k], ref_sx)
            expected = np.full(y.size - 1, -np.inf)
            expected[boundaries] = ref_gains
            np.testing.assert_array_equal(gains[:, k].view(np.uint64), expected.view(np.uint64))

    def test_last_bit_target_differences_make_a_leaf(self):
        # The node SSE rounds to about -2e-16 here.
        y = np.full(8, 0.3)
        y[:3] = np.nextafter(0.3, 1.0)
        rows = np.column_stack([np.arange(8) / 8, y])
        assert forest._split_gains(rows[:, :1], y, 1)[0] < 0
        tree = full_sample_tree(rows, 1, ForestConfig(n_trees=1, min_leaf=1))
        assert tree.feature.tolist() == [-1]
        assert tree.value[0] == y.mean()

    def test_tied_partitions_go_to_the_lower_feature(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(30, 1))
        x = np.hstack([1.0 - x, x, x])
        y = (x[:, 1] > 0.5).astype(float)
        features = np.arange(3)
        assert forest._best_split(x, y, features, 1)[0] == 0
        assert reference_best_split(x, y, features, 1)[0] == 0

    @pytest.mark.parametrize("shape", [(500, 25), (136, 14), (259, 13)])
    def test_forest_equals_one_grown_by_the_loop(self, shape, monkeypatch):
        # Bench-shaped fits: credit (500 x 25), heart (136 x 14), fire (259 x 13).
        rng = np.random.default_rng(shape[0])
        rows = rng.uniform(0, 1, size=shape)
        rows[:, ::3] = np.round(rows[:, ::3] * 4) / 4  # coded columns repeat values
        cfg = ForestConfig(n_trees=6)
        fitted = forest.fit(rows, 0, cfg, seed=shape[1])
        monkeypatch.setattr(forest, "_best_split", reference_split_on_candidates)
        reference = forest.fit(rows, 0, cfg, seed=shape[1])
        assert_same_trees(fitted, reference)


def assert_same_trees(a, b):
    assert len(a.trees) == len(b.trees)
    for s, t in zip(a.trees, b.trees):
        for name in ("feature", "left", "right"):
            np.testing.assert_array_equal(getattr(s, name), getattr(t, name))
        for name in ("threshold", "value"):
            np.testing.assert_array_equal(
                getattr(s, name).view(np.uint64), getattr(t, name).view(np.uint64)
            )


class TestParallelFit:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_any_worker_count_equals_one_process(self, workers, monkeypatch):
        rng = np.random.default_rng(11)
        rows = np.column_stack([rng.uniform(0, 1, size=(120, 5)), rng.normal(0, 1, 120)])
        cfg = ForestConfig(n_trees=7, min_leaf=2)
        monkeypatch.setattr(parallel, "_worker_count", lambda n: 1)
        one = forest.fit(rows, 5, cfg, seed=3)
        monkeypatch.setattr(parallel, "_worker_count", lambda n: workers)
        with deadline(60):
            many = forest.fit(rows, 5, cfg, seed=3)
        assert_same_trees(many, one)
        assert child_processes() == []
