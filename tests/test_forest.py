"""CART/forest growth, prediction, classification, and reference checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aeimpute import forest
from aeimpute.forest import CartTree, Forest, ForestConfig


def step_rows(rng, n, extra_features=1):
    """Predictors uniform on [0,1]; target steps from 0 to 1 at x0 = 0.5."""
    cols = [rng.uniform(0, 1, n) for _ in range(1 + extra_features)]
    y = (cols[0] > 0.5).astype(float)
    return np.stack(cols + [y], axis=1)


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
        f = forest.fit(rows, 1, ForestConfig(n_trees=5, min_leaf=1, seed=0))
        assert (f.predict(rng.uniform(0, 1, size=(5, 1))) == 0.7).all()

    def test_fully_grown_tree_memorizes(self):
        rng = np.random.default_rng(1)
        rows = np.column_stack([rng.permutation(40) / 40.0, rng.uniform(0, 1, 40)])
        cfg = ForestConfig(n_trees=1, min_leaf=1, mtry=1, seed=0)
        f = forest.fit(rows, 1, cfg, bootstrap=False)
        np.testing.assert_array_equal(f.predict(rows[:, :1]), rows[:, 1])

    def test_step_function_held_out_mae(self):
        rng = np.random.default_rng(3)
        train = step_rows(rng, 200)
        test = step_rows(rng, 200)
        f = forest.fit(train, 2, ForestConfig(n_trees=100, seed=1))
        preds = f.predict(test[:, :2])
        assert np.abs(preds - test[:, 2]).mean() < 0.05

    def test_insufficient_rows_rejected(self):
        rows = np.random.default_rng(0).uniform(0, 1, size=(7, 3))
        with pytest.raises(ValueError, match="at least"):
            forest.fit(rows, 2, ForestConfig(min_leaf=4))

    def test_mtry_out_of_range_rejected(self):
        rows = np.random.default_rng(0).uniform(0, 1, size=(20, 3))
        with pytest.raises(ValueError, match="mtry"):
            forest.fit(rows, 2, ForestConfig(mtry=5))

    def test_binary_target_validated_at_fit(self):
        rows = np.random.default_rng(0).uniform(0, 1, size=(20, 3))
        with pytest.raises(ValueError, match="binary"):
            forest.fit(rows, 2, ForestConfig(), binary_target=True)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        rows = step_rows(rng, 60)
        f1 = forest.fit(rows, 2, ForestConfig(n_trees=10, seed=5))
        f2 = forest.fit(rows, 2, ForestConfig(n_trees=10, seed=5))
        query = rng.uniform(0, 1, size=(10, 2))
        np.testing.assert_array_equal(f1.predict(query), f2.predict(query))


class TestPredict:
    def test_mean_of_single_leaf_trees(self):
        f = Forest(
            trees=(leaf_tree(0.2), leaf_tree(0.6)),
            config=ForestConfig(n_trees=2),
            target_column=1,
            predictor_columns=(0,),
            binary_target=False,
        )
        assert f.predict([[0.5]]) == pytest.approx([0.4])

    def test_constant_forest(self):
        f = Forest(
            trees=(leaf_tree(0.9),) * 3,
            config=ForestConfig(n_trees=3),
            target_column=1,
            predictor_columns=(0,),
            binary_target=False,
        )
        assert f.predict([[0.1]]).tolist() == [0.9]

    def test_duplicated_trees_leave_prediction_unchanged(self):
        rng = np.random.default_rng(6)
        rows = step_rows(rng, 60)
        base = forest.fit(rows, 2, ForestConfig(n_trees=1, seed=7))
        doubled = Forest(
            trees=base.trees * 2,
            config=base.config,
            target_column=base.target_column,
            predictor_columns=base.predictor_columns,
            binary_target=False,
        )
        query = rng.uniform(0, 1, size=(10, 2))
        np.testing.assert_array_equal(doubled.predict(query), base.predict(query))

    def test_step_at_extreme_with_many_trees(self):
        rng = np.random.default_rng(3)
        train = step_rows(rng, 200)
        f = forest.fit(train, 2, ForestConfig(n_trees=500, seed=2))
        assert abs(f.predict([[0.9, 0.5]])[0] - 1.0) < 0.05

    def test_prediction_within_target_range(self):
        rng = np.random.default_rng(8)
        rows = np.column_stack([rng.uniform(0, 1, 80), rng.uniform(0.2, 0.8, 80)])
        f = forest.fit(rows, 1, ForestConfig(n_trees=30, seed=9))
        lo, hi = rows[:, 1].min(), rows[:, 1].max()
        preds = f.predict(rng.uniform(0, 1, size=(30, 1)))
        assert ((lo <= preds) & (preds <= hi)).all()

    def test_wrong_width_rejected(self):
        rng = np.random.default_rng(8)
        f = forest.fit(step_rows(rng, 40), 2, ForestConfig(n_trees=2, seed=0))
        with pytest.raises(ValueError, match="predictor"):
            f.predict([[0.1, 0.2, 0.3]])
        with pytest.raises(ValueError, match="predictor"):
            f.predict([0.1, 0.2])  # one row is still a block of one


class TestClassify:
    def fit_binary(self, seed=0, constant=None):
        rng = np.random.default_rng(seed)
        rows = step_rows(rng, 60)
        if constant is not None:
            rows[:, 2] = constant
        return forest.fit(rows, 2, ForestConfig(n_trees=20, seed=seed), binary_target=True)

    def test_threshold_rule(self):
        f = self.fit_binary()
        labels, scores = f.classify([[0.95, 0.5], [0.05, 0.5]])
        assert labels.tolist() == [1, 0]
        assert scores[0] > 0.5 > scores[1]

    def test_tie_goes_to_one(self):
        f = Forest(
            trees=(leaf_tree(0.5),),
            config=ForestConfig(n_trees=1),
            target_column=1,
            predictor_columns=(0,),
            binary_target=True,
        )
        labels, scores = f.classify([[0.1]])
        assert scores.tolist() == [0.5] and labels.tolist() == [1]

    def test_all_positive_training_class(self):
        f = self.fit_binary(constant=1.0)
        labels, scores = f.classify([[0.3, 0.3]])
        assert scores.tolist() == [1.0] and labels.tolist() == [1]

    def test_requires_binary_fit(self):
        rng = np.random.default_rng(1)
        rows = np.column_stack([rng.uniform(0, 1, 40), rng.uniform(0, 1, 40)])
        f = forest.fit(rows, 1, ForestConfig(n_trees=2, seed=0))
        with pytest.raises(ValueError, match="binary_target"):
            f.classify([[0.5]])


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
        cfg = ForestConfig(n_trees=1, min_leaf=min_leaf, mtry=3, seed=seed)
        f = forest.fit(rows, 3, cfg, bootstrap=False)
        ref = reference_cart(x, y, min_leaf)
        query = rng.uniform(0, 1, size=(40, 3))
        expected = [reference_predict(ref, q) for q in query]
        np.testing.assert_allclose(f.predict(query), expected, rtol=0, atol=1e-12)

    def test_row_order_invariance_with_unique_splits(self):
        # Same splits regardless of row order; leaf means may differ in the
        # last bits because summation order changes.
        rng = np.random.default_rng(10)
        n = 40
        x = rng.uniform(0, 1, size=(n, 2))
        y = x[:, 0] * 2 + rng.normal(0, 0.05, n)
        rows = np.column_stack([x, y])
        cfg = ForestConfig(n_trees=1, min_leaf=2, mtry=2, seed=3)
        t1 = forest.fit(rows, 2, cfg, bootstrap=False).trees[0]
        t2 = forest.fit(rows[rng.permutation(n)], 2, cfg, bootstrap=False).trees[0]
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
        f = forest.fit(train, 3, ForestConfig(n_trees=n_trees, min_leaf=2, seed=seed))
        query = rng.uniform(-0.1, 1.1, size=(rows, 3))
        expected = [np.mean([walk_row(t, q) for t in f.trees]) for q in query]
        np.testing.assert_array_equal(f.predict(query), expected)
        for t in f.trees[:3]:
            np.testing.assert_array_equal(t.predict(query), [walk_row(t, q) for q in query])
