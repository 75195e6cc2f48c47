"""Reconstruction-error objective over unknown record components."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aeimpute.data import ImputationTask
from aeimpute.objective import _ROWS_PER_PASS, MissingDataObjective
from aeimpute.network import train, TrainConfig
from aeimpute.optimizers import OptimizerResult

from conftest import ConstantNet, IdentityNet, random_autoencoder, scalar_forward


def make_task(records, unknown):
    """A task over one record (a 1-D ``records``) or over the rows of a matrix."""
    records = np.atleast_2d(np.asarray(records, dtype=float))
    mask = np.ones(records.shape[1], dtype=bool)
    mask[list(unknown)] = False
    return ImputationTask(record=records, known_mask=mask)


class TestEvaluate:
    def test_identity_net_zero_everywhere(self):
        task = make_task([0.2, 0.5, 0.8], unknown=[1])
        obj = MissingDataObjective(IdentityNet(3), task)
        for c in np.linspace(0, 1, 11):
            assert obj.evaluate([c]) == 0.0

    def test_constant_net_minimized_at_constant(self):
        c = np.array([0.3, 0.6, 0.1, 0.9])
        task = make_task([0.2, 0.5, 0.5, 0.8], unknown=[2])
        obj = MissingDataObjective(ConstantNet(c), task)
        grid = np.linspace(0, 1, 1001)
        values = [obj.evaluate([g]) for g in grid]
        best = grid[int(np.argmin(values))]
        assert best == pytest.approx(c[2], abs=1e-3)
        known = [0, 1, 3]
        expected_min = sum((task.record[0, k] - c[k]) ** 2 for k in known)
        assert min(values) == pytest.approx(expected_min, abs=1e-6)

    def test_matches_scalar_recomputation_on_grid(self):
        rows = np.random.default_rng(0).uniform(0, 1, size=(30, 4))
        net, _ = train(rows, 2, TrainConfig(rng_seed=0, max_iterations=100))
        task = make_task([0.4, 0.1, 0.5, 0.9], unknown=[2])
        obj = MissingDataObjective(net, task)
        for g in np.linspace(0, 1, 1001):
            full = np.array(task.record[0])
            full[2] = g
            reconstructed = scalar_forward(net, full)
            expected = sum((full[k] - reconstructed[k]) ** 2 for k in range(4))
            assert obj.evaluate([g]) == pytest.approx(expected, abs=1e-12)

    def test_wrong_length_rejected(self):
        obj = MissingDataObjective(IdentityNet(3), make_task([0.1, 0.2, 0.3], unknown=[0]))
        with pytest.raises(ValueError, match="length 1"):
            obj.evaluate([0.1, 0.2])

    def test_out_of_bounds_rejected(self):
        obj = MissingDataObjective(IdentityNet(3), make_task([0.1, 0.2, 0.3], unknown=[0]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            obj.evaluate([1.5])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            obj.evaluate([-0.1])

    def test_nan_rejected(self):
        obj = MissingDataObjective(IdentityNet(3), make_task(np.full((3, 3), 0.4), unknown=[0]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            obj.evaluate_batch([[np.nan], [0.5], [0.2]])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            obj.evaluate_batch([[0.5], [0.2], [np.nan]])

    def test_no_rows_score_nothing(self):
        obj = MissingDataObjective(IdentityNet(3), make_task(np.full((3, 3), 0.4), unknown=[0]))
        assert obj.evaluate_batch(np.empty((0, 1))).shape == (0,)

    def test_nonnegative_and_batch_consistent(self):
        rng = np.random.default_rng(1)
        net = random_autoencoder(rng, 5, 3)
        obj = MissingDataObjective(net, make_task(rng.uniform(0, 1, 5), unknown=[1, 4]))
        candidates = rng.uniform(0, 1, size=(20, 2))
        batch = obj.evaluate_batch(candidates)
        assert (batch >= 0).all()
        singles = np.array([obj.evaluate(c) for c in candidates])
        np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-12)

    def test_sentinel_never_read(self):
        rng = np.random.default_rng(2)
        net = random_autoencoder(rng, 4, 2)
        base = make_task([0.2, 0.5, 0.7, 0.4], unknown=[1])
        poked_record = np.array(base.record)
        poked_record[0, 1] = 0.987  # garbage in the unknown slot
        poked = dataclasses.replace(base, record=poked_record)
        obj_a = MissingDataObjective(net, base)
        obj_b = MissingDataObjective(net, poked)
        for c in np.linspace(0, 1, 21):
            assert obj_a.evaluate([c]) == obj_b.evaluate([c])

    def test_mismatched_network_rejected(self):
        with pytest.raises(ValueError, match="inputs"):
            MissingDataObjective(IdentityNet(5), make_task([0.1, 0.2, 0.3], unknown=[0]))


class TestStacked:
    def test_task_major_rows_match_one_task_objectives(self):
        rng = np.random.default_rng(3)
        net = random_autoencoder(rng, 5, 3)
        records = rng.uniform(0, 1, size=(7, 5))
        stacked = MissingDataObjective(net, make_task(records, unknown=[1, 4]))
        assert stacked.n_tasks == 7 and stacked.dimension == 2
        candidates = rng.uniform(0, 1, size=(7, 90, 2))  # 630 rows: more than one pass
        values = stacked.evaluate_batch(candidates.reshape(-1, 2)).reshape(7, 90)
        for t, record in enumerate(records):
            alone = MissingDataObjective(net, make_task(record, unknown=[1, 4]))
            np.testing.assert_allclose(values[t], alone.evaluate_batch(candidates[t]), rtol=0, atol=1e-12)

    def test_rows_must_split_evenly_over_tasks(self):
        task = make_task([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], unknown=[0])
        obj = MissingDataObjective(IdentityNet(3), task)
        with pytest.raises(ValueError, match="multiple of 2"):
            obj.evaluate_batch(np.full((3, 1), 0.5))
        with pytest.raises(ValueError):
            obj.evaluate([0.5])

    def test_tasks_must_share_one_mask(self):
        records = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        per_record_masks = np.array([[False, True, True], [True, False, True]])
        with pytest.raises(ValueError, match="known_mask"):
            ImputationTask(record=records, known_mask=per_record_masks)

    def test_impute_one_point_per_task(self):
        obj = MissingDataObjective(IdentityNet(3), make_task([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], unknown=[1]))
        full = obj.impute(TestImpute().result([[0.9], [0.8]]))
        np.testing.assert_array_equal(full, [[0.1, 0.9, 0.3], [0.4, 0.8, 0.6]])
        with pytest.raises(ValueError, match="each of 2 records"):
            obj.impute(TestImpute().result([[0.9]]))


class TestImpute:
    def result(self, points):
        """A result whose best points are ``points``, one row per record."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        t = points.shape[0]
        return OptimizerResult(
            best_points=points,
            best_values=np.zeros(t),
            evaluations=1,
            trace_iterations=np.array([0]),
            trace_values=np.zeros((1, t)),
        )

    def test_scatter_single(self):
        obj = MissingDataObjective(IdentityNet(5), make_task([0.1, 0.2, 0.3, 0.5, 0.9], unknown=[3]))
        (full,) = obj.impute(self.result([0.42]))
        assert full[3] == 0.42
        np.testing.assert_array_equal(full[[0, 1, 2, 4]], [0.1, 0.2, 0.3, 0.9])

    def test_scatter_preserves_order(self):
        obj = MissingDataObjective(IdentityNet(4), make_task([0.1, 0.5, 0.5, 0.4], unknown=[1, 2]))
        (full,) = obj.impute(self.result([0.7, 0.2]))
        assert full[1] == 0.7 and full[2] == 0.2

    def test_known_components_untouched(self):
        record = np.array([0.11, 0.22, 0.5, 0.44])
        obj = MissingDataObjective(IdentityNet(4), make_task(record, unknown=[2]))
        (full,) = obj.impute(self.result([0.9]))
        assert full[0] == record[0] and full[1] == record[1] and full[3] == record[3]

    def test_nan_point_rejected(self):
        obj = MissingDataObjective(IdentityNet(3), make_task([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], unknown=[1]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            obj.impute(self.result([[0.5], [np.nan]]))

    def test_gather_recovers_point(self):
        obj = MissingDataObjective(IdentityNet(4), make_task([0.1, 0.5, 0.5, 0.4], unknown=[1, 3]))
        point = np.array([0.61, 0.13])
        (full,) = obj.impute(self.result(point))
        np.testing.assert_array_equal(full[obj.unknown_indices], point)


def reference_evaluate_batch(obj, candidates):
    """``evaluate_batch`` as first written, before its per-call overhead was
    cut: the bit-level reference for the current body (checks left out)."""
    c = np.asarray(candidates, dtype=float)
    k = c.shape[0] // obj.n_tasks
    values = np.empty(c.shape[0])
    for start in range(0, c.shape[0], _ROWS_PER_PASS):
        stop = min(start + _ROWS_PER_PASS, c.shape[0])
        full = obj.task.record[np.arange(start, stop) // k]
        full[:, obj.unknown_indices] = c[start:stop]
        full -= obj.net.forward_batch(full)
        full *= full
        values[start:stop] = full.sum(axis=1)
    return values


def random_objective(rng, n_tasks, n, m):
    """An objective over ``n_tasks`` random records with ``m`` of ``n`` components unknown."""
    net = random_autoencoder(rng, n, int(rng.integers(2, n)))
    unknown = np.sort(rng.choice(n, size=m, replace=False))
    return MissingDataObjective(net, make_task(rng.uniform(0, 1, size=(n_tasks, n)), unknown))


class TestEvaluateBatchBits:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_reference(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        n_tasks = data.draw(st.integers(1, 5), label="T")
        k = data.draw(st.sampled_from([1, 2, 7]) | st.integers(100, 260), label="k")
        n = data.draw(st.integers(3, 8), label="n")
        obj = random_objective(rng, n_tasks, n, data.draw(st.integers(1, n - 1), label="m"))
        candidates = rng.uniform(0, 1, size=(n_tasks * k, obj.dimension))
        candidates[rng.random(candidates.shape) < 0.1] = 0.0  # box edges, as clipping leaves them
        candidates[rng.random(candidates.shape) < 0.1] = 1.0
        np.testing.assert_array_equal(obj.evaluate_batch(candidates), reference_evaluate_batch(obj, candidates))

    @pytest.mark.parametrize("n_tasks,k", [(3, 200), (600, 1), (1, 1025)])
    def test_blocks_across_pass_boundaries_equal_reference(self, n_tasks, k):
        # 600 and 1,025 rows need two and three passes of 512 rows.
        rng = np.random.default_rng(n_tasks * k)
        obj = random_objective(rng, n_tasks, 6, 2)
        candidates = rng.uniform(0, 1, size=(n_tasks * k, 2))
        np.testing.assert_array_equal(obj.evaluate_batch(candidates), reference_evaluate_batch(obj, candidates))
