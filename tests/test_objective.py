"""Reconstruction-error objective over unknown record components."""

import dataclasses

import numpy as np
import pytest

from aeimpute.data import ImputationTask
from aeimpute.objective import MissingDataObjective
from aeimpute.network import train, TrainConfig
from aeimpute.optimizers import OptimizerResult

from conftest import ConstantNet, IdentityNet, random_autoencoder, scalar_forward


def make_task(record, unknown, truth=None):
    record = np.asarray(record, dtype=float)
    mask = np.ones(record.size, dtype=bool)
    mask[list(unknown)] = False
    return ImputationTask(record=record, known_mask=mask, true_values=truth)


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
        expected_min = sum((task.record[k] - c[k]) ** 2 for k in known)
        assert min(values) == pytest.approx(expected_min, abs=1e-6)

    def test_matches_scalar_recomputation_on_grid(self):
        rows = np.random.default_rng(0).uniform(0, 1, size=(30, 4))
        net, _ = train(rows, 2, TrainConfig(rng_seed=0, max_iterations=100))
        task = make_task([0.4, 0.1, 0.5, 0.9], unknown=[2])
        obj = MissingDataObjective(net, task)
        for g in np.linspace(0, 1, 1001):
            full = np.array(task.record)
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
        poked_record[1] = 0.987  # garbage in the unknown slot
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
        tasks = [make_task(rng.uniform(0, 1, 5), unknown=[1, 4]) for _ in range(7)]
        stacked = MissingDataObjective(net, tasks)
        assert stacked.n_tasks == 7 and stacked.dimension == 2
        candidates = rng.uniform(0, 1, size=(7, 90, 2))  # 630 rows: more than one pass
        values = stacked.evaluate_batch(candidates.reshape(-1, 2)).reshape(7, 90)
        for t, task in enumerate(tasks):
            alone = MissingDataObjective(net, task).evaluate_batch(candidates[t])
            np.testing.assert_allclose(values[t], alone, rtol=0, atol=1e-12)

    def test_rows_must_split_evenly_over_tasks(self):
        tasks = [make_task([0.1, 0.2, 0.3], unknown=[0]), make_task([0.4, 0.5, 0.6], unknown=[0])]
        obj = MissingDataObjective(IdentityNet(3), tasks)
        with pytest.raises(ValueError, match="multiple of 2"):
            obj.evaluate_batch(np.full((3, 1), 0.5))
        with pytest.raises(ValueError):
            obj.evaluate([0.5])

    def test_tasks_must_share_one_mask(self):
        tasks = [make_task([0.1, 0.2, 0.3], unknown=[0]), make_task([0.4, 0.5, 0.6], unknown=[1])]
        with pytest.raises(ValueError, match="mask"):
            MissingDataObjective(IdentityNet(3), tasks)

    def test_impute_one_result_per_task(self):
        tasks = [make_task([0.1, 0.2, 0.3], unknown=[1]), make_task([0.4, 0.5, 0.6], unknown=[1])]
        obj = MissingDataObjective(IdentityNet(3), tasks)
        results = [TestImpute().result([0.9]), TestImpute().result([0.8])]
        np.testing.assert_array_equal(obj.impute(results), [[0.1, 0.9, 0.3], [0.4, 0.8, 0.6]])


class TestImpute:
    def result(self, point):
        point = np.asarray(point, dtype=float)
        return OptimizerResult(best_point=point, best_value=0.0, evaluations=1, trace=((0, 0.0),))

    def test_scatter_single(self):
        obj = MissingDataObjective(IdentityNet(5), make_task([0.1, 0.2, 0.3, 0.5, 0.9], unknown=[3]))
        full = obj.impute(self.result([0.42]))
        assert full[3] == 0.42
        np.testing.assert_array_equal(full[[0, 1, 2, 4]], [0.1, 0.2, 0.3, 0.9])

    def test_scatter_preserves_order(self):
        obj = MissingDataObjective(IdentityNet(4), make_task([0.1, 0.5, 0.5, 0.4], unknown=[1, 2]))
        full = obj.impute(self.result([0.7, 0.2]))
        assert full[1] == 0.7 and full[2] == 0.2

    def test_known_components_untouched(self):
        record = np.array([0.11, 0.22, 0.5, 0.44])
        obj = MissingDataObjective(IdentityNet(4), make_task(record, unknown=[2]))
        full = obj.impute(self.result([0.9]))
        assert full[0] == record[0] and full[1] == record[1] and full[3] == record[3]

    def test_gather_recovers_point(self):
        obj = MissingDataObjective(IdentityNet(4), make_task([0.1, 0.5, 0.5, 0.4], unknown=[1, 3]))
        point = np.array([0.61, 0.13])
        full = obj.impute(self.result(point))
        np.testing.assert_array_equal(full[obj.unknown_indices], point)
