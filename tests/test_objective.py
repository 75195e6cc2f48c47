"""Reconstruction-error objective over a masked record column."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aeimpute.data import ImputationTask
from aeimpute.objective import _GRID_RECORDS_PER_BLOCK, _ROWS_PER_PASS, GRID_POINTS, MissingDataObjective
from aeimpute.network import train, TrainConfig

from conftest import ConstantNet, IdentityNet, random_autoencoder, scalar_forward, traced_peak


def make_task(records, column):
    """A task over one record (a 1-D ``records``) or over the rows of a matrix."""
    records = np.atleast_2d(np.asarray(records, dtype=float))
    return ImputationTask(record=records, column=column, true_values=records)


class TestEvaluate:
    def test_identity_net_zero_everywhere(self):
        task = make_task([0.2, 0.5, 0.8], column=1)
        obj = MissingDataObjective(IdentityNet(3), task)
        for c in np.linspace(0, 1, 11):
            assert obj.evaluate(c) == 0.0

    def test_constant_net_minimized_at_constant(self):
        c = np.array([0.3, 0.6, 0.1, 0.9])
        task = make_task([0.2, 0.5, 0.5, 0.8], column=2)
        obj = MissingDataObjective(ConstantNet(c), task)
        grid = np.linspace(0, 1, 1001)
        values = [obj.evaluate(g) for g in grid]
        best = grid[int(np.argmin(values))]
        assert best == pytest.approx(c[2], abs=1e-3)
        known = [0, 1, 3]
        expected_min = sum((task.record[0, k] - c[k]) ** 2 for k in known)
        assert min(values) == pytest.approx(expected_min, abs=1e-6)

    def test_matches_scalar_recomputation_on_grid(self):
        rows = np.random.default_rng(0).uniform(0, 1, size=(30, 4))
        net, _ = train(rows, 2, TrainConfig(rng_seed=0, max_iterations=100))
        task = make_task([0.4, 0.1, 0.5, 0.9], column=2)
        obj = MissingDataObjective(net, task)
        for g in np.linspace(0, 1, 1001):
            full = np.array(task.record[0])
            full[2] = g
            reconstructed = scalar_forward(net, full)
            expected = sum((full[k] - reconstructed[k]) ** 2 for k in range(4))
            assert obj.evaluate(g) == pytest.approx(expected, abs=1e-12)

    def test_wrong_length_rejected(self):
        obj = MissingDataObjective(IdentityNet(3), make_task([0.1, 0.2, 0.3], column=0))
        with pytest.raises(ValueError, match="vector"):
            obj.evaluate([0.1, 0.2])
        with pytest.raises(ValueError, match="vector"):
            obj.evaluate_batch([[0.1], [0.2]])

    def test_out_of_bounds_rejected(self):
        obj = MissingDataObjective(IdentityNet(3), make_task([0.1, 0.2, 0.3], column=0))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            obj.evaluate(1.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            obj.evaluate(-0.1)

    def test_nan_rejected(self):
        obj = MissingDataObjective(IdentityNet(3), make_task(np.full((3, 3), 0.4), column=0))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            obj.evaluate_batch([np.nan, 0.5, 0.2])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            obj.evaluate_batch([0.5, 0.2, np.nan])

    def test_no_rows_score_nothing(self):
        obj = MissingDataObjective(IdentityNet(3), make_task(np.full((3, 3), 0.4), column=0))
        assert obj.evaluate_batch(np.empty(0)).shape == (0,)

    def test_nonnegative_and_batch_consistent(self):
        rng = np.random.default_rng(1)
        net = random_autoencoder(rng, 5, 3)
        obj = MissingDataObjective(net, make_task(rng.uniform(0, 1, 5), column=4))
        candidates = rng.uniform(0, 1, size=20)
        batch = obj.evaluate_batch(candidates)
        assert (batch >= 0).all()
        singles = np.array([obj.evaluate(c) for c in candidates])
        np.testing.assert_array_equal(batch, singles)

    def test_sentinel_never_read(self):
        rng = np.random.default_rng(2)
        net = random_autoencoder(rng, 4, 2)
        base = make_task([0.2, 0.5, 0.7, 0.4], column=1)
        poked_record = np.array(base.record)
        poked_record[0, 1] = 0.987  # garbage in the masked slot
        poked = dataclasses.replace(base, record=poked_record)
        obj_a = MissingDataObjective(net, base)
        obj_b = MissingDataObjective(net, poked)
        for c in np.linspace(0, 1, 21):
            assert obj_a.evaluate(c) == obj_b.evaluate(c)

    def test_mismatched_network_rejected(self):
        with pytest.raises(ValueError, match="inputs"):
            MissingDataObjective(IdentityNet(5), make_task([0.1, 0.2, 0.3], column=0))


class TestStacked:
    def test_task_major_rows_match_one_task_objectives(self):
        rng = np.random.default_rng(3)
        net = random_autoencoder(rng, 5, 3)
        records = rng.uniform(0, 1, size=(7, 5))
        stacked = MissingDataObjective(net, make_task(records, column=4))
        assert stacked.n_tasks == 7
        candidates = rng.uniform(0, 1, size=(7, 90))  # 630 rows: more than one pass
        values = stacked.evaluate_batch(candidates.reshape(-1)).reshape(7, 90)
        for t, record in enumerate(records):
            alone = MissingDataObjective(net, make_task(record, column=4))
            np.testing.assert_array_equal(values[t], alone.evaluate_batch(candidates[t]))

    def test_rows_must_split_evenly_over_tasks(self):
        task = make_task([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], column=0)
        obj = MissingDataObjective(IdentityNet(3), task)
        with pytest.raises(ValueError, match="multiple of 2"):
            obj.evaluate_batch(np.full(3, 0.5))
        with pytest.raises(ValueError):
            obj.evaluate(0.5)


class RecordingNet(IdentityNet):
    """Identity stub that keeps a copy of every pass of rows it is given."""

    def __init__(self, n: int):
        super().__init__(n)
        self.passes = []

    def forward_batch(self, rows):
        self.passes.append(np.array(rows, dtype=float))
        return super().forward_batch(rows)


class TestCompletion:
    """The rows the network sees: each record with its candidate in the masked column."""

    def test_candidate_fills_the_masked_column(self):
        record = [0.1, 0.2, 0.3, 0.5, 0.9]
        net = RecordingNet(5)
        MissingDataObjective(net, make_task(record, column=3)).evaluate(0.42)
        (seen,) = net.passes  # a lone row goes through as two copies of itself
        np.testing.assert_array_equal(seen, [[0.1, 0.2, 0.3, 0.42, 0.9]] * 2)

    def test_one_candidate_per_record(self):
        net = RecordingNet(3)
        obj = MissingDataObjective(net, make_task([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], column=1))
        obj.evaluate_batch([0.9, 0.8])
        np.testing.assert_array_equal(net.passes, [[[0.1, 0.9, 0.3], [0.4, 0.8, 0.6]]])
        with pytest.raises(ValueError, match="multiple of 2"):
            obj.evaluate_batch([0.9, 0.8, 0.7])


def reference_evaluate_batch(obj, candidates):
    """``evaluate_batch`` as first written, before its per-call overhead was
    cut: the bit-level reference for the current body (checks left out).
    A one-row pass scores two copies of its row and keeps the first."""
    c = np.asarray(candidates, dtype=float)
    k = c.size // obj.n_tasks
    values = np.empty(c.size)
    for start in range(0, c.size, _ROWS_PER_PASS):
        stop = min(start + _ROWS_PER_PASS, c.size)
        full = obj.task.record[np.arange(start, stop) // k]
        full[:, obj.task.column] = c[start:stop]
        full = np.repeat(full, 2 if stop - start == 1 else 1, axis=0)
        full -= obj.net.forward_batch(full)
        full *= full
        values[start:stop] = full.sum(axis=1)[: stop - start]
    return values


def random_objective(rng, n_tasks, n):
    """An objective over ``n_tasks`` random records of ``n`` components, one of them masked."""
    net = random_autoencoder(rng, n, int(rng.integers(2, n)))
    column = int(rng.integers(0, n))
    return MissingDataObjective(net, make_task(rng.uniform(0, 1, size=(n_tasks, n)), column))


class TestEvaluateBatchBits:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_reference(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        n_tasks = data.draw(st.integers(1, 5), label="T")
        k = data.draw(st.sampled_from([1, 2, 7]) | st.integers(100, 260), label="k")
        n = data.draw(st.integers(3, 8), label="n")
        obj = random_objective(rng, n_tasks, n)
        candidates = rng.uniform(0, 1, size=n_tasks * k)
        candidates[rng.random(candidates.shape) < 0.1] = 0.0  # box edges, as clipping leaves them
        candidates[rng.random(candidates.shape) < 0.1] = 1.0
        np.testing.assert_array_equal(obj.evaluate_batch(candidates), reference_evaluate_batch(obj, candidates))

    @pytest.mark.parametrize("n_tasks,k", [(3, 200), (600, 1), (1, 1025)])
    def test_blocks_across_pass_boundaries_equal_reference(self, n_tasks, k):
        # 600 and 1,025 rows need two and three passes of 512 rows.
        rng = np.random.default_rng(n_tasks * k)
        obj = random_objective(rng, n_tasks, 6)
        candidates = rng.uniform(0, 1, size=n_tasks * k)
        np.testing.assert_array_equal(obj.evaluate_batch(candidates), reference_evaluate_batch(obj, candidates))


class TestBatchIndependence:
    # The three benchmark shapes (heart 14, credit 25, fire 13 columns) at
    # the hidden sizes the searches pick.  A single row multiplied alone
    # takes BLAS's matrix-vector path, which can sum in another order.
    @pytest.mark.parametrize("h", [2, 4, 6, 7])
    @pytest.mark.parametrize("n", [14, 25, 13])
    def test_a_row_scores_the_same_in_any_pass(self, n, h):
        rng = np.random.default_rng([n, h])
        task = make_task(rng.uniform(0, 1, size=n), column=n - 1)
        obj = MissingDataObjective(random_autoencoder(rng, n, h), task)
        probe, others = rng.uniform(0, 1, size=1), rng.uniform(0, 1, size=_ROWS_PER_PASS * 2 + 6)
        expected = obj.evaluate_batch(np.concatenate([probe, others[:1]]))[0]
        # 1,025 rows end with a one-row pass after two of 512 rows.
        for size in [*range(1, 41), *range(_ROWS_PER_PASS - 1, 2 * _ROWS_PER_PASS + 7)]:
            places = sorted({0, size // 2, size - 1})
            candidates = others[:size].copy()
            candidates[places] = probe
            values = obj.evaluate_batch(candidates)[places]
            assert (values == expected).all(), (size, values - expected)


class WellsNet:
    """Stub whose objective in column 1 is 0 at the given points and 1 elsewhere."""

    n_inputs = 3

    def __init__(self, wells):
        self.wells = wells

    def forward_batch(self, rows):
        out = np.array(rows, dtype=float)
        out[:, 1] += np.where(np.isin(out[:, 1], self.wells), 0.0, 1.0)
        return out


def assert_grid_equals_per_record_loop(obj):
    """``obj.grid_minimize()`` is, bit for bit, each record's grid scored alone."""
    grid = np.linspace(0.0, 1.0, GRID_POINTS)
    points, minima = obj.grid_minimize()
    assert points.shape == minima.shape == (obj.n_tasks,)
    for t in range(obj.n_tasks):
        one = MissingDataObjective(obj.net, make_task(obj.task.record[t], obj.task.column))
        values = one.evaluate_batch(grid)
        best = int(np.argmin(values))
        assert points[t] == grid[best]
        assert minima[t].view(np.uint64) == values[best].view(np.uint64)
        assert minima[t] == values.min()


class TestGridMinimize:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_per_record_loop(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        n_tasks = data.draw(st.integers(1, 6), label="T")
        assert_grid_equals_per_record_loop(random_objective(rng, n_tasks, data.draw(st.integers(3, 8), label="n")))

    @pytest.mark.parametrize("n", [14, 25])
    @pytest.mark.parametrize(
        "n_tasks", [1, _GRID_RECORDS_PER_BLOCK - 1, _GRID_RECORDS_PER_BLOCK, _GRID_RECORDS_PER_BLOCK + 1,
                    2 * _GRID_RECORDS_PER_BLOCK + 1]
    )
    def test_block_edges_equal_per_record_loop(self, n_tasks, n):
        assert_grid_equals_per_record_loop(random_objective(np.random.default_rng(n_tasks * n), n_tasks, n))

    def test_traced_peak_does_not_grow_with_the_records(self):
        # Holding all 2,000 records' grids and their values at once peaked
        # at 13.4 MB; a block's passes peak at about 0.7 MB.
        obj = random_objective(np.random.default_rng(0), 2000, 25)
        (points, _), peak = traced_peak(obj.grid_minimize)
        assert points.shape == (2000,)
        assert peak < 1e6

    def test_ties_go_to_the_lower_point(self):
        grid = np.linspace(0.0, 1.0, GRID_POINTS)
        task = make_task([[0.2, 0.9, 0.4], [0.7, 0.1, 0.3]], column=1)
        points, minima = MissingDataObjective(WellsNet(grid[[300, 150]]), task).grid_minimize()
        np.testing.assert_array_equal(points, [grid[150], grid[150]])
        np.testing.assert_array_equal(minima, [0.0, 0.0])

    def test_constant_net_minimized_at_nearest_grid_point(self):
        task = make_task([0.2, 0.5, 0.5, 0.8], column=2)
        points, _ = MissingDataObjective(ConstantNet([0.3, 0.6, 0.1234, 0.9]), task).grid_minimize()
        assert points[0] == pytest.approx(0.1225, abs=1e-12)
