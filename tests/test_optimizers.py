"""Box feasibility, budgets, traces, determinism, and search quality."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aeimpute import optimizers as opt
from aeimpute.optimizers import GaConfig, NsConfig, PsoConfig, SaConfig

from conftest import Bimodal1D, CountingObjective, QuadraticStub, Ripple2D

ALL = [
    ("ga", opt.minimize_ga, GaConfig),
    ("sa", opt.minimize_sa, SaConfig),
    ("pso", opt.minimize_pso, PsoConfig),
    ("ns", opt.minimize_ns, NsConfig),
]


def assert_same_result(a, b):
    np.testing.assert_array_equal(a.best_points, b.best_points)
    np.testing.assert_array_equal(a.best_values, b.best_values)
    assert a.evaluations == b.evaluations
    np.testing.assert_array_equal(a.trace_iterations, b.trace_iterations)
    np.testing.assert_array_equal(a.trace_values, b.trace_values)


class TestQuadraticStub:
    @pytest.mark.parametrize("name,fn,cfg_type", ALL)
    def test_finds_minimum(self, name, fn, cfg_type):
        tol = 0.05 if name == "ns" else 0.02
        for seed in range(5):
            result = fn(QuadraticStub(), cfg_type(), seeds=[seed])
            assert abs(result.best_points[0, 0] - 0.3) < tol


class TestSharedContracts:
    @pytest.mark.parametrize("name,fn,cfg_type", ALL)
    def test_box_feasible_best_point(self, name, fn, cfg_type):
        result = fn(QuadraticStub(), cfg_type(), seeds=[3])
        assert (result.best_points >= 0).all() and (result.best_points <= 1).all()

    @pytest.mark.parametrize("name,fn,cfg_type", ALL)
    def test_best_value_fresh_reevaluation(self, name, fn, cfg_type):
        stub = QuadraticStub()
        result = fn(stub, cfg_type(), seeds=[4])
        assert result.best_values[0] == stub.evaluate(result.best_points[0])

    @pytest.mark.parametrize("name,fn,cfg_type", ALL)
    def test_trace_non_increasing(self, name, fn, cfg_type):
        result = fn(Ripple2D(), cfg_type(), seeds=[5])
        assert (np.diff(result.trace_values[:, 0]) <= 0).all()

    @pytest.mark.parametrize("name,fn,cfg_type", ALL)
    def test_deterministic_given_seed(self, name, fn, cfg_type):
        a = fn(Ripple2D(), cfg_type(), seeds=[6])
        b = fn(Ripple2D(), cfg_type(), seeds=[6])
        assert_same_result(a, b)

    @pytest.mark.parametrize("name,fn,cfg_type", ALL)
    def test_trace_labels(self, name, fn, cfg_type):
        result = fn(QuadraticStub(), cfg_type(), seeds=[0])
        first = 1 if name == "ns" else 0  # NS records its first generation as 1
        np.testing.assert_array_equal(
            result.trace_iterations, np.arange(first, first + result.trace_values.shape[0])
        )
        assert result.trace_values.shape[1] == 1


class TestBudgets:
    def test_ga_budget(self):
        counter = CountingObjective(QuadraticStub())
        cfg = GaConfig(population=20, generations=15, elitism=3)
        result = opt.minimize_ga(counter, cfg, seeds=[0])
        expected = 20 + 15 * (20 - 3)
        # the final re-evaluation of the best point adds one row
        assert result.evaluations == expected
        assert counter.count == expected + 1

    def test_sa_budget_with_calibration(self):
        counter = CountingObjective(QuadraticStub())
        cfg = SaConfig(temperature_steps=12, moves_per_step=7)
        result = opt.minimize_sa(counter, cfg, seeds=[0])
        assert result.evaluations == 1 + 100 + 12 * 7

    def test_sa_budget_fixed_temperature(self):
        counter = CountingObjective(QuadraticStub())
        cfg = SaConfig(initial_temperature=0.1, temperature_steps=12, moves_per_step=7)
        result = opt.minimize_sa(counter, cfg, seeds=[0])
        assert result.evaluations == 1 + 12 * 7

    def test_pso_budget(self):
        cfg = PsoConfig(swarm=9, iterations=13)
        result = opt.minimize_pso(QuadraticStub(), cfg, seeds=[0])
        assert result.evaluations == 9 * (13 + 1)

    def test_ns_budget(self):
        cfg = NsConfig(detectors=11, generations=17)
        result = opt.minimize_ns(QuadraticStub(), cfg, seeds=[0])
        assert result.evaluations == 11 * 17


class TestGa:
    def test_decode_endpoints(self):
        zeros = np.zeros((1, 16), dtype=np.int8)
        top = np.zeros((1, 16), dtype=np.int8)
        top[0, 0] = 1  # Gray code of 2^16 - 1
        assert opt._decode(zeros, 1, 16)[0, 0] == 0.0
        assert opt._decode(top, 1, 16)[0, 0] == 1.0

    def test_decode_fixed_point(self):
        bits = np.zeros((1, 8), dtype=np.int8)
        bits[0, -1] = 1  # Gray code of 1
        assert opt._decode(bits, 1, 8)[0, 0] == 1.0 / 255.0
        bits[0, -2] = 1  # Gray code 011 is 2
        assert opt._decode(bits, 1, 8)[0, 0] == 2.0 / 255.0

    def test_decode_neighbours_one_flip_apart(self):
        codes = np.array([[(g >> (7 - j)) & 1 for j in range(8)] for g in range(256)], dtype=np.int8)
        values = opt._decode(codes, 1, 8)[:, 0]
        order = np.argsort(values)
        np.testing.assert_array_equal(values[order], np.arange(256) / 255.0)
        assert (np.abs(np.diff(codes[order], axis=0)).sum(axis=1) == 1).all()

    def test_decode_many_variables_and_leading_axes(self):
        rng = np.random.default_rng(0)
        chromosomes = rng.integers(0, 2, size=(3, 4, 2 * 5), dtype=np.int8)
        stacked = opt._decode(chromosomes, 2, 5)
        assert stacked.shape == (3, 4, 2)
        np.testing.assert_array_equal(stacked[1], opt._decode(chromosomes[1], 2, 5))

    def test_grid_verified_2d(self):
        obj = Ripple2D()
        grid_min = obj.grid_minimum()
        hits = 0
        for seed in range(20):
            result = opt.minimize_ga(obj, GaConfig(), seeds=[seed])
            hits += (result.best_values[0] - grid_min) / grid_min <= 0.05
        assert hits >= 18

    def test_selection_prefers_smaller_objective(self):
        # With the negated objective as fitness, the selected best individual
        # of any population is the objective argmin.
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1, 50)
        fitness = -values
        assert int(np.argmin(values)) == int(np.argmax(fitness))

    def test_mutation_default_resolution(self):
        # Default mutation rate keeps roughly one flip per chromosome.
        counter = CountingObjective(QuadraticStub())
        result = opt.minimize_ga(counter, GaConfig(generations=5), seeds=[1])
        assert result.evaluations == 50 + 5 * 49


class TestSa:
    def test_zero_temperature_is_strict_descent(self):
        accepted: list[float] = []
        cfg = SaConfig(initial_temperature=1e-12)
        opt.minimize_sa(Bimodal1D(), cfg, seeds=[7], accepted_history=[accepted])
        assert len(accepted) >= 1
        assert (np.diff(accepted) <= 0).all()

    def test_bimodal_escapes_local_well(self):
        obj = Bimodal1D()
        grid_min = obj.grid_minimum()
        hits = 0
        for seed in range(30):
            result = opt.minimize_sa(obj, SaConfig(), seeds=[seed])
            hits += (result.best_values[0] - grid_min) <= 0.05 * abs(grid_min)
        assert hits >= 27

    def test_calibrated_temperature_positive(self):
        result = opt.minimize_sa(QuadraticStub(), SaConfig(), seeds=[0])
        assert result.best_values[0] >= 0.0


class TestPso:
    def test_fixed_point_at_optimum(self):
        # Both particles start on the optimum with zero velocity: pbest and
        # gbest coincide with the position, so the velocity update is zero.
        start = np.array([[0.3], [0.3]])
        cfg = PsoConfig(swarm=2, iterations=50)
        result = opt.minimize_pso(QuadraticStub(), cfg, seeds=[0], initial=(start, np.zeros((2, 1))))
        assert result.best_points[0, 0] == 0.3
        assert result.best_values[0] == 0.0

    def test_velocity_clamped(self):
        # With a huge attraction, positions still stay inside the box.
        cfg = PsoConfig(swarm=5, iterations=30, phi1=10.0, phi2=10.0)
        result = opt.minimize_pso(Ripple2D(), cfg, seeds=[2])
        assert (result.best_points >= 0).all() and (result.best_points <= 1).all()

    def test_grid_verified_2d(self):
        obj = Ripple2D()
        grid_min = obj.grid_minimum()
        hits = 0
        for seed in range(20):
            result = opt.minimize_pso(obj, PsoConfig(), seeds=[seed])
            hits += (result.best_values[0] - grid_min) / grid_min <= 0.05
        assert hits >= 18


class TestNs:
    def test_detector_count_constant(self):
        sizes = []

        class Spy(QuadraticStub):
            def evaluate_batch(self, candidates):
                sizes.append(np.asarray(candidates).shape[0])
                return super().evaluate_batch(candidates)

        cfg = NsConfig(detectors=13, generations=9)
        opt.minimize_ns(Spy(), cfg, seeds=[0])
        # Then one row: the final re-evaluation of the best point.
        assert sizes == [13] * 9 + [1]

    def test_never_beats_exhaustive_grid(self):
        obj = Bimodal1D()
        grid = np.linspace(0, 1, 10001)
        grid_vals = [obj.evaluate([g]) for g in grid]
        result = opt.minimize_ns(obj, NsConfig(), seeds=[1])
        assert result.best_values[0] >= min(grid_vals) - 1e-12
        assert result.best_values[0] <= max(grid_vals)


class TestDispatch:
    def test_routes_by_tag(self):
        result = opt.run(QuadraticStub(), "ga", GaConfig(generations=5), seeds=[0])
        direct = opt.minimize_ga(QuadraticStub(), GaConfig(generations=5), seeds=[0])
        assert_same_result(result, direct)

    def test_same_seed_same_result(self):
        a = opt.run(QuadraticStub(), "pso", PsoConfig(), seeds=[9])
        b = opt.run(QuadraticStub(), "pso", PsoConfig(), seeds=[9])
        assert_same_result(a, b)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="rf"):
            opt.run(QuadraticStub(), "rf", seeds=[0])

    def test_mismatched_config_rejected(self):
        with pytest.raises(TypeError):
            opt.run(QuadraticStub(), "sa", GaConfig(), seeds=[0])

    def test_default_config_used_when_none(self):
        result = opt.run(QuadraticStub(), "ns", seeds=[0])
        assert result.evaluations == 50 * 100


class TestConfigValidation:
    def test_ga_bounds(self):
        with pytest.raises(ValueError):
            GaConfig(population=1)
        with pytest.raises(ValueError):
            GaConfig(elitism=50, population=50)
        with pytest.raises(ValueError):
            GaConfig(crossover_prob=1.5)

    def test_sa_bounds(self):
        with pytest.raises(ValueError):
            SaConfig(cooling_factor=1.0)
        with pytest.raises(ValueError):
            SaConfig(neighbor_sigma=0.0)
        with pytest.raises(ValueError):
            SaConfig(initial_temperature=-1.0)

    def test_pso_bounds(self):
        with pytest.raises(ValueError):
            PsoConfig(swarm=1)
        with pytest.raises(ValueError):
            PsoConfig(v_max=0.0)

    def test_ns_bounds(self):
        with pytest.raises(ValueError):
            NsConfig(detectors=1)


class StackedStub:
    """T separable tasks on [0, 1]^m, each a bowl with ripples around its own center.

    Only elementwise arithmetic, column by column, so a row scores the same
    in any batch.  Counts the rows it evaluates.
    """

    def __init__(self, centers):
        self.centers = np.asarray(centers, dtype=float)
        self.n_tasks, self.dimension = self.centers.shape
        self.rows = 0

    def evaluate_batch(self, candidates):
        c = np.asarray(candidates, dtype=float)
        self.rows += c.shape[0]
        centers = np.repeat(self.centers, c.shape[0] // self.n_tasks, axis=0)
        value = np.zeros(c.shape[0])
        for j in range(self.dimension):
            d = c[:, j] - centers[:, j]
            ripple = (8.0 * c[:, j] + centers[:, j]) % 1.0
            value = value + d * d + 0.05 * ripple * (1.0 - ripple)
        return value


def small_config(name, draw):
    """A small-budget config for ``name`` with its per-task evaluation budget."""
    if name == "ga":
        population = draw(st.integers(2, 8))
        cfg = GaConfig(
            population=population,
            bits_per_variable=draw(st.integers(1, 5)),
            crossover_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
            mutation_prob=draw(st.none() | st.floats(0.0, 1.0)),
            tournament_size=draw(st.integers(1, 3)),
            elitism=draw(st.integers(0, population - 1)),
            generations=draw(st.integers(1, 4)),
        )
        return cfg, population + cfg.generations * (population - cfg.elitism)
    if name == "sa":
        cfg = SaConfig(
            initial_temperature=draw(st.none() | st.floats(1e-6, 1.0)),
            temperature_steps=draw(st.integers(1, 4)),
            moves_per_step=draw(st.integers(1, 5)),
            neighbor_sigma=draw(st.floats(0.01, 0.5)),
        )
        calibration = 100 if cfg.initial_temperature is None else 0
        return cfg, 1 + calibration + cfg.temperature_steps * cfg.moves_per_step
    if name == "pso":
        cfg = PsoConfig(
            swarm=draw(st.integers(2, 5)),
            v_max=draw(st.floats(0.01, 0.5)),
            iterations=draw(st.integers(1, 4)),
        )
        return cfg, cfg.swarm * (cfg.iterations + 1)
    cfg = NsConfig(detectors=draw(st.integers(2, 6)), generations=draw(st.integers(1, 4)))
    return cfg, cfg.detectors * cfg.generations


class TestLockstep:
    @pytest.mark.parametrize("name", opt.ALGORITHM_TAGS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_separate_one_task_runs(self, name, data):
        n_tasks = data.draw(st.integers(1, 5), label="T")
        m = data.draw(st.integers(1, 3), label="m")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        centers = rng.uniform(0.0, 1.0, size=(n_tasks, m))
        seeds = [int(s) for s in rng.integers(0, 2**63, size=n_tasks)]
        cfg, budget = small_config(name, data.draw)

        stub = StackedStub(centers)
        together = opt.run(stub, name, cfg, seeds=seeds)
        # Exact budgets, plus one re-evaluation of each task's best point.
        assert stub.rows == n_tasks * (budget + 1)
        assert together.best_points.shape == (n_tasks, m)
        assert together.trace_values.shape == (together.trace_iterations.size, n_tasks)
        for t in range(n_tasks):
            alone = opt.run(StackedStub(centers[t : t + 1]), name, cfg, seeds=[seeds[t]])
            np.testing.assert_array_equal(together.best_points[t], alone.best_points[0])
            assert together.best_values[t] == alone.best_values[0]
            assert together.evaluations == alone.evaluations == budget
            np.testing.assert_array_equal(together.trace_iterations, alone.trace_iterations)
            np.testing.assert_array_equal(together.trace_values[:, t], alone.trace_values[:, 0])

    def test_seed_count_must_match_tasks(self):
        with pytest.raises(ValueError, match="2 seeds"):
            opt.run(StackedStub(np.full((3, 1), 0.5)), "ns", NsConfig(), seeds=[1, 2])
        with pytest.raises(TypeError, match="seeds"):
            opt.run(StackedStub(np.full((3, 1), 0.5)), "ns", NsConfig())
