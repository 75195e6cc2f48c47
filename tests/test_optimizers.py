"""Box feasibility, budgets, traces, determinism, and search quality."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aeimpute import data, network, optimizers as opt
from aeimpute.objective import MissingDataObjective
from aeimpute.optimizers import GaConfig, NsConfig, PsoConfig, SaConfig
from aeimpute.seeding import derive_seed

from conftest import Bimodal1D, CountingObjective, QuadraticStub, random_autoencoder, traced_peak, write_table

ALL = [
    ("ga", opt.minimize_ga, GaConfig),
    ("sa", opt.minimize_sa, SaConfig),
    ("pso", opt.minimize_pso, PsoConfig),
    ("ns", opt.minimize_ns, NsConfig),
]


def assert_same_result(a, b):
    np.testing.assert_array_equal(a.best_points, b.best_points)
    np.testing.assert_array_equal(a.best_values, b.best_values)
    np.testing.assert_array_equal(a.trace_iterations, b.trace_iterations)
    np.testing.assert_array_equal(a.trace_values, b.trace_values)


def reference_decode(chromosomes, bits):
    """The Gray decode as first written: bit-by-bit prefix-xor, float weights."""
    weights = 2.0 ** np.arange(bits - 1, -1, -1)
    scale = float(2**bits - 1)
    return (np.bitwise_xor.accumulate(chromosomes, axis=-1) @ weights) / scale


class TestQuadraticStub:
    @pytest.mark.parametrize("name,fn,cfg_type", ALL)
    def test_finds_minimum(self, name, fn, cfg_type):
        tol = 0.05 if name == "ns" else 0.02
        for seed in range(5):
            result = fn(QuadraticStub(), cfg_type(), seeds=[seed])
            assert abs(result.best_points[0] - 0.3) < tol


class TestSharedContracts:
    @pytest.mark.parametrize("name,fn,cfg_type", ALL)
    def test_box_feasible_best_point(self, name, fn, cfg_type):
        result = fn(QuadraticStub(), cfg_type(), seeds=[3])
        assert (result.best_points >= 0).all() and (result.best_points <= 1).all()

    @pytest.mark.parametrize("name,fn,cfg_type", ALL)
    def test_best_value_is_the_best_points_value(self, name, fn, cfg_type):
        stub = QuadraticStub()
        result = fn(stub, cfg_type(), seeds=[4])
        assert result.best_values[0] == stub.evaluate(result.best_points[0])

    @pytest.mark.parametrize("name,fn,cfg_type", ALL)
    def test_trace_non_increasing(self, name, fn, cfg_type):
        result = fn(Bimodal1D(), cfg_type(), seeds=[5])
        assert (np.diff(result.trace_values[:, 0]) <= 0).all()

    @pytest.mark.parametrize("name,fn,cfg_type", ALL)
    def test_deterministic_given_seed(self, name, fn, cfg_type):
        a = fn(Bimodal1D(), cfg_type(), seeds=[6])
        b = fn(Bimodal1D(), cfg_type(), seeds=[6])
        assert_same_result(a, b)

    @pytest.mark.parametrize("name,fn,cfg_type", ALL)
    def test_trace_labels(self, name, fn, cfg_type):
        result = fn(QuadraticStub(), cfg_type(), seeds=[0])
        first = 1 if name == "ns" else 0  # NS records its first generation as 1
        np.testing.assert_array_equal(
            result.trace_iterations, np.arange(first, first + result.trace_values.shape[0])
        )
        assert result.trace_values.shape[1] == 1


def pipeline_objective(tmp_path_factory, shape, hidden):
    """The pipeline's objective over the test block of the benchmark's
    ``shape`` table, on a briefly trained network of ``hidden`` units."""
    path = tmp_path_factory.mktemp(shape) / f"{shape}.csv"
    meta = write_table(path, shape)
    train, _, test = data.split(data.normalize(data.load_csv(path, schema=meta["kinds"])))
    net, _ = network.train(train, hidden, network.TrainConfig(max_iterations=30))
    return MissingDataObjective(net, data.make_tasks(test, meta["missing_column"]))


@pytest.fixture(scope="module")
def heart_objective(tmp_path_factory):
    """67 heart-shaped records, hidden size 4."""
    return pipeline_objective(tmp_path_factory, "heart", 4)


@pytest.fixture(scope="module")
def fire_objective(tmp_path_factory):
    """16 fire-shaped records, hidden size 6, as in the fire-deep benchmark."""
    return pipeline_objective(tmp_path_factory, "fire", 6)


class TestBestValues:
    """A result's best values are its trace's last entry; they must be what
    the objective scores for the best points, on the pipeline's objective."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "name,cfg",
        [
            ("ga", GaConfig(generations=10)),
            ("sa", SaConfig(temperature_steps=10)),
            ("pso", PsoConfig(iterations=10)),
            ("ns", NsConfig(generations=10)),
        ],
    )
    def test_equal_a_rescoring_of_the_best_points(self, heart_objective, name, cfg, seed):
        seeds = [derive_seed(seed, name, t) for t in range(heart_objective.n_tasks)]
        result = opt.run(heart_objective, name, cfg, seeds=seeds)
        rescored = heart_objective.evaluate_batch(result.best_points)
        assert result.best_values.tobytes() == rescored.tobytes()


class TestBudgets:
    def test_ga_budget(self):
        counter = CountingObjective(QuadraticStub())
        cfg = GaConfig(population=20, generations=15, elitism=3)
        opt.minimize_ga(counter, cfg, seeds=[0])
        assert counter.count == opt.budget("ga", cfg) == 20 + 15 * (20 - 3)

    # PSO makes one evaluate_batch call per sweep, no more: the calls are the
    # start and the sweeps.  SA's calls are the start, the calibration probes
    # and one per move while its look-ahead window stays at one move, as on
    # this hot walk.  Its one-move reference walk always scores exactly the
    # budget; SA equals it and may score more rows.
    def test_sa_budget_with_calibration(self):
        counter = CountingObjective(QuadraticStub())
        cfg = SaConfig(temperature_steps=12, moves_per_step=7)
        opt.minimize_sa(counter, cfg, seeds=[0])
        assert counter.count == opt.budget("sa", cfg) == 1 + 100 + 12 * 7
        assert counter.calls == 1 + 1 + 12 * 7

    def test_sa_budget_fixed_temperature(self):
        counter, reference = CountingObjective(QuadraticStub()), CountingObjective(QuadraticStub())
        cfg = SaConfig(initial_temperature=0.1, temperature_steps=12, moves_per_step=7)
        assert_same_result(opt.minimize_sa(counter, cfg, seeds=[0]), reference_sa(reference, cfg, [0]))
        assert reference.count == opt.budget("sa", cfg) == 1 + 12 * 7
        assert reference.calls == 1 + 12 * 7
        assert counter.count >= reference.count

    def test_pso_budget(self):
        counter = CountingObjective(QuadraticStub())
        cfg = PsoConfig(swarm=9, iterations=13)
        opt.minimize_pso(counter, cfg, seeds=[0])
        assert counter.count == opt.budget("pso", cfg) == 9 * (13 + 1)
        assert counter.calls == 1 + 13

    def test_pso_sweep_is_one_task_major_batch(self):
        # Each sweep's call holds T * swarm rows, task t's swarm in rows
        # t*swarm to t*swarm + swarm - 1, the rows of its one-task run.
        cfg = PsoConfig(swarm=4, iterations=5)
        centers = np.array([0.2, 0.5, 0.9])
        seeds = [11, 12, 13]

        def batches(stub, seeds):
            calls = []
            score = stub.evaluate_batch

            def recorded(candidates):
                calls.append(np.array(candidates))
                return score(candidates)

            stub.evaluate_batch = recorded
            opt.minimize_pso(stub, cfg, seeds=seeds)
            return calls

        together = batches(StackedStub(centers), seeds)
        assert [len(c) for c in together] == [3 * 4] * (1 + 5)
        for t in range(3):
            alone = batches(StackedStub(centers[t : t + 1]), [seeds[t]])
            for both, one in zip(together, alone, strict=True):
                np.testing.assert_array_equal(both[t * 4 : t * 4 + 4], one)

    def test_ns_budget(self):
        counter = CountingObjective(QuadraticStub())
        cfg = NsConfig(detectors=11, generations=17)
        opt.minimize_ns(counter, cfg, seeds=[0])
        assert counter.count == opt.budget("ns", cfg) == 11 * 17

    def test_budget_of_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown optimizer tag 'de'"):
            opt.budget("de", GaConfig())

    # Each task's generator is called a fixed number of times, whatever the
    # objective's values: the initial draws, then one block per generation or
    # sweep, or two per temperature step (SA).  On the flat objective NS
    # culls no detector and SA takes no uphill move.
    @pytest.mark.parametrize("flat", [False, True], ids=["ripples", "flat"])
    @pytest.mark.parametrize(
        "name,cfg,calls",
        [
            ("ga", GaConfig(population=6, generations=7), 1 + 7),
            ("ns", NsConfig(detectors=5, generations=7), 1 + 7),
            ("pso", PsoConfig(swarm=4, iterations=7), 2 + 7),
            ("sa", SaConfig(temperature_steps=7, moves_per_step=5), 1 + 1 + 2 * 7),
            ("sa", SaConfig(initial_temperature=0.1, temperature_steps=7, moves_per_step=5), 1 + 2 * 7),
        ],
    )
    def test_generator_calls_per_task(self, name, cfg, calls, flat, monkeypatch):
        spies = []

        def spy_generators(obj, seeds):
            spies.extend(SpyGenerator(s) for s in seeds)
            return spies

        monkeypatch.setattr(opt, "_generators", spy_generators)
        stub = StackedStub(np.full(3, 0.5))
        if flat:
            stub.evaluate_batch = lambda candidates: np.zeros(len(candidates))
        opt.run(stub, name, cfg, seeds=[1, 2, 3])
        assert [spy.calls for spy in spies] == [calls] * 3


class TestGa:
    def test_decode_endpoints(self):
        zeros = np.zeros((1, 16), dtype=np.int8)
        top = np.zeros((1, 16), dtype=np.int8)
        top[0, 0] = 1  # Gray code of 2^16 - 1
        assert opt._decode(zeros, 16)[0] == 0.0
        assert opt._decode(top, 16)[0] == 1.0

    def test_decode_fixed_point(self):
        bits = np.zeros((1, 8), dtype=np.int8)
        bits[0, -1] = 1  # Gray code of 1
        assert opt._decode(bits, 8)[0] == 1.0 / 255.0
        bits[0, -2] = 1  # Gray code 011 is 2
        assert opt._decode(bits, 8)[0] == 2.0 / 255.0

    def test_decode_neighbours_one_flip_apart(self):
        codes = np.array([[(g >> (7 - j)) & 1 for j in range(8)] for g in range(256)], dtype=np.int8)
        values = opt._decode(codes, 8)
        order = np.argsort(values)
        np.testing.assert_array_equal(values[order], np.arange(256) / 255.0)
        assert (np.abs(np.diff(codes[order], axis=0)).sum(axis=1) == 1).all()

    def test_decode_leading_axes(self):
        rng = np.random.default_rng(0)
        chromosomes = rng.integers(0, 2, size=(3, 4, 5), dtype=np.int8)
        stacked = opt._decode(chromosomes, 5)
        assert stacked.shape == (3, 4)
        np.testing.assert_array_equal(stacked[1], opt._decode(chromosomes[1], 5))

    def test_decode_makes_no_int64_copy_of_the_chromosomes(self):
        # Heart-shaped GA: 67 records, 49 children of 16 bits.  The packed
        # codes, their shifted copy and the values are three (67, 49) arrays
        # of 8 bytes; an int64 copy of the chromosomes alone is 16 times one.
        chromosomes = np.random.default_rng(0).integers(0, 2, size=(67, 49, 16), dtype=np.int8)
        values, peak = traced_peak(lambda: opt._decode(chromosomes, 16))
        assert values.shape == (67, 49)
        assert peak < 4 * values.nbytes

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_decode_equals_reference(self, data):
        bits = data.draw(st.integers(1, 53), label="bits")
        lead = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=2), label="leading axes")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        chromosomes = rng.integers(0, 2, size=(*lead, bits), dtype=np.int8)
        chromosomes[(0,) * len(lead)] = data.draw(st.sampled_from([0, 1]), label="corner")
        decoded = opt._decode(chromosomes, bits)
        expected = reference_decode(chromosomes, bits)
        assert decoded.dtype == expected.dtype == np.float64
        np.testing.assert_array_equal(decoded, expected)

    def test_grid_verified_1d(self):
        obj = Bimodal1D()
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
        opt.minimize_ga(counter, GaConfig(generations=5), seeds=[1])
        assert counter.count == 50 + 5 * 49


class TestSa:
    def test_zero_temperature_is_strict_descent(self):
        cfg = SaConfig(initial_temperature=1e-12)
        moves = []
        result = opt.minimize_sa(Bimodal1D(), cfg, seeds=[7])
        assert_same_result(result, reference_sa(Bimodal1D(), cfg, [7], accepted=[moves]))
        rises = [rise for accepted, rise in moves if accepted]
        assert len(rises) >= 1
        assert max(rises) <= 0

    @pytest.mark.filterwarnings("error")
    def test_greedy_once_temperature_underflows(self):
        # Geometric cooling from 1e-300 by 0.1 reaches T = 0.0 after a few
        # dozen of the 400 steps; from there on SA must keep running and
        # accept no uphill move.
        cfg = SaConfig(initial_temperature=1e-300, cooling_factor=0.1, temperature_steps=400)
        temperature, cold_steps = cfg.initial_temperature, 0
        for _ in range(cfg.temperature_steps):
            temperature *= cfg.cooling_factor
            cold_steps += temperature == 0.0
        assert cold_steps > 300
        counter, reference, moves = CountingObjective(QuadraticStub()), CountingObjective(QuadraticStub()), []
        result = opt.minimize_sa(counter, cfg, seeds=[0])
        assert_same_result(result, reference_sa(reference, cfg, [0], accepted=[moves]))
        assert reference.count == reference.calls == 1 + 400 * 20
        # The greedy walk's window opens.
        assert counter.calls < 400 * 20
        rises = [rise for accepted, rise in moves if accepted]
        assert len(rises) >= 1
        assert max(rises) <= 0

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


class Slope:
    """f(x) = x on [0, 1]: a cold walk slides to 0.0 and stays there."""

    n_tasks = 1

    def evaluate_batch(self, candidates):
        return np.array(candidates, dtype=float)


class TestSaLookAhead:
    """SA scores a window of its next moves in one call when the step before
    changed few states; its walk stays the one-move reference walk's."""

    def test_hot_walk_does_not_look_ahead(self, heart_objective):
        counter = CountingObjective(heart_objective)
        seeds = [derive_seed(0, "sa", t) for t in range(heart_objective.n_tasks)]
        opt.minimize_sa(counter, SaConfig(), seeds=seeds)
        assert counter.count == heart_objective.n_tasks * opt.budget("sa", SaConfig())

    def test_cold_walk_equals_reference_in_fewer_calls(self, fire_objective):
        cfg = SaConfig(initial_temperature=1e-6, temperature_steps=200)
        counter, reference = CountingObjective(fire_objective), CountingObjective(fire_objective)
        seeds = [derive_seed(0, "sa", t) for t in range(fire_objective.n_tasks)]
        assert fire_objective.n_tasks == 16
        assert_same_result(opt.minimize_sa(counter, cfg, seeds=seeds), reference_sa(reference, cfg, seeds))
        assert reference.calls == 1 + 200 * 20
        assert counter.calls < reference.calls / 2

    def test_candidate_clipped_onto_its_state_does_not_close_the_window(self):
        # Once at 0.0 the walk accepts each candidate clipped back onto 0.0,
        # which leaves its state as it is, and rejects every other.
        cfg = SaConfig(initial_temperature=1e-12, temperature_steps=30, neighbor_sigma=0.9)
        counter, moves = CountingObjective(Slope()), []
        result = opt.minimize_sa(counter, cfg, seeds=[3])
        assert_same_result(result, reference_sa(Slope(), cfg, [3], accepted=[moves]))
        assert result.best_points[0] == 0.0
        assert sum(accepted and rise == 0.0 for accepted, rise in moves[20:]) > 100
        assert counter.calls < 2 * cfg.temperature_steps


class TestPso:
    def test_fixed_point_at_optimum(self, monkeypatch):
        # Both particles start on the optimum with zero velocity: pbest and
        # gbest coincide with the position, so the velocity update is zero.
        start = np.array([0.3, 0.3])
        cfg = PsoConfig(swarm=2, iterations=50)
        monkeypatch.setattr(opt, "_generators", pso_started_at((start, np.zeros(2))))
        result = opt.minimize_pso(QuadraticStub(), cfg, seeds=[0])
        assert result.best_points[0] == 0.3
        assert result.best_values[0] == 0.0

    def test_velocity_clamped(self):
        # With a huge attraction, positions still stay inside the box.
        cfg = PsoConfig(swarm=5, iterations=30, phi1=10.0, phi2=10.0)
        result = opt.minimize_pso(Bimodal1D(), cfg, seeds=[2])
        assert (result.best_points >= 0).all() and (result.best_points <= 1).all()

    def test_grid_verified_1d(self):
        obj = Bimodal1D()
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
        assert sizes == [13] * 9

    def test_never_beats_exhaustive_grid(self):
        obj = Bimodal1D()
        grid = np.linspace(0, 1, 10001)
        grid_vals = [obj.evaluate(g) for g in grid]
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
        counter = CountingObjective(QuadraticStub())
        opt.run(counter, "ns", seeds=[0])
        assert counter.count == 50 * 100


class TestConfigValidation:
    def test_ga_bounds(self):
        with pytest.raises(ValueError):
            GaConfig(population=1)
        with pytest.raises(ValueError):
            GaConfig(elitism=50, population=50)
        with pytest.raises(ValueError):
            GaConfig(crossover_prob=1.5)
        # Wider fixed-point values would not decode exactly in float64.
        GaConfig(bits_per_variable=53)
        with pytest.raises(ValueError, match="bits_per_variable"):
            GaConfig(bits_per_variable=54)

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


class SpyGenerator:
    """A seeded numpy generator that counts the calls made to it."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


class ScriptedGenerator:
    """A seeded numpy generator whose first ``uniform`` calls return the
    ``scripted`` arrays, in order, without drawing."""

    def __init__(self, seed, scripted):
        self._rng = np.random.default_rng(seed)
        self._scripted = list(scripted)

    def uniform(self, low, high, size):
        if not self._scripted:
            return self._rng.uniform(low, high, size)
        out = np.array(self._scripted.pop(0), dtype=float)
        assert out.shape == (size,)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def pso_started_at(initial):
    """A stand-in for ``opt._generators``: every task's PSO starts from the
    (positions, velocities) pair ``initial``, each (swarm,), and then draws
    from its own seed."""
    return lambda obj, seeds: [ScriptedGenerator(seed, initial) for seed in seeds]


class RecordingObjective:
    """Wrap an objective; keep a copy of every batch it scores, with the values."""

    def __init__(self, inner):
        self.inner = inner
        self.n_tasks = inner.n_tasks
        self.calls = []

    def evaluate_batch(self, candidates):
        candidates = np.array(candidates, dtype=float)
        values = self.inner.evaluate_batch(candidates)
        self.calls.append((candidates, np.array(values)))
        return values

    def task_rows(self, t):
        """Task t's (candidate, value) rows over all calls, in order, as bytes."""
        for candidates, values in self.calls:
            k = len(candidates) // self.n_tasks
            rows = slice(t * k, t * k + k)
            yield from ((c.tobytes(), v.tobytes()) for c, v in zip(candidates[rows], values[rows]))


class StackedStub:
    """T tasks on [0, 1], each a bowl with ripples around its own center.

    Only elementwise arithmetic, so a candidate scores the same in any
    batch.  Counts the candidates it evaluates.
    """

    def __init__(self, centers):
        self.centers = np.asarray(centers, dtype=float)
        self.n_tasks = self.centers.size
        self.rows = 0

    def evaluate_batch(self, candidates):
        c = np.asarray(candidates, dtype=float)
        self.rows += c.size
        centers = np.repeat(self.centers, c.size // self.n_tasks)
        d = c - centers
        ripple = (8.0 * c + centers) % 1.0
        return d * d + 0.05 * ripple * (1.0 - ripple)


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
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        centers = rng.uniform(0.0, 1.0, size=n_tasks)
        seeds = [int(s) for s in rng.integers(0, 2**63, size=n_tasks)]
        cfg, budget = small_config(name, data.draw)

        stub = StackedStub(centers)
        together = opt.run(stub, name, cfg, seeds=seeds)
        # Exact budgets; SA's one-move reference walk scores exactly its
        # budget, and SA equals it with the rows its look-ahead discards on top.
        if name == "sa":
            reference = StackedStub(centers)
            assert_same_result(together, reference_sa(reference, cfg, seeds))
            assert reference.rows == n_tasks * budget <= stub.rows
        else:
            assert stub.rows == n_tasks * budget
        assert together.best_points.shape == (n_tasks,)
        assert together.trace_values.shape == (together.trace_iterations.size, n_tasks)
        for t in range(n_tasks):
            alone = opt.run(StackedStub(centers[t : t + 1]), name, cfg, seeds=[seeds[t]])
            np.testing.assert_array_equal(together.best_points[t], alone.best_points[0])
            assert together.best_values[t] == alone.best_values[0]
            np.testing.assert_array_equal(together.trace_iterations, alone.trace_iterations)
            np.testing.assert_array_equal(together.trace_values[:, t], alone.trace_values[:, 0])

    # The reconstruction objective scores a row the same in any batch, so a
    # record searched alone gets, bit for bit, its row of the lockstep run.
    # SA's one-task run scores one-row passes: its start point and its moves.
    @pytest.mark.parametrize(
        "name,cfg",
        [
            ("ga", GaConfig(population=8, generations=6)),
            ("sa", SaConfig(temperature_steps=6, moves_per_step=4)),
            ("pso", PsoConfig(swarm=6, iterations=6)),
            ("ns", NsConfig(detectors=8, generations=6)),
        ],
    )
    def test_real_objective_equals_separate_one_task_runs(self, name, cfg):
        rng = np.random.default_rng(17)
        net = random_autoencoder(rng, 13, 7)
        records = rng.uniform(0.0, 1.0, size=(9, 13))
        seeds = [int(s) for s in rng.integers(0, 2**63, size=len(records))]
        together = opt.run(MissingDataObjective(net, data.make_tasks(records, 12)), name, cfg, seeds=seeds)
        for t, seed in enumerate(seeds):
            task = data.make_tasks(records[t : t + 1], 12)
            alone = opt.run(MissingDataObjective(net, task), name, cfg, seeds=[seed])
            np.testing.assert_array_equal(together.best_points[t], alone.best_points[0])
            assert together.best_values[t] == alone.best_values[0], t
            np.testing.assert_array_equal(together.trace_values[:, t], alone.trace_values[:, 0])

    def test_seed_count_must_match_tasks(self):
        with pytest.raises(ValueError, match="2 seeds"):
            opt.run(StackedStub(np.full(3, 0.5)), "ns", NsConfig(), seeds=[1, 2])
        with pytest.raises(TypeError, match="seeds"):
            opt.run(StackedStub(np.full(3, 0.5)), "ns", NsConfig())


class TestPinnedResults:
    """Each search's result on three stub tasks, recorded before the m axis
    left the minimizers: no generator draw or update may move it."""

    PINS = {
        "ga": (GaConfig(population=8, generations=6),
               [0.10009918364232853, 0.5607843137254902, 0.8757915617608911],
               [0.010019815086196914, 0.004371587850826603, 0.004830743694423399],
               "f986ee01d5d26dceb4e798b3a316bafa08e4c04254e69b2f4149dbe9446cfef5"),
        "sa": (SaConfig(temperature_steps=6, moves_per_step=4),
               [0.2314164905944852, 0.4411581102642444, 0.8804282342339231],
               [0.0034218437941102957, 0.004882790427115374, 0.003051728734272088],
               "da2e353208a99c619cded797a5b183b0e83912d4f6fd8dda59f338008998a891"),
        "pso": (PsoConfig(swarm=6, iterations=6),
                [0.21339112535382934, 0.5626322871368494, 0.9035959654519551],
                [0.004391620990948623, 0.003975662247095483, 0.005622260816055968],
                "a126c41709963e66d36708edcff4c3c64b9186110df1dab95bde54b9e6ade0ab"),
        "ns": (NsConfig(detectors=8, generations=6),
               [0.23530123166758055, 0.4536161218532765, 0.8647975870165865],
               [0.005027100427899091, 0.007766778865753792, 0.008670896496357916],
               "6917d5e44373134eb6a81b1b5e233d6588fac43d825f77a6682591be636a144c"),
    }

    @pytest.mark.parametrize("name", opt.ALGORITHM_TAGS)
    def test_result_as_recorded(self, name):
        cfg, points, values, trace_sha256 = self.PINS[name]
        result = opt.run(StackedStub([0.2, 0.5, 0.9]), name, cfg, seeds=[11, 12, 13])
        np.testing.assert_array_equal(result.best_points, points)
        np.testing.assert_array_equal(result.best_values, values)
        assert hashlib.sha256(result.trace_values.tobytes()).hexdigest() == trace_sha256


# SA, PSO and GA written from their documented semantics, one numpy
# expression per update, with none of the in-place work that cuts their
# per-step overhead.  The minimizers must match them bit for bit.

def _reference_evaluate(obj, candidates):
    return obj.evaluate_batch(candidates.reshape(-1)).reshape(candidates.shape)


def _reference_result(best_points, history):
    return opt.OptimizerResult(
        best_points=best_points,
        trace_iterations=np.arange(len(history)),
        trace_values=np.stack(history),
    )


def reference_sa(obj, cfg, seeds, accepted=None):
    """SA with one ``evaluate_batch`` call per move.  ``accepted``, when
    given, holds one list per task, which receives each move's outcome as an
    (accepted, rise) pair, rise being f(y) - f(x)."""
    rngs = [np.random.default_rng(s) for s in seeds]
    moves, sigma = cfg.moves_per_step, cfg.neighbor_sigma

    x = np.array([rng.uniform(0.0, 1.0) for rng in rngs])
    fx = obj.evaluate_batch(x)
    if cfg.initial_temperature is None:
        probes = np.stack([rng.normal(0.0, sigma, size=100) for rng in rngs])
        deltas = _reference_evaluate(obj, np.clip(x[:, None] + probes, 0.0, 1.0)) - fx[:, None]
        temperature = np.array([opt._start_temperature(d[d > 0]) for d in deltas])
    else:
        temperature = np.full(len(rngs), cfg.initial_temperature)

    best_points = x.copy()
    best_values = fx.copy()
    history = [best_values.copy()]

    for step in range(1, cfg.temperature_steps + 1):
        # Per task: the step's noise block, then its uniforms.
        blocks = [(rng.standard_normal(moves), rng.random(moves)) for rng in rngs]
        noise = np.stack([z for z, _ in blocks])
        thresholds = temperature[:, None] * np.log1p(-np.stack([u for _, u in blocks]))
        for i in range(moves):
            y = np.clip(x + sigma * noise[:, i], 0.0, 1.0)
            fy = obj.evaluate_batch(y)
            accept = thresholds[:, i] <= fx - fy
            for outcomes, outcome in zip(accepted or (), zip(accept.tolist(), (fy - fx).tolist())):
                outcomes.append(outcome)
            x[accept] = y[accept]
            fx[accept] = fy[accept]
            better = fx < best_values
            best_values[better] = fx[better]
            best_points[better] = x[better]
        temperature *= cfg.cooling_factor
        history.append(best_values.copy())

    return _reference_result(best_points, history)


def reference_pso(obj, cfg, seeds, initial=None):
    rngs = [np.random.default_rng(s) for s in seeds]
    n_tasks, swarm = len(rngs), cfg.swarm

    if initial is not None:
        positions, velocities = (np.tile(np.asarray(a, dtype=float), (n_tasks, 1)) for a in initial)
    else:
        positions = np.stack([rng.uniform(0.0, 1.0, size=swarm) for rng in rngs])
        velocities = np.stack([rng.uniform(-cfg.v_max, cfg.v_max, size=swarm) for rng in rngs])

    values = _reference_evaluate(obj, positions)
    pbest = positions.copy()
    pbest_values = values.copy()
    tasks = np.arange(n_tasks)
    g = pbest_values.argmin(axis=1)
    gbest = pbest[tasks, g]
    history = [pbest_values[tasks, g]]
    pull_scale = np.array([cfg.phi1, cfg.phi2])

    for it in range(1, cfg.iterations + 1):
        # Every particle moves from the bests as they stood before the sweep.
        pulls = np.stack([rng.random((swarm, 2)) for rng in rngs]) * pull_scale
        r1, r2 = pulls[:, :, 0], pulls[:, :, 1]
        velocities = np.clip(
            velocities + r1 * (pbest - positions) + r2 * (gbest[:, None] - positions), -cfg.v_max, cfg.v_max
        )
        positions = np.clip(positions + velocities, 0.0, 1.0)
        values = _reference_evaluate(obj, positions)
        better = values < pbest_values
        pbest_values = np.where(better, values, pbest_values)
        pbest = np.where(better, positions, pbest)
        g = pbest_values.argmin(axis=1)
        gbest = pbest[tasks, g]
        history.append(pbest_values[tasks, g])

    return _reference_result(gbest, history)


def reference_ga(obj, cfg, seeds):
    """The GA with one expression per step, reading each generation's draw
    block in its documented order."""
    rngs = [np.random.default_rng(s) for s in seeds]
    n_tasks = len(rngs)
    length, ts = cfg.bits_per_variable, cfg.tournament_size
    p_mut = cfg.mutation_prob if cfg.mutation_prob is not None else 1.0 / length
    n_children = cfg.population - cfg.elitism
    pairs = (n_children + 1) // 2
    tasks = np.arange(n_tasks)
    block = np.cumsum([0, pairs * 2 * ts, pairs, pairs, pairs * 2 * length])

    pop = np.stack([rng.integers(0, 2, size=(cfg.population, length), dtype=np.int8) for rng in rngs])
    values = _reference_evaluate(obj, reference_decode(pop, length))
    best_idx = values.argmin(axis=1)
    best_values = values[tasks, best_idx]
    best_points = reference_decode(pop[tasks, best_idx], length)
    history = [best_values.copy()]

    for gen in range(cfg.generations):
        elite_idx = np.argsort(values, axis=1, kind="stable")[:, : cfg.elitism]
        u = np.stack([rng.random(block[-1]) for rng in rngs])
        entrants = np.floor(u[:, block[0] : block[1]] * cfg.population).astype(int)
        entrants = entrants.reshape(n_tasks, pairs, 2, ts)
        crossing = u[:, block[1] : block[2]] < cfg.crossover_prob
        cut = 1 + np.floor(u[:, block[2] : block[3]] * (max(length, 2) - 1)).astype(int)
        cuts = np.where(crossing, cut, length)
        flips = (u[:, block[3] :] < p_mut).reshape(n_tasks, pairs, 2, length)
        won = values[tasks[:, None, None, None], entrants].argmin(axis=3)
        parents = pop[tasks[:, None, None], np.take_along_axis(entrants, won[..., None], 3)[..., 0]]
        first, second = parents[:, :, 0], parents[:, :, 1]
        own = np.arange(length) < cuts[..., None]
        children = np.stack([np.where(own, first, second), np.where(own, second, first)], axis=2)
        children = (children ^ flips).reshape(n_tasks, 2 * pairs, length)[:, :n_children]
        child_values = _reference_evaluate(obj, reference_decode(children, length))
        pop = np.concatenate([np.take_along_axis(pop, elite_idx[..., None], 1), children], axis=1)
        values = np.concatenate([np.take_along_axis(values, elite_idx, 1), child_values], axis=1)
        gen_best = values.argmin(axis=1)
        better = values[tasks, gen_best] < best_values
        best_values[better] = values[tasks, gen_best][better]
        best_points[better] = reference_decode(pop[tasks[better], gen_best[better]], length)
        history.append(best_values.copy())

    return _reference_result(best_points, history)


def drawn_objective(draw, rng, n_tasks):
    """The stacked stub, or a reconstruction objective on a random autoencoder."""
    if draw(st.booleans(), label="autoencoder"):
        n = max(3, 1 + draw(st.integers(1, 3), label="known"))
        net = random_autoencoder(rng, n, int(rng.integers(2, n)))
        task = data.make_tasks(rng.uniform(0, 1, size=(n_tasks, n)), int(rng.integers(0, n)))
        return MissingDataObjective(net, task)
    return StackedStub(rng.uniform(0.0, 1.0, size=n_tasks))


class TestLeanStepLoops:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_ga_equals_reference(self, data):
        n_tasks = data.draw(st.integers(1, 5), label="T")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        obj = drawn_objective(data.draw, rng, n_tasks)
        population = data.draw(st.integers(2, 10), label="population")
        cfg = GaConfig(
            population=population,
            bits_per_variable=data.draw(st.integers(1, 12), label="bits"),
            crossover_prob=data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]), label="crossover"),
            mutation_prob=data.draw(st.none() | st.floats(0.0, 1.0), label="mutation"),
            tournament_size=data.draw(st.integers(1, 4), label="tournament"),
            elitism=data.draw(st.integers(0, population - 1), label="elitism"),
            generations=data.draw(st.integers(1, 5), label="generations"),
        )
        seeds = [int(s) for s in rng.integers(0, 2**63, size=n_tasks)]
        assert_same_result(opt.minimize_ga(obj, cfg, seeds=seeds), reference_ga(obj, cfg, seeds))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_sa_equals_reference(self, data):
        n_tasks = data.draw(st.integers(1, 5), label="T")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        obj = drawn_objective(data.draw, rng, n_tasks)
        cfg = SaConfig(
            initial_temperature=data.draw(st.none() | st.floats(1e-6, 1.0), label="T0"),
            cooling_factor=data.draw(st.floats(0.5, 0.99), label="cooling"),
            temperature_steps=data.draw(st.integers(1, 6), label="steps"),
            moves_per_step=data.draw(st.integers(1, 6), label="moves"),
            neighbor_sigma=data.draw(st.floats(0.01, 0.8), label="sigma"),
        )
        seeds = [int(s) for s in rng.integers(0, 2**63, size=n_tasks)]
        recorder, reference = RecordingObjective(obj), RecordingObjective(obj)
        assert_same_result(opt.minimize_sa(recorder, cfg, seeds=seeds), reference_sa(reference, cfg, seeds))
        # Each task's candidates in the reference walk, with their values,
        # are among the rows SA scored for it, in order.
        for t in range(n_tasks):
            scored = recorder.task_rows(t)
            assert all(row in scored for row in reference.task_rows(t))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_pso_equals_reference(self, data):
        n_tasks = data.draw(st.integers(1, 5), label="T")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        obj = drawn_objective(data.draw, rng, n_tasks)
        cfg = PsoConfig(
            swarm=data.draw(st.integers(2, 6), label="swarm"),
            phi1=data.draw(st.floats(0.1, 4.0), label="phi1"),
            phi2=data.draw(st.floats(0.1, 4.0), label="phi2"),
            v_max=data.draw(st.floats(0.01, 0.6), label="v_max"),
            iterations=data.draw(st.integers(1, 5), label="iterations"),
        )
        initial = None
        if data.draw(st.booleans(), label="initial"):
            initial = (rng.uniform(0, 1, size=cfg.swarm), rng.uniform(-cfg.v_max, cfg.v_max, size=cfg.swarm))
        seeds = [int(s) for s in rng.integers(0, 2**63, size=n_tasks)]
        generators = pso_started_at(initial) if initial else opt._generators
        with mock.patch.object(opt, "_generators", generators):
            result = opt.minimize_pso(obj, cfg, seeds=seeds)
        assert_same_result(result, reference_pso(obj, cfg, seeds, initial=initial))
