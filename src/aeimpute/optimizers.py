"""Derivative-free minimizers over the unit box, run in lockstep over tasks.

Implements a Gray-coded binary genetic algorithm, simulated annealing, particle
swarm optimization with velocity clamping, and a negative-selection search
that repeatedly culls the worse half of a detector set.

An objective holds T independent tasks (say, the test records of one
experiment, which share one mask) and exposes ``n_tasks = T``, ``dimension``
(m) and ``evaluate_batch(X)``.  That call scores the rows of an (r, m)
candidate matrix read task-major, r = T * k, rows t*k to t*k + k - 1 being
task t's k candidates, and returns a length-r float array.  Every minimizer
advances all T tasks together, so each step is one ``evaluate_batch`` call
over the candidates of every task, and returns one :class:`OptimizerResult`
for all of them.

Seeds and draw order: ``minimize_*(obj, cfg, seeds=seeds)`` takes one seed
per task.  Task t draws from its own ``np.random.default_rng(seeds[t])`` in
the order of a run of that task alone, and keeps its own budget and trace.
When the objective scores each row independently of the others in its batch,
task t's part of the result is bit for bit that of a one-task run with
``seeds=[seeds[t]]``.

Evaluation budgets per task are exact functions of the configuration:

    GA   population + generations * (population - elitism)
    SA   1 + 100 (only when the start temperature is auto-calibrated)
           + temperature_steps * moves_per_step
    PSO  swarm * (iterations + 1)
    NS   detectors * generations
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ALGORITHM_TAGS = ("ga", "sa", "pso", "ns")


@dataclass(frozen=True)
class OptimizerResult:
    """Best points found for T tasks, their objective values, and run accounting.

    ``best_points`` is (T, m) and ``best_values`` (T,), a fresh
    re-evaluation of the best points.  ``evaluations`` is the budget spent
    per task.  The trace has K entries: ``trace_iterations`` (K,) labels
    them, and column t of ``trace_values`` (K, T) is task t's best-so-far
    value, non-increasing down the column.
    """

    best_points: np.ndarray
    best_values: np.ndarray
    evaluations: int
    trace_iterations: np.ndarray
    trace_values: np.ndarray

    def __post_init__(self) -> None:
        for name in ("best_points", "best_values", "trace_iterations", "trace_values"):
            array = np.array(getattr(self, name))
            array.flags.writeable = False
            object.__setattr__(self, name, array)


@dataclass(frozen=True)
class GaConfig:
    population: int = 50
    bits_per_variable: int = 16
    crossover_prob: float = 0.9
    mutation_prob: float | None = None  # default resolves to 1 / (bits * m)
    tournament_size: int = 2
    elitism: int = 1
    generations: int = 100

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.bits_per_variable < 1:
            raise ValueError("bits_per_variable must be >= 1")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must be in [0, 1]")
        if self.mutation_prob is not None and not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError("mutation_prob must be in [0, 1]")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        if not 0 <= self.elitism < self.population:
            raise ValueError("elitism must satisfy 0 <= elitism < population")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")


@dataclass(frozen=True)
class SaConfig:
    # None = calibrate the start temperature from 100 probe moves so that an
    # average uphill move is accepted with probability ~0.8.
    initial_temperature: float | None = None
    cooling_factor: float = 0.95
    temperature_steps: int = 100
    moves_per_step: int = 20
    neighbor_sigma: float = 0.1

    def __post_init__(self) -> None:
        if self.initial_temperature is not None and self.initial_temperature <= 0:
            raise ValueError("initial_temperature must be positive")
        if not 0.0 < self.cooling_factor < 1.0:
            raise ValueError("cooling_factor must be in (0, 1)")
        if self.temperature_steps < 1 or self.moves_per_step < 1:
            raise ValueError("temperature_steps and moves_per_step must be >= 1")
        if self.neighbor_sigma <= 0:
            raise ValueError("neighbor_sigma must be positive")


@dataclass(frozen=True)
class PsoConfig:
    swarm: int = 30
    phi1: float = 2.0
    phi2: float = 2.0
    v_max: float = 0.25
    iterations: int = 100

    def __post_init__(self) -> None:
        if self.swarm < 2:
            raise ValueError("swarm must be >= 2")
        if self.phi1 <= 0 or self.phi2 <= 0:
            raise ValueError("phi1 and phi2 must be positive")
        if self.v_max <= 0:
            raise ValueError("v_max must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass(frozen=True)
class NsConfig:
    detectors: int = 50
    generations: int = 100

    def __post_init__(self) -> None:
        if self.detectors < 2:
            raise ValueError("detectors must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")


def _generators(obj, seeds) -> list[np.random.Generator]:
    """One generator per task of ``obj``, seeded from ``seeds``."""
    seeds = list(seeds)
    if len(seeds) != obj.n_tasks:
        raise ValueError(f"{len(seeds)} seeds for an objective of {obj.n_tasks} tasks")
    return [np.random.default_rng(s) for s in seeds]


def _evaluate(obj, candidates: np.ndarray) -> np.ndarray:
    """Score a (T, k, m) stack of candidates in one batch; returns (T, k)."""
    n_tasks, k, m = candidates.shape
    return obj.evaluate_batch(candidates.reshape(n_tasks * k, m)).reshape(n_tasks, k)


def _finish(obj, best_points: np.ndarray, evaluations: int, history, first_iteration: int = 0):
    """The result from the (T, m) best points and the best-so-far history.

    ``history`` holds one length-T array of best values per iteration,
    counted from ``first_iteration``.  All T best points are re-evaluated in
    one batch so that each best value is re-checkable.
    """
    return OptimizerResult(
        best_points=best_points,
        best_values=_evaluate(obj, best_points[:, None])[:, 0],
        evaluations=evaluations,
        trace_iterations=np.arange(first_iteration, first_iteration + len(history)),
        trace_values=np.stack(history),
    )


# ---------------------------------------------------------------------------
# Genetic algorithm (Gray-coded fixed-point encoding, tournament selection)
# ---------------------------------------------------------------------------

def _decode(chromosomes: np.ndarray, m: int, bits: int) -> np.ndarray:
    """Fixed-point decode of (..., m * bits) bit strings into (..., m) points.

    Per variable, the integer whose big-endian Gray code is its bits, divided
    by 2^bits - 1.  Neighbouring values are one bit flip apart, so mutation
    can always step to them; in plain binary, 0.5 - 2^-bits and 0.5 differ in
    every bit.
    """
    weights = 2.0 ** np.arange(bits - 1, -1, -1)
    scale = float(2**bits - 1)
    blocks = chromosomes.reshape(*chromosomes.shape[:-1], m, bits)
    return (np.bitwise_xor.accumulate(blocks, axis=-1) @ weights) / scale


def _ga_draws(rng: np.random.Generator, cfg: GaConfig, pairs: int, length: int, p_mut: float):
    """One task's draws for one generation of ``pairs`` offspring pairs.

    Returns the tournament entrants (pairs, 2, tournament_size), the crossover
    cut of each pair (length when the pair does not cross), and the mutation
    flips (pairs, 2, length), drawn in that order.
    """
    entrants = rng.integers(0, cfg.population, size=(pairs, 2, cfg.tournament_size))
    crossing = rng.random(pairs) < cfg.crossover_prob
    cuts = np.where(crossing, rng.integers(1, max(length, 2), size=pairs), length)
    flips = rng.random((pairs, 2, length)) < p_mut
    return entrants, cuts, flips


def minimize_ga(obj, cfg: GaConfig | None = None, *, seeds):
    """Generational GA maximizing the negated objective.

    Chromosomes are Gray-coded bit strings of m * bits_per_variable bits
    decoding into [0, 1]^m.  Each generation: tournament selection on
    fitness, single-point crossover, bit-flip mutation, with the top
    ``elitism`` individuals carried over unchanged (their cached values are
    not re-evaluated).  Offspring are produced in pairs; an odd remainder
    discards the second child of the last pair after its mutation draw.
    Each task draws a generation's entrants, cuts and flips as three arrays.
    """
    cfg = cfg or GaConfig()
    rngs = _generators(obj, seeds)
    n_tasks, m = len(rngs), obj.dimension
    bits = cfg.bits_per_variable
    length = m * bits
    p_mut = cfg.mutation_prob if cfg.mutation_prob is not None else 1.0 / length
    n_children = cfg.population - cfg.elitism
    pairs = (n_children + 1) // 2
    tasks = np.arange(n_tasks)

    shape = (cfg.population, length)
    pop = np.stack([rng.integers(0, 2, size=shape, dtype=np.int8) for rng in rngs])
    values = _evaluate(obj, _decode(pop, m, bits))
    evaluations = cfg.population

    best_idx = values.argmin(axis=1)
    best_values = values[tasks, best_idx]
    best_points = _decode(pop[tasks, best_idx], m, bits)
    history = [best_values.copy()]

    for gen in range(1, cfg.generations + 1):
        elite_idx = np.argsort(values, axis=1, kind="stable")[:, : cfg.elitism]
        draws = [_ga_draws(rng, cfg, pairs, length, p_mut) for rng in rngs]
        entrants, cuts, flips = (np.stack(d) for d in zip(*draws))
        # Fitness is the negated objective, so each tournament goes to the
        # entrant with the smallest value (the first one on ties).
        won = values[tasks[:, None, None, None], entrants].argmin(axis=3)
        parents = pop[tasks[:, None, None], np.take_along_axis(entrants, won[..., None], 3)[..., 0]]
        first, second = parents[:, :, 0], parents[:, :, 1]
        own = np.arange(length) < cuts[..., None]  # genes a child takes from its own parent
        children = np.stack([np.where(own, first, second), np.where(own, second, first)], axis=2)
        children ^= flips.astype(np.int8)
        children = children.reshape(n_tasks, 2 * pairs, length)[:, :n_children]
        child_values = _evaluate(obj, _decode(children, m, bits))
        evaluations += n_children

        pop = np.concatenate([np.take_along_axis(pop, elite_idx[..., None], 1), children], axis=1)
        values = np.concatenate([np.take_along_axis(values, elite_idx, 1), child_values], axis=1)

        gen_best = values.argmin(axis=1)
        better = values[tasks, gen_best] < best_values
        best_values[better] = values[tasks, gen_best][better]
        best_points[better] = _decode(pop[tasks[better], gen_best[better]], m, bits)
        history.append(best_values.copy())

    return _finish(obj, best_points, evaluations, history)


# ---------------------------------------------------------------------------
# Simulated annealing (Metropolis acceptance, geometric cooling)
# ---------------------------------------------------------------------------

def _start_temperature(uphill: np.ndarray) -> float:
    """Temperature at which the mean uphill probe is accepted with probability 0.8.

    With no uphill probes the landscape descends everywhere seen, and a tiny
    temperature keeps the walk effectively greedy.
    """
    if not uphill.size:
        return 1e-3
    return float(np.mean(uphill) / -math.log(0.8))


def minimize_sa(obj, cfg: SaConfig | None = None, *, seeds, accepted_history=None):
    """Gaussian-neighborhood annealing with geometric cooling.

    Without a fixed ``initial_temperature`` each task calibrates its own from
    100 probe moves off its start point.  Moves are accepted when they do not
    worsen the objective, otherwise with probability exp(-delta / T); the
    acceptance draw happens only for uphill moves.  ``accepted_history``
    (test hook) holds one list per task, which receives the objective value
    of every move that task accepts.
    """
    cfg = cfg or SaConfig()
    rngs = _generators(obj, seeds)
    m = obj.dimension
    sigma = cfg.neighbor_sigma

    x = np.stack([rng.uniform(0.0, 1.0, size=m) for rng in rngs])
    fx = _evaluate(obj, x[:, None])[:, 0]
    evaluations = 1
    if cfg.initial_temperature is None:
        probes = np.stack([rng.normal(0.0, sigma, size=(100, m)) for rng in rngs])
        deltas = _evaluate(obj, np.clip(x[:, None] + probes, 0.0, 1.0)) - fx[:, None]
        temperature = np.array([_start_temperature(d[d > 0]) for d in deltas])
        evaluations += 100
    else:
        temperature = np.full(len(rngs), cfg.initial_temperature)

    best_points = x.copy()
    best_values = fx.copy()
    history = [best_values.copy()]
    noise = np.empty_like(x)

    for step in range(1, cfg.temperature_steps + 1):
        for _ in range(cfg.moves_per_step):
            # sigma * N(0, 1) is the value rng.normal(0, sigma) draws.
            for rng, row in zip(rngs, noise):
                rng.standard_normal(out=row)
            y = np.clip(x + sigma * noise, 0.0, 1.0)
            fy = _evaluate(obj, y[:, None])[:, 0]
            delta = fy - fx
            accept = delta <= 0
            for t in np.flatnonzero(~accept):
                exponent = -delta[t] / temperature[t]
                accept[t] = rngs[t].random() < (math.exp(exponent) if exponent > -745.0 else 0.0)
            x[accept] = y[accept]
            fx[accept] = fy[accept]
            if accepted_history is not None:
                for t in np.flatnonzero(accept):
                    accepted_history[t].append(float(fx[t]))
            better = fx < best_values
            best_values[better] = fx[better]
            best_points[better] = x[better]
        evaluations += cfg.moves_per_step
        temperature *= cfg.cooling_factor
        history.append(best_values.copy())

    return _finish(obj, best_points, evaluations, history)


# ---------------------------------------------------------------------------
# Particle swarm (global-best topology, velocity clamping)
# ---------------------------------------------------------------------------

def minimize_pso(obj, cfg: PsoConfig | None = None, *, seeds, initial=None):
    """Swarm search: v += U(0,phi1)*(pbest - x) + U(0,phi2)*(gbest - x).

    Velocities are clamped componentwise to [-v_max, v_max] and positions to
    [0, 1].  Particle i moves in every task at once, and each task's global
    best is refreshed right after that evaluation, so later particles in the
    same sweep see earlier improvements.  Each sweep draws a task's
    (swarm, 2, m) block of pull factors at once, in the order of per-particle
    U(0,phi1) then U(0,phi2) draws.  ``initial`` (test hook) is a
    (positions, velocities) pair, each of shape (swarm, m), that replaces
    every task's random initial state; the generators then make no initial
    draws.
    """
    cfg = cfg or PsoConfig()
    rngs = _generators(obj, seeds)
    n_tasks, m, swarm = len(rngs), obj.dimension, cfg.swarm

    if initial is not None:
        if any(np.shape(a) != (swarm, m) for a in initial):
            raise ValueError("initial positions/velocities must have shape (swarm, m)")
        positions, velocities = (np.tile(np.asarray(a, dtype=float), (n_tasks, 1, 1)) for a in initial)
    else:
        positions = np.stack([rng.uniform(0.0, 1.0, size=(swarm, m)) for rng in rngs])
        velocities = np.stack([rng.uniform(-cfg.v_max, cfg.v_max, size=(swarm, m)) for rng in rngs])

    values = _evaluate(obj, positions)
    evaluations = swarm
    pbest = positions.copy()
    pbest_values = values.copy()
    tasks = np.arange(n_tasks)
    g = pbest_values.argmin(axis=1)
    gbest = pbest[tasks, g]
    gbest_values = pbest_values[tasks, g]
    history = [gbest_values.copy()]
    pull_scale = np.array([[cfg.phi1], [cfg.phi2]])

    for it in range(1, cfg.iterations + 1):
        pulls = np.stack([rng.random((swarm, 2, m)) for rng in rngs]) * pull_scale
        for i in range(swarm):
            x = positions[:, i]
            velocities[:, i] = np.clip(
                velocities[:, i]
                + pulls[:, i, 0] * (pbest[:, i] - x)
                + pulls[:, i, 1] * (gbest - x),
                -cfg.v_max,
                cfg.v_max,
            )
            x[:] = np.clip(x + velocities[:, i], 0.0, 1.0)
            f = _evaluate(obj, x[:, None])[:, 0]
            better = f < pbest_values[:, i]
            pbest_values[better, i] = f[better]
            pbest[better, i] = x[better]
            better = f < gbest_values
            gbest_values[better] = f[better]
            gbest[better] = x[better]
        evaluations += swarm
        history.append(gbest_values.copy())

    return _finish(obj, gbest, evaluations, history)


# ---------------------------------------------------------------------------
# Negative selection (censor the worse half, refill at random)
# ---------------------------------------------------------------------------

def minimize_ns(obj, cfg: NsConfig | None = None, *, seeds):
    """Detector-set search: each generation eliminates every detector whose
    value lies above the set median and replaces it with a fresh uniform
    point, keeping the set size constant throughout."""
    cfg = cfg or NsConfig()
    rngs = _generators(obj, seeds)
    n_tasks, m = len(rngs), obj.dimension
    tasks = np.arange(n_tasks)

    detectors = np.stack([rng.uniform(0.0, 1.0, size=(cfg.detectors, m)) for rng in rngs])
    best_points = np.zeros((n_tasks, m))
    best_values = np.full(n_tasks, math.inf)
    history = []

    for gen in range(1, cfg.generations + 1):
        values = _evaluate(obj, detectors)
        idx = values.argmin(axis=1)
        better = values[tasks, idx] < best_values
        best_values[better] = values[tasks, idx][better]
        best_points[better] = detectors[tasks[better], idx[better]]
        culled = values > np.median(values, axis=1, keepdims=True)
        for t in np.flatnonzero(culled.any(axis=1)):
            detectors[t, culled[t]] = rngs[t].uniform(0.0, 1.0, size=(int(culled[t].sum()), m))
        history.append(best_values.copy())

    return _finish(obj, best_points, cfg.detectors * cfg.generations, history, first_iteration=1)


_MINIMIZERS = {
    "ga": (minimize_ga, GaConfig),
    "sa": (minimize_sa, SaConfig),
    "pso": (minimize_pso, PsoConfig),
    "ns": (minimize_ns, NsConfig),
}


def run(obj, algorithm: str, config=None, *, seeds) -> OptimizerResult:
    """Dispatch to the minimizer named by ``algorithm`` (ga, sa, pso or ns).

    ``seeds`` holds one seed per task of ``obj`` (see the module docstring).
    """
    try:
        fn, cfg_type = _MINIMIZERS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown optimizer tag {algorithm!r}; expected one of {ALGORITHM_TAGS}"
        ) from None
    if config is not None and not isinstance(config, cfg_type):
        raise TypeError(
            f"{algorithm} expects a {cfg_type.__name__}, got {type(config).__name__}"
        )
    return fn(obj, config, seeds=seeds)
