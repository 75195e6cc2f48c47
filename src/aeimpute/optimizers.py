"""Derivative-free minimizers over the unit box behind one interface.

Implements a binary-encoded genetic algorithm, simulated annealing, particle
swarm optimization with velocity clamping, and a negative-selection search
that repeatedly culls the worse half of a detector set.  Every algorithm
accepts any objective exposing ``dimension``, ``evaluate(x)`` for one
candidate and ``evaluate_batch(X)`` for a (k, m) matrix of candidates, which
returns a length-k float array; all stochastic draws come from one seeded
generator per run with a fixed draw order, so a fixed seed reproduces the
result bit for bit.

Evaluation budgets are exact functions of the configuration:

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
    """Best point found, its objective value, and run accounting.

    ``trace`` holds (iteration, best-so-far value) pairs and is
    non-increasing in the value; ``best_value`` is a fresh re-evaluation of
    ``best_point``.
    """

    best_point: np.ndarray
    best_value: float
    evaluations: int
    trace: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        point = np.array(self.best_point, dtype=float)
        point.flags.writeable = False
        object.__setattr__(self, "best_point", point)
        object.__setattr__(self, "trace", tuple(self.trace))


@dataclass(frozen=True)
class GaConfig:
    population: int = 50
    bits_per_variable: int = 16
    crossover_prob: float = 0.9
    mutation_prob: float | None = None  # default resolves to 1 / (bits * m)
    tournament_size: int = 2
    elitism: int = 1
    generations: int = 100
    seed: int = 0

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
    seed: int = 0

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
    seed: int = 0

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
    seed: int = 0

    def __post_init__(self) -> None:
        if self.detectors < 2:
            raise ValueError("detectors must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")


def _finish(obj, best_point: np.ndarray, evaluations: int, trace) -> OptimizerResult:
    # Re-evaluate once through the scalar path so best_value is re-checkable.
    best_value = obj.evaluate(best_point)
    return OptimizerResult(
        best_point=best_point,
        best_value=best_value,
        evaluations=evaluations,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Genetic algorithm (binary fixed-point encoding, tournament selection)
# ---------------------------------------------------------------------------

def _decode(chromosomes: np.ndarray, m: int, bits: int) -> np.ndarray:
    """Fixed-point decode: per variable, big-endian integer / (2^bits - 1)."""
    weights = 2.0 ** np.arange(bits - 1, -1, -1)
    scale = float(2**bits - 1)
    blocks = chromosomes.reshape(chromosomes.shape[0], m, bits)
    return (blocks @ weights) / scale


def minimize_ga(obj, cfg: GaConfig | None = None) -> OptimizerResult:
    """Generational GA maximizing the negated objective.

    Chromosomes are bit strings of m * bits_per_variable bits decoding into
    [0, 1]^m.  Each generation: tournament selection on fitness, single-point
    crossover, bit-flip mutation, with the top ``elitism`` individuals carried
    over unchanged (their cached values are not re-evaluated).  Offspring are
    produced in pairs; an odd remainder discards the second child of the last
    pair after its mutation draw.
    """
    cfg = cfg or GaConfig()
    m = obj.dimension
    bits = cfg.bits_per_variable
    length = m * bits
    p_mut = cfg.mutation_prob if cfg.mutation_prob is not None else 1.0 / length
    rng = np.random.default_rng(cfg.seed)

    pop = rng.integers(0, 2, size=(cfg.population, length), dtype=np.int8)
    values = obj.evaluate_batch(_decode(pop, m, bits))
    evaluations = cfg.population

    best_idx = int(np.argmin(values))
    best_point = _decode(pop[best_idx : best_idx + 1], m, bits)[0]
    best_value = float(values[best_idx])
    trace = [(0, best_value)]

    def tournament() -> int:
        entrants = rng.integers(0, cfg.population, size=cfg.tournament_size)
        # Fitness is the negated objective, so the winner has the smallest value.
        return int(entrants[np.argmin(values[entrants])])

    for gen in range(1, cfg.generations + 1):
        elite_idx = np.argsort(values, kind="stable")[: cfg.elitism]
        children: list[np.ndarray] = []
        while len(children) < cfg.population - cfg.elitism:
            a = pop[tournament()]
            b = pop[tournament()]
            if length > 1 and rng.random() < cfg.crossover_prob:
                point = int(rng.integers(1, length))
                c1 = np.concatenate([a[:point], b[point:]])
                c2 = np.concatenate([b[:point], a[point:]])
            else:
                c1, c2 = a.copy(), b.copy()
            for child in (c1, c2):
                flip = rng.random(length) < p_mut
                child ^= flip.astype(np.int8)
            children.append(c1)
            if len(children) < cfg.population - cfg.elitism:
                children.append(c2)
        child_arr = np.array(children, dtype=np.int8)
        child_values = obj.evaluate_batch(_decode(child_arr, m, bits))
        evaluations += child_arr.shape[0]

        pop = np.concatenate([pop[elite_idx], child_arr])
        values = np.concatenate([values[elite_idx], child_values])

        gen_best = int(np.argmin(values))
        if values[gen_best] < best_value:
            best_value = float(values[gen_best])
            best_point = _decode(pop[gen_best : gen_best + 1], m, bits)[0]
        trace.append((gen, best_value))

    return _finish(obj, best_point, evaluations, trace)


# ---------------------------------------------------------------------------
# Simulated annealing (Metropolis acceptance, geometric cooling)
# ---------------------------------------------------------------------------

def _calibrate_temperature(obj, x, fx, sigma, rng) -> tuple[float, int]:
    """Start temperature from 100 probe moves off the initial point.

    Sets T so the mean uphill probe is accepted with probability 0.8; with no
    uphill probes the landscape descends everywhere seen, and a tiny
    temperature keeps the walk effectively greedy.
    """
    uphill = []
    for _ in range(100):
        probe = np.clip(x + rng.normal(0.0, sigma, size=x.size), 0.0, 1.0)
        delta = obj.evaluate(probe) - fx
        if delta > 0:
            uphill.append(delta)
    if not uphill:
        return 1e-3, 100
    return float(np.mean(uphill) / -math.log(0.8)), 100


def minimize_sa(obj, cfg: SaConfig | None = None, accepted_history: list | None = None) -> OptimizerResult:
    """Gaussian-neighborhood annealing with geometric cooling.

    Moves are accepted when they do not worsen the objective, otherwise with
    probability exp(-delta / T); the acceptance draw happens only for uphill
    moves.  ``accepted_history`` (test hook) receives the objective value of
    every accepted move.
    """
    cfg = cfg or SaConfig()
    m = obj.dimension
    rng = np.random.default_rng(cfg.seed)

    x = rng.uniform(0.0, 1.0, size=m)
    fx = obj.evaluate(x)
    evaluations = 1
    if cfg.initial_temperature is None:
        temperature, probes = _calibrate_temperature(obj, x, fx, cfg.neighbor_sigma, rng)
        evaluations += probes
    else:
        temperature = cfg.initial_temperature

    best_point = x.copy()
    best_value = fx
    trace = [(0, best_value)]

    for step in range(1, cfg.temperature_steps + 1):
        for _ in range(cfg.moves_per_step):
            y = np.clip(x + rng.normal(0.0, cfg.neighbor_sigma, size=m), 0.0, 1.0)
            fy = obj.evaluate(y)
            evaluations += 1
            delta = fy - fx
            if delta <= 0:
                accept = True
            else:
                exponent = -delta / temperature
                accept = rng.random() < (math.exp(exponent) if exponent > -745.0 else 0.0)
            if accept:
                x, fx = y, fy
                if accepted_history is not None:
                    accepted_history.append(fx)
                if fx < best_value:
                    best_value = fx
                    best_point = x.copy()
        temperature *= cfg.cooling_factor
        trace.append((step, best_value))

    return _finish(obj, best_point, evaluations, trace)


# ---------------------------------------------------------------------------
# Particle swarm (global-best topology, velocity clamping)
# ---------------------------------------------------------------------------

def minimize_pso(obj, cfg: PsoConfig | None = None, initial=None) -> OptimizerResult:
    """Swarm search: v += U(0,phi1)*(pbest - x) + U(0,phi2)*(gbest - x).

    Velocities are clamped componentwise to [-v_max, v_max] and positions to
    [0, 1].  The global best is refreshed immediately after each particle's
    evaluation, so later particles in the same sweep see earlier improvements.
    ``initial`` (test hook) is a (positions, velocities) pair, each of shape
    (swarm, m), that replaces the random initial state; the generator then
    makes no initial draws.
    """
    cfg = cfg or PsoConfig()
    m = obj.dimension
    rng = np.random.default_rng(cfg.seed)

    if initial is not None:
        positions, velocities = (np.array(a, dtype=float) for a in initial)
    else:
        positions = rng.uniform(0.0, 1.0, size=(cfg.swarm, m))
        velocities = rng.uniform(-cfg.v_max, cfg.v_max, size=(cfg.swarm, m))
    if positions.shape != (cfg.swarm, m) or velocities.shape != (cfg.swarm, m):
        raise ValueError("initial positions/velocities must have shape (swarm, m)")

    values = obj.evaluate_batch(positions)
    evaluations = cfg.swarm
    pbest = positions.copy()
    pbest_values = values.copy()
    g = int(np.argmin(pbest_values))
    gbest = pbest[g].copy()
    gbest_value = float(pbest_values[g])
    trace = [(0, gbest_value)]

    for it in range(1, cfg.iterations + 1):
        for i in range(cfg.swarm):
            pull_own = rng.uniform(0.0, cfg.phi1, size=m)
            pull_swarm = rng.uniform(0.0, cfg.phi2, size=m)
            velocities[i] = np.clip(
                velocities[i]
                + pull_own * (pbest[i] - positions[i])
                + pull_swarm * (gbest - positions[i]),
                -cfg.v_max,
                cfg.v_max,
            )
            positions[i] = np.clip(positions[i] + velocities[i], 0.0, 1.0)
            f = obj.evaluate(positions[i])
            evaluations += 1
            if f < pbest_values[i]:
                pbest_values[i] = f
                pbest[i] = positions[i].copy()
            if f < gbest_value:
                gbest_value = f
                gbest = positions[i].copy()
        trace.append((it, gbest_value))

    return _finish(obj, gbest, evaluations, trace)


# ---------------------------------------------------------------------------
# Negative selection (censor the worse half, refill at random)
# ---------------------------------------------------------------------------

def minimize_ns(obj, cfg: NsConfig | None = None) -> OptimizerResult:
    """Detector-set search: each generation eliminates every detector whose
    value lies above the set median and replaces it with a fresh uniform
    point, keeping the set size constant throughout."""
    cfg = cfg or NsConfig()
    m = obj.dimension
    rng = np.random.default_rng(cfg.seed)

    detectors = rng.uniform(0.0, 1.0, size=(cfg.detectors, m))
    evaluations = 0
    best_point: np.ndarray | None = None
    best_value = math.inf
    trace = []

    for gen in range(1, cfg.generations + 1):
        values = obj.evaluate_batch(detectors)
        evaluations += cfg.detectors
        idx = int(np.argmin(values))
        if values[idx] < best_value:
            best_value = float(values[idx])
            best_point = detectors[idx].copy()
        culled = values > np.median(values)
        n_culled = int(culled.sum())
        if n_culled:
            detectors[culled] = rng.uniform(0.0, 1.0, size=(n_culled, m))
        trace.append((gen, best_value))

    assert best_point is not None
    return _finish(obj, best_point, evaluations, trace)


_MINIMIZERS = {
    "ga": (minimize_ga, GaConfig),
    "sa": (minimize_sa, SaConfig),
    "pso": (minimize_pso, PsoConfig),
    "ns": (minimize_ns, NsConfig),
}


def run(obj, algorithm: str, config=None) -> OptimizerResult:
    """Dispatch to the minimizer named by ``algorithm`` (ga, sa, pso or ns)."""
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
    return fn(obj, config)
