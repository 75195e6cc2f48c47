"""Derivative-free minimizers over the unit box, run in lockstep over tasks.

Implements a Gray-coded binary genetic algorithm, simulated annealing, particle
swarm optimization with velocity clamping, and a negative-selection search
that repeatedly culls the worse half of a detector set.

An objective holds T independent tasks (say, the test records of one
experiment) and exposes ``n_tasks = T`` and ``evaluate_batch(x)``.  That
call scores a task-major vector of r = T * k candidate values in [0, 1],
entries t*k to t*k + k - 1 being task t's k candidates, and returns a
length-r float array.  Every minimizer advances all T tasks together, so
each step is one ``evaluate_batch`` call over the candidates of every task,
and returns one :class:`OptimizerResult` for all of them.  Within a task SA
is sequential, but a move that changes no task's state leaves the next
move's start as it was, so one call scores a window of a step's next moves
from the current states (:func:`minimize_sa`).  PSO moves its whole swarm
from the bests of the previous sweep, so a sweep is one call of T * swarm
rows.

Seeds and draw order: ``minimize_*(obj, cfg, seeds=seeds)`` takes one seed
per task.  Task t draws from its own ``np.random.default_rng(seeds[t])`` in
the order of a run of that task alone, and keeps its own budget and trace.
When the objective scores each row independently of the others in its batch,
as :class:`~aeimpute.objective.MissingDataObjective` does, task t's part of
the result is bit for bit that of a one-task run with ``seeds=[seeds[t]]``.
GA, PSO and NS call each task's generator a fixed number of times, whatever
the objective's values: GA once for its initial population and once per
generation for one block holding that generation's tournament entrants,
crossing tests, cuts and flips; NS once for its initial detectors and once
per generation for a full block of fresh points, of which only the culled
detectors' slots are used; PSO twice for its initial positions and
velocities and once per sweep for the pull factors; SA once for its start
point, once for its calibration probes (when it calibrates), and twice per
temperature step, for the moves_per_step values of noise and then the
moves_per_step acceptance uniforms.  The blocks are then read for all T
tasks at once.

Evaluation budgets per task are exact functions of the configuration
(:func:`budget`): GA, PSO and NS score exactly ``budget()`` rows per task,
and SA's walk uses exactly ``budget()`` of the rows its look-ahead scores.

    GA   population + generations * (population - elitism)
    SA   1 + 100 (only when the start temperature is auto-calibrated)
           + temperature_steps * moves_per_step
    PSO  swarm * (iterations + 1)
    NS   detectors * generations
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import inf

import numpy as np

from .data import check_settings

# Probe moves SA scores to calibrate its start temperature.
_CALIBRATION_PROBES = 100


@dataclass(frozen=True, eq=False)
class OptimizerResult:
    """Best points found for T tasks and the trace of their objective values.

    ``best_points`` is (T,).  The trace has K entries: ``trace_iterations``
    (K,) labels them, and column t of ``trace_values`` (K, T) is task t's
    best-so-far value, non-increasing down the column.  A run uses exactly
    ``budget()`` evaluations per task (the module docstring's table).
    """

    best_points: np.ndarray
    trace_iterations: np.ndarray
    trace_values: np.ndarray

    def __post_init__(self) -> None:
        for name in ("best_points", "trace_iterations", "trace_values"):
            array = np.array(getattr(self, name))
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def best_values(self) -> np.ndarray:
        """(T,) values of the best points, as the search scored them."""
        return self.trace_values[-1]


@dataclass(frozen=True)
class GaConfig:
    """GA settings, checked by :func:`~aeimpute.data.check_settings`; past 53 bits :func:`_decode` is inexact."""

    population: int = 50
    bits_per_variable: int = 16
    crossover_prob: float = 0.9
    mutation_prob: float | None = None  # default resolves to 1 / bits
    tournament_size: int = 2
    elitism: int = 1
    generations: int = 100

    def __post_init__(self) -> None:
        check_settings(self, population=[2, inf], bits_per_variable=[1, 53], crossover_prob=[0, 1],
                       mutation_prob=[0, 1], tournament_size=[1, inf], elitism=[0, lambda c: c.population - 1],
                       generations=[1, inf])


@dataclass(frozen=True)
class SaConfig:
    """SA settings, checked as :class:`GaConfig`'s; :func:`minimize_sa` calibrates an unset start temperature."""

    initial_temperature: float | None = None
    cooling_factor: float = 0.95
    temperature_steps: int = 100
    moves_per_step: int = 20
    neighbor_sigma: float = 0.1

    def __post_init__(self) -> None:
        check_settings(self, initial_temperature=(0, inf), cooling_factor=(0, 1), temperature_steps=[1, inf],
                       moves_per_step=[1, inf], neighbor_sigma=(0, inf))


@dataclass(frozen=True)
class PsoConfig:
    """PSO settings, checked as :class:`GaConfig`'s."""

    swarm: int = 30
    phi1: float = 2.0
    phi2: float = 2.0
    v_max: float = 0.25
    iterations: int = 100

    def __post_init__(self) -> None:
        check_settings(self, swarm=[2, inf], phi1=(0, inf), phi2=(0, inf), v_max=(0, inf), iterations=[1, inf])


@dataclass(frozen=True)
class NsConfig:
    """Negative-selection (NS) settings, checked as :class:`GaConfig`'s."""

    detectors: int = 50
    generations: int = 100

    def __post_init__(self) -> None:
        check_settings(self, detectors=[2, inf], generations=[1, inf])


def _generators(obj, seeds) -> list[np.random.Generator]:
    """One generator per task of ``obj``, seeded from ``seeds``."""
    seeds = list(seeds)
    if len(seeds) != obj.n_tasks:
        raise ValueError(f"{len(seeds)} seeds for an objective of {obj.n_tasks} tasks")
    return [np.random.default_rng(s) for s in seeds]


def _evaluate(obj, candidates: np.ndarray) -> np.ndarray:
    """Score a (T, k) block of candidates in one batch; returns (T, k)."""
    return obj.evaluate_batch(candidates.reshape(-1)).reshape(candidates.shape)


# ---------------------------------------------------------------------------
# Genetic algorithm (Gray-coded fixed-point encoding, tournament selection)
# ---------------------------------------------------------------------------

def _decode(chromosomes: np.ndarray, bits: int) -> np.ndarray:
    """Fixed-point decode of (..., bits) bit strings into (...) values.

    The integer whose big-endian Gray code is the bits, divided by
    2^bits - 1.  Neighbouring values are one bit flip apart, so mutation
    can always step to them; in plain binary, 0.5 - 2^-bits and 0.5 differ in
    every bit.  Each code is packed into one integer and undone by a
    prefix-xor (shifts 1, 2, 4, ...); up to 53 bits the integer and its
    quotient are exact in float64.  ``einsum`` packs the codes without an
    int64 copy of the chromosomes, which ``@`` makes.
    """
    code = np.einsum("...i,i->...", chromosomes, 1 << np.arange(bits - 1, -1, -1, dtype=np.int64))
    shift = 1
    while shift < bits:
        code ^= code >> shift
        shift *= 2
    return code / float(2**bits - 1)


def minimize_ga(obj, cfg: GaConfig | None = None, *, seeds):
    """Generational GA maximizing the negated objective.

    Chromosomes are Gray-coded strings of bits_per_variable bits decoding
    into [0, 1].  Each generation: tournament selection on fitness,
    single-point crossover, bit-flip mutation, with the top ``elitism``
    individuals carried over unchanged (their cached values are not
    re-evaluated).  Offspring are produced in pairs; an odd remainder
    discards the second child of the last pair after its mutation draw.

    Each task draws its initial population in one call, then one
    ``random(K)`` block per generation, K = pairs * (2 * tournament_size + 2
    + 2 * length), read in order as the tournament entrants
    floor(u * population), the crossing tests u < crossover_prob, the cuts
    1 + floor(u * (max(length, 2) - 1)) and the flips u < mutation_prob.
    """
    cfg = cfg or GaConfig()
    rngs = _generators(obj, seeds)
    n_tasks, length = len(rngs), cfg.bits_per_variable
    p_mut = cfg.mutation_prob if cfg.mutation_prob is not None else 1.0 / length
    n_children = cfg.population - cfg.elitism
    pairs = (n_children + 1) // 2
    tasks = np.arange(n_tasks)
    # Column ranges of a generation's draw block: entrants, crossing, cuts, flips.
    cross_at = pairs * 2 * cfg.tournament_size
    cut_at = cross_at + pairs
    flip_at = cut_at + pairs
    draws = np.empty((n_tasks, flip_at + pairs * 2 * length))
    first_rows = (tasks * cfg.population)[:, None]

    shape = (cfg.population, length)
    pop = np.stack([rng.integers(0, 2, size=shape, dtype=np.int8) for rng in rngs])
    values = _evaluate(obj, _decode(pop, length))

    best_idx = values.argmin(axis=1)
    best_values = values[tasks, best_idx]
    best_points = _decode(pop[tasks, best_idx], length)
    history = [best_values.copy()]

    for gen in range(1, cfg.generations + 1):
        # Individuals are addressed as rows of the (T * population, length) stack.
        elites = np.argsort(values, axis=1, kind="stable")[:, : cfg.elitism] + first_rows
        for rng, row in zip(rngs, draws):
            rng.random(out=row)
        entrants = (draws[:, :cross_at] * cfg.population).astype(np.intp) + first_rows
        entrants = entrants.reshape(n_tasks, pairs, 2, cfg.tournament_size)
        # Fitness is the negated objective, so each tournament goes to the
        # entrant with the smallest value (the first one on ties).
        won = values.reshape(-1)[entrants].argmin(axis=-1)[..., None]
        winners = np.take_along_axis(entrants, won, axis=-1)[..., 0]
        children = pop.reshape(-1, length)[winners]  # (T, pairs, 2, length), the parents for now
        cuts = 1 + (draws[:, cut_at:flip_at] * (max(length, 2) - 1)).astype(np.intp)
        cuts[draws[:, cross_at:cut_at] >= cfg.crossover_prob] = length
        # A child keeps its own parent's genes before the cut and takes the
        # other parent's from the cut on.
        swapped = children[:, :, 0] ^ children[:, :, 1]
        swapped &= np.arange(length) >= cuts[..., None]
        children ^= swapped[:, :, None]
        children ^= (draws[:, flip_at:] < p_mut).reshape(n_tasks, pairs, 2, length)
        children = children.reshape(n_tasks, 2 * pairs, length)[:, :n_children]
        child_values = _evaluate(obj, _decode(children, length))

        pop = np.concatenate([pop.reshape(-1, length)[elites], children], axis=1)
        values = np.concatenate([values.reshape(-1)[elites], child_values], axis=1)

        gen_best = values.argmin(axis=1)
        better = values[tasks, gen_best] < best_values
        best_values[better] = values[tasks, gen_best][better]
        best_points[better] = _decode(pop[tasks[better], gen_best[better]], length)
        history.append(best_values.copy())

    return OptimizerResult(best_points, np.arange(len(history)), history)


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


def minimize_sa(obj, cfg: SaConfig | None = None, *, seeds):
    """Gaussian-neighborhood annealing with geometric cooling.

    Without a fixed ``initial_temperature`` each task calibrates its own from
    100 probe moves off its start point.  Each temperature step, each task
    draws its moves_per_step values of N(0, 1) noise and then its
    moves_per_step uniforms u, which become the thresholds T * log1p(-u) <= 0.
    Move i from x to y is accepted iff threshold_i <= f(x) - f(y): always
    when it does not worsen the objective, and an uphill move of delta with
    probability P(-log(1 - u) >= delta / T) = exp(-delta / T).  There is no
    division by T, so once cooling reaches T = 0 the walk is greedy.  Each
    move's candidate is clip(x + sigma * z) from the state x it leaves.

    A move changes a task's state only when the task accepts a candidate
    that differs from the state in its bits.  So one call scores the step's
    next k moves of every task from the current states, and the walk keeps
    the moves up to the first that changes some state (all k when none does).
    A row scores the same in any batch, so the result is bit for bit the
    one-move walk's.  k is 1 in the first step, then max(1, moves_per_step //
    (c + 1)) after a step in which c moves changed a state: about the mean
    length of its c + 1 quiet runs, so a cold walk looks ahead and a hot one
    does not.
    """
    cfg = cfg or SaConfig()
    rngs = _generators(obj, seeds)
    n_tasks, moves = len(rngs), cfg.moves_per_step
    sigma = cfg.neighbor_sigma

    x = np.array([rng.uniform(0.0, 1.0) for rng in rngs])
    fx = obj.evaluate_batch(x)
    if cfg.initial_temperature is None:
        probes = np.stack([rng.normal(0.0, sigma, size=_CALIBRATION_PROBES) for rng in rngs])
        deltas = _evaluate(obj, np.clip(x[:, None] + probes, 0.0, 1.0)) - fx[:, None]
        temperature = np.array([_start_temperature(d[d > 0]) for d in deltas])
    else:
        temperature = np.full(len(rngs), cfg.initial_temperature)

    best_points = x.copy()
    best_values = fx.copy()
    history = [best_values.copy()]
    y = np.empty_like(x)
    x_bits, y_bits = x.view(np.int64), y.view(np.int64)
    noise = np.empty((n_tasks, moves))
    uniforms = np.empty((n_tasks, moves))
    window = 1

    for step in range(1, cfg.temperature_steps + 1):
        for rng, z, u in zip(rngs, noise, uniforms):
            rng.standard_normal(out=z)
            rng.random(out=u)
        # sigma * N(0, 1) is the value rng.normal(0, sigma) draws.
        noise *= sigma
        thresholds = temperature[:, None] * np.log1p(-uniforms)
        pos = changed = 0
        while pos < moves:
            k = min(window, moves - pos)
            if k == 1:
                np.add(noise[:, pos], x, out=y)
                np.maximum(y, 0.0, out=y)
                np.minimum(y, 1.0, out=y)
                fy = obj.evaluate_batch(y)
                accept = thresholds[:, pos] <= fx - fy
                # From c >= moves / 2 on the next window is 1: stop counting.
                if 2 * changed < moves:
                    changed += bool((accept & (y_bits != x_bits)).any())
                pos += 1
            else:
                ys = noise[:, pos : pos + k] + x[:, None]
                np.maximum(ys, 0.0, out=ys)
                np.minimum(ys, 1.0, out=ys)
                fys = _evaluate(obj, ys)
                accepts = thresholds[:, pos : pos + k] <= fx[:, None] - fys
                moved = (accepts & (ys.view(np.int64) != x_bits[:, None])).any(axis=0)
                j = int(moved.argmax()) if moved.any() else k - 1
                changed += bool(moved[j])
                y[:], fy, accept = ys[:, j], fys[:, j], accepts[:, j]
                pos += j + 1
            np.copyto(x, y, where=accept)
            np.copyto(fx, fy, where=accept)
            better = fx < best_values
            np.copyto(best_values, fx, where=better)
            np.copyto(best_points, x, where=better)
        temperature *= cfg.cooling_factor
        window = max(1, moves // (changed + 1))
        history.append(best_values.copy())

    return OptimizerResult(best_points, np.arange(len(history)), history)


# ---------------------------------------------------------------------------
# Particle swarm (global-best topology, velocity clamping)
# ---------------------------------------------------------------------------

def minimize_pso(obj, cfg: PsoConfig | None = None, *, seeds):
    """Swarm search: v += U(0,phi1)*(pbest - x) + U(0,phi2)*(gbest - x).

    Velocities are clamped componentwise to [-v_max, v_max] and positions to
    [0, 1].  The bests are updated synchronously (the gbest model of Kennedy
    & Eberhart): each sweep moves every particle of every task from the
    personal and global bests as they stood at the start of the sweep, as
    v = (v + r1*(pbest - x)) + r2*(gbest - x), then scores all T * swarm
    positions in one task-major batch.  A personal best then moves to a
    position that is strictly better, and each task's global best is the
    first of its best personal bests.  Each task draws its initial positions
    and velocities in two calls, then one (swarm, 2) block of pull factors
    per sweep, in the order of per-particle U(0,phi1) then U(0,phi2) draws.
    """
    cfg = cfg or PsoConfig()
    rngs = _generators(obj, seeds)
    n_tasks, swarm = len(rngs), cfg.swarm

    positions = np.stack([rng.uniform(0.0, 1.0, size=swarm) for rng in rngs])
    velocities = np.stack([rng.uniform(-cfg.v_max, cfg.v_max, size=swarm) for rng in rngs])

    values = _evaluate(obj, positions)
    pbest = positions.copy()
    pbest_values = values
    tasks = np.arange(n_tasks)
    g = pbest_values.argmin(axis=1)
    gbest = pbest[tasks, g]
    history = [pbest_values[tasks, g]]
    pull_scale = np.array([cfg.phi1, cfg.phi2])
    draws = np.empty((n_tasks, swarm, 2))
    r1, r2 = draws[:, :, 0], draws[:, :, 1]
    pull = np.empty_like(positions)

    for it in range(1, cfg.iterations + 1):
        for rng, row in zip(rngs, draws):
            rng.random(out=row)
        draws *= pull_scale
        np.subtract(pbest, positions, out=pull)
        pull *= r1
        velocities += pull
        np.subtract(gbest[:, None], positions, out=pull)
        pull *= r2
        velocities += pull
        np.maximum(velocities, -cfg.v_max, out=velocities)
        np.minimum(velocities, cfg.v_max, out=velocities)
        positions += velocities
        np.maximum(positions, 0.0, out=positions)
        np.minimum(positions, 1.0, out=positions)
        values = _evaluate(obj, positions)
        better = values < pbest_values
        np.copyto(pbest_values, values, where=better)
        np.copyto(pbest, positions, where=better)
        g = pbest_values.argmin(axis=1)
        gbest = pbest[tasks, g]
        history.append(pbest_values[tasks, g])

    return OptimizerResult(gbest, np.arange(len(history)), history)


# ---------------------------------------------------------------------------
# Negative selection (censor the worse half, refill at random)
# ---------------------------------------------------------------------------

def minimize_ns(obj, cfg: NsConfig | None = None, *, seeds):
    """Detector-set search: each generation eliminates every detector whose
    value lies above the set median and replaces it with a fresh uniform
    point, keeping the set size constant throughout.

    Each task draws its initial detectors in one call, then one block of as
    many fresh points per generation; a culled detector takes the point in
    its own slot, and the rest of the block goes unused.
    """
    cfg = cfg or NsConfig()
    rngs = _generators(obj, seeds)
    n_tasks = len(rngs)
    tasks = np.arange(n_tasks)

    detectors = np.empty((n_tasks, cfg.detectors))
    fresh = np.empty_like(detectors)
    for rng, row in zip(rngs, detectors):
        rng.random(out=row)
    best_points = np.zeros(n_tasks)
    best_values = np.full(n_tasks, math.inf)
    history = []

    for gen in range(1, cfg.generations + 1):
        values = _evaluate(obj, detectors)
        idx = values.argmin(axis=1)
        better = values[tasks, idx] < best_values
        best_values[better] = values[tasks, idx][better]
        best_points[better] = detectors[tasks[better], idx[better]]
        culled = values > np.median(values, axis=1, keepdims=True)
        for rng, row in zip(rngs, fresh):
            rng.random(out=row)
        detectors = np.where(culled, fresh, detectors)
        history.append(best_values.copy())

    return OptimizerResult(best_points, np.arange(1, len(history) + 1), history)


# Tag -> (minimizer, config type, evaluations per task: the module docstring's table).
_MINIMIZERS = {
    "ga": (minimize_ga, GaConfig, lambda c: c.population + c.generations * (c.population - c.elitism)),
    "sa": (minimize_sa, SaConfig, lambda c: 1 + c.temperature_steps * c.moves_per_step
           + (_CALIBRATION_PROBES if c.initial_temperature is None else 0)),
    "pso": (minimize_pso, PsoConfig, lambda c: c.swarm * (c.iterations + 1)),
    "ns": (minimize_ns, NsConfig, lambda c: c.detectors * c.generations),
}
ALGORITHM_TAGS = tuple(_MINIMIZERS)


def _minimizer(tag: str, config):
    """The :data:`_MINIMIZERS` entry of ``tag``: ValueError for another tag,
    TypeError for a ``config`` (None aside) of another type than its own."""
    try:
        entry = _MINIMIZERS[tag]
    except KeyError:
        raise ValueError(f"unknown optimizer tag {tag!r}; expected one of {ALGORITHM_TAGS}") from None
    if config is not None and not isinstance(config, entry[1]):
        raise TypeError(f"{tag} expects a {entry[1].__name__}, got {type(config).__name__}")
    return entry


def budget(tag: str, cfg=None) -> int:
    """Evaluations per task of a ``tag`` run under ``cfg``, None as in :func:`run` (the module docstring's table)."""
    _, cfg_type, evaluations = _minimizer(tag, cfg)
    return evaluations(cfg or cfg_type())


def run(obj, algorithm: str, config=None, *, seeds) -> OptimizerResult:
    """Dispatch to the minimizer named by ``algorithm`` (ga, sa, pso or ns).

    ``seeds`` holds one seed per task of ``obj`` (see the module docstring).
    """
    return _minimizer(algorithm, config)[0](obj, config, seeds=seeds)
