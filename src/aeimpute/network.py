"""Single-hidden-layer autoencoder trained by scaled conjugate gradient.

The network maps an n-vector to an n-vector through a narrow tanh hidden
layer and a logistic output layer:

    y_k = logistic( sum_j W2[k, j] * tanh( sum_i W1[j, i] * x_i + b1[j] ) + b2[k] )

The network is its flat parameter vector, held read-only; :func:`_unpack`
alone knows the layout, and :func:`model_text` writes the vector as it is.
The trainer is Moller's scaled conjugate gradient, a batch method that
sizes steps from a one-sided curvature estimate instead of a line search.
A trial point's loss and gradient come from one pass, and an accepted step
reuses that gradient.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import parallel
from .objective import MissingDataObjective
from .seeding import derive_seed

# Curvature-probe step scale and the initial trust-region damping for the
# scaled conjugate gradient loop.
_SCG_SIGMA = 1e-4
_SCG_LAMBDA = 1e-6
_SCG_LAMBDA_MAX = 1e60

# The hidden-size scan stops after this many candidates in a row that do not
# improve the validation error (Prechelt, "Automatic early stopping using
# cross validation", Neural Networks 11(4), 1998).
_SCAN_PATIENCE = 3


class TrainingError(RuntimeError):
    """Training aborted (a non-finite quantity, or no usable candidate)."""


def _logistic(z: np.ndarray) -> np.ndarray:
    """Numerically stable elementwise logistic function.

    1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, with e = e^-|z|
    serving both branches; unlike 0.5 * (1 + tanh(z / 2)), the result stays
    above 0 down to z = -745.
    """
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, z >= 0)
    e += 1.0
    out /= e
    return out


@dataclass(frozen=True, eq=False)
class Autoencoder:
    """An n -> n_hidden -> n network with tanh/logistic activations.

    The network is its flat parameter vector, copied once and read-only;
    ``layers`` are the (W1, b1, W2, b2) views of it from :func:`_unpack`.
    """

    n_inputs: int
    n_hidden: int
    parameters: np.ndarray
    layers: tuple = field(init=False, repr=False)

    hidden_activation = "tanh"
    output_activation = "logistic"

    def __post_init__(self) -> None:
        n, h = self.n_inputs, self.n_hidden
        check_hidden_size(n, h)
        vec = np.array(self.parameters, dtype=float)
        if not np.isfinite(vec).all():
            raise ValueError("network parameters must be finite")
        vec.flags.writeable = False
        object.__setattr__(self, "parameters", vec)
        object.__setattr__(self, "layers", _unpack(vec, n, h))

    def __reduce__(self):
        # Through the constructor: pickling drops numpy's read-only flag.
        return Autoencoder, (self.n_inputs, self.n_hidden, self.parameters)

    def forward(self, x) -> np.ndarray:
        """Map one input vector to its reconstruction; outputs lie in (0, 1)."""
        return self.forward_batch(np.asarray(x, dtype=float)[None])[0]

    def forward_batch(self, rows) -> np.ndarray:
        """Vectorized :meth:`forward` over a (R, n) matrix of rows."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.n_inputs:
            raise ValueError(f"expected rows of length {self.n_inputs}, got shape {rows.shape}")
        return _forward(*self.layers, rows)[1]


@dataclass(frozen=True)
class TrainConfig:
    """Stopping rules and seeding for the trainer: at most ``max_iterations``
    SCG iterations, 250 by default."""

    max_iterations: int = 250
    gradient_tolerance: float = 1e-6
    objective_tolerance: float = 1e-12
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (0 < self.gradient_tolerance < np.inf and 0 < self.objective_tolerance < np.inf):
            raise ValueError("tolerances must be positive and finite")


def _unpack(vec: np.ndarray, n: int, h: int):
    """Views of the flat parameter vector as (W1, b1, W2, b2).

    The one statement of the layout: W1 (h, n) row-major, then b1, then
    W2 (n, h) row-major, then b2.
    """
    b1_at, w2_at, b2_at = h * n, h * n + h, 2 * h * n + h
    if vec.shape != (b2_at + n,):
        raise ValueError(f"expected {b2_at + n} parameters for n={n}, h={h}, got shape {vec.shape}")
    return vec[:b1_at].reshape(h, n), vec[b1_at:w2_at], vec[w2_at:b2_at].reshape(n, h), vec[b2_at:]


def _forward(w1, b1, w2, b2, rows: np.ndarray):
    """Hidden activations and reconstructions of a (R, n) matrix of rows.

    Works in place where it can: lockstep searches pass thousands of rows.
    """
    hidden = rows @ w1.T
    hidden += b1
    np.tanh(hidden, out=hidden)
    out = hidden @ w2.T
    out += b2
    return hidden, _logistic(out)


def _batch_loss_grad(vec: np.ndarray, rows: np.ndarray, n: int, h: int):
    """Loss plus its analytic gradient in the flat parameter order, from one pass.

    The elementwise passes run in place on arrays this function owns, in the
    operation order of the expressions in the comments, whose bits they keep.
    """
    w1, b1, w2, b2 = _unpack(vec, n, h)
    grad = np.empty_like(vec)
    g_w1, g_b1, g_w2, g_b2 = _unpack(grad, n, h)
    r = rows.shape[0]
    hidden, out = _forward(w1, b1, w2, b2, rows)
    diff = rows - out
    loss = float((diff * diff).sum() / r)  # mean over rows of the summed squared error

    # d loss / d pre-activation of the output layer: (-2/r) * diff * out * (1 - out)
    g_out = np.multiply(diff, -2.0 / r, out=diff)
    g_out *= out
    g_out *= np.subtract(1.0, out, out=out)
    np.matmul(g_out.T, hidden, out=g_w2)
    g_out.sum(axis=0, out=g_b2)
    # (g_out @ W2) * (1 - hidden * hidden)
    g_hidden = g_out @ w2
    g_hidden *= np.subtract(1.0, np.multiply(hidden, hidden, out=hidden), out=hidden)
    np.matmul(g_hidden.T, rows, out=g_w1)
    g_hidden.sum(axis=0, out=g_b1)
    return loss, grad


def _check_rows(rows) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("rows must be a non-empty 2-D matrix")
    return rows


def _initial_parameters(rng: np.random.Generator, n: int, h: int) -> np.ndarray:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
    a1 = 1.0 / np.sqrt(n)
    a2 = 1.0 / np.sqrt(h)
    w1 = rng.uniform(-a1, a1, size=(h, n))
    b1 = rng.uniform(-a1, a1, size=h)
    w2 = rng.uniform(-a2, a2, size=(n, h))
    b2 = rng.uniform(-a2, a2, size=n)
    return np.concatenate([w1.ravel(), b1, w2.ravel(), b2])


def train(
    rows,
    n_hidden: int,
    cfg: TrainConfig | None = None,
    loss_history: list[float] | None = None,
) -> tuple[Autoencoder, float]:
    """Fit an autoencoder on complete rows; returns (network, final loss).

    Runs scaled conjugate gradient until the gradient infinity-norm drops
    below ``gradient_tolerance``, an accepted step improves the loss by less
    than ``objective_tolerance``, or ``max_iterations`` (250 by default) is
    reached.  The run is fully determined by ``cfg.rng_seed``.
    ``loss_history``, when given, receives the loss after every accepted step.

    The trial point's loss and gradient come from one pass, and an accepted
    step reuses that gradient; a rejected step discards it.  A non-finite
    loss, at the initial weights or at a trial point, raises TrainingError.
    So does a non-finite gradient, at the initial weights or at an accepted
    trial point, and a non-finite curvature estimate, each before it is used.
    """
    cfg = cfg or TrainConfig()
    rows = _check_rows(rows)
    n = rows.shape[1]
    check_hidden_size(n, n_hidden)

    w = _initial_parameters(np.random.default_rng(cfg.rng_seed), n, n_hidden)

    f, g = _batch_loss_grad(w, rows, n, n_hidden)
    if not np.isfinite(f):
        raise TrainingError("non-finite loss at the initial weights")
    if not np.isfinite(g).all():
        raise TrainingError("non-finite gradient at the initial weights")
    if loss_history is not None:
        loss_history.append(f)
    r = -g
    p = r.copy()
    lam = _SCG_LAMBDA
    lam_bar = 0.0
    success = True

    for k in range(1, cfg.max_iterations + 1):
        p_sq = float(p @ p)
        if p_sq == 0.0:
            break
        if success:
            # One-sided curvature estimate along p.
            sigma_k = _SCG_SIGMA / np.sqrt(p_sq)
            _, g_probe = _batch_loss_grad(w + sigma_k * p, rows, n, n_hidden)
            s = (g_probe - g) / sigma_k
            delta = float(p @ s)
            if not np.isfinite(delta):
                raise TrainingError(f"non-finite curvature at iteration {k}")
        delta += (lam - lam_bar) * p_sq
        if delta <= 0.0:
            # Force positive definiteness of the damped curvature.
            lam_bar = 2.0 * (lam - delta / p_sq)
            delta = -delta + lam * p_sq
            lam = lam_bar
        mu = float(p @ r)
        if mu <= 0.0:
            p = r.copy()  # lost the descent property; restart along -gradient
            success = True
            continue
        alpha = mu / delta
        w_try = w + alpha * p
        f_try, g_try = _batch_loss_grad(w_try, rows, n, n_hidden)
        if not np.isfinite(f_try):
            raise TrainingError(
                f"non-finite loss at iteration {k} (step size {alpha:.3e})"
            )
        comparison = 2.0 * delta * (f - f_try) / (mu * mu)

        if comparison >= 0.0:
            g_max = float(np.abs(g_try).max())
            if not np.isfinite(g_max):
                raise TrainingError(f"non-finite gradient at iteration {k}")
            improvement = f - f_try
            w = w_try
            f = f_try
            g = g_try
            r_new = -g
            lam_bar = 0.0
            success = True
            if k % w.size == 0:
                p = r_new.copy()
            else:
                beta = float(r_new @ r_new - r_new @ r) / mu
                p = r_new + beta * p
            r = r_new
            if comparison >= 0.75:
                lam *= 0.25
            if loss_history is not None:
                loss_history.append(f)
            if g_max < cfg.gradient_tolerance:
                break
            if improvement < cfg.objective_tolerance:
                break
        else:
            lam_bar = lam
            success = False

        if comparison < 0.25:
            lam += delta * (1.0 - comparison) / p_sq
            if lam > _SCG_LAMBDA_MAX:
                break  # damping saturated; no further progress possible

    return Autoencoder(n, n_hidden, w), f


def hidden_size_candidates(n_inputs: int) -> list[int]:
    """All admissible hidden sizes for n inputs: 2 through n-1."""
    if n_inputs < 3:
        raise ValueError(f"need at least 3 inputs for a narrow hidden layer, got {n_inputs}")
    return list(range(2, n_inputs))


def check_hidden_size(n_inputs: int, n_hidden: int) -> None:
    """Raise ValueError unless ``n_hidden`` is among :func:`hidden_size_candidates`."""
    sizes = hidden_size_candidates(n_inputs)
    if n_hidden not in sizes:
        raise ValueError(
            f"hidden size {n_hidden} out of range for {n_inputs} inputs: "
            f"must satisfy {sizes[0]} <= h <= {sizes[-1]}"
        )


def select_hidden_size(
    train_rows,
    val_task,
    cfg: TrainConfig | None = None,
    train_fn=train,
) -> tuple[int, Autoencoder, float]:
    """Pick the hidden size whose network best imputes the validation task's masked column.

    Scans h = 2, 3, ... n-1 upward.  Each candidate is trained on
    ``train_rows`` with a seed derived from (cfg.rng_seed, h) and scored by
    the mean absolute error of the grid minimizers
    (:meth:`~aeimpute.objective.MissingDataObjective.grid_minimize`) against
    ``val_task``'s true values in its one masked column.  A candidate becomes
    the best only by a strictly lower error, so ties go to the smaller size.
    Once a candidate has scored, the scan stops after _SCAN_PATIENCE
    candidates in a row that do not improve on the best; a candidate whose
    training aborts is skipped with a warning and counts as not improving.
    Returns (size, its trained network, its final training loss).
    ``train_fn`` stands in for :func:`train` in tests and traced runs.

    The candidates are trained and scored in waves of one per process by
    :func:`aeimpute.parallel.fork_waves`, whose caveats apply to ``train_fn``.
    The stopping rule is applied in size order, and the candidates of a wave
    past the stopping point are dropped with their warnings, so the result,
    the warnings and their order do not depend on the number of processes.
    A winner at the top of the range, n-1, draws a warning too, unless it
    was the only candidate: such a network is close to the identity, so the
    reconstruction error it gives a masked column is nearly flat.
    """
    cfg = cfg or TrainConfig()
    train_rows = _check_rows(train_rows)
    sizes = hidden_size_candidates(train_rows.shape[1])
    if val_task.n != train_rows.shape[1] or val_task.unknown_indices.size != 1:
        raise ValueError("the validation task must mask one column of rows like train_rows")
    if val_task.true_values is None:
        raise ValueError("the validation task must carry its true values")
    truth = val_task.true_values[:, val_task.unknown_indices[0]]

    def candidate(h):
        """(network, training loss, validation error), or the TrainingError text."""
        sub_cfg = replace(cfg, rng_seed=derive_seed(cfg.rng_seed, "hidden", h))
        try:
            net, train_loss = train_fn(train_rows, h, sub_cfg)
        except TrainingError as err:
            return str(err)
        imputed, _ = MissingDataObjective(net, val_task).grid_minimize()
        return net, train_loss, float(np.mean(np.abs(imputed - truth)))

    best = None
    best_error = np.inf
    stale = 0  # candidates since the best, once one has scored
    for h, scored in zip(sizes, parallel.fork_waves(candidate, sizes)):
        if isinstance(scored, str):
            warnings.warn(f"hidden size {h} skipped: {scored}", stacklevel=2)
            stale += best is not None
        elif scored[2] < best_error:
            best_error = scored[2]
            best = (h, scored[0], scored[1])
            stale = 0
        else:
            stale += 1
        if stale == _SCAN_PATIENCE:
            break
    if best is None:
        raise TrainingError("every hidden-size candidate aborted")
    if len(sizes) > 1 and best[0] == sizes[-1]:
        warnings.warn(
            f"hidden size {best[0]} won at the top of the range (n-1): "
            "the network is close to the identity",
            stacklevel=2,
        )
    return best


def model_text(net: Autoencoder) -> str:
    """The network as text: 'n_inputs n_hidden' then one value per line.

    Values appear in the flat parameter order at full precision, so
    :func:`load_model` reproduces forward outputs bit-exactly.
    """
    lines = [f"{net.n_inputs} {net.n_hidden}"]
    lines.extend(repr(float(v)) for v in net.parameters)
    return "\n".join(lines) + "\n"


def load_model(path) -> Autoencoder:
    """Read a :func:`model_text` file; every error names ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise ValueError("malformed model header")
            n, h = int(header[0]), int(header[1])
            values = [float(line) for line in fh if line.strip()]
        return Autoencoder(n, h, values)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
