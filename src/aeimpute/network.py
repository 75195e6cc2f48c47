"""Single-hidden-layer autoencoder trained by scaled conjugate gradient.

The network maps an n-vector to an n-vector through a narrow tanh hidden
layer and a logistic output layer:

    y_k = logistic( sum_j W2[k, j] * tanh( sum_i W1[j, i] * x_i + b1[j] ) + b2[k] )

Parameters are handled as one flat vector in a fixed order: W1 row-major,
then b1, then W2 row-major, then b2.  The trainer is Moller's scaled
conjugate gradient, a batch method that sizes steps from a one-sided
curvature estimate instead of a line search.  A trial point's loss and
gradient come from one pass, and an accepted step reuses that gradient.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .parallel import fork_map
from .seeding import derive_seed

# Curvature-probe step scale and the initial trust-region damping for the
# scaled conjugate gradient loop.
_SCG_SIGMA = 1e-4
_SCG_LAMBDA = 1e-6
_SCG_LAMBDA_MAX = 1e60


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


@dataclass(frozen=True)
class Autoencoder:
    """Weights of an n -> n_hidden -> n network with tanh/logistic activations."""

    first_layer_weights: np.ndarray  # (n_hidden, n_inputs)
    first_layer_biases: np.ndarray  # (n_hidden,)
    second_layer_weights: np.ndarray  # (n_outputs, n_hidden)
    second_layer_biases: np.ndarray  # (n_outputs,)

    hidden_activation = "tanh"
    output_activation = "logistic"

    def __post_init__(self) -> None:
        w1 = np.array(self.first_layer_weights, dtype=float)
        b1 = np.array(self.first_layer_biases, dtype=float)
        w2 = np.array(self.second_layer_weights, dtype=float)
        b2 = np.array(self.second_layer_biases, dtype=float)
        if w1.ndim != 2 or w2.ndim != 2 or b1.ndim != 1 or b2.ndim != 1:
            raise ValueError("weight matrices must be 2-D and biases 1-D")
        h, n = w1.shape
        if w2.shape != (n, h) or b1.shape != (h,) or b2.shape != (n,):
            raise ValueError(
                f"inconsistent shapes: W1 {w1.shape}, b1 {b1.shape}, "
                f"W2 {w2.shape}, b2 {b2.shape}"
            )
        if not 2 <= h <= n - 1:
            raise ValueError(f"hidden size must satisfy 2 <= h <= n-1, got h={h}, n={n}")
        for arr in (w1, b1, w2, b2):
            if not np.isfinite(arr).all():
                raise ValueError("network parameters must be finite")
            arr.flags.writeable = False
        object.__setattr__(self, "first_layer_weights", w1)
        object.__setattr__(self, "first_layer_biases", b1)
        object.__setattr__(self, "second_layer_weights", w2)
        object.__setattr__(self, "second_layer_biases", b2)

    @property
    def n_inputs(self) -> int:
        return self.first_layer_weights.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.second_layer_weights.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.first_layer_weights.shape[0]

    @property
    def n_parameters(self) -> int:
        n, h = self.n_inputs, self.n_hidden
        return h * n + h + n * h + n

    def forward(self, x) -> np.ndarray:
        """Map one input vector to its reconstruction; outputs lie in (0, 1)."""
        return self.forward_batch(np.asarray(x, dtype=float)[None])[0]

    def forward_batch(self, rows) -> np.ndarray:
        """Vectorized :meth:`forward` over a (R, n) matrix of rows."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.n_inputs:
            raise ValueError(f"expected rows of length {self.n_inputs}, got shape {rows.shape}")
        _, out = _forward(
            self.first_layer_weights, self.first_layer_biases,
            self.second_layer_weights, self.second_layer_biases, rows,
        )
        return out

    def to_vector(self) -> np.ndarray:
        """Flatten all parameters (W1 row-major, b1, W2 row-major, b2)."""
        return np.concatenate(
            [
                self.first_layer_weights.ravel(),
                self.first_layer_biases,
                self.second_layer_weights.ravel(),
                self.second_layer_biases,
            ]
        )

    @classmethod
    def from_vector(cls, vec, n_inputs: int, n_hidden: int) -> "Autoencoder":
        vec = np.asarray(vec, dtype=float)
        w1, b1, w2, b2 = _unpack(vec, n_inputs, n_hidden)
        return cls(w1.copy(), b1.copy(), w2.copy(), b2.copy())


@dataclass(frozen=True)
class TrainConfig:
    """Stopping rules and seeding for the trainer."""

    max_iterations: int = 500
    gradient_tolerance: float = 1e-6
    objective_tolerance: float = 1e-12
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.gradient_tolerance <= 0 or self.objective_tolerance <= 0:
            raise ValueError("tolerances must be positive")


def _unpack(vec: np.ndarray, n: int, h: int):
    """Views of the flat parameter vector as (W1, b1, W2, b2)."""
    i = 0
    w1 = vec[i : i + h * n].reshape(h, n)
    i += h * n
    b1 = vec[i : i + h]
    i += h
    w2 = vec[i : i + n * h].reshape(n, h)
    i += n * h
    b2 = vec[i : i + n]
    return w1, b1, w2, b2


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


def _loss(diff: np.ndarray) -> float:
    """Mean over rows of the summed squared reconstruction error rows - out."""
    return float((diff * diff).sum() / diff.shape[0])


def _batch_loss_grad(vec: np.ndarray, rows: np.ndarray, n: int, h: int):
    """Loss plus its analytic gradient in the flat parameter order, from one pass.

    The elementwise passes run in place on arrays this function owns, in the
    operation order of the expressions in the comments, whose bits they keep.
    """
    w1, b1, w2, b2 = _unpack(vec, n, h)
    r = rows.shape[0]
    hidden, out = _forward(w1, b1, w2, b2, rows)
    diff = rows - out
    loss = _loss(diff)

    # d loss / d pre-activation of the output layer: (-2/r) * diff * out * (1 - out)
    g_out = np.multiply(diff, -2.0 / r, out=diff)
    g_out *= out
    g_out *= np.subtract(1.0, out, out=out)
    g_w2 = g_out.T @ hidden
    g_b2 = g_out.sum(axis=0)
    # (g_out @ W2) * (1 - hidden * hidden)
    g_hidden = g_out @ w2
    g_hidden *= np.subtract(1.0, np.multiply(hidden, hidden, out=hidden), out=hidden)
    g_w1 = g_hidden.T @ rows
    g_b1 = g_hidden.sum(axis=0)
    return loss, np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])


def _check_rows(rows) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("rows must be a non-empty 2-D matrix")
    return rows


def reconstruction_loss(net, rows) -> float:
    """Mean over rows of the summed squared reconstruction error."""
    rows = _check_rows(rows)
    return _loss(rows - net.forward_batch(rows))


def gradient(net: Autoencoder, rows) -> np.ndarray:
    """Back-propagation gradient of :func:`reconstruction_loss`, flattened."""
    rows = _check_rows(rows)
    if rows.shape[1] != net.n_inputs:
        raise ValueError(f"expected rows of width {net.n_inputs}, got {rows.shape[1]}")
    _, grad = _batch_loss_grad(net.to_vector(), rows, net.n_inputs, net.n_hidden)
    return grad


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
    than ``objective_tolerance``, or ``max_iterations`` is reached.  The run
    is fully determined by ``cfg.rng_seed``.  ``loss_history``, when given,
    receives the loss after every accepted step.

    The trial point's loss and gradient come from one pass, and an accepted
    step reuses that gradient; a rejected step discards it.  A non-finite
    loss, at the initial weights or at a trial point, raises TrainingError.
    So does a non-finite gradient, at the initial weights or at an accepted
    trial point, and a non-finite curvature estimate, each before it is used.
    """
    cfg = cfg or TrainConfig()
    rows = _check_rows(rows)
    n = rows.shape[1]
    if not 2 <= n_hidden <= n - 1:
        raise ValueError(f"n_hidden must satisfy 2 <= h <= n-1, got h={n_hidden}, n={n}")

    rng = np.random.default_rng(cfg.rng_seed)
    w = _initial_parameters(rng, n, n_hidden)
    n_params = w.size

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
            if k % n_params == 0:
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

    net = Autoencoder.from_vector(w, n, n_hidden)
    return net, f


def hidden_size_candidates(n_inputs: int) -> list[int]:
    """All admissible hidden sizes for n inputs: 2 through n-1."""
    if n_inputs < 3:
        raise ValueError("need at least 3 inputs for a narrow hidden layer")
    return list(range(2, n_inputs))


def select_hidden_size(
    train_rows,
    val_rows,
    cfg: TrainConfig | None = None,
    train_fn=train,
) -> tuple[int, Autoencoder, float]:
    """Pick the hidden size whose trained network best reconstructs val_rows.

    Trains one candidate per admissible size (each with a seed derived from
    (cfg.rng_seed, size)), scores by validation reconstruction loss, and
    returns the argmin as (size, its trained network, its final training
    loss); ties go to the smaller size.  Candidates whose training aborts are
    skipped with a warning.  ``train_fn`` stands in for :func:`train` in
    tests and traced runs.

    The candidates are trained on every available core through
    :func:`aeimpute.parallel.fork_map`, whose caveats apply to ``train_fn``;
    the result, the warnings and their order do not depend on the number of
    processes.  A winner at the top of the range, n-1, draws a warning too:
    such a network is close to the identity, so the reconstruction error it
    gives a masked column is nearly flat.
    """
    cfg = cfg or TrainConfig()
    train_rows = _check_rows(train_rows)
    val_rows = _check_rows(val_rows)
    sizes = hidden_size_candidates(train_rows.shape[1])

    def candidate(h):
        """(network, training loss), or the TrainingError text."""
        sub_cfg = replace(cfg, rng_seed=derive_seed(cfg.rng_seed, "hidden", h))
        try:
            return train_fn(train_rows, h, sub_cfg)
        except TrainingError as err:
            return str(err)

    best = None
    best_loss = np.inf
    for h, trained in zip(sizes, fork_map(candidate, sizes)):
        if isinstance(trained, str):
            warnings.warn(f"hidden size {h} skipped: {trained}", stacklevel=2)
            continue
        net, train_loss = trained
        val_loss = reconstruction_loss(net, val_rows)
        if val_loss < best_loss:
            best_loss = val_loss
            best = (h, net, train_loss)
    if best is None:
        raise TrainingError("every hidden-size candidate aborted")
    if best[0] == sizes[-1]:
        warnings.warn(
            f"hidden size {best[0]} won at the top of the range (n-1): "
            "the network is close to the identity",
            stacklevel=2,
        )
    return best


def save_model(net: Autoencoder, path) -> None:
    """Write the network as text: 'n_inputs n_hidden' then one value per line.

    Values appear in the flat parameter order at full precision, so
    :func:`load_model` reproduces forward outputs bit-exactly.
    """
    lines = [f"{net.n_inputs} {net.n_hidden}"]
    lines.extend(repr(float(v)) for v in net.to_vector())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> Autoencoder:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: malformed model header")
        n, h = int(header[0]), int(header[1])
        values = [float(line) for line in fh if line.strip()]
    expected = h * n + h + n * h + n
    if len(values) != expected:
        raise ValueError(f"{path}: expected {expected} parameters, found {len(values)}")
    return Autoencoder.from_vector(np.array(values), n, h)
