"""Shared fixtures: stub networks, stub objectives, and synthetic datasets.

The three synthetic CSV fixtures mirror the shapes of the benchmark files
the harness targets (1000x25 with a binary final column, 517x13 with a
numeric final column, 270x14 with a binary final column) and carry real
feature/target structure so learned models beat random search.
"""

from __future__ import annotations

import contextlib
import signal
import sys

import numpy as np
import pytest

from aeimpute.network import Autoencoder, _logistic


class IdentityNet:
    """Stub network that reproduces its input exactly."""

    def __init__(self, n: int):
        self.n_inputs = n

    def forward(self, x):
        return np.asarray(x, dtype=float).copy()

    def forward_batch(self, rows):
        return np.asarray(rows, dtype=float).copy()


class ConstantNet:
    """Stub network that outputs a fixed vector regardless of input."""

    def __init__(self, constant):
        self.constant = np.asarray(constant, dtype=float)
        self.n_inputs = self.constant.size

    def forward(self, x):
        return self.constant.copy()

    def forward_batch(self, rows):
        return np.tile(self.constant, (np.asarray(rows).shape[0], 1))


class PinnedColumnNet:
    """Stub that reproduces its input except one column, reconstructed as ``value``.

    Its objective in that column is (x - value)^2, so a grid search imputes
    the grid point nearest ``value``.
    """

    def __init__(self, n: int, column: int, value: float):
        self.n_inputs = n
        self.column = column
        self.value = value

    def forward(self, x):
        return self.forward_batch(np.asarray(x, dtype=float)[None])[0]

    def forward_batch(self, rows):
        out = np.array(rows, dtype=float)
        out[:, self.column] = self.value
        return out


class QuadraticStub:
    """g(x) = (x - 0.3)^2 on [0, 1]."""

    dimension = 1
    n_tasks = 1

    def evaluate(self, c):
        return float((c[0] - 0.3) ** 2)

    def evaluate_batch(self, candidates):
        c = np.asarray(candidates, dtype=float)
        return (c[:, 0] - 0.3) ** 2


class Ripple2D:
    """Smooth 2-D bowl with sinusoidal ripples; global minimum well above 0."""

    dimension = 2
    n_tasks = 1

    def evaluate(self, c):
        x, y = float(c[0]), float(c[1])
        return (
            0.05
            + 0.7 * ((x - 0.62) ** 2 + (y - 0.31) ** 2)
            + 0.02 * (1.0 + np.sin(5 * np.pi * x) * np.sin(5 * np.pi * y))
        )

    def evaluate_batch(self, candidates):
        return np.array([self.evaluate(c) for c in np.asarray(candidates)])

    def grid_minimum(self, resolution: int = 200) -> float:
        g = np.linspace(0.0, 1.0, resolution)
        gx, gy = np.meshgrid(g, g, indexing="ij")
        vals = (
            0.05
            + 0.7 * ((gx - 0.62) ** 2 + (gy - 0.31) ** 2)
            + 0.02 * (1.0 + np.sin(5 * np.pi * gx) * np.sin(5 * np.pi * gy))
        )
        return float(vals.min())


class Bimodal1D:
    """Two Gaussian wells: a shallow trap near 0.25, the optimum near 0.7."""

    dimension = 1
    n_tasks = 1

    def evaluate(self, c):
        x = float(c[0])
        return (
            0.7
            - 0.3 * np.exp(-(((x - 0.25) / 0.12) ** 2))
            - 0.5 * np.exp(-(((x - 0.7) / 0.12) ** 2))
        )

    def evaluate_batch(self, candidates):
        return np.array([self.evaluate(c) for c in np.asarray(candidates)])

    def grid_minimum(self, resolution: int = 10001) -> float:
        return min(self.evaluate([v]) for v in np.linspace(0.0, 1.0, resolution))


class CountingObjective:
    """Wrap an objective; count scalar-equivalent evaluations and batch calls."""

    def __init__(self, inner):
        self.inner = inner
        self.dimension = inner.dimension
        self.n_tasks = inner.n_tasks
        self.count = 0
        self.calls = 0

    def evaluate(self, c):
        self.count += 1
        return self.inner.evaluate(c)

    def evaluate_batch(self, candidates):
        candidates = np.asarray(candidates)
        self.count += candidates.shape[0]
        self.calls += 1
        return self.inner.evaluate_batch(candidates)


def random_autoencoder(rng: np.random.Generator, n: int, h: int, scale: float = 0.7) -> Autoencoder:
    return Autoencoder(
        first_layer_weights=rng.normal(0.0, scale, size=(h, n)),
        first_layer_biases=rng.normal(0.0, scale, size=h),
        second_layer_weights=rng.normal(0.0, scale, size=(n, h)),
        second_layer_biases=rng.normal(0.0, scale, size=n),
    )


def scalar_forward(net: Autoencoder, x) -> list[float]:
    """Hand-evaluated forward pass: plain Python loops, scalar math only."""
    import math

    n, h = net.n_inputs, net.n_hidden
    hidden = []
    for j in range(h):
        z = net.first_layer_biases[j]
        for i in range(n):
            z += net.first_layer_weights[j, i] * x[i]
        hidden.append(math.tanh(z))
    outputs = []
    for k in range(n):
        z = net.second_layer_biases[k]
        for j in range(h):
            z += net.second_layer_weights[k, j] * hidden[j]
        outputs.append(1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z)))
    return outputs


def manifold_rows(seed: int = 7, count: int = 200) -> np.ndarray:
    """Points on a 1-D curve embedded in 4 dimensions."""
    t = np.random.default_rng(seed).uniform(0.0, 1.0, count)
    return np.stack([t, t, 1.0 - t, t * t], axis=1)


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """Fail a test that leaves a live child process (a leaked search worker).

    The leaked children are ended first, so that none holds up a later test.
    """
    yield
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is None:
        return  # nothing can have been forked through it
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.terminate()
        child.join()
    if leaked:
        pytest.fail(f"child processes left running: {leaked}")


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the body, instead of hanging, after ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# --- synthetic benchmark-shaped datasets -------------------------------------

def _write_csv(path, matrix, formats) -> None:
    lines = []
    for row in matrix:
        lines.append(",".join(fmt % v for fmt, v in zip(formats, row)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_credit_like(path, seed: int = 101) -> dict:
    """1000 rows x 25 columns; binary credit-status-like final column."""
    rng = np.random.default_rng(seed)
    n = 1000
    latent = rng.normal(0.0, 1.0, size=(n, 3))
    cols = []
    formats = []
    kinds = []
    for i in range(24):
        mix = latent @ rng.normal(0.0, 1.0, 3) + rng.normal(0.0, 0.8, n)
        if i % 6 == 0:
            col = np.clip(np.round(2.0 + mix), 0, 4)  # categorical codes 0..4
            kinds.append("categorical")
            formats.append("%d")
        elif i % 6 == 3:
            col = (mix > 0).astype(float)  # binary flag
            kinds.append("binary")
            formats.append("%d")
        else:
            lo, hi = sorted(rng.uniform(-50, 5000, 2))
            col = lo + (hi - lo) * (1.0 / (1.0 + np.exp(-mix)))
            kinds.append("numeric")
            formats.append("%.6f")
        cols.append(col)
    signal = latent @ np.array([1.2, -0.9, 0.7]) + rng.normal(0.0, 0.6, n)
    target = (signal > 0).astype(float)
    cols.append(target)
    kinds.append("binary")
    formats.append("%d")
    _write_csv(path, np.stack(cols, axis=1), formats)
    return {"rows": n, "columns": 25, "kinds": kinds, "missing_column": 24, "task": "classification"}


def make_fire_like(path, seed: int = 202) -> dict:
    """517 rows x 13 columns; skewed numeric burned-area-like final column."""
    rng = np.random.default_rng(seed)
    n = 517
    latent = rng.normal(0.0, 1.0, size=(n, 3))
    cols = []
    formats = []
    for i in range(12):
        mix = latent @ rng.normal(0.0, 1.0, 3) + rng.normal(0.0, 0.7, n)
        lo, hi = sorted(rng.uniform(-10, 300, 2))
        cols.append(lo + (hi - lo) * (1.0 / (1.0 + np.exp(-mix))))
        formats.append("%.6f")
    drive = latent @ np.array([0.9, 0.8, -0.5])
    target = np.where(drive > 0.3, np.expm1(np.clip(drive, 0, 4)) * 3.0, 0.0)
    cols.append(target)
    formats.append("%.4f")
    _write_csv(path, np.stack(cols, axis=1), formats)
    return {"rows": n, "columns": 13, "kinds": ["numeric"] * 13, "missing_column": 12, "task": "prediction"}


def make_heart_like(path, seed: int = 303) -> dict:
    """270 rows x 14 columns; binary disease-status-like final column."""
    rng = np.random.default_rng(seed)
    n = 270
    latent = rng.normal(0.0, 1.0, size=(n, 2))
    cols = []
    formats = []
    kinds = []
    for i in range(13):
        mix = latent @ rng.normal(0.0, 1.0, 2) + rng.normal(0.0, 0.7, n)
        if i % 5 == 2:
            cols.append((mix > 0).astype(float))
            kinds.append("binary")
            formats.append("%d")
        else:
            lo, hi = sorted(rng.uniform(0, 250, 2))
            cols.append(lo + (hi - lo) * (1.0 / (1.0 + np.exp(-mix))))
            kinds.append("numeric")
            formats.append("%.6f")
    signal = latent @ np.array([1.1, -0.8]) + rng.normal(0.0, 0.5, n)
    target = (signal > 0).astype(float)
    cols.append(target)
    kinds.append("binary")
    formats.append("%d")
    _write_csv(path, np.stack(cols, axis=1), formats)
    return {"rows": n, "columns": 14, "kinds": kinds, "missing_column": 13, "task": "classification"}


@pytest.fixture(scope="session")
def credit_like(tmp_path_factory):
    path = tmp_path_factory.mktemp("datasets") / "credit_like.csv"
    meta = make_credit_like(path)
    return path, meta


@pytest.fixture(scope="session")
def fire_like(tmp_path_factory):
    path = tmp_path_factory.mktemp("datasets") / "fire_like.csv"
    meta = make_fire_like(path)
    return path, meta


@pytest.fixture(scope="session")
def heart_like(tmp_path_factory):
    path = tmp_path_factory.mktemp("datasets") / "heart_like.csv"
    meta = make_heart_like(path)
    return path, meta


def config_text(dataset_path, meta, output_dir, **overrides) -> str:
    """Render an experiment config file for a synthetic dataset."""
    settings = {
        "dataset": str(dataset_path),
        "columns": ",".join(meta["kinds"]),
        "missing_column": str(meta["missing_column"]),
        "task": meta["task"],
        "output": str(output_dir),
    }
    settings.update({k: str(v) for k, v in overrides.items()})
    return "\n".join(f"{k} = {v}" for k, v in settings.items()) + "\n"
