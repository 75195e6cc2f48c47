"""Shared fixtures: stub networks, stub objectives, and the benchmark's datasets.

The three CSV fixtures are the tables the benchmark generates
(``bench/inputs.py``, seed 0) at the sizes of the paper's datasets: 1000x25
with a binary final column, 517x13 with a numeric final column and 270x14
with a binary final column.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import signal
import sys
import tracemalloc
from pathlib import Path

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

    n_tasks = 1

    def evaluate(self, c):
        return float((c - 0.3) ** 2)

    def evaluate_batch(self, candidates):
        return (np.asarray(candidates, dtype=float) - 0.3) ** 2


class Bimodal1D:
    """Two Gaussian wells: a shallow trap near 0.25, the optimum near 0.7."""

    n_tasks = 1

    def evaluate(self, c):
        x = float(c)
        return (
            0.7
            - 0.3 * np.exp(-(((x - 0.25) / 0.12) ** 2))
            - 0.5 * np.exp(-(((x - 0.7) / 0.12) ** 2))
        )

    def evaluate_batch(self, candidates):
        return np.array([self.evaluate(c) for c in np.asarray(candidates)])

    def grid_minimum(self, resolution: int = 10001) -> float:
        return min(self.evaluate(v) for v in np.linspace(0.0, 1.0, resolution))


class CountingObjective:
    """Wrap an objective; count scalar-equivalent evaluations and batch calls."""

    def __init__(self, inner):
        self.inner = inner
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


def traced_peak(fn):
    """``fn()``'s result and the most traced bytes it held at once.

    ``fn`` is called once untraced first, so that first-call allocations
    (imports, caches) are not counted.
    """
    fn()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def random_autoencoder(rng: np.random.Generator, n: int, h: int, scale: float = 0.7) -> Autoencoder:
    # One draw gives the same values as drawing W1, b1, W2 and b2 in turn.
    return Autoencoder(n, h, rng.normal(0.0, scale, size=2 * n * h + h + n))


def scalar_forward(net: Autoencoder, x) -> list[float]:
    """Hand-evaluated forward pass: plain Python loops, scalar math only."""
    import math

    n, h = net.n_inputs, net.n_hidden
    w1, b1, w2, b2 = net.layers
    hidden = []
    for j in range(h):
        z = b1[j]
        for i in range(n):
            z += w1[j, i] * x[i]
        hidden.append(math.tanh(z))
    outputs = []
    for k in range(n):
        z = b2[k]
        for j in range(h):
            z += w2[k, j] * hidden[j]
        outputs.append(1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z)))
    return outputs


def manifold_rows(seed: int = 7, count: int = 200) -> np.ndarray:
    """Points on a 1-D curve embedded in 4 dimensions."""
    t = np.random.default_rng(seed).uniform(0.0, 1.0, count)
    return np.stack([t, t, 1.0 - t, t * t], axis=1)


def child_processes() -> list[int]:
    """Process ids of this process's children, running or not yet reaped,
    however they were started (``os.fork``, ``subprocess``, ...)."""
    pids = []
    for children in Path("/proc/self/task").glob("*/children"):
        pids += [int(pid) for pid in children.read_text().split()]
    return sorted(pids)


def end_child_processes() -> list[int]:
    """Kill and reap every child process; return the ids of those there were."""
    pids = child_processes()
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    return pids


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """Fail a test that leaves a child process (a leaked search worker).

    The leaked children are ended first, so that none holds up a later test.
    """
    yield
    leaked = end_child_processes()
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


# --- the benchmark's tables ---------------------------------------------------

def bench_module(name: str):
    """Import a module of the benchmark's directory ``bench/`` (``inputs`` or ``spans``)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.pop(0)


def write_table(path, shape: str, seed: int = 0, **size) -> dict:
    """Write the benchmark's ``inputs.<shape>(seed, **size)`` table to ``path``
    as CSV; return the fields :func:`config_file_text` reads."""
    table = getattr(bench_module("inputs"), shape)(seed, **size)
    table.write_csv(path)
    return {"kinds": table.kinds, "missing_column": table.missing_column, "task": table.task}


def _paper_sized(tmp_path_factory, shape: str, n: int):
    path = tmp_path_factory.mktemp("datasets") / f"{shape}.csv"
    return path, write_table(path, shape, n=n)


# The paper's datasets: German credit, forest fires and heart disease.
@pytest.fixture(scope="session")
def credit_like(tmp_path_factory):
    return _paper_sized(tmp_path_factory, "credit", 1000)


@pytest.fixture(scope="session")
def fire_like(tmp_path_factory):
    return _paper_sized(tmp_path_factory, "fire", 517)


@pytest.fixture(scope="session")
def heart_like(tmp_path_factory):
    return _paper_sized(tmp_path_factory, "heart", 270)


def config_file_text(dataset_path, meta, output_dir, **overrides) -> str:
    """Render an experiment config file for a table written by :func:`write_table`."""
    settings = {
        "dataset": str(dataset_path),
        "columns": ",".join(meta["kinds"]),
        "missing_column": str(meta["missing_column"]),
        "task": meta["task"],
        "output": str(output_dir),
    }
    settings.update({k: str(v) for k, v in overrides.items()})
    return "\n".join(f"{k} = {v}" for k, v in settings.items()) + "\n"
