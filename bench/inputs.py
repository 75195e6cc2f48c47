"""Seeded synthetic inputs for the benchmark workloads (numpy only).

Each generator draws a table shaped like one of the paper's datasets.  The
make-up of a shape (its latent loadings, column kinds and value ranges) is
fixed by a constant per shape.  ``seed`` draws the leading rows, which the
program's chronological split uses for training and validation; the final
floor(n/4) rows, the test block, are drawn once per shape and are the same
for every seed.  Seeds thus vary the data the network and the forest learn
from, while the imputation quality is always graded on the same records, so
quality metrics stay comparable from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Constants that fix each shape's population; ``seed`` never touches them.
_STRUCTURE = {"heart": 303, "credit": 101, "fire": 202}


@dataclass(frozen=True)
class Table:
    """A generated table: raw values, column kinds and printf formats."""

    rows: np.ndarray
    kinds: tuple[str, ...]
    formats: tuple[str, ...]
    missing_column: int
    task: str

    def write_csv(self, path: Path) -> None:
        lines = [",".join(f % v for f, v in zip(self.formats, row)) for row in self.rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _logistic(z):
    return 1.0 / (1.0 + np.exp(-z))


class _Rows:
    """Normal draws for n rows: seeded leading rows, a fixed test block."""

    def __init__(self, structure: int, seed: int, n: int):
        self.lead = np.random.default_rng([structure, 1, seed])
        self.test = np.random.default_rng([structure, 2])
        self.n_test = n // 4
        self.n_lead = n - self.n_test

    def normal(self, scale: float, width: int | None = None) -> np.ndarray:
        lead = (self.n_lead,) if width is None else (self.n_lead, width)
        test = (self.n_test,) if width is None else (self.n_test, width)
        return np.concatenate([self.lead.normal(0.0, scale, lead),
                               self.test.normal(0.0, scale, test)])


def heart(seed: int, n: int = 270) -> Table:
    """n x 14: 13 mixed numeric/binary attributes on 2 latents, binary target."""
    shape = np.random.default_rng(_STRUCTURE["heart"])
    draw = _Rows(_STRUCTURE["heart"], seed, n)
    latent = draw.normal(1.0, 2)
    cols, kinds, formats = [], [], []
    for i in range(13):
        mix = latent @ shape.normal(0.0, 1.0, 2) + draw.normal(0.7)
        lo, hi = sorted(shape.uniform(0, 250, 2))
        if i % 5 == 2:
            cols.append((mix > 0).astype(float))
            kinds.append("binary")
            formats.append("%d")
        else:
            cols.append(lo + (hi - lo) * _logistic(mix))
            kinds.append("numeric")
            formats.append("%.6f")
    signal = latent @ np.array([1.1, -0.8]) + draw.normal(0.5)
    cols.append((signal > 0).astype(float))
    kinds.append("binary")
    formats.append("%d")
    return Table(np.stack(cols, axis=1), tuple(kinds), tuple(formats), 13, "classification")


def credit(seed: int, n: int = 1000) -> Table:
    """n x 25: 24 categorical/binary/numeric attributes on 3 latents, binary target."""
    shape = np.random.default_rng(_STRUCTURE["credit"])
    draw = _Rows(_STRUCTURE["credit"], seed, n)
    latent = draw.normal(1.0, 3)
    cols, kinds, formats = [], [], []
    for i in range(24):
        mix = latent @ shape.normal(0.0, 1.0, 3) + draw.normal(0.8)
        lo, hi = sorted(shape.uniform(-50, 5000, 2))
        if i % 6 == 0:
            cols.append(np.clip(np.round(2.0 + mix), 0, 4))
            kinds.append("categorical")
            formats.append("%d")
        elif i % 6 == 3:
            cols.append((mix > 0).astype(float))
            kinds.append("binary")
            formats.append("%d")
        else:
            cols.append(lo + (hi - lo) * _logistic(mix))
            kinds.append("numeric")
            formats.append("%.6f")
    signal = latent @ np.array([1.2, -0.9, 0.7]) + draw.normal(0.6)
    cols.append((signal > 0).astype(float))
    kinds.append("binary")
    formats.append("%d")
    return Table(np.stack(cols, axis=1), tuple(kinds), tuple(formats), 24, "classification")


def fire(seed: int, n: int = 64) -> Table:
    """n x 13 numeric: 12 attributes on 3 latents and a skewed area-like target."""
    shape = np.random.default_rng(_STRUCTURE["fire"])
    draw = _Rows(_STRUCTURE["fire"], seed, n)
    latent = draw.normal(1.0, 3)
    cols = []
    for _ in range(12):
        mix = latent @ shape.normal(0.0, 1.0, 3) + draw.normal(0.7)
        lo, hi = sorted(shape.uniform(-10, 300, 2))
        cols.append(lo + (hi - lo) * _logistic(mix))
    drive = latent @ np.array([0.9, 0.8, -0.5]) + draw.normal(0.3)
    cols.append(40.0 * _logistic(drive) ** 2)
    return Table(np.stack(cols, axis=1), ("numeric",) * 13, ("%.6f",) * 12 + ("%.4f",), 12, "prediction")
