"""Reconstruction-error objective over the unknown components of a record.

Given a trained autoencoder and a partially known record, a candidate for the
unknown components is scored by completing the record, passing it through the
network, and summing the squared difference between the completed record and
its reconstruction over all components.  The known components' reconstruction
shifts when the unknowns change, so every component contributes.
"""

from __future__ import annotations

import numpy as np

from .data import ImputationTask


class MissingDataObjective:
    """Scalar objective on [0, 1]^m, m = number of unknown components.

    Immutable and safe for concurrent evaluation; every call is a pure
    function of the candidate vector.  Candidates outside the unit box raise:
    optimizers are expected to clamp before evaluating.
    """

    def __init__(self, net, task: ImputationTask):
        n = task.record.shape[0]
        if net.n_inputs != n:
            raise ValueError(
                f"network expects {net.n_inputs} inputs but the record has {n}"
            )
        self.net = net
        self.task = task
        self._unknown = task.unknown_indices
        # Candidate values overwrite the unknown slots on every evaluation,
        # so whatever placeholder the record carries there is never read.
        self._base = np.array(task.record, dtype=float)

    @property
    def dimension(self) -> int:
        return self._unknown.size

    @property
    def unknown_indices(self) -> np.ndarray:
        return self._unknown

    @property
    def bounds(self) -> list[tuple[float, float]]:
        return [(0.0, 1.0)] * self.dimension

    def _check(self, candidate) -> np.ndarray:
        c = np.asarray(candidate, dtype=float)
        if c.shape != (self.dimension,):
            raise ValueError(
                f"candidate must have length {self.dimension}, got shape {c.shape}"
            )
        if (c < 0.0).any() or (c > 1.0).any():
            raise ValueError("candidate components must lie in [0, 1]")
        return c

    def complete(self, candidate) -> np.ndarray:
        """Scatter a candidate into the unknown slots of the record."""
        c = self._check(candidate)
        full = self._base.copy()
        full[self._unknown] = c
        return full

    def evaluate(self, candidate) -> float:
        """Summed squared error between the completed record and its reconstruction."""
        full = self.complete(candidate)
        diff = full - self.net.forward(full)
        return float(diff @ diff)

    def evaluate_batch(self, candidates) -> np.ndarray:
        """Vectorized :meth:`evaluate` over a (k, m) matrix of candidates."""
        c = np.asarray(candidates, dtype=float)
        if c.ndim != 2 or c.shape[1] != self.dimension:
            raise ValueError(
                f"candidates must be (k, {self.dimension}), got shape {c.shape}"
            )
        if (c < 0.0).any() or (c > 1.0).any():
            raise ValueError("candidate components must lie in [0, 1]")
        full = np.tile(self._base, (c.shape[0], 1))
        full[:, self._unknown] = c
        diff = full - self.net.forward_batch(full)
        return (diff * diff).sum(axis=1)

    def impute(self, result) -> np.ndarray:
        """Complete the record with an optimizer's best point.

        Accepts an OptimizerResult (uses ``best_point``); known components are
        returned untouched.
        """
        point = getattr(result, "best_point", result)
        return self.complete(point)
