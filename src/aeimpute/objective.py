"""Reconstruction-error objective over the unknown components of records.

Given a trained autoencoder and a partially known record, a candidate for the
unknown components is scored by completing the record, passing it through the
network, and summing the squared difference between the completed record and
its reconstruction over all components.  The known components' reconstruction
shifts when the unknowns change, so every component contributes.

One objective holds the T records of one :class:`~aeimpute.data.ImputationTask`
(one mask for all of them), so that an optimizer can score candidates for all
T records in one network pass.
"""

from __future__ import annotations

import numpy as np

# Rows per network pass.  A lockstep step scores thousands of candidate rows
# at once; passes this size keep each temporary array small (on heart-shaped
# data, one pass over a whole 3,350-row step raised the run's peak memory by
# 1.7 MB, 4%).
_ROWS_PER_PASS = 512


class MissingDataObjective:
    """Objective on [0, 1]^m per record, m = number of unknown components.

    ``task`` holds T records; :meth:`evaluate_batch` reads its candidate rows
    task-major (the lockstep interface of :mod:`aeimpute.optimizers`).
    Immutable; every call is a pure function of the candidates.  Candidates
    outside the unit box raise: optimizers are expected to clamp before
    evaluating.
    """

    def __init__(self, net, task):
        if net.n_inputs != task.n:
            raise ValueError(
                f"network expects {net.n_inputs} inputs but the record has {task.n}"
            )
        self.net = net
        self.task = task
        self._unknown = task.unknown_indices

    @property
    def n_tasks(self) -> int:
        return self.task.record.shape[0]

    @property
    def dimension(self) -> int:
        return self._unknown.size

    @property
    def unknown_indices(self) -> np.ndarray:
        return self._unknown

    def _check(self, candidates: np.ndarray) -> np.ndarray:
        if (candidates < 0.0).any() or (candidates > 1.0).any():
            raise ValueError("candidate components must lie in [0, 1]")
        return candidates

    def evaluate(self, candidate) -> float:
        """Summed squared error of one candidate for a one-record objective."""
        return float(self.evaluate_batch(np.reshape(candidate, (1, -1)))[0])

    def evaluate_batch(self, candidates) -> np.ndarray:
        """Summed squared errors of a (T*k, m) task-major candidate matrix.

        Rows t*k to t*k + k - 1 are record t's candidates; the completed
        records go through the network in passes of _ROWS_PER_PASS rows.
        Whatever placeholder a record carries in its unknown slots is
        overwritten, never read.
        """
        c = np.asarray(candidates, dtype=float)
        if c.ndim != 2 or c.shape[1] != self.dimension or c.shape[0] % self.n_tasks:
            raise ValueError(
                f"expected candidate rows of length {self.dimension}, a multiple of "
                f"{self.n_tasks} of them, got shape {c.shape}"
            )
        self._check(c)
        k = c.shape[0] // self.n_tasks
        values = np.empty(c.shape[0])
        for start in range(0, c.shape[0], _ROWS_PER_PASS):
            stop = min(start + _ROWS_PER_PASS, c.shape[0])
            full = self.task.record[np.arange(start, stop) // k]
            full[:, self._unknown] = c[start:stop]
            full -= self.net.forward_batch(full)
            full *= full
            values[start:stop] = full.sum(axis=1)
        return values

    def impute(self, result) -> np.ndarray:
        """The (T, n) records completed with an optimizer result's best points.

        Known components are returned untouched.
        """
        points = np.asarray(result.best_points, dtype=float)
        if points.shape != (self.n_tasks, self.dimension):
            raise ValueError(
                f"expected a best point of length {self.dimension} for each of "
                f"{self.n_tasks} records, got shape {points.shape}"
            )
        full = np.array(self.task.record)
        full[:, self._unknown] = self._check(points)
        return full
