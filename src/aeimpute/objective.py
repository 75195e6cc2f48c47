"""Reconstruction-error objective over the unknown components of records.

Given a trained autoencoder and a partially known record, a candidate for the
unknown components is scored by completing the record, passing it through the
network, and summing the squared difference between the completed record and
its reconstruction over all components.  The known components' reconstruction
shifts when the unknowns change, so every component contributes.

One objective stacks the T records of tasks that share one mask, so that an
optimizer can score candidates for all of them in one network pass.
"""

from __future__ import annotations

import numpy as np

from .data import ImputationTask
from .optimizers import OptimizerResult

# Rows per network pass.  A lockstep step scores thousands of candidate rows
# at once; passes this size keep each temporary array small (on heart-shaped
# data, one pass over a whole 3,350-row step raised the run's peak memory by
# 1.7 MB, 4%).
_ROWS_PER_PASS = 512


class MissingDataObjective:
    """Objective on [0, 1]^m per task, m = number of unknown components.

    ``tasks`` is one ImputationTask or a sequence of tasks sharing one mask.
    :meth:`evaluate_batch` reads its candidate rows task-major (the lockstep
    interface of :mod:`aeimpute.optimizers`).  Immutable; every call is a
    pure function of the candidates.  Candidates outside the unit box raise:
    optimizers are expected to clamp before evaluating.
    """

    def __init__(self, net, tasks):
        tasks = (tasks,) if isinstance(tasks, ImputationTask) else tuple(tasks)
        if not tasks:
            raise ValueError("need at least one task")
        mask = tasks[0].known_mask
        if any(not np.array_equal(t.known_mask, mask) for t in tasks):
            raise ValueError("stacked tasks must share one mask")
        n = mask.shape[0]
        if net.n_inputs != n:
            raise ValueError(
                f"network expects {net.n_inputs} inputs but the record has {n}"
            )
        self.net = net
        self.tasks = tasks
        self._unknown = tasks[0].unknown_indices
        # Candidate values overwrite the unknown slots on every evaluation,
        # so whatever placeholder a record carries there is never read.
        self._base = np.array([t.record for t in tasks], dtype=float)

    @property
    def n_tasks(self) -> int:
        return self._base.shape[0]

    @property
    def dimension(self) -> int:
        return self._unknown.size

    @property
    def unknown_indices(self) -> np.ndarray:
        return self._unknown

    @property
    def bounds(self) -> list[tuple[float, float]]:
        return [(0.0, 1.0)] * self.dimension

    def _check(self, candidates: np.ndarray) -> np.ndarray:
        if (candidates < 0.0).any() or (candidates > 1.0).any():
            raise ValueError("candidate components must lie in [0, 1]")
        return candidates

    def complete(self, candidates) -> np.ndarray:
        """Scatter candidates into the unknown slots of the records.

        A one-task objective takes one length-m candidate and returns its
        completed record; any objective takes a (T, m) matrix, one candidate
        per task, and returns the (T, n) completed records.
        """
        c = np.asarray(candidates, dtype=float)
        single = c.ndim == 1
        if (c[None] if single else c).shape != (self.n_tasks, self.dimension):
            raise ValueError(
                f"expected a candidate of length {self.dimension} for each of "
                f"{self.n_tasks} tasks, got shape {c.shape}"
            )
        full = self._base.copy()
        full[:, self._unknown] = self._check(c)
        return full[0] if single else full

    def evaluate(self, candidate) -> float:
        """Summed squared error of one candidate for a one-task objective."""
        return float(self.evaluate_batch(np.reshape(candidate, (1, -1)))[0])

    def evaluate_batch(self, candidates) -> np.ndarray:
        """Summed squared errors of a (T*k, m) task-major candidate matrix.

        Rows t*k to t*k + k - 1 are task t's candidates; the completed
        records go through the network in passes of _ROWS_PER_PASS rows.
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
            full = self._base[np.arange(start, stop) // k]
            full[:, self._unknown] = c[start:stop]
            full -= self.net.forward_batch(full)
            full *= full
            values[start:stop] = full.sum(axis=1)
        return values

    def impute(self, results) -> np.ndarray:
        """Complete the records with optimizer best points.

        One OptimizerResult completes a one-task objective's record; a
        sequence of T results, one per task, completes all T records.  Known
        components are returned untouched.
        """
        if isinstance(results, OptimizerResult):
            return self.complete(results.best_point)
        return self.complete([r.best_point for r in results])
