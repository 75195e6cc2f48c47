"""Reconstruction-error objective over the unknown components of records.

Given a trained autoencoder and a partially known record, a candidate for the
unknown components is scored by completing the record, passing it through the
network, and summing the squared difference between the completed record and
its reconstruction over all components.  The known components' reconstruction
shifts when the unknowns change, so every component contributes.

One objective holds the T records of one :class:`~aeimpute.data.ImputationTask`
(one mask for all of them), so that an optimizer can score candidates for all
T records in one network pass.  With one unknown component, the objective can
also be minimized over a fixed grid of [0, 1] (:meth:`grid_minimize`).

Rows are scored independently of their batch: a row's value is the same, bit
for bit, in a pass of any size and at any position in it (the tests check
passes of 1 to 1,030 rows on networks of the benchmark shapes).  BLAS
multiplies a pass of two or more rows as a matrix, but a single row by its
matrix-vector path, which sums in another order and can differ in the last
bit.  So a one-row pass is scored as two copies of its row, and the first
copy's value is kept.  A one-task search is thus, bit for bit, its task's
part of a lockstep search (see :mod:`aeimpute.optimizers`).  The network's
own passes, in training and
:meth:`~aeimpute.network.Autoencoder.forward_batch`, are left as they are.
"""

from __future__ import annotations

import numpy as np

# Rows per network pass.  A lockstep step scores thousands of candidate rows
# at once; passes this size keep each temporary array small (on heart-shaped
# data, one pass over a whole 3,350-row step raised the run's peak memory by
# 1.7 MB, 4%).
_ROWS_PER_PASS = 512

# Evenly spaced points of [0, 1] that :meth:`MissingDataObjective.grid_minimize`
# scores, 0.0025 apart.
GRID_POINTS = 401


class MissingDataObjective:
    """Objective on [0, 1]^m per record, m = number of unknown components.

    ``task`` holds T records; :meth:`evaluate_batch` reads its candidate rows
    task-major (the lockstep interface of :mod:`aeimpute.optimizers`).
    Immutable; every call is a pure function of the candidates.  Candidates
    outside the unit box, NaN included, raise: optimizers are expected to
    clamp before evaluating.
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

    def _check(self, candidates: np.ndarray) -> np.ndarray:
        # One pass per bound; a NaN propagates to both and fails both tests.
        lo = np.minimum.reduce(candidates, axis=None, initial=1.0)
        hi = np.maximum.reduce(candidates, axis=None, initial=0.0)
        if not (lo >= 0.0 and hi <= 1.0):
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
        rows = c.shape[0]
        k = rows // self.n_tasks
        record = self.task.record
        values = np.empty(rows)
        for start in range(0, rows, _ROWS_PER_PASS):
            stop = min(start + _ROWS_PER_PASS, rows)
            # With one candidate per record, row r completes record r.
            full = record[start:stop].copy() if k == 1 else record[np.arange(start, stop) // k]
            full[:, self._unknown] = c[start:stop]
            self._squared_errors(full, values[start:stop])
        return values

    def _squared_errors(self, full: np.ndarray, out: np.ndarray) -> None:
        """Summed squared reconstruction errors of completed rows, into ``out``.

        ``full`` may be overwritten.  A single row goes through the network
        as two copies of itself, and the first copy's error is kept.
        """
        if full.shape[0] == 1:
            full = np.concatenate([full, full])
        full -= self.net.forward_batch(full)
        full *= full
        np.add.reduce(full[: out.shape[0]], axis=1, out=out)

    def grid_minimize(self) -> tuple[np.ndarray, np.ndarray]:
        """The (T,) minimizers and minima over GRID_POINTS evenly spaced points of [0, 1].

        For an objective with one unknown component; ties go to the lower
        point.  Records go through the network one at a time, so no
        temporary holds more than one record's GRID_POINTS rows.
        """
        if self.dimension != 1:
            raise ValueError(f"a grid search needs one unknown component, not {self.dimension}")
        grid = np.linspace(0.0, 1.0, GRID_POINTS)
        points = np.empty(self.n_tasks)
        minima = np.empty(self.n_tasks)
        values = np.empty(GRID_POINTS)
        for t, record in enumerate(self.task.record):
            full = np.tile(record, (GRID_POINTS, 1))
            full[:, self._unknown[0]] = grid
            self._squared_errors(full, values)
            best = int(np.argmin(values))  # the first of equal values: the lowest point
            points[t], minima[t] = grid[best], values[best]
        return points, minima

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
