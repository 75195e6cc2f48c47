"""Reconstruction-error objective over the masked column of records.

Given a trained autoencoder and a record with one masked column, a candidate
value in [0, 1] is scored by writing it into that column, passing the
completed record through the network, and summing the squared difference
between the completed record and its reconstruction over all components.
The known components' reconstruction shifts when the masked value changes,
so every component contributes.

One objective holds the T records of one :class:`~aeimpute.data.ImputationTask`
(one masked column for all of them), so that an optimizer can score
candidates for all T records in one network pass.  The objective can also be
minimized over a fixed grid of [0, 1] (:meth:`grid_minimize`), scored a block
of records at a time through the same pass loop, so that the grid's memory
does not grow with T.

Rows are scored independently of their batch: a row's value is the same, bit
for bit, in a pass of any size and at any position in it (the tests check
passes of 1 to 1,030 rows on networks of the benchmark shapes).  BLAS
multiplies a pass of two or more rows as a matrix, but a single row by its
matrix-vector path, which sums in another order and can differ in the last
bit.  So a one-row pass is scored as two copies of its row, and the first
copy's value is kept.  A one-task search is thus, bit for bit, its task's
part of a lockstep search (see :mod:`aeimpute.optimizers`).  The network's own
passes, in training and :meth:`~aeimpute.network.Autoencoder.forward_batch`,
are left as they are.
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

# Records whose grids :meth:`MissingDataObjective.grid_minimize` scores at
# once: 4,010 rows, about eight passes.
_GRID_RECORDS_PER_BLOCK = 10


class MissingDataObjective:
    """Objective on [0, 1] per record: the value of the task's masked column.

    ``task`` holds T records; :meth:`evaluate_batch` reads its candidate
    values task-major (the lockstep interface of :mod:`aeimpute.optimizers`).
    Immutable; every call is a pure function of the candidates.  Candidates
    outside [0, 1], NaN included, raise: optimizers are expected to clamp
    before evaluating.
    """

    def __init__(self, net, task):
        if net.n_inputs != task.n:
            raise ValueError(
                f"network expects {net.n_inputs} inputs but the record has {task.n}"
            )
        self.net = net
        self.task = task

    @property
    def n_tasks(self) -> int:
        return self.task.record.shape[0]

    def evaluate(self, candidate: float) -> float:
        """Summed squared error of one candidate value for a one-record objective."""
        return float(self.evaluate_batch(np.array([candidate], dtype=float))[0])

    def evaluate_batch(self, candidates) -> np.ndarray:
        """Summed squared errors of a (T*k,) task-major candidate vector.

        Entries t*k to t*k + k - 1 are record t's candidates.  Whatever
        placeholder a record carries in its masked slot is overwritten,
        never read.
        """
        c = np.asarray(candidates, dtype=float)
        if c.ndim != 1 or c.size % self.n_tasks:
            raise ValueError(f"expected a vector whose length is a multiple of {self.n_tasks}, got shape {c.shape}")
        # One pass per bound; a NaN propagates to both and fails both tests.
        lo = np.minimum.reduce(c, initial=1.0)
        hi = np.maximum.reduce(c, initial=0.0)
        if not (lo >= 0.0 and hi <= 1.0):
            raise ValueError("candidates must lie in [0, 1]")
        return self._squared_errors(self.task.record, c)

    def _squared_errors(self, record: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Summed squared reconstruction errors of the task-major candidates ``c``.

        ``record`` is a block of the task's records, ``c`` holds the same
        number of candidates for each.  Each record is completed with its
        candidates, and the completed rows go through the network in passes
        of _ROWS_PER_PASS rows; a one-row pass as two copies of its row,
        keeping the first copy's error.
        """
        rows = c.size
        k = rows // record.shape[0]
        column = self.task.column
        values = np.empty(rows)
        for start in range(0, rows, _ROWS_PER_PASS):
            stop = min(start + _ROWS_PER_PASS, rows)
            # With one candidate per record, row r completes record r.
            full = record[start:stop].copy() if k == 1 else record[np.arange(start, stop) // k]
            full[:, column] = c[start:stop]
            if stop - start == 1:
                full = np.concatenate([full, full])
            full -= self.net.forward_batch(full)
            full *= full
            np.add.reduce(full[: stop - start], axis=1, out=values[start:stop])
        return values

    def grid_minimize(self) -> tuple[np.ndarray, np.ndarray]:
        """The (T,) minimizers and minima over GRID_POINTS evenly spaced points of [0, 1].

        Ties go to the lower point.  The grids of _GRID_RECORDS_PER_BLOCK
        records at a time are scored as one task-major vector, in the passes
        of :meth:`evaluate_batch`, and only that block's values are held, so
        the peak memory does not depend on T.
        """
        grid = np.linspace(0.0, 1.0, GRID_POINTS)
        grids = np.tile(grid, _GRID_RECORDS_PER_BLOCK)
        points, minima = np.empty(self.n_tasks), np.empty(self.n_tasks)
        for start in range(0, self.n_tasks, _GRID_RECORDS_PER_BLOCK):
            block = self.task.record[start : start + _GRID_RECORDS_PER_BLOCK]
            b = block.shape[0]
            values = self._squared_errors(block, grids[: b * GRID_POINTS]).reshape(b, GRID_POINTS)
            best = values.argmin(axis=1)  # the first of equal values: the lowest point
            points[start : start + b] = grid[best]
            minima[start : start + b] = values[np.arange(b), best]
        return points, minima
