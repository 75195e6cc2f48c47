"""Dataset ingestion and preparation for imputation experiments.

Covers CSV loading against a light column schema, min-max scaling of every
column into [0, 1], the chronological 50/25/25 split into train, validation
and test blocks (test block = final rows), and construction of the
imputation task over one block (the test block, or the validation block for
the hidden-size search) with one column masked, whose slot in each record
is the optimizers' decision variable.  A task keeps its block whole: the
masked column holds the held-out truth, which only scoring reads.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

COLUMN_KINDS = ("numeric", "binary", "categorical")

SPLIT_LABELS = ("train", "validation", "test")


class CsvFormatError(ValueError):
    """An input CSV cannot be read, or does not match the declared schema."""


@dataclass(frozen=True)
class ColumnSpec:
    """Schema and scaling record for one dataset column.

    The fields are the keys of the column's entry in report.json's
    ``normalization`` block, which is ``asdict`` of the spec.  ``min`` and
    ``max`` are the extrema the scaler was fitted on; ``degenerate`` marks
    constant columns, which scale to 0.0 and are excluded from reporting in
    original units.  ``column`` holds no comma, double quote or line break.
    """

    column: str
    kind: str = "numeric"
    min: float = 0.0
    max: float = 1.0
    degenerate: bool = False

    def __post_init__(self) -> None:
        if any(ch in self.column for ch in ',"\r\n'):
            raise ValueError(f"the name {self.column!r} holds a comma, a double quote or a line break, "
                             "which the report's CSV files cannot hold")
        if self.kind not in COLUMN_KINDS:
            raise ValueError(
                f"unknown column kind {self.kind!r}; expected one of {COLUMN_KINDS}"
            )
        if self.min > self.max:
            raise ValueError(f"column {self.column!r}: min {self.min} exceeds max {self.max}")


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only float64 array.

    A read-only float64 array that owns its memory (normalize's) is kept as
    it is; any other, such as a block of :func:`split`, is copied, so that
    a caller's writable array is never frozen.
    """
    owned = type(values) is np.ndarray and values.base is None and values.dtype == np.float64
    if not owned or values.flags.writeable:
        values = np.array(values, dtype=float)
    values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable record-major numeric matrix plus column metadata."""

    columns: tuple[ColumnSpec, ...]
    rows: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        rows = _frozen(self.rows)
        if rows.ndim != 2:
            raise ValueError(f"rows must be a 2-D matrix, got ndim={rows.ndim}")
        if rows.shape[1] != len(self.columns):
            raise ValueError(
                f"row width {rows.shape[1]} != column count {len(self.columns)}"
            )
        if not np.isfinite(rows).all():
            raise ValueError("dataset contains non-finite values")
        if self.normalized and ((rows < 0.0).any() or (rows > 1.0).any()):
            raise ValueError("normalized dataset has values outside [0, 1]")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "columns", tuple(self.columns))

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_columns(self) -> int:
        return self.rows.shape[1]


def check_column(column: int, n_columns: int) -> None:
    """Raise ValueError unless ``column`` indexes one of ``n_columns`` columns."""
    if not 0 <= column < n_columns:
        raise ValueError(f"missing_column {column} out of range for {n_columns} columns: "
                         f"must satisfy 0 <= column <= {n_columns - 1}")


@dataclass(frozen=True, eq=False)
class ImputationTask:
    """T >= 1 records of n components with one masked ``column``.

    ``rows`` is the complete (T, n) block, kept or copied by the rule of
    :class:`Dataset`.  Its ``column`` holds the held-out originals, which
    only scoring reads (:attr:`truth`); the objective overwrites that slot
    with each candidate before it scores a record.
    """

    rows: np.ndarray
    column: int

    def __post_init__(self) -> None:
        rows = _frozen(self.rows)
        if rows.ndim != 2:
            raise ValueError(f"rows must be a (T, n) matrix, got ndim={rows.ndim}")
        if not rows.shape[0]:
            raise ValueError("a task needs at least one record")
        check_column(self.column, rows.shape[1])
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    @property
    def truth(self) -> np.ndarray:
        """The (T,) held-out values of the masked column, for scoring only."""
        return self.rows[:, self.column]


def schema_pairs(schema, n_columns: int) -> list[tuple[str, str]]:
    """One (name, kind) pair per column of ``n_columns`` from ``columns`` entries.

    ``None`` stands for ``n_columns`` numeric columns.  An entry is either a
    kind, named A1..An by its position, or a (name, kind) pair whose name is
    a string.  A wrong count, or any other entry, raises ValueError.
    """
    if schema is None:
        return [(f"A{i + 1}", "numeric") for i in range(n_columns)]
    if len(schema) != n_columns:
        raise ValueError(f"columns has {len(schema)} entries for {n_columns} columns")
    pairs = []
    for i, entry in enumerate(schema, 1):
        pair = isinstance(entry, (tuple, list)) and len(entry) == 2 and isinstance(entry[0], str)
        name, kind = entry if pair else (f"A{i}", entry)
        if kind not in COLUMN_KINDS:
            raise ValueError(f"columns entry {i} ({entry!r}) is neither a kind in {COLUMN_KINDS} "
                             "nor a (name, kind) pair with one")
        pairs.append((name, kind))
    return pairs


def _bad_token(path: Path, r: int, fields, pairs) -> CsvFormatError:
    """The error naming row ``r``'s first token that is not a finite number."""
    for c, token in enumerate(fields):
        try:
            if math.isfinite(float(token)):  # also rejects nan/inf tokens
                continue
        except ValueError:
            pass
        return CsvFormatError(
            f"{path}: row {r}, column {c + 1} ({pairs[c][0]!r}): "
            f"not a finite number: {token.strip()!r}"
        )


def load_csv(path, schema=None, header: bool = False) -> Dataset:
    """Read a comma-separated numeric file into an un-normalized Dataset.

    ``schema`` holds the ``columns`` entries that :func:`schema_pairs` reads.
    With ``header=True`` the first row supplies column names (schema kinds
    still apply).  The first data row fixes the column count, which the
    schema and the header must match; the first row of the wrong arity or
    with a token that is not a finite number raises :class:`CsvFormatError`
    naming the row and column.  A file that cannot be opened or decoded as
    UTF-8 (a leading byte-order mark is dropped) raises it naming the path.

    The file is read once.  Each row's values go straight into one buffer of
    8-byte floats, so the traced peak is about 17 bytes per cell (the buffer
    and the Dataset's own copy) and no token outlives its row.
    """
    path = Path(path)
    values = array("d")
    pairs: list[tuple[str, str]] = []
    try:
        with path.open("r", encoding="utf-8-sig", newline="") as fh:
            rows = (fields for fields in csv.reader(fh) if fields)
            names = next(rows, None) if header else None
            for r, fields in enumerate(rows, start=1):
                if r == 1:
                    try:
                        pairs = schema_pairs(schema, len(fields))
                    except ValueError as err:
                        raise CsvFormatError(f"{path}: {err}") from None
                    if names is not None:
                        if len(names) != len(fields):
                            raise CsvFormatError(
                                f"{path}: header has {len(names)} fields, data rows have {len(fields)}"
                            )
                        pairs = [(name.strip(), kind) for name, (_, kind) in zip(names, pairs)]
                if len(fields) != len(pairs):
                    raise CsvFormatError(f"{path}: row {r} has {len(fields)} fields, expected {len(pairs)}")
                try:
                    row = list(map(float, fields))
                    finite = all(map(math.isfinite, row))
                except ValueError:  # a non-numeric token
                    finite = False
                if not finite:
                    raise _bad_token(path, r, fields, pairs)
                values.fromlist(row)
    except (OSError, UnicodeDecodeError) as err:
        raise CsvFormatError(f"cannot read {path}: {err}") from None
    if not pairs:
        raise CsvFormatError(f"{path}: no data rows")

    matrix = np.frombuffer(values).reshape(-1, len(pairs))
    columns = []
    for c, (name, kind) in enumerate(pairs):
        col = matrix[:, c]
        if kind == "binary" and not np.isin(col, (0.0, 1.0)).all():
            raise CsvFormatError(
                f"{path}: column {c + 1} ({name!r}) declared binary but has "
                "values outside {0, 1}"
            )
        if kind == "categorical" and not (col == np.round(col)).all():
            raise CsvFormatError(
                f"{path}: column {c + 1} ({name!r}) declared categorical but "
                "has non-integer codes"
            )
        try:
            columns.append(ColumnSpec(name, kind, float(col.min()), float(col.max())))
        except ValueError as err:
            raise CsvFormatError(f"{path}: column {c + 1}: {err}") from None
    return Dataset(columns=tuple(columns), rows=matrix, normalized=False)


def normalize(ds: Dataset, fit_row_count: int | None = None) -> Dataset:
    """Scale every column to [0, 1] via (x - min) / (max - min).

    Extrema come from the whole dataset by default; pass ``fit_row_count`` to
    fit the scaler on a leading block only (values outside the fitted range
    are clamped into [0, 1] so downstream bounds stay valid).  Constant
    columns map to 0.0 and are flagged degenerate.
    """
    if ds.normalized:
        raise ValueError("dataset is already normalized")
    if fit_row_count is not None:
        if not 1 <= fit_row_count <= ds.n_rows:
            raise ValueError(f"fit_row_count must be in [1, {ds.n_rows}]")
        fit_block = ds.rows[:fit_row_count]
        lo = fit_block.min(axis=0)
        hi = fit_block.max(axis=0)
    else:
        lo = np.array([c.min for c in ds.columns])
        hi = np.array([c.max for c in ds.columns])

    span = hi - lo
    degenerate = span == 0.0
    safe_span = np.where(degenerate, 1.0, span)
    scaled = ds.rows - lo
    scaled /= safe_span
    scaled[:, degenerate] = 0.0
    np.clip(scaled, 0.0, 1.0, out=scaled)
    scaled.flags.writeable = False  # the Dataset keeps it without a copy

    columns = tuple(
        replace(spec, min=float(lo[i]), max=float(hi[i]), degenerate=bool(degenerate[i]))
        for i, spec in enumerate(ds.columns)
    )
    return Dataset(columns=columns, rows=scaled, normalized=True)


def denormalize(value: float, spec: ColumnSpec) -> float:
    """Map a [0, 1] value back to the column's original units."""
    if spec.degenerate:
        return spec.min
    return value * (spec.max - spec.min) + spec.min


def split_sizes(n: int) -> tuple[int, int, int]:
    """Row counts of the chronological train/validation/test blocks of ``n`` rows.

    The final floor(N/4) rows are the test block, the floor(N/4) rows before
    them validation, and everything earlier training, so 1000 rows give
    500/250/250, 517 give 259/129/129 and 270 give 136/67/67.
    """
    if n < 4:
        raise ValueError(f"need at least 4 rows for three non-empty splits, got {n}")
    block = n // 4
    return n - 2 * block, block, block


def split(ds: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The train, validation and test blocks of a normalized dataset.

    Each is a read-only view of ``ds.rows``, sized by :func:`split_sizes`.
    """
    if not ds.normalized:
        raise ValueError("split expects a normalized dataset")
    n_train, n_validation, _ = split_sizes(ds.n_rows)
    return tuple(np.split(ds.rows, [n_train, n_train + n_validation]))


def make_tasks(rows: np.ndarray, column: int) -> ImputationTask:
    """Build the imputation task of one block of rows, masking ``column``.

    The task holds every row of the block (the test block; the hidden-size
    search scores on the validation block) as one (T, n) block, copied once
    by the rule of :class:`Dataset`.  A ``column`` that :func:`check_column`
    rejects raises ValueError.
    """
    return ImputationTask(rows=rows, column=column)
