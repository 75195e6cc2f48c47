"""Dataset ingestion and preparation for imputation experiments.

Covers CSV loading against a light column schema, min-max scaling of every
column into [0, 1], the chronological 50/25/25 split into train, validation
and test blocks (test block = final rows), and construction of the masked
imputation task over one block (the test block, or the validation block for
the hidden-size search), whose unknown slots are the optimizers' decision
variables.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

COLUMN_KINDS = ("numeric", "binary", "categorical")

#: Placeholder stored in the unknown slots of a task record; it only keeps
#: vectors rectangular and must never be read as data.
MISSING_SENTINEL = 0.5

SPLIT_LABELS = ("train", "validation", "test")


class CsvFormatError(ValueError):
    """An input CSV cannot be read, or does not match the declared schema."""


@dataclass(frozen=True)
class ColumnSpec:
    """Schema and scaling record for one dataset column.

    ``observed_min``/``observed_max`` are the extrema the scaler was fitted
    on; ``degenerate`` marks constant columns, which scale to 0.0 and are
    excluded from reporting in original units.
    """

    name: str
    kind: str = "numeric"
    observed_min: float = 0.0
    observed_max: float = 1.0
    degenerate: bool = False

    def __post_init__(self) -> None:
        if self.kind not in COLUMN_KINDS:
            raise ValueError(
                f"unknown column kind {self.kind!r}; expected one of {COLUMN_KINDS}"
            )
        if self.observed_min > self.observed_max:
            raise ValueError(
                f"column {self.name!r}: observed_min {self.observed_min} "
                f"exceeds observed_max {self.observed_max}"
            )


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only float64 array.

    A read-only float64 array that owns its memory (normalize's and
    make_tasks') is kept as it is; any other is copied, so that a caller's
    writable array is never frozen.
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


@dataclass(frozen=True, eq=False)
class ImputationTask:
    """T records sharing one boolean known-mask over their n components.

    ``record`` is (T, n) and ``known_mask`` is (n,).  Components where the
    mask is False are the unknowns to estimate; their slots in ``record``
    hold :data:`MISSING_SENTINEL` when built by :func:`make_tasks` and are
    never read as data.  ``true_values`` (T, n) keeps the held-out originals
    for scoring.  Both are kept or copied by the rule of :class:`Dataset`.
    """

    record: np.ndarray
    known_mask: np.ndarray
    true_values: np.ndarray | None = None

    def __post_init__(self) -> None:
        record = _frozen(self.record)
        mask = np.array(self.known_mask, dtype=bool)
        if record.ndim != 2 or mask.shape != record.shape[1:]:
            raise ValueError("record must be (T, n) and known_mask (n,)")
        if not mask.any():
            raise ValueError("at least one component must be known")
        if mask.all():
            raise ValueError("at least one component must be unknown")
        mask.flags.writeable = False
        object.__setattr__(self, "record", record)
        object.__setattr__(self, "known_mask", mask)
        if self.true_values is not None:
            truth = _frozen(self.true_values)
            if truth.shape != record.shape:
                raise ValueError("true_values must match the records' shape")
            object.__setattr__(self, "true_values", truth)

    @property
    def n(self) -> int:
        return self.record.shape[1]

    @property
    def unknown_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.known_mask)


def _normalize_schema(path: Path, schema, n_columns: int) -> list[tuple[str, str]]:
    """Expand schema hints to one (name, kind) pair per column of the file ``path``."""
    if schema is None:
        return [(f"A{i + 1}", "numeric") for i in range(n_columns)]
    if len(schema) != n_columns:
        raise CsvFormatError(
            f"{path}: schema declares {len(schema)} columns but file has {n_columns}"
        )
    out: list[tuple[str, str]] = []
    for i, hint in enumerate(schema):
        if isinstance(hint, str):
            out.append((f"A{i + 1}", hint))
        else:
            name, kind = hint
            out.append((str(name), str(kind)))
    for name, kind in out:
        if kind not in COLUMN_KINDS:
            raise CsvFormatError(
                f"{path}: column {name!r}: unknown kind {kind!r}; expected one of {COLUMN_KINDS}"
            )
    return out


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

    ``schema`` may be None (all columns numeric, named A1..An), a list of kind
    strings, or a list of (name, kind) pairs.  With ``header=True`` the first
    row supplies column names (schema kinds still apply).  The first data row
    fixes the column count, which the schema and the header must match; the
    first row of the wrong arity or with a token that is not a finite number
    raises :class:`CsvFormatError` naming the row and column.  A file that
    cannot be opened or decoded as UTF-8 raises it naming the path.

    The file is read once.  Each row's values go straight into one buffer of
    8-byte floats, so the traced peak is about 17 bytes per cell (the buffer
    and the Dataset's own copy) and no token outlives its row.
    """
    path = Path(path)
    values = array("d")
    pairs: list[tuple[str, str]] = []
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            rows = (fields for fields in csv.reader(fh) if fields)
            names = next(rows, None) if header else None
            for r, fields in enumerate(rows, start=1):
                if r == 1:
                    pairs = _normalize_schema(path, schema, len(fields))
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
        columns.append(
            ColumnSpec(
                name=name,
                kind=kind,
                observed_min=float(col.min()),
                observed_max=float(col.max()),
            )
        )
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
        lo = np.array([c.observed_min for c in ds.columns])
        hi = np.array([c.observed_max for c in ds.columns])

    span = hi - lo
    degenerate = span == 0.0
    safe_span = np.where(degenerate, 1.0, span)
    scaled = ds.rows - lo
    scaled /= safe_span
    scaled[:, degenerate] = 0.0
    np.clip(scaled, 0.0, 1.0, out=scaled)
    scaled.flags.writeable = False  # the Dataset keeps it without a copy

    columns = tuple(
        replace(
            spec,
            observed_min=float(lo[i]),
            observed_max=float(hi[i]),
            degenerate=bool(degenerate[i]),
        )
        for i, spec in enumerate(ds.columns)
    )
    return Dataset(columns=columns, rows=scaled, normalized=True)


def denormalize(value: float, spec: ColumnSpec) -> float:
    """Map a [0, 1] value back to the column's original units."""
    if spec.degenerate:
        return spec.observed_min
    return value * (spec.observed_max - spec.observed_min) + spec.observed_min


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


def make_tasks(rows: np.ndarray, missing_columns: set[int]) -> ImputationTask:
    """Build the imputation task of one block of rows, masking ``missing_columns``.

    The task holds every row of the block (the test block; the hidden-size
    search scores on the validation block) as one (T, n) block.  Masked
    slots hold :data:`MISSING_SENTINEL`; the held-out originals move to
    ``true_values`` for later scoring.
    """
    n_columns = rows.shape[1]
    if not missing_columns:
        raise ValueError("missing_columns must be non-empty")
    miss = sorted(int(c) for c in missing_columns)
    for c in miss:
        if not 0 <= c < n_columns:
            raise ValueError(f"missing column index {c} out of range [0, {n_columns})")
    if len(miss) == n_columns:
        raise ValueError("cannot mask every column: at least one must stay known")
    mask = np.ones(n_columns, dtype=bool)
    mask[miss] = False
    records = rows.copy()
    records[:, miss] = MISSING_SENTINEL
    records.flags.writeable = False  # the task keeps it without a copy
    return ImputationTask(record=records, known_mask=mask, true_values=rows)
