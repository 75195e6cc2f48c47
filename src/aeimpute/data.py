"""Dataset ingestion and preparation for imputation experiments.

Covers CSV loading against a light column schema, min-max scaling of every
column into [0, 1], the chronological 50/25/25 train/validation/test split
(test block = final rows), and construction of the masked imputation task
over a block (the test block, or the validation block for the hidden-size
search), whose unknown slots are the optimizers' decision variables.
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
    """An input CSV does not match the declared schema."""


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


@dataclass(frozen=True)
class Dataset:
    """Immutable record-major numeric matrix plus column metadata.

    ``split`` is None until :func:`split` assigns one label per row.
    """

    columns: tuple[ColumnSpec, ...]
    rows: np.ndarray
    normalized: bool = False
    split: np.ndarray | None = None

    def __post_init__(self) -> None:
        rows = self.rows
        # A read-only float64 matrix that owns its memory (normalize's and
        # split's) is kept as it is; any other is copied, so that a caller's
        # writable array is never frozen.
        owned = type(rows) is np.ndarray and rows.base is None and rows.dtype == np.float64
        if not owned or rows.flags.writeable:
            rows = np.array(rows, dtype=float)
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
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "columns", tuple(self.columns))
        if self.split is not None:
            labels = np.array(self.split)
            if labels.shape != (rows.shape[0],):
                raise ValueError("split labels must have one entry per row")
            if not set(labels.tolist()) <= set(SPLIT_LABELS):
                raise ValueError(f"split labels must be among {SPLIT_LABELS}")
            labels.flags.writeable = False
            object.__setattr__(self, "split", labels)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_columns(self) -> int:
        return self.rows.shape[1]

    def rows_for(self, label: str) -> np.ndarray:
        if self.split is None:
            raise ValueError("dataset has no split assignment yet")
        if label not in SPLIT_LABELS:
            raise ValueError(f"unknown split label {label!r}")
        return self.rows[self.split == label]

    @property
    def train_rows(self) -> np.ndarray:
        return self.rows_for("train")


@dataclass(frozen=True)
class ImputationTask:
    """T records sharing one boolean known-mask over their n components.

    ``record`` is (T, n) and ``known_mask`` is (n,).  Components where the
    mask is False are the unknowns to estimate; their slots in ``record``
    hold :data:`MISSING_SENTINEL` when built by :func:`make_tasks` and are
    never read as data.  ``true_values`` (T, n) keeps the held-out originals
    for scoring.
    """

    record: np.ndarray
    known_mask: np.ndarray
    true_values: np.ndarray | None = None

    def __post_init__(self) -> None:
        record = np.array(self.record, dtype=float)
        mask = np.array(self.known_mask, dtype=bool)
        if record.ndim != 2 or mask.shape != record.shape[1:]:
            raise ValueError("record must be (T, n) and known_mask (n,)")
        if not mask.any():
            raise ValueError("at least one component must be known")
        if mask.all():
            raise ValueError("at least one component must be unknown")
        record.flags.writeable = False
        mask.flags.writeable = False
        object.__setattr__(self, "record", record)
        object.__setattr__(self, "known_mask", mask)
        if self.true_values is not None:
            truth = np.array(self.true_values, dtype=float)
            if truth.shape != record.shape:
                raise ValueError("true_values must match the records' shape")
            truth.flags.writeable = False
            object.__setattr__(self, "true_values", truth)

    @property
    def n(self) -> int:
        return self.record.shape[1]

    @property
    def unknown_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.known_mask)


def _normalize_schema(
    schema, n_columns: int
) -> list[tuple[str, str]]:
    """Expand schema hints to one (name, kind) pair per column."""
    if schema is None:
        return [(f"A{i + 1}", "numeric") for i in range(n_columns)]
    if len(schema) != n_columns:
        raise CsvFormatError(
            f"schema declares {len(schema)} columns but file has {n_columns}"
        )
    out: list[tuple[str, str]] = []
    for i, hint in enumerate(schema):
        if isinstance(hint, ColumnSpec):
            out.append((hint.name, hint.kind))
        elif isinstance(hint, str):
            out.append((f"A{i + 1}", hint))
        else:
            name, kind = hint
            out.append((str(name), str(kind)))
    for name, kind in out:
        if kind not in COLUMN_KINDS:
            raise CsvFormatError(
                f"column {name!r}: unknown kind {kind!r}; expected one of {COLUMN_KINDS}"
            )
    return out


def _raise_first_bad_cell(path: Path, raw_rows, pairs) -> None:
    """Raise the error of the first row of the wrong arity or non-finite token, in reading order."""
    for r, fields in enumerate(raw_rows, start=1):
        if len(fields) != len(pairs):
            raise CsvFormatError(f"{path}: row {r} has {len(fields)} fields, expected {len(pairs)}")
        for c, token in enumerate(fields):
            try:
                finite = math.isfinite(float(token))  # also rejects nan/inf tokens
            except ValueError:
                finite = False
            if not finite:
                raise CsvFormatError(
                    f"{path}: row {r}, column {c + 1} ({pairs[c][0]!r}): "
                    f"not a finite number: {token.strip()!r}"
                )


def _csv_rows(fh, header: bool):
    """The header's names (None without one) and an iterator over the data
    rows of an open CSV file, blank lines skipped."""
    rows = (fields for fields in csv.reader(fh) if fields)
    names = next(rows, None) if header else None
    return None if names is None else [f.strip() for f in names], rows


def load_csv(path, schema=None, header: bool = False) -> Dataset:
    """Read a comma-separated numeric file into an un-normalized Dataset.

    ``schema`` may be None (all columns numeric, named A1..An), a list of kind
    strings, or a list of (name, kind) pairs.  With ``header=True`` the first
    row supplies column names (schema kinds still apply).  Rows with the wrong
    arity or non-numeric tokens raise :class:`CsvFormatError` naming the row
    and column.

    Each row's values go straight into one buffer of 8-byte floats, so the
    traced peak is about 17 bytes per cell (the buffer and the Dataset's own
    copy) and no token outlives its row.  Only a file with a bad row is read
    a second time, to name the first bad row or cell in reading order.
    """
    path = Path(path)
    values = array("d")
    n_columns = 0  # the first data row's
    clean = False
    with path.open("r", encoding="utf-8", newline="") as fh:
        header_names, rows = _csv_rows(fh, header)
        for fields in rows:
            n_columns = n_columns or len(fields)
            if len(fields) != n_columns:
                break
            try:
                values.fromlist(list(map(float, fields)))
            except ValueError:  # a non-numeric token
                break
        else:
            clean = True
    if not n_columns:
        raise CsvFormatError(f"{path}: no data rows")

    pairs = _normalize_schema(schema, n_columns)
    if header_names is not None:
        if len(header_names) != n_columns:
            raise CsvFormatError(
                f"{path}: header has {len(header_names)} fields, data rows have {n_columns}"
            )
        pairs = [(header_names[i], pairs[i][1]) for i in range(n_columns)]

    matrix = np.frombuffer(values).reshape(-1, n_columns)  # the rows before any bad one
    if not (clean and np.isfinite(matrix).all()):
        with path.open("r", encoding="utf-8", newline="") as fh:
            _raise_first_bad_cell(path, _csv_rows(fh, header)[1], pairs)
        raise CsvFormatError(f"{path}: the file changed while it was read")

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


def split(ds: Dataset) -> Dataset:
    """Assign chronological train/validation/test labels (see :func:`split_sizes`)."""
    if not ds.normalized:
        raise ValueError("split expects a normalized dataset")
    sizes = split_sizes(ds.n_rows)
    labels = np.repeat(np.array(SPLIT_LABELS, dtype=object), sizes)
    return Dataset(columns=ds.columns, rows=ds.rows, normalized=True, split=labels)


def make_tasks(ds: Dataset, missing_columns: set[int], block: str = "test") -> ImputationTask:
    """Build the imputation task of one split block, masking ``missing_columns``.

    The task holds every row of ``block`` (the test block unless told
    otherwise; the hidden-size search scores on the validation block) as one
    (T, n) block.  Masked slots hold :data:`MISSING_SENTINEL`; the held-out
    originals move to ``true_values`` for later scoring.
    """
    if not missing_columns:
        raise ValueError("missing_columns must be non-empty")
    miss = sorted(int(c) for c in missing_columns)
    for c in miss:
        if not 0 <= c < ds.n_columns:
            raise ValueError(f"missing column index {c} out of range [0, {ds.n_columns})")
    if len(miss) == ds.n_columns:
        raise ValueError("cannot mask every column: at least one must stay known")
    mask = np.ones(ds.n_columns, dtype=bool)
    mask[miss] = False
    rows = ds.rows_for(block)
    records = rows.copy()
    records[:, miss] = MISSING_SENTINEL
    return ImputationTask(record=records, known_mask=mask, true_values=rows)

