"""Checks a report directory against computations made apart from the program.

The unit of account is the (method, test record) cell.  A cell fails when a
check on its own value fails, when a check on its method's scores or budget
fails, or when a check on the whole run fails (split counts, the program's
own verification, byte-identity with an earlier round).  Nothing here is
compared with a stored copy of earlier output: expected values come from the
generated table, the documented budget formulas, a separate parser and
forward pass for ``model.txt``, and plain-numpy metric formulas.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

OPTIMIZER_METHODS = ("ga", "sa", "pso", "ns")

# Metric recomputations agree with the stored values to rounding; 1e-9 is the
# tolerance the program's own verification uses.
METRIC_TOL = 1e-9
# A stored normalized truth is the same arithmetic on the same CSV text.
TRUTH_TOL = 1e-12
# Original-unit values pass through a scale and a shift.
ORIGINAL_RTOL = 1e-9
# Local-minimum check: no point within +-LOCAL_RADIUS of the value and more
# than LOCAL_SLACK away from it may score more than LOCAL_TOL below it.  The
# slack is in x because NS keeps the best of about 5000 scattered samples: it
# lands close to the minimizer, but on a steep slope up to 1e-3 above it
# (heart-paper, seed 8).  The tolerance is in the objective because GA and
# PSO can stall near a minimizer: PSO at a bound of [0, 1] with the
# minimizer just inside (7e-5 above it, heart-paper, seed 2), GA at 0.625,
# whose bit pattern is many flips away from its neighbours (1.7e-4, seed 10).
# These objectives are shallow, rising by a median 4.6e-4 0.02 from the
# minimizer (heart-paper, seeds 0-10), so 1e-3 catches a value about 0.03 or
# more off a minimizer, not a search that stops a little short.  SA is left
# out: it returns the best point it ever sampled, and a hot walker can visit
# a basin once and leave, so its value need not be near any local minimum
# (heart-paper, seed 1, record 29: 6.7e-3 above a point 0.02 away).
LOCAL_MIN_METHODS = ("ga", "pso", "ns")
LOCAL_RADIUS = 0.02
LOCAL_POINTS = 801
LOCAL_SLACK = 0.005
LOCAL_TOL = 1e-3
# global_miss: an optimizer value scoring more than this above the minimum
# over a GLOBAL_POINTS grid of [0, 1] counts as a miss.
GLOBAL_POINTS = 2001
GLOBAL_TOL = 1e-4


@dataclass
class Outcome:
    """Cells attempted and failed, with one message per failed check."""

    cells: list[tuple[str, int]]
    failed: set[tuple[str, int]] = field(default_factory=set)
    messages: list[str] = field(default_factory=list)

    def fail(self, cells, message: str) -> None:
        self.failed.update(cells)
        self.messages.append(message)


class ModelReader:
    """``model.txt`` parsed independently: 'n h', then W1, b1, W2, b2 values."""

    def __init__(self, path: Path):
        lines = path.read_text(encoding="utf-8").split()
        n, h = int(lines[0]), int(lines[1])
        v = np.array([float(t) for t in lines[2:]])
        if v.size != 2 * n * h + n + h:
            raise ValueError(f"{path}: {v.size} values for n={n}, h={h}")
        self.n, self.h = n, h
        self.w1 = v[: h * n].reshape(h, n)
        self.b1 = v[h * n : h * n + h]
        self.w2 = v[h * n + h : 2 * h * n + h].reshape(n, h)
        self.b2 = v[2 * h * n + h :]

    def objective(self, record: np.ndarray, column: int, values: np.ndarray) -> np.ndarray:
        """Summed squared reconstruction error with ``record[column]`` set to each value."""
        full = np.tile(record, (values.size, 1))
        full[:, column] = values
        hidden = np.tanh(full @ self.w1.T + self.b1)
        out = 0.5 * (1.0 + np.tanh(0.5 * (hidden @ self.w2.T + self.b2)))
        return ((full - out) ** 2).sum(axis=1)


def budget(method: str, settings: dict) -> int:
    """Evaluations per task, by the formulas documented in optimizers.py."""
    s = settings
    if method == "ga":
        return s["ga.population"] + s["ga.generations"] * (s["ga.population"] - s["ga.elitism"])
    if method == "sa":
        return 1 + 100 + s["sa.temperature_steps"] * s["sa.moves_per_step"]
    if method == "pso":
        return s["pso.swarm"] * (s["pso.iterations"] + 1)
    return s["ns.detectors"] * s["ns.generations"]


def concordance_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """P(positive outscores negative) over all pairs, ties counting one half."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins) / (pos.size * neg.size)


def plain_scores(truth: np.ndarray, values: np.ndarray) -> dict:
    d = truth - values
    mse = float(np.mean(d * d))
    ct, cv = truth - truth.mean(), values - values.mean()
    denom = math.sqrt(float(ct @ ct) * float(cv @ cv))
    return {
        "mse": mse,
        "rmse": math.sqrt(mse),
        "mae": float(np.mean(np.abs(d))),
        "pearson_r": float(ct @ cv) / denom if denom > 0 else None,
    }


def _read_rows(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


def _close(stored, recomputed, tol: float) -> bool:
    if stored is None or recomputed is None:
        return stored is None and recomputed is None
    return abs(float(stored) - recomputed) <= tol


class Checker:
    """Expected values for one workload, from the generated table and its config."""

    def __init__(self, table, methods: tuple[str, ...], settings: dict, hidden_size):
        self.table = table
        self.methods = methods
        self.settings = settings
        self.hidden_size = hidden_size
        raw = np.array([[float(f % v) for f, v in zip(table.formats, row)] for row in table.rows])
        lo, hi = raw.min(axis=0), raw.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        scaled = np.where(hi > lo, (raw - lo) / span, 0.0)
        n = raw.shape[0]
        self.block = n // 4
        self.expected_counts = {"train": n - 2 * self.block, "validation": self.block, "test": self.block}
        self.test_raw = raw[n - self.block :]
        self.test_records = scaled[n - self.block :]
        self.column = table.missing_column
        self.truth = self.test_records[:, self.column]

    def cells(self) -> list[tuple[str, int]]:
        return [(m, i) for m in self.methods for i in range(self.block)]

    def imputed(self, out_dir: Path) -> dict[str, np.ndarray]:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        return {m: np.array([e["imputed"] for e in report["methods"][m]["imputed"]])
                for m in self.methods}

    def mean_abs_error(self, out_dir: Path) -> float:
        """Mean over methods and test records of |imputed - true|."""
        values = self.imputed(out_dir)
        return float(np.mean([np.abs(values[m] - self.truth) for m in self.methods]))

    def global_gaps(self, out_dir: Path) -> dict[str, np.ndarray]:
        """Per optimizer, objective at each imputed value minus its grid minimum."""
        model = ModelReader(out_dir / "model.txt")
        grid = np.linspace(0.0, 1.0, GLOBAL_POINTS)
        values = self.imputed(out_dir)
        gaps = {}
        for m in self.methods:
            if m in OPTIMIZER_METHODS:
                gaps[m] = np.array([
                    model.objective(rec, self.column, np.array([v]))[0]
                    - model.objective(rec, self.column, grid).min()
                    for rec, v in zip(self.test_records, values[m])
                ])
        return gaps

    def check(self, out_dir: Path, verify_results, reference: Path | None = None) -> Outcome:
        out = Outcome(self.cells())
        everything = out.cells
        try:
            self._check(out_dir, verify_results, reference, out)
        except (OSError, KeyError, ValueError, IndexError, TypeError) as err:
            out.fail(everything, f"report unreadable: {type(err).__name__}: {err}")
        return out

    def _check(self, out_dir, verify_results, reference, out: Outcome) -> None:
        everything = out.cells
        failed_verify = [f"{name}: {detail}" for name, ok, detail in verify_results if not ok]
        if not verify_results or failed_verify:
            out.fail(everything, f"verify_report failed: {failed_verify or 'no checks'}")

        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        if report["split_counts"] != self.expected_counts:
            out.fail(everything, f"split counts {report['split_counts']} != {self.expected_counts}")

        model = ModelReader(out_dir / "model.txt")
        selected = report["hidden_size"]["selected"]
        if model.n != self.test_records.shape[1] or model.h != selected or not 2 <= selected < model.n:
            out.fail(everything, f"model.txt is {model.n}x{model.h}, report selects h={selected}")
        if self.hidden_size != "auto" and selected != self.hidden_size:
            out.fail(everything, f"hidden size {selected}, configured {self.hidden_size}")

        if reference is not None:
            for path in sorted(reference.iterdir()):
                if path.name != "timings.json" and (
                    not (out_dir / path.name).exists()
                    or (out_dir / path.name).read_bytes() != path.read_bytes()
                ):
                    out.fail(everything, f"{path.name} differs from the same seed's first round")

        stored_csv = {(r["method"], r["metric"]): r["value"] for r in _read_rows(out_dir / "metrics.csv")}
        local = np.linspace(-LOCAL_RADIUS, LOCAL_RADIUS, LOCAL_POINTS)
        for m in self.methods:
            block = report["methods"][m]
            method_cells = [(m, i) for i in range(self.block)]
            self._check_method_scores(m, block, stored_csv, out, method_cells)
            if m in OPTIMIZER_METHODS and block.get("evaluations_per_task") != budget(m, self.settings):
                out.fail(method_cells, f"{m}: {block.get('evaluations_per_task')} evaluations per task, "
                                       f"budget formula gives {budget(m, self.settings)}")
            rows = _read_rows(out_dir / f"imputed_{m}.csv")
            entries = block["imputed"]
            if len(rows) != self.block or len(entries) != self.block:
                out.fail(method_cells, f"{m}: {len(rows)} CSV rows, {len(entries)} report rows")
                continue
            for i, (row, entry) in enumerate(zip(rows, entries)):
                value = float(row["imputed_value"])
                problems = []
                if int(row["row"]) != i or entry["row"] != i:
                    problems.append("row index")
                if value != entry["imputed"] or float(row["true_value"]) != entry["true"]:
                    problems.append("CSV and report.json disagree")
                if abs(entry["true"] - self.truth[i]) > TRUTH_TOL:
                    problems.append(f"true {entry['true']!r} != {self.truth[i]!r}")
                true_orig = float(row["true_original"])
                if abs(true_orig - self.test_raw[i, self.column]) > ORIGINAL_RTOL * max(1.0, abs(true_orig)):
                    problems.append(f"true_original {true_orig!r}")
                if not 0.0 <= value <= 1.0:
                    problems.append(f"value {value!r} outside [0, 1]")
                elif m in LOCAL_MIN_METHODS:
                    rec = self.test_records[i]
                    here = model.objective(rec, self.column, np.array([value]))[0]
                    window = np.clip(value + local, 0.0, 1.0)
                    far = window[np.abs(window - value) > LOCAL_SLACK]
                    drop = here - model.objective(rec, self.column, far).min() if far.size else 0.0
                    if drop > LOCAL_TOL:
                        problems.append(f"not a local minimum: a point {LOCAL_SLACK} to {LOCAL_RADIUS} "
                                        f"away scores {drop:.3g} lower")
                if problems:
                    out.fail([(m, i)], f"{m}[{i}]: " + "; ".join(problems))

    def _check_method_scores(self, m, block, stored_csv, out: Outcome, method_cells) -> None:
        values = np.array([e["imputed"] for e in block["imputed"]])
        if values.size != self.block:
            return  # reported by the per-cell pass
        if self.table.task == "classification":
            recomputed = {"auc": concordance_auc(values, self.truth.astype(int))}
        else:
            recomputed = plain_scores(self.truth, values)
        for name, value in recomputed.items():
            stored = block["metrics"].get(name, "absent")
            csv_cell = stored_csv.get((m, name), "absent")
            csv_value = None if csv_cell == "undefined" else csv_cell
            if stored == "absent" or csv_cell == "absent" or not (
                _close(stored, value, METRIC_TOL) and _close(csv_value, value, METRIC_TOL)
            ):
                out.fail(method_cells, f"{m}.{name}: report {stored!r}, metrics.csv {csv_cell!r}, "
                                       f"recomputed {value!r}")
