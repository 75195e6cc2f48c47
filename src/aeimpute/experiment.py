"""End-to-end experiment orchestration and reporting.

Pipeline: load CSV -> normalize -> chronological split -> train the
autoencoder on the training block (under a hidden size search, the search's
best network) -> mask the designated column of the test rows as one
imputation task -> estimate the masked value of every test record with each
configured optimizer, all records in lockstep (and directly with the random
forest) -> score every method -> pairwise Welch comparison -> persist a
machine-readable report.

Determinism: every stochastic component receives a seed derived by hashing
(master seed, component, index), so method results are independent of which
other methods run and of grid execution order.  All emitted files except
``timings.json`` are byte-stable across re-runs with the same configuration
and master seed.
"""

from __future__ import annotations

import json
import math
import traceback
import typing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from . import __version__
from . import data as data_mod
from . import forest as forest_mod
from . import metrics as metrics_mod
from . import network as network_mod
from . import optimizers as optim_mod
from .objective import MissingDataObjective
from .seeding import derive_seed

OPTIMIZER_METHODS = optim_mod.ALGORITHM_TAGS
ALL_METHODS = OPTIMIZER_METHODS + ("rf",)
TASK_KINDS = ("prediction", "classification")
FAILURE_MARKER = "FAILED.txt"
VERIFY_TOLERANCE = 1e-9


class ConfigError(ValueError):
    """A config file or experiment configuration is invalid."""


class ExperimentError(RuntimeError):
    """A pipeline stage failed; partial results were persisted."""


@dataclass
class ExperimentConfig:
    dataset_path: Path
    missing_column: int
    task_kind: str
    header: bool = False
    column_kinds: tuple[str, ...] | None = None
    hidden_size: int | str = "auto"
    methods: tuple[str, ...] = ALL_METHODS
    master_seed: int = 0
    output_dir: Path = Path("report")
    normalization_scope: str = "full"
    train: network_mod.TrainConfig = field(default_factory=network_mod.TrainConfig)
    ga: optim_mod.GaConfig = field(default_factory=optim_mod.GaConfig)
    sa: optim_mod.SaConfig = field(default_factory=optim_mod.SaConfig)
    pso: optim_mod.PsoConfig = field(default_factory=optim_mod.PsoConfig)
    ns: optim_mod.NsConfig = field(default_factory=optim_mod.NsConfig)
    rf: forest_mod.ForestConfig = field(default_factory=forest_mod.ForestConfig)

    def __post_init__(self) -> None:
        self.dataset_path = Path(self.dataset_path)
        self.output_dir = Path(self.output_dir)
        if self.task_kind not in TASK_KINDS:
            raise ConfigError(f"task must be one of {TASK_KINDS}, got {self.task_kind!r}")
        if self.missing_column < 0:
            raise ConfigError("missing_column must be a non-negative column index")
        self.methods = tuple(self.methods)
        if not self.methods:
            raise ConfigError("methods must be non-empty")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ConfigError(f"unknown method {m!r}; expected among {ALL_METHODS}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("methods must not repeat")
        if self.hidden_size != "auto":
            if not isinstance(self.hidden_size, int) or self.hidden_size < 2:
                raise ConfigError("hidden_size must be 'auto' or an integer >= 2")
        if self.normalization_scope not in ("full", "train"):
            raise ConfigError("normalization_scope must be 'full' or 'train'")


# --- config file parsing ----------------------------------------------------

_GLOBAL_KEYS = {
    "dataset": str,
    "header": bool,
    "columns": str,
    "missing_column": int,
    "task": str,
    "hidden_size": str,
    "methods": str,
    "seed": int,
    "output": str,
    "normalization_scope": str,
}

_SECTION_TYPES = {
    "train": network_mod.TrainConfig,
    "ga": optim_mod.GaConfig,
    "sa": optim_mod.SaConfig,
    "pso": optim_mod.PsoConfig,
    "ns": optim_mod.NsConfig,
    "rf": forest_mod.ForestConfig,
}

# Per-run seeds are always derived from the master seed, so they are neither
# read from config files nor echoed in the report.
_DERIVED_SEEDS = ("seed", "rng_seed")

# Per-section keys driven from config files, with each field's resolved type.
_SECTION_KEYS = {
    name: {
        key: tp for key, tp in typing.get_type_hints(cfg_type).items() if key not in _DERIVED_SEEDS
    }
    for name, cfg_type in _SECTION_TYPES.items()
}

_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_EXPECTED = {int: "an integer", float: "a number", bool: "true/false"}


def _parse_value(key: str, raw: str, tp):
    """Convert config text to the resolved type ``tp``; ``T | None`` reads none/auto as None."""
    args = typing.get_args(tp)
    if type(None) in args:
        if raw.lower() in ("none", "auto"):
            return None
        (tp,) = (a for a in args if a is not type(None))
    try:
        return _BOOLS[raw.lower()] if tp is bool else tp(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: expected {_EXPECTED[tp]}, got {raw!r}") from None


def _parse_columns(raw: str) -> tuple:
    entries = [e.strip() for e in raw.split(",") if e.strip()]
    out = []
    for e in entries:
        if ":" in e:
            name, kind = e.split(":", 1)
            out.append((name.strip(), kind.strip()))
        else:
            out.append(e)
    return tuple(out)


def parse_config(path, seed_override: int | None = None, output_override=None) -> ExperimentConfig:
    """Parse a flat ``key = value`` config file with dotted sections.

    Global keys: dataset, header, columns, missing_column, task, hidden_size,
    methods, seed, output, normalization_scope.  Sectioned keys such as
    ``ga.population = 50`` override algorithm defaults.  Unknown keys are
    errors.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")

    globals_seen: dict[str, object] = {}
    sections: dict[str, dict[str, object]] = {name: {} for name in _SECTION_TYPES}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if "." in key:
            section, sub = key.split(".", 1)
            if section not in _SECTION_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown section {section!r}")
            if sub not in _SECTION_KEYS[section]:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            sections[section][sub] = _parse_value(key, raw, _SECTION_KEYS[section][sub])
        else:
            if key not in _GLOBAL_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            globals_seen[key] = _parse_value(key, raw, _GLOBAL_KEYS[key])

    for required in ("dataset", "missing_column", "task"):
        if required not in globals_seen:
            raise ConfigError(f"{path}: missing required key {required!r}")

    kwargs: dict[str, object] = {
        "dataset_path": Path(str(globals_seen["dataset"])),
        "missing_column": globals_seen["missing_column"],
        "task_kind": globals_seen["task"],
    }
    if "header" in globals_seen:
        kwargs["header"] = globals_seen["header"]
    if "columns" in globals_seen:
        kwargs["column_kinds"] = _parse_columns(str(globals_seen["columns"]))
    if "hidden_size" in globals_seen:
        raw = str(globals_seen["hidden_size"])
        kwargs["hidden_size"] = raw if raw == "auto" else _parse_value("hidden_size", raw, int)
    if "methods" in globals_seen:
        kwargs["methods"] = tuple(
            m.strip() for m in str(globals_seen["methods"]).split(",") if m.strip()
        )
    if "seed" in globals_seen:
        kwargs["master_seed"] = globals_seen["seed"]
    if "output" in globals_seen:
        kwargs["output_dir"] = Path(str(globals_seen["output"]))
    if "normalization_scope" in globals_seen:
        kwargs["normalization_scope"] = globals_seen["normalization_scope"]

    for name, cfg_type in _SECTION_TYPES.items():
        if sections[name]:
            try:
                kwargs[name] = cfg_type(**sections[name])
            except ValueError as err:
                raise ConfigError(f"{path}: section {name!r}: {err}") from None

    if seed_override is not None:
        kwargs["master_seed"] = seed_override
    if output_override is not None:
        kwargs["output_dir"] = Path(output_override)
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from None


# --- report -----------------------------------------------------------------

@dataclass
class ExperimentReport:
    version: str
    config_echo: dict
    task_kind: str
    split_counts: dict
    hidden_size_requested: int | str
    hidden_size_selected: int
    train_loss: float
    method_results: dict
    comparison: dict
    methodology: dict
    net: network_mod.Autoencoder
    columns: tuple
    timings: dict

    def to_json_dict(self) -> dict:
        return _plain(
            {
                "toolkit_version": self.version,
                "config": self.config_echo,
                "task_kind": self.task_kind,
                "split_counts": self.split_counts,
                "hidden_size": {
                    "requested": self.hidden_size_requested,
                    "selected": self.hidden_size_selected,
                },
                "train_loss": self.train_loss,
                "methods": self.method_results,
                "comparison": self.comparison,
                "methodology": self.methodology,
                "normalization": [
                    {
                        "column": spec.name,
                        "kind": spec.kind,
                        "min": spec.observed_min,
                        "max": spec.observed_max,
                        "degenerate": spec.degenerate,
                    }
                    for spec in self.columns
                ],
            }
        )


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, Path):
        return str(obj)
    return obj


def _config_echo(cfg: ExperimentConfig) -> dict:
    """Scientific configuration with resolved defaults.

    Execution concerns (the output directory) and derived per-run seeds are
    excluded so the echo is identical wherever and however the same
    experiment runs.
    """
    def section(dc):
        return {f.name: getattr(dc, f.name) for f in fields(dc) if f.name not in _DERIVED_SEEDS}

    return {
        "dataset": str(cfg.dataset_path),
        "header": cfg.header,
        "columns": list(cfg.column_kinds) if cfg.column_kinds else None,
        "missing_column": cfg.missing_column,
        "task": cfg.task_kind,
        "hidden_size": cfg.hidden_size,
        "methods": list(cfg.methods),
        "seed": cfg.master_seed,
        "normalization_scope": cfg.normalization_scope,
        **{name: section(getattr(cfg, name)) for name in _SECTION_TYPES},
    }


_METHODOLOGY = {
    "mae": "mean absolute error (absolute deviations, not squared)",
    "pearson_r": "sample correlation; null when either vector is constant",
    "t_test": (
        "Welch two-sample, two-tailed, over per-test-record errors: squared "
        "error for prediction tasks, absolute score error against the 0/1 "
        "truth for classification tasks"
    ),
    "roc_scores": (
        "imputed class-column values (optimizers) and mean tree vote (rf) "
        "used directly as scores; hard labels threshold at 0.5 with ties to 1"
    ),
    "timings": "wall-clock stage timings live in timings.json and are not byte-stable",
}


# metrics.csv lists prediction metrics in this order.
_PREDICTION_METRICS = ("mse", "rmse", "mae", "pearson_r")


def _display(value: float) -> str:
    return f"{value:.2f}"


def _score(truth: np.ndarray, values: np.ndarray, task_kind: str):
    """Grade one method's imputed values against the truth.

    Returns the metrics dict (mse, rmse, mae, pearson_r for prediction; auc
    for classification), the per-record errors the Welch comparison runs on,
    and the ROC curve (None for prediction).
    """
    if task_kind == "prediction":
        scores = metrics_mod.prediction_scores(truth, values)
        metrics = {name: getattr(scores, name) for name in _PREDICTION_METRICS}
        return metrics, (truth - values) ** 2, None
    roc = metrics_mod.roc_curve(values, truth.astype(int))
    return {"auc": roc.auc}, np.abs(values - truth), roc


# --- pipeline ---------------------------------------------------------------

def _prepare_dataset(cfg: ExperimentConfig) -> data_mod.Dataset:
    ds = data_mod.load_csv(cfg.dataset_path, schema=cfg.column_kinds, header=cfg.header)
    if not 0 <= cfg.missing_column < ds.n_columns:
        raise ConfigError(
            f"missing_column {cfg.missing_column} out of range for "
            f"{ds.n_columns}-column dataset"
        )
    if cfg.normalization_scope == "train":
        train_rows, _, _ = data_mod.split_sizes(ds.n_rows)
        ds = data_mod.normalize(ds, fit_row_count=train_rows)
    else:
        ds = data_mod.normalize(ds)
    return data_mod.split(ds)


def run_experiment(cfg: ExperimentConfig, progress=None) -> ExperimentReport:
    """Execute the full pipeline; deterministic given the config and seed.

    ``progress`` is an optional callable receiving stage-name strings.  On
    any stage failure the partial results gathered so far are written to the
    output directory next to a failure marker, and the error is re-raised as
    :class:`ExperimentError` with the stage name.
    """
    notify = progress or (lambda msg: None)
    timings: dict[str, float] = {}
    partial: dict = {"config": _config_echo(cfg), "toolkit_version": __version__}
    stage = "prepare"

    def clock(name, fn, *args, **kwargs):
        start = perf_counter()
        out = fn(*args, **kwargs)
        timings[name] = perf_counter() - start
        return out

    try:
        notify("loading dataset")
        ds = clock("prepare", _prepare_dataset, cfg)
        counts = {label: int((ds.split == label).sum()) for label in data_mod.SPLIT_LABELS}
        partial["split_counts"] = counts

        if cfg.hidden_size == "auto":
            # The search trains a network per size; the winner's is the model.
            stage = "hidden-size"
            notify("searching hidden sizes")
            search_cfg = replace(cfg.train, rng_seed=cfg.master_seed)
            hidden, net, train_loss = clock(
                "hidden_search",
                network_mod.select_hidden_size,
                ds.train_rows,
                ds.validation_rows,
                search_cfg,
            )
        else:
            stage = "train"
            hidden = cfg.hidden_size
            notify(f"training autoencoder (hidden={hidden})")
            train_cfg = replace(cfg.train, rng_seed=derive_seed(cfg.master_seed, "train"))
            net, train_loss = clock("train", network_mod.train, ds.train_rows, hidden, train_cfg)
        partial["hidden_size_selected"] = hidden
        partial["train_loss"] = train_loss

        stage = "tasks"
        task = data_mod.make_tasks(ds, {cfg.missing_column})
        truth = task.true_values[:, cfg.missing_column]
        if cfg.task_kind == "classification" and not np.isin(truth, (0.0, 1.0)).all():
            raise ValueError(
                "classification task needs a 0/1 target after scaling; "
                f"column {ds.columns[cfg.missing_column].name!r} has other values"
            )

        stage = "impute"
        notify(f"imputing {len(truth)} test records per method")
        start = perf_counter()
        imputed: dict[str, np.ndarray] = {}
        evaluations: dict[str, int] = {}
        # Each method searches all test records in lockstep, each record with
        # its own derived seed.
        objective = MissingDataObjective(net, task)
        for method in cfg.methods:
            if method not in OPTIMIZER_METHODS:
                continue
            seeds = [derive_seed(cfg.master_seed, method, i) for i in range(len(truth))]
            result = clock(
                f"impute.{method}",
                optim_mod.run,
                objective,
                method,
                getattr(cfg, method),
                seeds=seeds,
            )
            imputed[method] = objective.impute(result)[:, cfg.missing_column]
            evaluations[method] = result.evaluations
            del result  # every record's trace; free them before the next search

        rf_mtry_resolved: int | None = None
        if "rf" in cfg.methods:
            notify("fitting random forest")
            rf_cfg = replace(cfg.rf, seed=derive_seed(cfg.master_seed, "rf"))
            fitted = clock(
                "rf_fit",
                forest_mod.fit,
                ds.train_rows,
                cfg.missing_column,
                rf_cfg,
                binary_target=cfg.task_kind == "classification",
            )
            predictor_cols = list(fitted.predictor_columns)
            if rf_cfg.mtry is None:
                rf_mtry_resolved = max(1, math.isqrt(len(predictor_cols)))
            else:
                rf_mtry_resolved = rf_cfg.mtry
            imputed["rf"] = clock(
                "rf_predict", fitted.predict, task.true_values[:, predictor_cols]
            )
        timings["impute"] = perf_counter() - start

        stage = "score"
        start = perf_counter()
        notify("scoring methods")
        method_results: dict[str, dict] = {}
        errors: dict[str, np.ndarray] = {}
        for method in cfg.methods:
            values = imputed[method]
            block: dict = {
                "imputed": [
                    {"row": i, "true": float(truth[i]), "imputed": float(values[i])}
                    for i in range(len(truth))
                ]
            }
            if method in evaluations:
                block["evaluations_per_task"] = evaluations[method]
            if method == "rf":
                block["mtry_resolved"] = rf_mtry_resolved
            block["metrics"], errors[method], roc = _score(truth, values, cfg.task_kind)
            block["display"] = {
                k: (_display(v) if v is not None else "undefined")
                for k, v in block["metrics"].items()
            }
            if roc is not None:
                block["roc_points"] = [list(p) for p in roc.points]
            method_results[method] = block

        stage = "compare"
        comparison: dict = {}
        if len(cfg.methods) >= 2:
            matrix = metrics_mod.comparison_matrix(errors)
            comparison = {
                "methods": list(matrix.methods),
                "p_values": [[float(v) for v in row] for row in matrix.p_values],
                "pairs": [
                    {
                        "pair": f"{a.upper()}-{b.upper()}",
                        "p_value": p,
                        "display": _display(p),
                    }
                    for a, b, p in matrix.pairs()
                ],
            }
        timings["score"] = perf_counter() - start

        return ExperimentReport(
            version=__version__,
            config_echo=partial["config"],
            task_kind=cfg.task_kind,
            split_counts=counts,
            hidden_size_requested=cfg.hidden_size,
            hidden_size_selected=hidden,
            train_loss=float(train_loss),
            method_results=method_results,
            comparison=comparison,
            methodology=dict(_METHODOLOGY),
            net=net,
            columns=ds.columns,
            timings=timings,
        )
    except Exception as err:
        _persist_failure(cfg.output_dir, stage, err, partial)
        raise ExperimentError(f"stage {stage!r} failed: {err}") from err


def _persist_failure(out_dir: Path, stage: str, err: Exception, partial: dict) -> None:
    try:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        marker = f"stage: {stage}\nerror: {err}\n\n{traceback.format_exc()}"
        (out_dir / FAILURE_MARKER).write_text(marker, encoding="utf-8")
        (out_dir / "partial.json").write_text(
            json.dumps(_plain(partial), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError:
        pass  # never mask the original failure


# --- emission ---------------------------------------------------------------

def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def emit_report(report: ExperimentReport, out_dir) -> list[Path]:
    """Write the report's file set; emission is byte-stable per report.

    Files: report.json, metrics.csv, pvalues.csv, imputed_<method>.csv,
    roc_<method>.csv (classification only), model.txt, normalization.csv,
    and timings.json (the one file excluded from determinism guarantees).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, text: str) -> None:
        path = out_dir / name
        _write_text(path, text)
        written.append(path)

    emit("report.json", json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")

    metric_lines = ["method,metric,value"]
    for method in report.method_results:
        for metric, value in report.method_results[method]["metrics"].items():
            cell = "undefined" if value is None else repr(float(value))
            metric_lines.append(f"{method},{metric},{cell}")
    emit("metrics.csv", "\n".join(metric_lines) + "\n")

    pair_lines = ["pair,p_value,display"]
    for entry in report.comparison.get("pairs", []):
        pair_lines.append(
            f"{entry['pair']},{repr(float(entry['p_value']))},{entry['display']}"
        )
    emit("pvalues.csv", "\n".join(pair_lines) + "\n")

    target_spec = report.columns[report.config_echo["missing_column"]]
    for method, block in report.method_results.items():
        lines = ["row,true_value,imputed_value,true_original,imputed_original"]
        for entry in block["imputed"]:
            # Degenerate target columns are excluded from original-unit reporting.
            if not target_spec.degenerate:
                t_orig = repr(data_mod.denormalize(entry["true"], target_spec))
                i_orig = repr(data_mod.denormalize(entry["imputed"], target_spec))
            else:
                t_orig = i_orig = ""
            lines.append(
                f"{entry['row']},{repr(entry['true'])},{repr(entry['imputed'])},{t_orig},{i_orig}"
            )
        emit(f"imputed_{method}.csv", "\n".join(lines) + "\n")
        if report.task_kind == "classification":
            roc_lines = ["fpr,tpr"]
            roc_lines.extend(
                f"{repr(float(f))},{repr(float(t))}" for f, t in block["roc_points"]
            )
            emit(f"roc_{method}.csv", "\n".join(roc_lines) + "\n")

    model_path = out_dir / "model.txt"
    network_mod.save_model(report.net, model_path)
    written.append(model_path)

    emit("normalization.csv", data_mod.normalization_table(report.columns))

    emit("timings.json", json.dumps(_plain(report.timings), indent=2, sort_keys=True) + "\n")
    return written


# --- verification -----------------------------------------------------------

def _read_csv_rows(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


def _compare(stored: str, value: float | None) -> tuple[bool, str]:
    """A stored cell ('undefined' or a float) against its recomputation (None: undefined)."""
    if value is None:
        ok = stored == "undefined"
        return ok, "undefined as stored" if ok else f"stored {stored!r}, recomputed undefined"
    if stored == "undefined":
        return False, f"stored undefined, recomputed {value!r}"
    ok = abs(float(stored) - value) <= VERIFY_TOLERANCE
    return ok, "match" if ok else f"stored {float(stored)!r} vs recomputed {value!r}"


def _match_rows(checks, source, stored, recomputed) -> None:
    """Check a stored table's (key, label, text) rows against {key: (label, value)}.

    A row whose key is repeated or not recomputed fails, and so does a
    recomputed key with no row; every other row is compared by :func:`_compare`.
    """
    seen = set()
    for key, label, text in stored:
        if key not in recomputed:
            checks.append((label, False, f"unexpected row in {source}"))
        elif key in seen:
            checks.append((label, False, f"row repeated in {source}"))
        else:
            seen.add(key)
            checks.append((label, *_compare(text, recomputed[key][1])))
    for key, (label, _) in recomputed.items():
        if key not in seen:
            checks.append((label, False, f"absent from {source}"))


def verify_report(out_dir) -> list[tuple[str, bool, str]]:
    """Recompute every metric from the persisted imputed values.

    Returns (check name, passed, detail) tuples; metric comparisons use an
    absolute tolerance of 1e-9.  Missing files fail with an inventory of what
    was expected versus found.
    """
    out_dir = Path(out_dir)
    checks: list[tuple[str, bool, str]] = []
    report_path = out_dir / "report.json"
    if not report_path.exists():
        return [("inventory", False, f"missing {report_path.name}")]
    report = json.loads(report_path.read_text(encoding="utf-8"))
    task_kind = report["task_kind"]
    methods = list(report["methods"].keys())

    expected = ["report.json", "metrics.csv", "pvalues.csv", "model.txt", "normalization.csv"]
    expected += [f"imputed_{m}.csv" for m in methods]
    if task_kind == "classification":
        expected += [f"roc_{m}.csv" for m in methods]
    missing = [name for name in expected if not (out_dir / name).exists()]
    if missing:
        present = sorted(p.name for p in out_dir.iterdir())
        return [
            (
                "inventory",
                False,
                f"missing: {', '.join(missing)}; present: {', '.join(present)}",
            )
        ]
    checks.append(("inventory", True, f"{len(expected)} files present"))

    recomputed_metrics: dict[tuple[str, str], tuple[str, float | None]] = {}
    errors: dict[str, np.ndarray] = {}
    for method in methods:
        rows = _read_csv_rows(out_dir / f"imputed_{method}.csv")
        truth = np.array([float(r["true_value"]) for r in rows])
        values = np.array([float(r["imputed_value"]) for r in rows])
        recomputed, errors[method], roc = _score(truth, values, task_kind)
        if roc is not None:
            stored_points = [
                (float(r["fpr"]), float(r["tpr"]))
                for r in _read_csv_rows(out_dir / f"roc_{method}.csv")
            ]
            ok = len(stored_points) == len(roc.points) and all(
                abs(a - c) <= VERIFY_TOLERANCE and abs(b - d) <= VERIFY_TOLERANCE
                for (a, b), (c, d) in zip(stored_points, roc.points)
            )
            detail = "points match" if ok else "stored ROC points differ from recomputation"
            checks.append((f"roc_{method}", ok, detail))
        for metric, value in recomputed.items():
            recomputed_metrics[(method, metric)] = (f"{method}.{metric}", value)

    stored_metrics = [
        ((r["method"], r["metric"]), f"{r['method']}.{r['metric']}", r["value"])
        for r in _read_csv_rows(out_dir / "metrics.csv")
    ]
    _match_rows(checks, "metrics.csv", stored_metrics, recomputed_metrics)

    if len(methods) >= 2:
        matrix = metrics_mod.comparison_matrix(errors)
        # Pair names are unordered; the stored report may list methods in a
        # different order than the alphabetical recomputation here.
        recomputed_pairs = {
            frozenset((a.upper(), b.upper())): (f"pvalue.{a.upper()}-{b.upper()}", p)
            for a, b, p in matrix.pairs()
        }
        stored_pairs = [
            (frozenset(r["pair"].split("-")), f"pvalue.{r['pair']}", r["p_value"])
            for r in _read_csv_rows(out_dir / "pvalues.csv")
        ]
        _match_rows(checks, "pvalues.csv", stored_pairs, recomputed_pairs)
    return checks
