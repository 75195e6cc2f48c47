"""End-to-end experiment orchestration and reporting.

Pipeline: load CSV -> normalize -> chronological split -> train the
autoencoder on the training block (under a hidden size search, the network
that best imputes the masked column of the validation block) -> mask the
designated column of the test rows as one imputation task -> estimate the
masked value of every test record with each configured optimizer, all
records in lockstep (and directly with the random forest) -> score every
method -> pairwise Welch comparison -> persist a machine-readable report.
The optimizers run side by side, one method per core, through
:func:`aeimpute.parallel.fork_map`, as the hidden-size search and the forest
do.

Determinism: every stochastic component receives a seed derived by hashing
(master seed, component, index), so method results are independent of which
other methods run, of grid execution order and of the core count.  All
emitted files except ``timings.json`` are byte-stable across re-runs with the
same configuration and master seed.
"""

from __future__ import annotations

import json
import traceback
import typing
from dataclasses import MISSING, dataclass, field, fields, replace
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
from .parallel import fork_map
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

def _entries(raw: str) -> tuple[str, ...]:
    """A comma-separated list, blank entries dropped."""
    return tuple(e.strip() for e in raw.split(",") if e.strip())


def _columns(raw: str) -> tuple:
    """Column kinds; a ``name: kind`` entry becomes a (name, kind) pair."""
    return tuple(
        tuple(part.strip() for part in e.split(":", 1)) if ":" in e else e
        for e in _entries(raw)
    )


def _hidden_size(raw: str) -> int | str:
    return raw if raw == "auto" else int(raw)


# Global config key -> (ExperimentConfig field, parser of the value text).
_GLOBAL_KEYS = {
    "dataset": ("dataset_path", Path),
    "header": ("header", bool),
    "columns": ("column_kinds", _columns),
    "missing_column": ("missing_column", int),
    "task": ("task_kind", str),
    "hidden_size": ("hidden_size", _hidden_size),
    "methods": ("methods", _entries),
    "seed": ("master_seed", int),
    "output": ("output_dir", Path),
    "normalization_scope": ("normalization_scope", str),
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
_EXPECTED[_hidden_size] = "'auto' or an integer"


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


def parse_config(path, seed_override: int | None = None, output_override=None) -> ExperimentConfig:
    """Parse a flat ``key = value`` config file with dotted sections.

    Global keys are those of ``_GLOBAL_KEYS``.  Sectioned keys such as
    ``ga.population = 50`` override algorithm defaults.  Unknown and
    repeated keys are errors.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")

    kwargs: dict[str, object] = {}
    sections: dict[str, dict[str, object]] = {name: {} for name in _SECTION_TYPES}
    seen: dict[str, int] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {seen[key]}")
        seen[key] = lineno
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
            name, parser = _GLOBAL_KEYS[key]
            kwargs[name] = _parse_value(key, raw, parser)

    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    for key, (name, _) in _GLOBAL_KEYS.items():
        if name not in kwargs and defaults[name] is MISSING:
            raise ConfigError(f"{path}: missing required key {key!r}")

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
    """A finished run: the report.json document (plain JSON types only) and
    what the other emitted files need besides."""

    document: dict
    net: network_mod.Autoencoder
    columns: tuple
    timings: dict


def _config_echo(cfg: ExperimentConfig) -> dict:
    """Scientific configuration with resolved defaults.

    Execution concerns (the output directory) and derived per-run seeds are
    excluded so the echo is identical wherever and however the same
    experiment runs.
    """
    def section(dc):
        return {f.name: getattr(dc, f.name) for f in fields(dc) if f.name not in _DERIVED_SEEDS}

    echo = {name: section(getattr(cfg, name)) for name in _SECTION_TYPES}
    for key, (name, _) in _GLOBAL_KEYS.items():
        if name != "output_dir":
            value = getattr(cfg, name)
            echo[key] = str(value) if isinstance(value, Path) else value
    return echo


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
    fit_rows = data_mod.split_sizes(ds.n_rows)[0] if cfg.normalization_scope == "train" else None
    return data_mod.split(data_mod.normalize(ds, fit_row_count=fit_rows))


def run_experiment(cfg: ExperimentConfig, progress=None) -> ExperimentReport:
    """Execute the full pipeline; deterministic given the config and seed.

    ``progress`` is an optional callable receiving stage-name strings.  On
    any stage failure the report document, as far as the finished stages
    built it, is written to the output directory as ``partial.json`` next to
    a failure marker, and the error is re-raised as :class:`ExperimentError`
    with the stage name.
    """
    notify = progress or (lambda msg: None)
    timings: dict[str, float] = {}
    document: dict = {
        "toolkit_version": __version__,
        "config": _config_echo(cfg),
        "task_kind": cfg.task_kind,
        "methodology": dict(_METHODOLOGY),
    }
    stage = "prepare"

    def clock(name, fn, *args, **kwargs):
        start = perf_counter()
        out = fn(*args, **kwargs)
        timings[name] = perf_counter() - start
        return out

    try:
        notify("loading dataset")
        ds = clock("prepare", _prepare_dataset, cfg)
        document["split_counts"] = {
            label: int((ds.split == label).sum()) for label in data_mod.SPLIT_LABELS
        }
        document["normalization"] = [
            {
                "column": spec.name,
                "kind": spec.kind,
                "min": spec.observed_min,
                "max": spec.observed_max,
                "degenerate": spec.degenerate,
            }
            for spec in ds.columns
        ]

        if cfg.hidden_size == "auto":
            # The search trains a network per size; the winner's is the model.
            stage = "hidden-size"
            notify("searching hidden sizes")
            search_cfg = replace(cfg.train, rng_seed=cfg.master_seed)
            val_task = data_mod.make_tasks(ds, {cfg.missing_column}, "validation")
            hidden, net, train_loss = clock(
                "hidden_search",
                network_mod.select_hidden_size,
                ds.train_rows,
                val_task,
                search_cfg,
            )
        else:
            stage = "train"
            hidden = cfg.hidden_size
            notify(f"training autoencoder (hidden={hidden})")
            train_cfg = replace(cfg.train, rng_seed=derive_seed(cfg.master_seed, "train"))
            net, train_loss = clock("train", network_mod.train, ds.train_rows, hidden, train_cfg)
        document["hidden_size"] = {"requested": cfg.hidden_size, "selected": hidden}
        document["train_loss"] = float(train_loss)

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
        blocks: dict[str, dict] = {method: {} for method in cfg.methods}
        # Each method searches all test records in lockstep, each record with
        # its own derived seed, so the methods are independent and run side by
        # side, one per core.  A method's traces stay in the process that ran it.
        objective = MissingDataObjective(net, task)

        def search(method):
            seeds = [derive_seed(cfg.master_seed, method, i) for i in range(len(truth))]
            begin = perf_counter()
            result = optim_mod.run(objective, method, getattr(cfg, method), seeds=seeds)
            values = objective.impute(result)[:, cfg.missing_column]
            return values, result.evaluations, perf_counter() - begin

        searched = [m for m in cfg.methods if m in OPTIMIZER_METHODS]
        for method, (values, evaluations, seconds) in zip(searched, fork_map(search, searched)):
            imputed[method] = values
            blocks[method]["evaluations_per_task"] = evaluations
            timings[f"impute.{method}"] = seconds

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
            blocks["rf"]["mtry_resolved"] = fitted.config.mtry
            imputed["rf"] = clock(
                "rf_predict", fitted.predict, task.true_values[:, list(fitted.predictor_columns)]
            )
        timings["impute"] = perf_counter() - start

        stage = "score"
        start = perf_counter()
        notify("scoring methods")
        errors: dict[str, np.ndarray] = {}
        for method, block in blocks.items():
            values = imputed[method]
            block["imputed"] = [
                {"row": i, "true": float(truth[i]), "imputed": float(values[i])}
                for i in range(len(truth))
            ]
            block["metrics"], errors[method], roc = _score(truth, values, cfg.task_kind)
            block["display"] = {
                k: (_display(v) if v is not None else "undefined")
                for k, v in block["metrics"].items()
            }
            if roc is not None:
                block["roc_points"] = [list(p) for p in roc.points]
        document["methods"] = blocks

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
        document["comparison"] = comparison
        timings["score"] = perf_counter() - start
        return ExperimentReport(document=document, net=net, columns=ds.columns, timings=timings)
    except Exception as err:
        _persist_failure(cfg.output_dir, stage, err, document)
        raise ExperimentError(f"stage {stage!r} failed: {err}") from err


def _persist_failure(out_dir: Path, stage: str, err: Exception, document: dict) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        marker = f"stage: {stage}\nerror: {err}\n\n{traceback.format_exc()}"
        (out_dir / FAILURE_MARKER).write_text(marker, encoding="utf-8")
        (out_dir / "partial.json").write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError:
        pass  # never mask the original failure


# --- emission ---------------------------------------------------------------

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
        path.write_text(text, encoding="utf-8", newline="\n")
        written.append(path)

    doc = report.document
    emit("report.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")

    metric_lines = ["method,metric,value"]
    for method, block in doc["methods"].items():
        for metric, value in block["metrics"].items():
            cell = "undefined" if value is None else repr(float(value))
            metric_lines.append(f"{method},{metric},{cell}")
    emit("metrics.csv", "\n".join(metric_lines) + "\n")

    pair_lines = ["pair,p_value,display"]
    for entry in doc["comparison"].get("pairs", []):
        pair_lines.append(
            f"{entry['pair']},{repr(float(entry['p_value']))},{entry['display']}"
        )
    emit("pvalues.csv", "\n".join(pair_lines) + "\n")

    target_spec = report.columns[doc["config"]["missing_column"]]
    for method, block in doc["methods"].items():
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
        if doc["task_kind"] == "classification":
            roc_lines = ["fpr,tpr"]
            roc_lines.extend(
                f"{repr(float(f))},{repr(float(t))}" for f, t in block["roc_points"]
            )
            emit(f"roc_{method}.csv", "\n".join(roc_lines) + "\n")

    model_path = out_dir / "model.txt"
    network_mod.save_model(report.net, model_path)
    written.append(model_path)

    emit("normalization.csv", data_mod.normalization_table(report.columns))

    emit("timings.json", json.dumps(report.timings, indent=2, sort_keys=True) + "\n")
    return written


# --- verification -----------------------------------------------------------

def _read_csv(path: Path, *columns: str, convert=str) -> list[list]:
    """The named columns of a CSV file's rows, each cell passed through ``convert``.

    An empty file, an absent column, a short row or a cell ``convert``
    rejects raises ValueError naming the file.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",") if lines else []
    absent = [c for c in columns if c not in header]
    if absent:
        raise ValueError(f"{path.name} unreadable: no column {', '.join(absent)}")
    at = [header.index(c) for c in columns]
    try:
        rows = [line.split(",") for line in lines[1:] if line]
        return [[convert(cells[i]) for i in at] for cells in rows]
    except (IndexError, ValueError) as err:
        raise ValueError(f"{path.name} unreadable: {err}") from None


def _compare(stored: str, value: float | None, source: str) -> tuple[bool, str]:
    """A cell of ``source`` ('undefined' or a float) against its recomputation (None: undefined)."""
    if value is None:
        ok = stored == "undefined"
        return ok, "undefined as stored" if ok else f"stored {stored!r}, recomputed undefined"
    if stored == "undefined":
        return False, f"stored undefined, recomputed {value!r}"
    try:
        number = float(stored)
    except ValueError:
        return False, f"{source} holds {stored!r}, not a number"
    ok = abs(number - value) <= VERIFY_TOLERANCE
    return ok, "match" if ok else f"stored {number!r} vs recomputed {value!r}"


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
            checks.append((label, *_compare(text, recomputed[key][1], source)))
    for key, (label, _) in recomputed.items():
        if key not in seen:
            checks.append((label, False, f"absent from {source}"))


def verify_report(out_dir) -> list[tuple[str, bool, str]]:
    """Recompute every metric from the persisted imputed values.

    Returns (check name, passed, detail) tuples; metric comparisons use an
    absolute tolerance of 1e-9.  Missing files fail with an inventory of what
    was expected versus found, and the first malformed file fails a
    ``format`` check that ends the verification.  A value cell of
    ``metrics.csv`` or ``pvalues.csv`` that is not a number fails its own
    row's check only.
    """
    out_dir = Path(out_dir)
    checks: list[tuple[str, bool, str]] = []
    report_path = out_dir / "report.json"
    if not report_path.exists():
        return [("inventory", False, f"missing {report_path.name}")]
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        task_kind = report["task_kind"]
        methods = list(report["methods"])
    except (ValueError, KeyError, TypeError) as err:
        return [("format", False, f"{report_path.name} unreadable: {err!r}")]

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
    try:
        recomputed_metrics: dict[tuple[str, str], tuple[str, float | None]] = {}
        errors: dict[str, np.ndarray] = {}
        for method in methods:
            rows = _read_csv(
                out_dir / f"imputed_{method}.csv", "true_value", "imputed_value", convert=float
            )
            truth, values = np.array(rows).reshape(-1, 2).T
            recomputed, errors[method], roc = _score(truth, values, task_kind)
            if roc is not None:
                stored = _read_csv(out_dir / f"roc_{method}.csv", "fpr", "tpr", convert=float)
                ok = len(stored) == len(roc.points) and all(
                    abs(a - c) <= VERIFY_TOLERANCE and abs(b - d) <= VERIFY_TOLERANCE
                    for (a, b), (c, d) in zip(stored, roc.points)
                )
                detail = "points match" if ok else "stored ROC points differ from recomputation"
                checks.append((f"roc_{method}", ok, detail))
            for metric, value in recomputed.items():
                recomputed_metrics[(method, metric)] = (f"{method}.{metric}", value)

        rows = _read_csv(out_dir / "metrics.csv", "method", "metric", "value")
        stored_metrics = [
            ((method, metric), f"{method}.{metric}", value) for method, metric, value in rows
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
                (frozenset(pair.split("-")), f"pvalue.{pair}", p)
                for pair, p in _read_csv(out_dir / "pvalues.csv", "pair", "p_value")
            ]
            _match_rows(checks, "pvalues.csv", stored_pairs, recomputed_pairs)
    except ValueError as err:
        checks.append(("format", False, str(err)))
    return checks
