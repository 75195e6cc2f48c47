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
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
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


def _display(value: float) -> str:
    return f"{value:.2f}"


def _grade(truth: np.ndarray, values: np.ndarray, task_kind: str) -> tuple[dict, np.ndarray]:
    """Grade one method's imputed values against the truth.

    Returns the method's report block (imputed rows, metrics and their
    display texts, and the ROC points where the task kind gets ROC files)
    and the per-record errors the Welch comparison runs on.
    """
    pairs = enumerate(zip(truth.tolist(), values.tolist()))
    block: dict = {"imputed": [{"row": i, "true": t, "imputed": v} for i, (t, v) in pairs]}
    if task_kind in _ROC_FILE.kinds:
        roc = metrics_mod.roc_curve(values, truth.astype(int))
        block["metrics"] = {"auc": roc.auc}
        block["roc_points"] = [list(p) for p in roc.points]
        errors = np.abs(values - truth)
    else:
        scores = metrics_mod.prediction_scores(truth, values)
        block["metrics"] = asdict(scores)
        errors = (truth - values) ** 2
    block["display"] = {
        k: "undefined" if v is None else _display(v) for k, v in block["metrics"].items()
    }
    return block, errors


def _comparison(errors: dict[str, np.ndarray]) -> dict:
    """The report's comparison entry: pairwise Welch p-values over the methods
    in the order of ``errors``; empty for fewer than two methods."""
    if len(errors) < 2:
        return {}
    matrix = metrics_mod.comparison_matrix(errors)
    return {
        "methods": list(matrix.methods),
        "p_values": [[float(v) for v in row] for row in matrix.p_values],
        "pairs": [
            {"pair": f"{a.upper()}-{b.upper()}", "p_value": p, "display": _display(p)}
            for a, b, p in matrix.pairs()
        ],
    }


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
        document["split_counts"] = dict(zip(data_mod.SPLIT_LABELS, data_mod.split_sizes(ds.n_rows)))
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
            graded, errors[method] = _grade(truth, imputed[method], cfg.task_kind)
            block.update(graded)
        document["methods"] = blocks

        stage = "compare"
        document["comparison"] = _comparison(errors)
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
        (out_dir / "partial.json").write_text(_json(document), encoding="utf-8")
    except OSError:
        pass  # never mask the original failure


# --- report files -----------------------------------------------------------

def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _imputed_rows(report: ExperimentReport, method: str):
    target = report.columns[report.document["config"]["missing_column"]]
    for entry in report.document["methods"][method]["imputed"]:
        true, imputed = entry["true"], entry["imputed"]
        # Degenerate target columns are excluded from original-unit reporting.
        originals = "," if target.degenerate else (
            f"{data_mod.denormalize(true, target)!r},{data_mod.denormalize(imputed, target)!r}"
        )
        yield f"{entry['row']},{true!r},{imputed!r},{originals}"


class ReportFile(typing.NamedTuple):
    """A report file: its ``name`` (``{}`` repeats it per method), its CSV
    ``header``, ``rows(report, method)`` (the lines under the header, or the
    whole text when there is none), the task ``kinds`` it exists for, and
    whether its bytes are ``stable`` across reruns of one configuration and seed."""

    name: str
    header: str | None
    rows: typing.Callable
    kinds: tuple[str, ...] = TASK_KINDS
    stable: bool = True


_IMPUTED_FILE = ReportFile(
    "imputed_{}.csv", "row,true_value,imputed_value,true_original,imputed_original", _imputed_rows
)
_ROC_FILE = ReportFile("roc_{}.csv", "fpr,tpr", lambda report, method: (
    f"{float(fpr)!r},{float(tpr)!r}"
    for fpr, tpr in report.document["methods"][method]["roc_points"]
), kinds=("classification",))

# The report's file set, in the order verify's inventory lists it.
REPORT_FILES = (
    ReportFile("report.json", None, lambda report, _: _json(report.document)),
    ReportFile("metrics.csv", "method,metric,value", lambda report, _: (
        f"{method},{metric},{'undefined' if value is None else repr(float(value))}"
        for method, block in report.document["methods"].items()
        for metric, value in block["metrics"].items()
    )),
    ReportFile("pvalues.csv", "pair,p_value,display", lambda report, _: (
        f"{entry['pair']},{float(entry['p_value'])!r},{entry['display']}"
        for entry in report.document["comparison"].get("pairs", [])
    )),
    ReportFile("model.txt", None, lambda report, _: network_mod.model_text(report.net)),
    ReportFile("normalization.csv", "column,min,max", lambda report, _: (
        f"{spec.name},{spec.observed_min!r},{spec.observed_max!r}" for spec in report.columns
    )),
    _IMPUTED_FILE,
    _ROC_FILE,
    ReportFile("timings.json", None, lambda report, _: _json(report.timings), stable=False),
)


def report_files(methods, task_kind: str):
    """(file, name, method) for every file of a report on ``methods``, in
    :data:`REPORT_FILES` order; ``method`` is None for a file written once."""
    for file in REPORT_FILES:
        if task_kind in file.kinds:
            for method in methods if "{}" in file.name else [None]:
                yield file, file.name.format(method), method


def emit_report(report: ExperimentReport, out_dir) -> list[Path]:
    """Write the report's files of :data:`REPORT_FILES`; emission is
    byte-stable per report."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    doc = report.document
    for file, name, method in report_files(list(doc["methods"]), doc["task_kind"]):
        body = file.rows(report, method)
        text = body if file.header is None else "\n".join([file.header, *body]) + "\n"
        path = out_dir / name
        path.write_text(text, encoding="utf-8", newline="\n")
        written.append(path)
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
    """Check a stored table's (check name, text) rows against {check name: value}.

    A row whose name is repeated or not recomputed fails, and so does a
    recomputed name with no row; every other row is compared by :func:`_compare`.
    """
    seen = set()
    for name, text in stored:
        if name not in recomputed:
            checks.append((name, False, f"unexpected row in {source}"))
        elif name in seen:
            checks.append((name, False, f"row repeated in {source}"))
        else:
            seen.add(name)
            checks.append((name, *_compare(text, recomputed[name], source)))
    checks.extend((name, False, f"absent from {source}") for name in recomputed if name not in seen)


def _first_difference(stored, expected, path: str) -> str | None:
    """Where a stored JSON-like value first differs from the expected one, or None.

    Mappings must have the same keys and lists the same length; a float
    agrees with a number within :data:`VERIFY_TOLERANCE`, and any other
    value only with an equal one.
    """
    if stored == expected:  # an intact entry, compared in one call
        return None
    if isinstance(expected, dict):
        if not isinstance(stored, dict) or stored.keys() != expected.keys():
            return f"{path} does not hold the keys {sorted(expected)}"
        inner = ((stored[k], v, f"{path}.{k}") for k, v in expected.items())
    elif isinstance(expected, list):
        if not isinstance(stored, list) or len(stored) != len(expected):
            return f"{path} does not hold {len(expected)} entries"
        inner = ((s, v, f"{path}[{i}]") for i, (s, v) in enumerate(zip(stored, expected)))
    else:
        number = isinstance(expected, float) and isinstance(stored, (int, float))
        if number and abs(stored - expected) <= VERIFY_TOLERANCE:
            return None
        return f"{path} holds {stored!r}, expected {expected!r}"
    return next(filter(None, (_first_difference(*args) for args in inner)), None)


def _agreement(name: str, stored, expected, path: str, source="the regraded imputed files"):
    """The (name, passed, detail) check that ``stored`` equals what ``source`` gives."""
    difference = _first_difference(stored, expected, path)
    detail = f"{difference} from {source}" if difference else f"matches {source}"
    return name, difference is None, detail


def _split_check(counts: dict, test_rows: dict[str, int]) -> tuple[str, bool, str]:
    """The ``split_counts`` check: the validation and test blocks hold as
    many rows as every imputed file, and train 0 to 3 rows more than both,
    as in every split of :func:`~aeimpute.data.split_sizes`."""
    if counts.keys() != set(data_mod.SPLIT_LABELS):
        return "split_counts", False, f"split_counts does not hold the keys {data_mod.SPLIT_LABELS}"
    for name, rows in test_rows.items():
        for label in ("test", "validation"):
            if counts[label] != rows:
                detail = f"split_counts.{label} holds {counts[label]!r}, but {name} has {rows} rows"
                return "split_counts", False, detail
    low = 2 * next(iter(test_rows.values()))  # test rows, the same in every imputed file
    if counts["train"] not in range(low, low + 4):
        detail = f"split_counts.train holds {counts['train']!r}, expected {low} to {low + 3}"
        return "split_counts", False, detail
    return "split_counts", True, f"{sum(counts.values())} rows, as many test rows as each imputed file"


def verify_report(out_dir) -> list[tuple[str, bool, str]]:
    """Re-grade the persisted imputed values the way ``run`` graded them,
    and read every other file of the report against that grading.

    Returns (check name, passed, detail) tuples; numbers compare within an
    absolute tolerance of 1e-9.  The expected files are the stable ones of
    :data:`REPORT_FILES`; missing files fail with an inventory of what was
    expected versus found.  ``normalization.csv`` and ``model.txt`` are read
    against report.json's normalization block and hidden size.  Its
    ``split_counts`` must fit the imputed files' row count (see
    :func:`_split_check`), and each optimizer's ``evaluations_per_task``
    must be the :func:`~aeimpute.optimizers.budget` of its config echo.  An
    unreadable ``report.json``, an unknown task kind, a ``config.methods``
    that is not one or more methods of :data:`ALL_METHODS`, each once and
    each with a block of ``methods``, no more, and the first malformed file,
    fail one ``format`` check that names the file and ends the verification.
    A value cell of ``metrics.csv`` or ``pvalues.csv`` that is not a number
    fails its own row's check only.
    """
    out_dir = Path(out_dir)
    report_path = out_dir / "report.json"
    if not report_path.is_file():
        return [("inventory", False, f"missing {report_path.name}")]
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        task_kind = report["task_kind"]
        # The run compared the methods in its configured order; the checks
        # follow report.json's method blocks, which sit in sorted order.
        order = list(report["config"]["methods"])
        methods = sorted(order)
        stored_blocks = {method: dict(report["methods"][method]) for method in methods}
        blocks = sorted(report["methods"])
        normalization = [[e["column"], e["min"], e["max"]] for e in report["normalization"]]
        model_shape = {"n": len(normalization), "h": report["hidden_size"]["selected"]}
        stored_comparison = report["comparison"]
        split_counts = dict(report["split_counts"])
        budgets = {
            method: optim_mod.budget(method, _SECTION_TYPES[method](**report["config"][method]))
            for method in methods if method in OPTIMIZER_METHODS
        }
    except (ValueError, KeyError, TypeError) as err:
        return [("format", False, f"{report_path.name} unreadable: {err!r}")]
    if task_kind not in TASK_KINDS:
        return [("format", False, f"{report_path.name}: unknown task_kind {task_kind!r}")]
    if not methods or methods != blocks or not set(methods) <= set(ALL_METHODS):  # keys repeat none
        return [("format", False, f"{report_path.name}: config.methods {order} and methods' blocks "
                 f"{blocks} must be the same one or more of {', '.join(ALL_METHODS)}, each once")]

    expected = [name for file, name, _ in report_files(methods, task_kind) if file.stable]
    missing = [name for name in expected if not (out_dir / name).is_file()]
    if missing:
        present = ", ".join(sorted(p.name for p in out_dir.iterdir() if p.is_file()))
        return [("inventory", False, f"missing: {', '.join(missing)}; present: {present}")]
    checks = [("inventory", True, f"{len(expected)} files present")]
    try:
        recomputed, errors, test_rows = {}, {}, {}
        for method in methods:
            name = _IMPUTED_FILE.name.format(method)
            rows = _read_csv(out_dir / name, "true_value", "imputed_value", convert=float)
            test_rows[name] = len(rows)
            truth, values = np.array(rows).reshape(-1, 2).T
            try:
                block, errors[method] = _grade(truth, values, task_kind)
            except ValueError as err:
                raise ValueError(f"{name} cannot be graded: {err}") from None
            stored = {key: stored_blocks[method].get(key) for key in block}
            checks.append(_agreement(f"report.{method}", stored, block, f"methods.{method}"))
            recomputed.update((f"{method}.{k}", v) for k, v in block["metrics"].items())
            if "roc_points" in block:
                name = _ROC_FILE.name.format(method)
                stored = _read_csv(out_dir / name, "fpr", "tpr", convert=float)
                checks.append(_agreement(f"roc_{method}", stored, block["roc_points"], name))
        checks.append(_split_check(split_counts, test_rows))
        checks.extend(
            _agreement(
                f"evaluations.{method}", stored_blocks[method].get("evaluations_per_task"),
                evaluations, f"methods.{method}.evaluations_per_task", "the config echo",
            )
            for method, evaluations in budgets.items()
        )

        rows = _read_csv(out_dir / "metrics.csv", "method", "metric", "value")
        stored = [(f"{method}.{metric}", value) for method, metric, value in rows]
        _match_rows(checks, "metrics.csv", stored, recomputed)

        try:
            comparison = _comparison({method: errors[method] for method in order})
        except ValueError as err:
            raise ValueError(f"{_IMPUTED_FILE.name.format('*')} cannot be compared: {err}") from None
        checks.append(_agreement("report.comparison", stored_comparison, comparison, "comparison"))
        recomputed = {f"pvalue.{e['pair']}": e["p_value"] for e in comparison.get("pairs", [])}
        rows = _read_csv(out_dir / "pvalues.csv", "pair", "p_value")
        _match_rows(checks, "pvalues.csv", [(f"pvalue.{pair}", p) for pair, p in rows], recomputed)

        path = out_dir / "normalization.csv"
        bounds = _read_csv(path, "min", "max", convert=float)
        stored = [name + pair for name, pair in zip(_read_csv(path, "column"), bounds)]
        checks.append(_agreement("normalization", stored, normalization, path.name, "report.json"))

        try:
            net = network_mod.load_model(out_dir / "model.txt")
        except ValueError as err:
            raise ValueError(f"model.txt unreadable: {err}") from None
        stored = {"n": net.n_inputs, "h": net.n_hidden}
        checks.append(_agreement("model", stored, model_shape, "model.txt", "report.json"))
    except ValueError as err:
        checks.append(("format", False, str(err)))
    return checks
