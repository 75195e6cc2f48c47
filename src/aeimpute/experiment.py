"""End-to-end experiment orchestration and reporting.

Pipeline: load CSV -> normalize -> chronological split -> train the
autoencoder on the training block (under a hidden size search, the network
that best imputes the masked column of the validation block) -> mask the
designated column of the test rows as one imputation task -> estimate the
masked value of every test record with each configured method (an optimizer
searches all records in lockstep, the random forest predicts them) -> score
every method -> compare every two methods on the records they share ->
persist a machine-readable report.  The methods run side by side, one per
core, through :func:`aeimpute.parallel.fork_map`, as the hidden-size search
and the forest's trees do.

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
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
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

ALL_METHODS = optim_mod.ALGORITHM_TAGS + ("rf",)
TASK_KINDS = ("prediction", "classification")
FAILURE_MARKER = "FAILED.txt"
VERIFY_TOLERANCE = 1e-9
REPORT_FORMAT = 2  # report.json's "format"; a report without the key is format 1


class ConfigError(ValueError):
    """A config file or experiment configuration is invalid."""


class ExperimentError(RuntimeError):
    """A pipeline stage failed; partial results were persisted."""


@dataclass
class ExperimentConfig:
    """One experiment's settings.

    Each field is the config file key of its name, except ``output_dir``,
    which the key ``output`` sets.  A section field's own fields are its
    dotted keys: ``ga.population`` sets ``ga``'s ``GaConfig.population``.
    The report's config echo is their config file lines (:func:`config_text`).
    """

    dataset: Path
    missing_column: int
    task: str
    header: bool = False
    columns: tuple[str | tuple[str, str], ...] | None = None
    hidden_size: int | str = "auto"
    methods: tuple[str, ...] = ALL_METHODS
    seed: int = 0
    output_dir: Path = Path("report")
    normalization_scope: str = "full"
    train: network_mod.TrainConfig = field(default_factory=network_mod.TrainConfig)
    ga: optim_mod.GaConfig = field(default_factory=optim_mod.GaConfig)
    sa: optim_mod.SaConfig = field(default_factory=optim_mod.SaConfig)
    pso: optim_mod.PsoConfig = field(default_factory=optim_mod.PsoConfig)
    ns: optim_mod.NsConfig = field(default_factory=optim_mod.NsConfig)
    rf: forest_mod.ForestConfig = field(default_factory=forest_mod.ForestConfig)

    def __post_init__(self) -> None:
        self.dataset = Path(self.dataset)
        self.output_dir = Path(self.output_dir)
        if not data_mod.fits_a_config_line(str(self.dataset)):
            raise ConfigError(f"dataset {str(self.dataset)!r}: a '#', line break or outer space has no config text")
        if self.task not in TASK_KINDS:
            raise ConfigError(f"task must be one of {TASK_KINDS}, got {self.task!r}")
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
        if self.normalization_scope not in ("full", "train"):
            raise ConfigError("normalization_scope must be 'full' or 'train'")
        if self.columns is not None:
            try:
                data_mod.schema_pairs(self.columns, len(self.columns))
            except ValueError as err:
                raise ConfigError(str(err)) from None
        config_text(self)  # raises ConfigError for a setting that its config line does not read back as


# --- config file parsing ----------------------------------------------------

def _entries(raw: str) -> tuple[str, ...]:
    """A comma-separated list, blank entries dropped."""
    return tuple(e.strip() for e in raw.split(",") if e.strip())


def _columns(raw: str) -> tuple:
    """Column kinds; a ``name: kind`` entry becomes a (name, kind) pair."""
    return tuple(tuple(part.strip() for part in e.split(":", 1)) if ":" in e else e for e in _entries(raw))


def _hidden_size(raw: str) -> int | str:
    return raw if raw == "auto" else int(raw)


# Section name -> config type: the dataclass-typed fields of ExperimentConfig.
_HINTS = typing.get_type_hints(ExperimentConfig)
_SECTION_TYPES = {name: tp for name, tp in _HINTS.items() if is_dataclass(tp)}

# Per-run seeds are derived from the master seed, so no config key sets them.
_DERIVED_SEEDS = ("rng_seed",)

# Section ("" for the globals) -> config file key -> parser of its value
# text: the field's resolved type hint, except for the three keys whose text
# needs its own reading.  The key ``output`` sets the field ``output_dir``.
_KEYS = {
    "": {
        **{"output" if name == "output_dir" else name: tp
           for name, tp in _HINTS.items() if name not in _SECTION_TYPES},
        "columns": _columns, "hidden_size": _hidden_size, "methods": _entries,
    },
    **{name: {key: tp for key, tp in typing.get_type_hints(cfg_type).items() if key not in _DERIVED_SEEDS}
       for name, cfg_type in _SECTION_TYPES.items()},
}

_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_EXPECTED = {int: "an integer", float: "a number", bool: "true/false", _hidden_size: "'auto' or an integer"}


def _parse_value(where: str, raw: str, tp):
    """Convert config text to the resolved type ``tp``; ``T | None`` reads none/auto as None."""
    args = typing.get_args(tp)
    if type(None) in args:
        if raw.lower() in ("none", "auto"):
            return None
        (tp,) = (a for a in args if a is not type(None))
    try:
        return _BOOLS[raw.lower()] if tp is bool else tp(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{where}: expected {_EXPECTED[tp]}, got {raw!r}") from None


def parse_config(path) -> ExperimentConfig:
    """Parse a config file: :func:`parse_config_text` of its text."""
    path = Path(path)
    try:
        return parse_config_text(path.read_text(encoding="utf-8-sig"), path)
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None


def parse_config_text(text: str, where: str | Path) -> ExperimentConfig:
    """Parse flat ``key = value`` lines with dotted sections; errors name
    ``where`` (a config file's path) and the line, counted from 1.

    The keys are those of ``_KEYS``: a global key is the
    :class:`ExperimentConfig` field of its name (``output`` sets
    ``output_dir``), and a dotted key such as ``ga.population = 50`` sets
    that field of its section's config.  Each value is read by its field's
    type.  Unknown and repeated keys are errors.
    """
    found: dict[str, dict[str, object]] = {section: {} for section in _KEYS}
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in seen:
            raise ConfigError(f"{where}:{lineno}: key {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        section, sub = key.split(".", 1) if "." in key else ("", key)
        if section not in _KEYS or key.startswith("."):
            raise ConfigError(f"{where}:{lineno}: unknown section {section!r}")
        if sub not in _KEYS[section]:
            raise ConfigError(f"{where}:{lineno}: unknown key {key!r}")
        found[section][sub] = _parse_value(f"{where}:{lineno}: {key}", raw, _KEYS[section][sub])

    kwargs = {"output_dir" if key == "output" else key: value for key, value in found.pop("").items()}
    for f in fields(ExperimentConfig):
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}: missing required key {f.name!r}")
    for name, values in found.items():
        try:
            kwargs[name] = _SECTION_TYPES[name](**values)
        except ValueError as err:
            raise ConfigError(f"{where}: section {name!r}: {err}") from None
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _value_text(value, tp) -> str:
    """The config-file text of a setting's ``value`` under its ``_KEYS`` type hint."""
    if value is None or isinstance(value, bool):
        return str(value).lower()
    if float in (tp, *typing.get_args(tp)):
        return repr(float(value))  # an integer given for a float reads back as a float
    if isinstance(value, (tuple, list)):  # columns and methods
        return ",".join(e if isinstance(e, str) else f"{e[0]}: {e[1]}" for e in value)
    return str(value)


def config_text(cfg: ExperimentConfig) -> list[str]:
    """The report's config echo: each setting of ``cfg`` as the config file
    line that :func:`parse_config_text` reads back, in ``_KEYS`` order.
    ``output``, the derived seeds and an unset ``columns`` have no line.  A
    setting that its line does not read back as (``seed=True``; an integer
    for a float does, and a list as a tuple) raises ConfigError naming it."""
    lines = []
    for section, keys in _KEYS.items():
        owner = getattr(cfg, section) if section else cfg
        for key, tp in keys.items():
            if key != "output" and not (key == "columns" and cfg.columns is None):
                name, value = f"{section}.{key}" if section else key, getattr(owner, key)
                text = _value_text(value, tp)
                lines.append(f"{name} = {text}")
                try:
                    parsed = _parse_value(name, text, tp)
                    same = _value_text(parsed, tp) == text and (isinstance(value, (list, tuple)) or parsed == value)
                except ConfigError:
                    same = False
                if not same:
                    raise ConfigError(f"{name}: {value!r} does not read back from its config line {lines[-1]!r}")
    return lines


# --- report -----------------------------------------------------------------

@dataclass
class ExperimentReport:
    """A finished run: the report.json document (plain JSON types only) and
    what the other emitted files need besides."""

    document: dict
    net: network_mod.Autoencoder
    columns: tuple
    missing_column: int
    timings: dict


_METHODOLOGY = {
    "mae": "mean absolute error (absolute deviations, not squared)",
    "pearson_r": "sample correlation; null when either vector is constant",
    "comparison": (
        "every two methods, paired on the test records: DeLong's z-test on their "
        "AUCs (ties counting 1/2) for classification tasks, the exact two-sided "
        "sign test on squared errors (ties dropped) for prediction tasks; p_holm "
        "is Holm's step-down adjustment of p_value across all pairs, as displayed"
    ),
    "roc_scores": (
        "imputed class-column values (optimizers) and mean tree vote (rf) "
        "used directly as scores, with no threshold"
    ),
    "timings": "wall-clock stage timings live in timings.json and are not byte-stable",
}


def _config_entries(cfg: ExperimentConfig) -> dict:
    """The entries of report.json that follow from the configuration alone."""
    return {"config": config_text(cfg), "task_kind": cfg.task, "methodology": dict(_METHODOLOGY)}


def _display(value: float) -> str:
    return f"{value:.2f}"


def _grade(truth: np.ndarray, values: np.ndarray, task_kind: str) -> tuple[dict, np.ndarray]:
    """Grade one method's imputed values against the truth.

    Returns the method's report block (imputed rows, metrics and their
    display texts, and the ROC points where the task kind gets ROC files)
    and what the comparison tests: the values, as scores, where it gets ROC
    files, else the squared errors.
    """
    pairs = enumerate(zip(truth.tolist(), values.tolist()))
    block: dict = {"imputed": [{"row": i, "true": t, "imputed": v} for i, (t, v) in pairs]}
    if task_kind in _ROC_FILE.kinds:
        roc = metrics_mod.roc_curve(values, truth.astype(int))
        block["metrics"] = {"auc": roc.auc}
        block["roc_points"] = [list(p) for p in roc.points]
    else:
        scores = metrics_mod.prediction_scores(truth, values)
        block["metrics"] = asdict(scores)
    block["display"] = {
        k: "undefined" if v is None else _display(v) for k, v in block["metrics"].items()
    }
    return block, values if task_kind in _ROC_FILE.kinds else (truth - values) ** 2


def _config_facts(method: str, section, n_columns: int) -> dict:
    """The entries of a method's block that follow from its config section:
    an optimizer's evaluations per task, or the forest's resolved mtry."""
    if method == "rf":
        return {"mtry_resolved": forest_mod.resolve_mtry(section, n_columns)}
    return {"evaluations_per_task": optim_mod.budget(method, section)}


def _comparison(samples: dict[str, np.ndarray], truth: np.ndarray, task_kind: str) -> list:
    """The report's comparison entry: :func:`~aeimpute.metrics.comparison_matrix`
    on the samples of :func:`_grade`, each pair named ``A-B`` and displayed."""
    labels = truth if task_kind in _ROC_FILE.kinds else None
    return [{**entry, "pair": "-".join(entry["pair"]).upper(), "display": _display(entry["p_holm"])}
            for entry in metrics_mod.comparison_matrix(samples, labels)]


# --- pipeline ---------------------------------------------------------------

def _prepare_dataset(cfg: ExperimentConfig) -> tuple[data_mod.Dataset, tuple, data_mod.ImputationTask]:
    """The scaled dataset, its train, validation and test blocks, and the
    test block's imputation task.

    Raises :class:`ConfigError`, before any training, where the data alone
    decides that a later stage would fail: fewer than 4 rows or 3 columns, a
    ``missing_column`` that :func:`~aeimpute.data.make_tasks` rejects, a
    ``hidden_size`` that :func:`~aeimpute.network.check_hidden_size` rejects,
    a forest fit on the train block that :func:`~aeimpute.forest.resolve_mtry`
    rejects, a classification target that is not 0/1 after scaling or whose
    test block lacks a class (or holds one record of a class, where DeLong's
    test compares two or more methods), and two or more methods to compare
    on a one-record test block.
    """
    ds = data_mod.load_csv(cfg.dataset, schema=cfg.columns, header=cfg.header)
    try:
        n_train, _, n_test = data_mod.split_sizes(ds.n_rows)
        fit_rows = n_train if cfg.normalization_scope == "train" else None
        scaled = data_mod.normalize(ds, fit_row_count=fit_rows)
        blocks = data_mod.split(scaled)
        task = data_mod.make_tasks(blocks[2], cfg.missing_column)
        if cfg.hidden_size == "auto":
            network_mod.hidden_size_candidates(ds.n_columns)
        else:
            network_mod.check_hidden_size(ds.n_columns, cfg.hidden_size)
        if "rf" in cfg.methods:
            forest_mod.resolve_mtry(cfg.rf, ds.n_columns, n_train)
    except ValueError as err:
        raise ConfigError(f"{cfg.dataset}: {err}") from None
    if cfg.task == "classification":
        target = scaled.columns[task.column].column
        if not np.isin(scaled.rows[:, task.column], (0, 1)).all():
            raise ConfigError(
                "classification task needs a 0/1 target after scaling; "
                f"column {target!r} has other values"
            )
        ones = int(task.truth.sum())
        fewest = min(ones, n_test - ones)
        if fewest == 0 or (fewest == 1 and len(cfg.methods) > 1):
            raise ConfigError(
                f"the test block (the last {n_test} rows; the split follows file order) "
                f"holds {n_test - ones} 0s and {ones} 1s in column {target!r}: " + (
                    "a classification task needs both classes there" if fewest == 0 else
                    f"comparing {len(cfg.methods)} methods by DeLong's test needs 2 records of each class there")
            )
    if len(cfg.methods) > 1 and n_test < 2:
        raise ConfigError(
            f"comparing {len(cfg.methods)} methods needs at least 2 test records; "
            f"the test block of the {ds.n_rows} rows holds {n_test}"
        )
    return scaled, blocks, task


def run_experiment(cfg: ExperimentConfig, progress=None) -> ExperimentReport:
    """Execute the full pipeline; deterministic given the config and seed.

    ``progress`` is an optional callable receiving each stage's name, the
    ``timings.json`` key the stage is clocked under, as the stage starts.  On
    any stage failure the report document, as far as the finished stages
    built it, is written to the output directory as ``partial.json`` next to
    a failure marker, and the error is re-raised as :class:`ExperimentError`
    with the stage name.
    """
    notify = progress or (lambda msg: None)
    timings: dict[str, float] = {}
    document: dict = {"format": REPORT_FORMAT, "toolkit_version": __version__, **_config_entries(cfg)}
    stage = None

    @contextmanager
    def clocked(name):
        nonlocal stage
        stage, start = name, perf_counter()
        notify(name)
        yield
        timings[name] = perf_counter() - start

    try:
        with clocked("prepare"):
            ds, (train_rows, validation_rows, _), task = _prepare_dataset(cfg)
        document["split_counts"] = dict(zip(data_mod.SPLIT_LABELS, data_mod.split_sizes(ds.n_rows)))
        document["normalization"] = [asdict(spec) for spec in ds.columns]

        if cfg.hidden_size == "auto":
            # The search trains a network per size; the winner's is the model.
            with clocked("hidden_search"):
                search_cfg = replace(cfg.train, rng_seed=cfg.seed)
                val_task = data_mod.make_tasks(validation_rows, cfg.missing_column)
                hidden, net, train_loss = network_mod.select_hidden_size(train_rows, val_task, search_cfg)
        else:
            with clocked("train"):
                hidden = cfg.hidden_size
                train_cfg = replace(cfg.train, rng_seed=derive_seed(cfg.seed, "train"))
                net, train_loss = network_mod.train(train_rows, hidden, train_cfg)
        document["hidden_size"] = {"requested": cfg.hidden_size, "selected": hidden}
        document["train_loss"] = float(train_loss)

        with clocked("impute"):
            # Each method imputes all test records, an optimizer each record with
            # its own derived seed, so the methods are independent and run side by
            # side, one per core.  A method's traces stay in the process that ran it.
            objective = MissingDataObjective(net, task)

            def estimate(method):
                begin = perf_counter()
                if method == "rf":
                    seed = derive_seed(cfg.seed, "rf")
                    fitted = forest_mod.fit(train_rows, task.column, cfg.rf, seed=seed)
                    values = fitted.predict(task.rows)
                else:
                    seeds = [derive_seed(cfg.seed, method, i) for i in range(len(task.truth))]
                    result = optim_mod.run(objective, method, getattr(cfg, method), seeds=seeds)
                    values = result.best_points
                return values, perf_counter() - begin

            imputed = dict(zip(cfg.methods, fork_map(estimate, cfg.methods)))
        timings.update((f"impute.{method}", seconds) for method, (_, seconds) in imputed.items())

        with clocked("score"):
            blocks, samples = {}, {}
            for method, (values, _) in imputed.items():
                graded, samples[method] = _grade(task.truth, values, cfg.task)
                blocks[method] = {**_config_facts(method, getattr(cfg, method), ds.n_columns), **graded}
            document["methods"] = blocks
            document["comparison"] = _comparison(samples, task.truth, cfg.task)
        return ExperimentReport(document, net, ds.columns, cfg.missing_column, timings)
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
    target = report.columns[report.missing_column]
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


def _pvalues_file(kind: str, *statistic: str) -> ReportFile:
    """pvalues.csv of a task kind: a row per pair of methods, its ``statistic`` first."""
    columns = ("pair", *statistic, "p_value", "p_holm", "display")
    return ReportFile("pvalues.csv", ",".join(columns), lambda report, _: (
        ",".join(entry[c] if c in ("pair", "display") else repr(entry[c]) for c in columns)
        for entry in report.document["comparison"]
    ), kinds=(kind,))


# The report's file set, in the order verify's inventory lists it.
REPORT_FILES = (
    ReportFile("report.json", None, lambda report, _: _json(report.document)),
    ReportFile("metrics.csv", "method,metric,value", lambda report, _: (
        f"{method},{metric},{'undefined' if value is None else repr(float(value))}"
        for method, block in report.document["methods"].items()
        for metric, value in block["metrics"].items()
    )),
    _pvalues_file("classification", "delta_auc"),
    _pvalues_file("prediction", "wins_a", "wins_b", "ties"),
    ReportFile("model.txt", None, lambda report, _: network_mod.model_text(report.net)),
    ReportFile("normalization.csv", "column,min,max", lambda report, _: (
        f"{spec.column},{spec.min!r},{spec.max!r}" for spec in report.columns
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


def _text(file: ReportFile, report: ExperimentReport, method) -> str:
    """The text of ``file`` for ``method`` (None for a file written once)."""
    body = file.rows(report, method)
    return body if file.header is None else "\n".join([file.header, *body]) + "\n"


def emit_report(report: ExperimentReport, out_dir) -> list[Path]:
    """Write the report's files of :data:`REPORT_FILES`; emission is
    byte-stable per report."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    doc = report.document
    for file, name, method in report_files(list(doc["methods"]), doc["task_kind"]):
        path = out_dir / name
        path.write_text(_text(file, report, method), encoding="utf-8", newline="\n")
        written.append(path)
    return written


# --- verification -----------------------------------------------------------

def _regrade(path: Path, task_kind: str) -> tuple[np.ndarray, dict, np.ndarray]:
    """The ``true_value`` column of an ``imputed_<method>.csv``, and :func:`_grade` of
    it and ``imputed_value``; a file it cannot grade raises ValueError naming it."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        at = [lines[0].split(",").index(column) for column in ("true_value", "imputed_value")]
        rows = [line.split(",") for line in lines[1:] if line]
        truth, values = np.array([[float(cells[i]) for i in at] for cells in rows]).reshape(-1, 2).T
        return truth, *_grade(truth, values, task_kind)
    except (IndexError, ValueError) as err:
        raise ValueError(f"{path.name} cannot be graded: {err}") from None


def _cell(text: str) -> float | str:
    try:
        return float(text)
    except ValueError:
        return text


def _cells(text: str) -> list[list]:
    """A CSV text as its lines of cells, a cell that is a number read as a float."""
    return [[_cell(cell) for cell in line.split(",")] for line in text.splitlines()]


def _first_difference(stored, expected, path: str) -> str | None:
    """Where a stored JSON-like value first differs from the expected one, or None.

    Mappings must have the same keys.  Lists are compared element by
    element first, so the first differing element is named before a
    difference in length.  A float agrees with a number within
    :data:`VERIFY_TOLERANCE`, and any other value only with an equal one.
    """
    if stored == expected:  # an intact entry, compared in one call
        return None
    if isinstance(expected, dict):
        if not isinstance(stored, dict) or stored.keys() != expected.keys():
            return f"{path} does not hold the keys {sorted(expected)}"
        inner = ((stored[k], v, f"{path}.{k}") for k, v in expected.items())
    elif isinstance(expected, list):
        if not isinstance(stored, list):
            return f"{path} does not hold {len(expected)} entries"
        inner = ((s, v, f"{path}[{i}]") for i, (s, v) in enumerate(zip(stored, expected)))
    else:
        number = isinstance(expected, float) and isinstance(stored, (int, float))
        if number and abs(stored - expected) <= VERIFY_TOLERANCE:
            return None
        return f"{path} holds {stored!r}, expected {expected!r}"
    difference = next(filter(None, (_first_difference(*args) for args in inner)), None)
    unequal = len(stored) != len(expected)  # lists only: mappings hold the same keys
    return difference or (f"{path} does not hold {len(expected)} entries" if unequal else None)


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


def _stated_normalization(cfg: ExperimentConfig, columns: tuple) -> list:
    """The normalization block of ``columns`` with each column's kind, and
    its name unless a header row supplied it, as ``cfg.columns`` states them
    (read by :func:`~aeimpute.data.schema_pairs`, as load_csv reads them).
    ``cfg.missing_column`` must be one of ``columns``
    (:func:`~aeimpute.data.check_column`)."""
    try:
        pairs = data_mod.schema_pairs(cfg.columns, len(columns))
        data_mod.check_column(cfg.missing_column, len(columns))
    except ValueError as err:
        raise ConfigError(f"config.{err} in the normalization block") from None
    return [{**asdict(spec), "column": spec.column if cfg.header else name, "kind": kind}
            for spec, (name, kind) in zip(columns, pairs)]


def verify_report(out_dir) -> list[tuple[str, bool, str]]:
    """Rebuild the report ``run`` would have written from the regraded
    imputed files, and compare every stable file with its re-rendering.

    The expected report is report.json's document with the entries that
    follow from the configuration its echo parses as (:func:`_config_entries`,
    the names and kinds of :func:`_stated_normalization`,
    ``hidden_size.requested`` and a fixed size's ``hidden_size.selected``;
    ``toolkit_version`` stays as stored),
    each method's block regraded from its ``imputed_<method>.csv`` with its
    :func:`_config_facts`, and the comparison recomputed; its columns come
    from the ``normalization`` block and its network from ``model.txt``.
    Each stable file of :data:`REPORT_FILES` gets one check, named after
    it, that its first difference fails (see :func:`_first_difference`):
    report.json as a parsed document, the other files as comma-split lines
    in which a byte that is not UTF-8 reads as U+FFFD.
    A failing ``normalization.csv`` check ends the verification.  Two more
    checks: :func:`_split_check`, and ``model``, ``model.txt``'s shape.

    Returns (check name, passed, detail) tuples.  Missing files fail one
    ``inventory`` check.  A ``report.json`` of a ``format`` other than
    :data:`REPORT_FORMAT` (1 where it has none), an unreadable one, an echo
    that does not parse as a config file, a configuration that
    :class:`ExperimentConfig` rejects (also for the stored ``task_kind``), a
    ``missing_column`` or ``columns`` that does not fit the normalization
    block, method blocks other than those of ``config.methods``, and the
    first malformed file fail one ``format`` check that names the file and
    ends the verification.
    """
    out_dir = Path(out_dir)
    report_path = out_dir / "report.json"
    if not report_path.is_file():
        return [("inventory", False, f"missing {report_path.name}")]
    try:
        document = json.loads(report_path.read_text(encoding="utf-8"))
        stored = document.get("format", 1)
        if stored != REPORT_FORMAT:
            return [("format", False, f"{report_path.name} is format {stored!r}, written by toolkit_version "
                     f"{document.get('toolkit_version')!r}; this version reads format {REPORT_FORMAT}")]
        cfg = parse_config_text("\n".join(document["config"]), "config")
        # The files were written, and are regraded, for the stored task kind.
        task_kind = replace(cfg, task=document["task_kind"]).task
        blocks = sorted(document["methods"])
        columns = tuple(data_mod.ColumnSpec(**entry) for entry in document["normalization"])
        normalization = _stated_normalization(cfg, columns)
        # A fixed size is the one run trains; a searched one is read back.
        selected = document["hidden_size"]["selected"] if cfg.hidden_size == "auto" else cfg.hidden_size
        hidden_size = {"requested": cfg.hidden_size, "selected": selected}
        split_counts = dict(document["split_counts"])
    except ConfigError as err:
        return [("format", False, f"{report_path.name}: {err}")]
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        return [("format", False, f"{report_path.name} unreadable: {err!r}")]
    if blocks != sorted(cfg.methods):
        return [("format", False, f"{report_path.name}: methods' blocks {blocks} "
                 f"must be those of config.methods {list(cfg.methods)}")]

    files = [(file, name, method) for file, name, method in report_files(blocks, task_kind) if file.stable]
    missing = [name for _, name, _ in files if not (out_dir / name).is_file()]
    if missing:
        present = ", ".join(sorted(p.name for p in out_dir.iterdir() if p.is_file()))
        return [("inventory", False, f"missing: {', '.join(missing)}; present: {present}")]
    checks = [("inventory", True, f"{len(files)} files present")]
    try:
        graded, samples = {}, {}
        for method in cfg.methods:
            truth, block, samples[method] = _regrade(out_dir / _IMPUTED_FILE.name.format(method), task_kind)
            graded[method] = {**_config_facts(method, getattr(cfg, method), len(columns)), **block}
        rows = {_IMPUTED_FILE.name.format(m): len(b["imputed"]) for m, b in graded.items()}
        checks.append(_split_check(split_counts, rows))
        try:
            comparison = _comparison(samples, truth, task_kind)
        except ValueError as err:
            raise ValueError(f"{_IMPUTED_FILE.name.format('*')} cannot be compared: {err}") from None
        try:
            net = network_mod.load_model(out_dir / "model.txt")
        except ValueError as err:
            raise ValueError(f"model.txt unreadable: {err}") from None
        model_shape = {"n": len(columns), "h": hidden_size["selected"]}
        difference = _first_difference({"n": net.n_inputs, "h": net.n_hidden}, model_shape, "model.txt")
        detail = f"{difference} from report.json" if difference else "matches report.json"
        checks.append(("model", difference is None, detail))

        stated = dict(_config_entries(cfg), normalization=normalization, hidden_size=hidden_size,
                      methods=graded, comparison=comparison)
        expected = ExperimentReport({**document, **stated}, net, columns, cfg.missing_column, {})
        for file, name, method in files:
            if name == "report.json":  # as parsed: serializing it would cost more than all the rest
                difference = _first_difference(document, expected.document, name)
            else:
                text = (out_dir / name).read_text(encoding="utf-8", errors="replace")
                rendered = _text(file, expected, method)
                difference = text != rendered and _first_difference(_cells(text), _cells(rendered), name)
            if difference and name == "normalization.csv":
                # The imputed files after it render their original units from
                # report.json's block: the verification ends here, blaming none.
                checks.append((name, False, f"{difference} from report.json's normalization block"))
                break
            checks.append((name, not difference, difference or "matches its re-rendering"))
    except ValueError as err:
        checks.append(("format", False, str(err)))
    return checks
