"""The whole pipeline over small random tables: a run either completes with
a report that passes every check of ``verify``, or fails at stage
``prepare``, before any training, on a configuration or data error.

The tables hold 3-7 columns and 8-61 rows of mixed kinds, with degenerate
columns and scales from 1e-8 to 1e6; the runs draw their methods, hidden
size and normalization scope, at budgets small enough for many examples.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from aeimpute.data import CsvFormatError
from aeimpute.experiment import (
    ALL_METHODS,
    ConfigError,
    ExperimentError,
    emit_report,
    parse_config,
    run_experiment,
    verify_report,
)

from conftest import config_text

TINY_BUDGETS = {
    "train.max_iterations": 10,
    "ga.population": 4,
    "ga.generations": 2,
    "sa.temperature_steps": 2,
    "sa.moves_per_step": 2,
    "pso.swarm": 3,
    "pso.iterations": 2,
    "ns.detectors": 3,
    "ns.generations": 2,
    "rf.n_trees": 3,
}


@st.composite
def column(draw, rng: np.random.Generator, n_rows: int) -> tuple[str, np.ndarray]:
    """(kind, values) of one column; one in four is constant."""
    kind = draw(st.sampled_from(["numeric", "binary", "categorical"]), label="kind")
    constant = draw(st.integers(0, 3), label="constant") == 0
    if kind == "binary":
        values = rng.integers(0, 2, n_rows).astype(float)
    elif kind == "categorical":
        values = rng.integers(0, draw(st.integers(2, 5), label="levels"), n_rows).astype(float)
    else:
        scale = 10.0 ** draw(st.floats(-8, 6), label="log10 scale")
        values = scale * rng.normal(draw(st.floats(-2, 2), label="center"), 1.0, n_rows)
    return kind, np.full(n_rows, values[0]) if constant else values


@st.composite
def experiments(draw) -> tuple[list[str], np.ndarray, dict]:
    """(column kinds, table, config settings) of one small experiment."""
    n_rows = draw(st.integers(8, 61), label="rows")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="table seed"))
    kinds, columns = zip(*(draw(column(rng, n_rows)) for _ in range(draw(st.integers(3, 7), label="columns"))))
    task = draw(st.sampled_from(["prediction", "classification"]), label="task")
    # A classification target is mostly a binary column, so that most such runs go through.
    binary = [i for i, kind in enumerate(kinds) if kind == "binary"]
    targets = binary if task == "classification" and binary and draw(st.booleans()) else range(len(kinds))
    methods = draw(st.lists(st.sampled_from(ALL_METHODS), min_size=1, unique=True), label="methods")
    overrides = {
        "missing_column": draw(st.sampled_from(targets), label="missing column"),
        "task": task,
        "methods": ",".join(methods),
        "hidden_size": draw(st.sampled_from(["auto", *range(2, len(kinds))]), label="hidden size"),
        "normalization_scope": draw(st.sampled_from(["full", "train"]), label="scope"),
        "rf.min_leaf": draw(st.integers(1, 5), label="rf.min_leaf"),
        "seed": draw(st.integers(0, 99), label="seed"),
        **TINY_BUDGETS,
    }
    return list(kinds), np.column_stack(columns), overrides


# A small table often picks its largest hidden size, which only warns.
@pytest.mark.filterwarnings("ignore:hidden size .* won at the top of the range:UserWarning")
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(experiments())
def test_a_run_is_verified_or_fails_at_prepare(experiment):
    kinds, table, overrides = experiment
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        csv = tmp / "data.csv"
        csv.write_text("".join(",".join(map(repr, row.tolist())) + "\n" for row in table))
        meta = {"kinds": kinds, **{k: overrides[k] for k in ("missing_column", "task")}}
        rest = {k: v for k, v in overrides.items() if k not in meta}
        (tmp / "run.cfg").write_text(config_text(csv, meta, tmp / "out", **rest))
        cfg = parse_config(tmp / "run.cfg")
        try:
            report = run_experiment(cfg)
        except ExperimentError as err:
            assert str(err).startswith("stage 'prepare' failed: "), err
            assert isinstance(err.__cause__, (ConfigError, CsvFormatError)), repr(err.__cause__)
            return
        emit_report(report, cfg.output_dir)
        assert [check for check in verify_report(cfg.output_dir) if not check[1]] == []
