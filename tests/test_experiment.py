"""Config parsing, orchestration, report emission, verification, and CLI."""

import copy
import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aeimpute import cli, data, experiment, forest, metrics, network, optimizers, parallel
from aeimpute.experiment import (
    _DERIVED_SEEDS,
    _KEYS,
    _SECTION_TYPES,
    ConfigError,
    ExperimentConfig,
    ExperimentError,
    FAILURE_MARKER,
    REPORT_FILES,
    _config_echo,
    _config_from_echo,
    _stated_normalization,
    emit_report,
    parse_config,
    run_experiment,
    verify_report,
)
from aeimpute.seeding import derive_seed

from conftest import bench_module, child_processes, config_text, random_autoencoder, write_table


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# The files whose bytes may differ between reruns, as the report's file table marks them.
UNSTABLE = {file.name for file in REPORT_FILES if not file.stable}


def clone_report(out, dest, skip=()):
    """Copy the report in ``out`` to a new directory ``dest``, leaving out ``skip``."""
    dest.mkdir()
    for p in out.iterdir():
        if p.name not in skip:
            (dest / p.name).write_bytes(p.read_bytes())
    return dest


FAST = {
    "ga.generations": 8,
    "ga.population": 20,
    "sa.temperature_steps": 8,
    "sa.moves_per_step": 5,
    "pso.iterations": 8,
    "pso.swarm": 10,
    "ns.generations": 8,
    "ns.detectors": 10,
    "rf.n_trees": 8,
    "train.max_iterations": 60,
}


@pytest.fixture(scope="module")
def heart_setup(tmp_path_factory, heart_like):
    return (tmp_path_factory.mktemp("exp"), *heart_like)


def write_config(tmp, csv, meta, name="exp.cfg", out="out", **overrides):
    cfg_file = tmp / name
    merged = dict(FAST, seed=7, hidden_size=4)
    merged.update(overrides)
    cfg_file.write_text(config_text(csv, meta, tmp / out, **merged), encoding="utf-8")
    return cfg_file


@pytest.fixture(scope="module")
def emitted(heart_setup):
    """One reduced heart-like run, emitted and shared across read-only tests."""
    tmp, csv, meta = heart_setup
    cfg_file = write_config(tmp, csv, meta, name="shared.cfg", out="shared_out")
    cfg = parse_config(cfg_file)
    report = run_experiment(cfg)
    emit_report(report, cfg.output_dir)
    return cfg, report, cfg.output_dir


class TestParseConfig:
    def test_minimal_and_defaults(self, heart_setup):
        tmp, csv, meta = heart_setup
        cfg_file = tmp / "min.cfg"
        cfg_file.write_text(
            f"dataset = {csv}\nmissing_column = 13\ntask = classification\n"
        )
        cfg = parse_config(cfg_file)
        assert cfg.methods == ("ga", "sa", "pso", "ns", "rf")
        assert cfg.hidden_size == "auto"
        assert cfg.seed == 0
        assert cfg.ga.population == 50
        assert cfg.rf.n_trees == 100

    def test_unknown_key_rejected(self, heart_setup):
        tmp, csv, meta = heart_setup
        cfg_file = tmp / "bad.cfg"
        cfg_file.write_text(
            f"dataset = {csv}\nmissing_column = 13\ntask = classification\npopsize = 3\n"
        )
        with pytest.raises(ConfigError, match="popsize"):
            parse_config(cfg_file)

    def test_unknown_section_key_rejected(self, heart_setup):
        tmp, csv, meta = heart_setup
        cfg_file = tmp / "bad2.cfg"
        cfg_file.write_text(
            f"dataset = {csv}\nmissing_column = 13\ntask = classification\nga.popsize = 3\n"
        )
        with pytest.raises(ConfigError, match="ga.popsize"):
            parse_config(cfg_file)

    @pytest.mark.parametrize("key, error", [
        ("gaa.population", "unknown section 'gaa'"),
        (".seed", "unknown section ''"),
        ("ga..x", "unknown key 'ga..x'"),
    ])
    def test_unknown_section_rejected(self, heart_setup, key, error):
        tmp, csv, meta = heart_setup
        cfg_file = tmp / "section.cfg"
        cfg_file.write_text(f"dataset = {csv}\nmissing_column = 13\ntask = classification\n{key} = 3\n")
        with pytest.raises(ConfigError, match=re.escape(f":4: {error}") + "$"):
            parse_config(cfg_file)

    def test_section_overrides_and_comments(self, heart_setup):
        tmp, csv, meta = heart_setup
        cfg_file = tmp / "ovr.cfg"
        cfg_file.write_text(
            f"# reduced run\ndataset = {csv}\nmissing_column = 13\n"
            "task = classification\nga.population = 12  # small\nsa.cooling_factor = 0.9\n"
        )
        cfg = parse_config(cfg_file)
        assert cfg.ga.population == 12
        assert cfg.sa.cooling_factor == 0.9

    def test_every_section_key_parses_to_its_annotated_type(self, heart_setup):
        tmp, csv, meta = heart_setup
        values = {
            "train.max_iterations": 250,
            "train.gradient_tolerance": 1e-5,
            "train.objective_tolerance": 1e-10,
            "ga.population": 30,
            "ga.bits_per_variable": 12,
            "ga.crossover_prob": 0.8,
            "ga.mutation_prob": 0.05,
            "ga.tournament_size": 3,
            "ga.elitism": 2,
            "ga.generations": 40,
            "sa.initial_temperature": 0.5,
            "sa.cooling_factor": 0.9,
            "sa.temperature_steps": 30,
            "sa.moves_per_step": 7,
            "sa.neighbor_sigma": 0.2,
            "pso.swarm": 12,
            "pso.phi1": 1.5,
            "pso.phi2": 1.7,
            "pso.v_max": 0.3,
            "pso.iterations": 25,
            "ns.detectors": 20,
            "ns.generations": 15,
            "rf.n_trees": 9,
            "rf.mtry": 3,
            "rf.min_leaf": 4,
        }
        assert set(values) == {f"{s}.{k}" for s, keys in _KEYS.items() if s for k in keys}
        cfg_file = write_config(tmp, csv, meta, name="typed.cfg", **values)
        cfg = parse_config(cfg_file)
        for dotted, expected in values.items():
            section, key = dotted.split(".")
            hint = typing.get_type_hints(_SECTION_TYPES[section])[key]
            (annotated,) = [t for t in typing.get_args(hint) or (hint,) if t is not type(None)]
            got = getattr(getattr(cfg, section), key)
            assert type(got) is annotated and got == expected, dotted

        optional = ("ga.mutation_prob", "sa.initial_temperature", "rf.mtry")
        for word in ("none", "auto"):
            cfg_file = write_config(
                tmp, csv, meta, name=f"{word}.cfg", **{k: word for k in optional}
            )
            cfg = parse_config(cfg_file)
            for dotted in optional:
                section, key = dotted.split(".")
                assert getattr(getattr(cfg, section), key) is None, (word, dotted)

    def test_every_global_key_parses_onto_its_field(self, heart_setup):
        tmp, csv, meta = heart_setup
        values = {
            "dataset": (str(csv), csv),
            "header": ("yes", True),
            "columns": ("age: numeric, binary", (("age", "numeric"), "binary")),
            "missing_column": ("5", 5),
            "task": ("prediction", "prediction"),
            "hidden_size": ("6", 6),
            "methods": ("sa, rf", ("sa", "rf")),
            "seed": ("11", 11),
            "output": (str(tmp / "o"), tmp / "o"),
            "normalization_scope": ("train", "train"),
        }
        assert set(values) == set(_KEYS[""])
        cfg_file = tmp / "globals.cfg"
        cfg_file.write_text("".join(f"{key} = {text}\n" for key, (text, _) in values.items()))
        cfg = parse_config(cfg_file)
        for key, (_, expected) in values.items():
            got = getattr(cfg, "output_dir" if key == "output" else key)
            assert type(got) is type(expected) and got == expected, key
        cfg_file.write_text(cfg_file.read_text().replace("hidden_size = 6", "hidden_size = auto"))
        assert parse_config(cfg_file).hidden_size == "auto"

    def test_every_setting_has_one_name(self, emitted):
        # Each field but output_dir is the file key of its name, a section
        # field's own fields (derived seeds aside) are its dotted keys, and
        # the echo holds exactly those names.
        names = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "output_dir"]
        assert sorted(_KEYS[""]) == sorted({*names, "output"} - set(_SECTION_TYPES))
        assert sorted(_KEYS) == sorted(["", *_SECTION_TYPES])
        echo = _config_echo(emitted[0])
        assert sorted(echo) == sorted(names)
        for section, cfg_type in _SECTION_TYPES.items():
            own = [f.name for f in dataclasses.fields(cfg_type) if f.name not in _DERIVED_SEEDS]
            assert list(_KEYS[section]) == own and list(echo[section]) == own, section

    # The benchmark's three workloads, and a column given as `name: kind`.
    @pytest.mark.parametrize(
        "table, settings",
        [
            ("heart", {}),
            ("credit", {"methods": "rf"}),
            ("fire", {"hidden_size": 6, "methods": "sa,pso",
                      "sa.temperature_steps": 500, "pso.iterations": 500}),
            ("heart", {"columns": None}),
        ],
        ids=["heart-paper", "credit-train", "fire-deep", "named-column"],
    )
    def test_config_echo_round_trips_through_json(self, tmp_path, table, settings):
        meta = write_table(tmp_path / "data.csv", table)
        if "columns" in settings:
            settings["columns"] = ",".join([f"age: {meta['kinds'][0]}", *meta["kinds"][1:]])
        (tmp_path / "run.cfg").write_text(config_text(tmp_path / "data.csv", meta, tmp_path / "out", **settings))
        cfg = parse_config(tmp_path / "run.cfg")
        rebuilt = _config_from_echo(json.loads(json.dumps(_config_echo(cfg))))
        assert dataclasses.replace(rebuilt, output_dir=cfg.output_dir) == cfg

    @pytest.mark.parametrize("key, value", [("seed", "3"), ("ga.population", "12")])
    def test_repeated_key_rejected(self, heart_setup, key, value):
        tmp, csv, meta = heart_setup
        cfg_file = tmp / "twice.cfg"
        cfg_file.write_text(
            f"dataset = {csv}\n{key} = {value}\nmissing_column = 13\n"
            f"{key} = {value}\ntask = classification\n"
        )
        with pytest.raises(ConfigError, match=f":4: key '{key}' already set on line 2"):
            parse_config(cfg_file)

    def test_invalid_section_value_rejected(self, heart_setup):
        tmp, csv, meta = heart_setup
        cfg_file = tmp / "badval.cfg"
        cfg_file.write_text(
            f"dataset = {csv}\nmissing_column = 13\ntask = classification\n"
            "sa.cooling_factor = 1.5\n"
        )
        with pytest.raises(ConfigError, match="sa"):
            parse_config(cfg_file)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", [
        "sa.initial_temperature", "sa.neighbor_sigma", "pso.phi1", "pso.phi2", "pso.v_max",
        "train.gradient_tolerance", "train.objective_tolerance",
    ])
    def test_float_settings_must_be_finite(self, heart_setup, key, value):
        tmp, csv, meta = heart_setup
        cfg_file = tmp / "finite.cfg"
        cfg_file.write_text(f"dataset = {csv}\nmissing_column = 13\ntask = classification\n{key} = {value}\n")
        section = key.split(".")[0]
        with pytest.raises(ConfigError, match=f"section '{section}': .* must be positive and finite"):
            parse_config(cfg_file)

    @pytest.mark.parametrize("entry", [
        3, None, "bogus", ("a", "bogus"), ("a",), ("a", "numeric", "x"), (3, "numeric"), ["a", 3],
    ])
    def test_columns_entries_must_hold_a_kind(self, entry):
        with pytest.raises(ConfigError, match=r"columns entry .* is neither a kind in "):
            ExperimentConfig(dataset="d.csv", missing_column=0, task="prediction",
                             columns=("numeric", entry))

    def test_columns_entries_read_back_from_json(self):
        cfg = ExperimentConfig(dataset="d.csv", missing_column=0, task="prediction",
                               columns=["numeric", ["a", "binary"], ("b", "categorical")])
        assert cfg.columns == ("numeric", ("a", "binary"), ("b", "categorical"))

    # One rule reads a columns entry wherever one is read: the configuration
    # accepts an entry exactly when load_csv does, and verify states the
    # (name, kind) pairs that load_csv gives.  The file's 0/1 values suit
    # every kind, so only the entries decide.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(entries=st.lists(st.one_of(
        st.sampled_from(data.COLUMN_KINDS + ("bogus", "Numeric", "")),
        st.tuples(st.one_of(st.text(max_size=3), st.integers()), st.sampled_from(data.COLUMN_KINDS + ("bogus",))),
        st.lists(st.one_of(st.text(max_size=3), st.sampled_from(data.COLUMN_KINDS)), max_size=3),
        st.tuples(st.text(max_size=3), st.sampled_from(data.COLUMN_KINDS), st.sampled_from(data.COLUMN_KINDS)),
        st.integers(),
        st.none(),
    ), min_size=1, max_size=5))
    def test_config_and_load_csv_read_columns_entries_by_one_rule(self, entries):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_text("".join(",".join(str((r + c) % 2) for c in range(len(entries))) + "\n"
                                    for r in range(2)))
            try:
                cfg = ExperimentConfig(dataset=path, missing_column=0, task="prediction", columns=entries)
            except ConfigError:
                cfg = None
            try:
                ds = data.load_csv(path, schema=entries)
            except data.CsvFormatError:
                ds = None
        assert (cfg is None) == (ds is None)
        if ds is not None:
            stated = _stated_normalization(cfg, ds.columns)
            assert [(e["column"], e["kind"]) for e in stated] == [(s.column, s.kind) for s in ds.columns]

    def test_a_byte_order_mark_reads_as_the_file_without_it(self, heart_setup, tmp_path):
        tmp, csv, meta = heart_setup
        text = write_config(tmp_path, csv, meta).read_text(encoding="utf-8")
        (tmp_path / "bom.cfg").write_text("\ufeff" + text, encoding="utf-8")
        assert parse_config(tmp_path / "bom.cfg") == parse_config(tmp_path / "exp.cfg")

    def test_missing_required_key(self, heart_setup):
        tmp, csv, meta = heart_setup
        cfg_file = tmp / "norequired.cfg"
        cfg_file.write_text(f"dataset = {csv}\ntask = classification\n")
        with pytest.raises(ConfigError, match="missing_column"):
            parse_config(cfg_file)

    def test_bad_task_kind(self, heart_setup):
        tmp, csv, meta = heart_setup
        cfg_file = tmp / "task.cfg"
        cfg_file.write_text(f"dataset = {csv}\nmissing_column = 13\ntask = ranking\n")
        with pytest.raises(ConfigError, match="task"):
            parse_config(cfg_file)


    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.cfg")))
    def test_shipped_config_parses(self, name):
        cfg = parse_config(CONFIGS / name)
        assert cfg.methods == experiment.ALL_METHODS

    def test_heart_config_defaults_shown_are_the_defaults(self, tmp_path):
        shipped = CONFIGS / "heart_disease.cfg"
        head, marker, shown = shipped.read_text(encoding="utf-8").partition("(defaults shown):\n")
        overrides = [line.removeprefix("# ") for line in shown.splitlines()]
        assert marker and len(overrides) == 7 and all(" = " in line and "#" not in line for line in overrides)
        uncommented = tmp_path / shipped.name
        uncommented.write_text(head + marker + "\n".join(overrides) + "\n", encoding="utf-8")
        assert parse_config(uncommented) == parse_config(shipped)


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        assert derive_seed(7, "ga", 0) == derive_seed(7, "ga", 0)
        assert derive_seed(7, "ga", 0) != derive_seed(7, "ga", 1)
        assert derive_seed(7, "ga", 0) != derive_seed(7, "sa", 0)
        assert derive_seed(7, "ga", 0) != derive_seed(8, "ga", 0)

    def test_no_concatenation_collision(self):
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")


def _tree():
    return forest.CartTree(*(np.array(v) for v in ([0, -1, -1], [0.5, 0, 0], [1, -1, -1], [2, -1, -1], [0.0, 0.25, 0.75])))


@pytest.mark.parametrize("make", [
    lambda: random_autoencoder(np.random.default_rng(0), 4, 2),
    lambda: data.Dataset(columns=(data.ColumnSpec("x"), data.ColumnSpec("y")), rows=[[0.25, 0.5], [0.75, 1.0]]),
    lambda: data.ImputationTask(rows=np.zeros((2, 3)), column=1),
    lambda: optimizers.OptimizerResult(np.zeros(2), np.arange(3), np.ones((3, 2))),
    _tree,
    lambda: forest.Forest(trees=(_tree(), _tree()), predictor_columns=(0,)),
], ids=["Autoencoder", "Dataset", "ImputationTask", "OptimizerResult", "CartTree", "Forest"])
def test_array_holding_records_compare_by_identity(make):
    x = make()
    assert x == x and not x != x
    assert x != copy.deepcopy(x)
    assert hash(x) == hash(x)


class TestRunExperiment:
    def test_report_structure(self, emitted):
        cfg, report, out = emitted
        assert report.document["split_counts"] == {"train": 136, "validation": 67, "test": 67}
        assert set(report.document["methods"]) == set(cfg.methods)
        for block in report.document["methods"].values():
            assert len(block["imputed"]) == 67
            values = [e["imputed"] for e in block["imputed"]]
            assert all(0.0 <= v <= 1.0 for v in values)
        assert len(report.document["comparison"]["pairs"]) == 10

    def test_verify_passes_on_untouched_report(self, emitted):
        _, _, out = emitted
        checks = verify_report(out)
        assert checks and all(ok for _, ok, _ in checks)

    def test_classification_emits_one_roc_per_method(self, emitted):
        cfg, _, out = emitted
        assert sorted(p.name for p in out.glob("roc_*.csv")) == sorted(
            f"roc_{m}.csv" for m in cfg.methods
        )

    def test_rf_block_reports_resolved_mtry(self, emitted):
        _, report, _ = emitted
        # heart-like data: 13 predictors -> floor(sqrt(13)) = 3
        assert report.document["methods"]["rf"]["mtry_resolved"] == 3

    def test_verify_catches_edited_metric(self, emitted, tmp_path):
        _, _, out = emitted
        clone = clone_report(out, tmp_path / "edited")
        metrics_file = clone / "metrics.csv"
        lines = metrics_file.read_text().splitlines()
        method, metric, value = lines[1].split(",")
        lines[1] = f"{method},{metric},{float(value) + 0.01!r}"
        metrics_file.write_text("\n".join(lines) + "\n")
        checks = verify_report(clone)
        bad = [(name, detail) for name, ok, detail in checks if not ok]
        detail = f"metrics.csv[1][2] holds {float(value) + 0.01!r}, expected {float(value)!r}"
        assert bad == [("metrics.csv", detail)]

    def test_verify_catches_deleted_and_repeated_pvalue(self, emitted, tmp_path):
        _, _, out = emitted
        lines = (out / "pvalues.csv").read_text().splitlines()
        pair = [line.split(",")[0] for line in lines]
        # The run compares in its configured order (ga,sa,pso,ns,rf), so this
        # row's pair is not in alphabetical order.
        (late,) = [i for i, line in enumerate(lines) if line.startswith("PSO-NS,")]
        for name, kept, detail in (
            ("deleted", lines[:3] + lines[4:], f"pvalues.csv[3][0] holds {pair[4]!r}, expected {pair[3]!r}"),
            ("deleted-late", lines[:late] + lines[late + 1:],
             f"pvalues.csv[{late}][0] holds {pair[late + 1]!r}, expected 'PSO-NS'"),
            ("repeated", lines + lines[1:2], f"pvalues.csv does not hold {len(lines)} entries"),
        ):
            clone = clone_report(out, tmp_path / name)
            (clone / "pvalues.csv").write_text("\n".join(kept) + "\n")
            bad = [(n, d) for n, ok, d in verify_report(clone) if not ok]
            assert bad == [("pvalues.csv", detail)], name

    # Each inserted row is named by its line: the first that differs from
    # the re-rendering, in the row's place or the one after it.
    @pytest.mark.parametrize(
        "row, at, held",
        [
            ("ga,auc,1.3333333333333335", "[1][2]", "1.3333333333333335"),
            (None, "[2][0]", "'ga'"),  # the real row, twice
            ("xx,auc,0.5", "[1][0]", "'xx'"),
            ("ga,mse,0.1", "[1][1]", "'mse'"),
        ],
        ids=["repeated-altered", "repeated-same", "unknown-method", "unknown-metric"],
    )
    def test_verify_catches_repeated_and_unknown_metric_rows(
        self, emitted, tmp_path, row, at, held
    ):
        _, _, out = emitted
        lines = (out / "metrics.csv").read_text().splitlines()
        real = next(i for i, line in enumerate(lines) if line.startswith("ga,auc,"))
        lines.insert(real, lines[real] if row is None else row)
        clone = clone_report(out, tmp_path / "edited")
        (clone / "metrics.csv").write_text("\n".join(lines) + "\n")
        ((name, detail),) = [(n, d) for n, ok, d in verify_report(clone) if not ok]
        assert name == "metrics.csv" and detail.startswith(f"metrics.csv{at} holds {held}, expected ")

    @pytest.mark.parametrize(
        "name, corrupt",
        [
            ("metrics.csv", lambda text: ""),
            ("report.json", lambda text: text[: len(text) // 2]),
            (
                "imputed_sa.csv",
                lambda text: "".join(
                    ",".join(line.split(",")[:2] + line.split(",")[3:]) + "\n"
                    for line in text.splitlines()
                ),
            ),
            ("imputed_sa.csv", lambda text: text.splitlines()[0] + "\n"),
        ],
        ids=["empty-metrics", "truncated-report", "imputed-without-value-column",
             "imputed-header-only"],
    )
    def test_verify_fails_malformed_file(self, emitted, tmp_path, capsys, name, corrupt):
        _, _, out = emitted
        clone = clone_report(out, tmp_path / "corrupt")
        (clone / name).write_text(corrupt((clone / name).read_text()))
        assert cli.main(["verify", str(clone)]) == 2
        fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert len(fails) == 1 and name in fails[0]

    def test_verify_reports_missing_file_inventory(self, emitted, tmp_path):
        _, _, out = emitted
        for case in ("deleted", "directory"):
            clone = clone_report(out, tmp_path / case, skip={"imputed_ga.csv"})
            if case == "directory":
                (clone / "imputed_ga.csv").mkdir()
            checks = verify_report(clone)
            assert len(checks) == 1
            name, ok, detail = checks[0]
            assert name == "inventory" and not ok
            assert "imputed_ga.csv" in detail, case

    @pytest.mark.parametrize("drop_roc", [False, True], ids=["roc-kept", "roc-deleted"])
    def test_verify_rejects_unknown_task_kind(self, emitted, tmp_path, capsys, drop_roc):
        # The stored task kind, as the configuration's own rule reads it.
        _, _, out = emitted
        detail = "report.json: task must be one of ('prediction', 'classification'), got 'ranking'"
        for where, edit in (("task_kind", lambda doc: doc.update(task_kind="ranking")),
                            ("config.task", lambda doc: doc["config"].update(task="ranking"))):
            clone = clone_report(out, tmp_path / where)
            document = json.loads((clone / "report.json").read_text())
            edit(document)
            (clone / "report.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
            for p in clone.glob("roc_*.csv") if drop_roc else ():
                p.unlink()
            assert verify_report(clone) == [("format", False, detail)], where
            assert cli.main(["verify", str(clone)]) == 2
            assert capsys.readouterr().out == f"FAIL format: {detail}\n"

    @pytest.mark.parametrize(
        "edit, detail",
        [
            (lambda r: r["config"].update(methods=[]), "methods must be non-empty"),
            (lambda r: r["config"]["methods"].append("ga"), "methods must not repeat"),
            (lambda r: (r["config"]["methods"].append("xx"), r["methods"].update(xx=r["methods"]["ga"])),
             "unknown method 'xx'; expected among ('ga', 'sa', 'pso', 'ns', 'rf')"),
            (lambda r: r["methods"].update(xx=r["methods"]["ga"]), "methods' blocks "
             "['ga', 'ns', 'pso', 'rf', 'sa', 'xx'] must be those of config.methods ['ga', 'sa', 'pso', 'ns', 'rf']"),
        ],
        ids=["empty", "repeated", "unknown-name", "extra-block"],
    )
    def test_verify_checks_the_method_set(self, emitted, tmp_path, capsys, edit, detail):
        _, _, out = emitted
        clone = clone_report(out, tmp_path / "methods")
        document = json.loads((clone / "report.json").read_text())
        edit(document)
        (clone / "report.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        detail = f"report.json: {detail}"
        assert verify_report(clone) == [("format", False, detail)]
        assert cli.main(["verify", str(clone)]) == 2
        assert capsys.readouterr().out == f"FAIL format: {detail}\n"

    # An echo key that is missing takes its default, which the echo written
    # for that configuration holds; a key no field has cannot be rebuilt.
    @pytest.mark.parametrize("edit, check, detail", [
        (lambda c: c.pop("header"), "report.json",
         "report.json.config does not hold the keys ['columns', 'dataset', 'ga', 'header', 'hidden_size', "
         "'methods', 'missing_column', 'normalization_scope', 'ns', 'pso', 'rf', 'sa', 'seed', 'task', 'train']"),
        (lambda c: c["ga"].pop("population"), "report.json",
         "report.json.config.ga does not hold the keys ['bits_per_variable', 'crossover_prob', 'elitism', "
         "'generations', 'mutation_prob', 'population', 'tournament_size']"),
        (lambda c: c.pop("task"), "format", "report.json unreadable: TypeError(\"ExperimentConfig.__init__() "
         "missing 1 required positional argument: 'task'\")"),
        (lambda c: c.update(extra=1), "format", "report.json unreadable: TypeError(\"ExperimentConfig.__init__() "
         "got an unexpected keyword argument 'extra'\")"),
    ], ids=["no-header", "no-ga-population", "no-task", "extra-key"])
    def test_verify_fails_a_changed_echo(self, emitted, tmp_path, edit, check, detail):
        _, _, out = emitted
        clone = clone_report(out, tmp_path / "echo")
        document = json.loads((clone / "report.json").read_text())
        edit(document["config"])
        (clone / "report.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        assert failures(clone) == [(check, detail)]

    def test_reemission_byte_identical(self, emitted, tmp_path):
        _, report, out = emitted
        again = tmp_path / "again"
        emit_report(report, again)
        for p in sorted(out.iterdir()):
            if p.name not in UNSTABLE:
                assert (again / p.name).read_bytes() == p.read_bytes(), p.name

    def test_timings_split_by_stage_and_method(self, emitted):
        cfg, _, out = emitted
        timings = json.loads((out / "timings.json").read_text())
        methods = [f"impute.{m}" for m in cfg.methods]
        assert "impute.rf" in methods
        assert set(timings) == {"prepare", "train", "impute", "score"} | set(methods)
        assert all(v >= 0.0 for v in timings.values())
        # The methods run side by side, so their seconds overlap and may sum
        # past the stage's wall time, but none is longer than the stage.
        assert all(timings[k] <= timings["impute"] for k in methods)

    def test_auto_hidden_size_keeps_the_winning_network(self, heart_setup):
        tmp, csv, meta = heart_setup
        cfg = parse_config(write_config(tmp, csv, meta, name="auto.cfg", out="auto_out",
                                        hidden_size="auto", methods="ns"))
        report = run_experiment(cfg)
        assert "hidden_search" in report.timings and "train" not in report.timings
        h = report.document["hidden_size"]["selected"]
        _, (train_rows, _, _), _ = experiment._prepare_dataset(cfg)
        seed = derive_seed(cfg.seed, "hidden", h)
        train_cfg = dataclasses.replace(cfg.train, rng_seed=seed)
        again, loss = network.train(train_rows, h, train_cfg)
        np.testing.assert_array_equal(report.net.parameters, again.parameters)
        assert report.document["train_loss"] == loss

    def test_hidden_size_search_never_reads_the_test_block(self, heart_setup, tmp_path):
        # Flip the masked 0/1 column of the 67 test rows; the scaling of that
        # column stays [0, 1], so only the test block's truth changes.
        tmp, csv, meta = heart_setup
        lines = csv.read_text().splitlines()
        flipped = tmp_path / "flipped.csv"
        flipped.write_text("\n".join(
            lines[:-67] + [line[:-1] + str(1 - int(line[-1])) for line in lines[-67:]]
        ) + "\n")
        reports = []
        for name, data in (("kept", csv), ("flipped", flipped)):
            cfg_file = tmp_path / f"{name}.cfg"
            cfg_file.write_text(config_text(
                data, meta, tmp_path / name, **dict(FAST, seed=7, hidden_size="auto", methods="rf")
            ))
            report = run_experiment(parse_config(cfg_file))
            emit_report(report, tmp_path / name)
            reports.append(report)
        kept, flipped = (r.document["methods"]["rf"]["imputed"] for r in reports)
        assert kept != flipped
        assert reports[0].document["hidden_size"] == reports[1].document["hidden_size"]
        assert (tmp_path / "kept" / "model.txt").read_bytes() == (
            tmp_path / "flipped" / "model.txt"
        ).read_bytes()

    def test_method_independence(self, heart_setup, emitted):
        tmp, csv, meta = heart_setup
        _, full_report, _ = emitted
        cfg_file = write_config(tmp, csv, meta, name="solo.cfg", out="solo_out")
        cfg = parse_config(cfg_file)
        cfg.methods = ("pso",)
        solo = run_experiment(cfg)
        assert (
            solo.document["methods"]["pso"]["metrics"]
            == full_report.document["methods"]["pso"]["metrics"]
        )
        assert (
            solo.document["methods"]["pso"]["imputed"]
            == full_report.document["methods"]["pso"]["imputed"]
        )

    def test_failure_persists_marker_and_partial(self, heart_setup):
        tmp, csv, meta = heart_setup
        bad_meta = dict(meta, missing_column=0, task="classification")
        cfg_file = tmp / "fail.cfg"
        # The non-binary target is rejected once the data is split, before
        # any training, with or without rf.
        for methods in ("ga,sa,pso,ns,rf", "ns,sa"):
            out = tmp / f"fail_out_{methods.replace(',', '_')}"
            cfg_file.write_text(
                config_text(csv, bad_meta, out, seed=1, hidden_size=4, methods=methods, **FAST)
            )
            with pytest.raises(ExperimentError, match="prepare"):
                run_experiment(parse_config(cfg_file))
            assert (out / FAILURE_MARKER).exists()
            assert "stage: prepare" in (out / FAILURE_MARKER).read_text()
            partial = json.loads((out / "partial.json").read_text())
            # report.json's keys that follow from the configuration, none after
            assert set(partial) == {"toolkit_version", "config", "task_kind", "methodology"}

    def test_failed_search_names_the_hidden_search_stage(self, heart_setup, tmp_path, monkeypatch):
        tmp, csv, meta = heart_setup

        def select_hidden_size(train_rows, val_task, cfg=None):
            raise RuntimeError("search broke")

        monkeypatch.setattr(network, "select_hidden_size", select_hidden_size)
        cfg_file = write_config(tmp_path, csv, meta, out="out", hidden_size="auto", methods="rf")
        with pytest.raises(ExperimentError, match="^stage 'hidden_search' failed: search broke$"):
            run_experiment(parse_config(cfg_file))
        assert (tmp_path / "out" / FAILURE_MARKER).read_text().startswith("stage: hidden_search\n")

    # A failure names its stage by the timings.json key the stage is clocked
    # under; each layer function below fails the one stage that calls it.
    @pytest.mark.parametrize("hidden_size", ["auto", 4])
    def test_every_failing_stage_is_a_timings_key(self, heart_setup, tmp_path, monkeypatch, hidden_size):
        tmp, csv, meta = heart_setup
        cfg_file = write_config(tmp_path, csv, meta, out="out", hidden_size=hidden_size, methods="ga,rf")
        keys = set(run_experiment(parse_config(cfg_file)).timings)

        def broken(*args, **kwargs):
            raise RuntimeError("broken")

        stages = set()
        for owner, name in [(data, "load_csv"), (network, "select_hidden_size"), (network, "train"),
                            (optimizers, "run"), (metrics, "comparison_matrix")]:
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, broken)
                try:
                    run_experiment(parse_config(cfg_file))
                except ExperimentError as err:
                    stage = str(err).split("'")[1]
                    assert (tmp_path / "out" / FAILURE_MARKER).read_text().startswith(f"stage: {stage}\n")
                    stages.add(stage)
        assert stages == keys - {"impute.ga", "impute.rf"}

    # Progress names each stage as it starts by its timings.json key, and a
    # failed run's last name is the stage FAILED.txt names.
    @pytest.mark.parametrize("hidden_size", ["auto", 4])
    def test_progress_names_each_stage_by_its_timings_key(self, heart_setup, tmp_path, monkeypatch, hidden_size):
        tmp, csv, meta = heart_setup
        cfg_file = write_config(tmp_path, csv, meta, out="out", hidden_size=hidden_size, methods="ga,rf")
        said = []
        report = run_experiment(parse_config(cfg_file), progress=said.append)
        stages = [key for key in report.timings if "." not in key]
        assert said == stages and stages[-2:] == ["impute", "score"]

        def broken(*args, **kwargs):
            raise RuntimeError("broken")

        said.clear()
        monkeypatch.setattr(optimizers, "run", broken)
        with pytest.raises(ExperimentError, match="^stage 'impute' failed"):
            run_experiment(parse_config(cfg_file), progress=said.append)
        assert said == stages[:-1]
        assert (tmp_path / "out" / FAILURE_MARKER).read_text().startswith("stage: impute\n")

    def test_classification_target_is_checked_in_every_block(self, heart_setup, tmp_path):
        # One training row's target is 0.5; the test block's stay 0/1.  No
        # forest runs, and the prepare stage still rejects the column.
        tmp, csv, meta = heart_setup
        lines = csv.read_text().splitlines()
        edited = tmp_path / "half.csv"
        edited.write_text("\n".join([lines[0].rsplit(",", 1)[0] + ",0.5", *lines[1:]]) + "\n")
        meta = dict(meta, kinds=[*meta["kinds"][:-1], "numeric"])
        assert meta["missing_column"] == len(meta["kinds"]) - 1
        out = tmp_path / "out"
        cfg_file = tmp_path / "half.cfg"
        cfg_file.write_text(config_text(edited, meta, out, seed=1, hidden_size=4, methods="ga", **FAST))
        with pytest.raises(ExperimentError, match="stage 'prepare' failed: classification task needs a 0/1"):
            run_experiment(parse_config(cfg_file))
        assert "stage: prepare" in (out / FAILURE_MARKER).read_text()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_methods_on_any_worker_count_match(self, heart_setup, tmp_path, monkeypatch, workers):
        # "ga,rf,sa" puts the forest between two searches; at 2 workers it
        # lands in the forked worker, which forks again to grow its trees.
        tmp, csv, meta = heart_setup
        for methods in ("ga,sa,pso,ns,rf", "ga,rf,sa"):
            files = {}
            for count in dict.fromkeys((1, workers)):
                monkeypatch.setattr(parallel, "_worker_count", lambda n, w=count: min(w, n))
                out = tmp_path / f"{methods.replace(',', '_')}_{count}"
                cfg_file = write_config(tmp_path, csv, meta, name="w.cfg", out=out.name,
                                        methods=methods)
                emit_report(run_experiment(parse_config(cfg_file)), out)
                files[count] = {
                    p.name: p.read_bytes() for p in out.iterdir() if p.name not in UNSTABLE
                }
            assert files[workers] == files[1]
            assert {f"imputed_{m}.csv" for m in methods.split(",")} <= set(files[1])
            assert child_processes() == []

    def test_search_failing_in_a_worker_is_an_impute_failure(self, heart_setup, monkeypatch):
        tmp, csv, meta = heart_setup
        real_run = optimizers.run

        def run(obj, method, config=None, *, seeds):
            if method == "sa":
                raise RuntimeError("sa cannot search")
            return real_run(obj, method, config, seeds=seeds)

        # At 2 workers, "sa" is the first item of worker 1's share.
        monkeypatch.setattr(parallel, "_worker_count", lambda n: min(2, n))
        monkeypatch.setattr(optimizers, "run", run)
        out = tmp / "worker_fail_out"
        cfg_file = write_config(tmp, csv, meta, name="worker_fail.cfg", out=out.name,
                                methods="ga,sa,pso,ns,rf")
        with pytest.raises(ExperimentError, match="impute.*sa cannot search"):
            run_experiment(parse_config(cfg_file))
        marker = (out / FAILURE_MARKER).read_text()
        assert "stage: impute" in marker and "in a forked worker" in marker
        partial = json.loads((out / "partial.json").read_text())
        assert "train_loss" in partial and "methods" not in partial
        assert child_processes() == []

    def test_a_forking_run_loads_neither_multiprocessing_nor_numpy_ma(self, heart_setup):
        # Each costs about 1 MB of resident memory that the pipeline never uses.
        tmp, csv, meta = heart_setup
        cfg_file = write_config(tmp, csv, meta, name="imports.cfg", out="imports_out",
                                methods="sa,rf", hidden_size="auto")
        code = (
            "import os, sys\n"
            "from aeimpute import parallel\n"
            "from aeimpute.experiment import emit_report, parse_config, run_experiment, verify_report\n"
            "parallel._worker_count = lambda n: min(2, n)\n"
            "forks, fork = [], os.fork\n"
            "def counted_fork():\n"
            "    pid = fork()\n"
            "    forks.append(pid)\n"
            "    return pid\n"
            "os.fork = counted_fork\n"
            "cfg = parse_config(sys.argv[1])\n"
            "emit_report(run_experiment(cfg), cfg.output_dir)\n"
            "assert all(ok for _, ok, _ in verify_report(cfg.output_dir))\n"
            "print(len(forks), 'multiprocessing' in sys.modules, 'numpy.ma' in sys.modules)\n"
        )
        src = Path(parallel.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code, str(cfg_file)], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        forks, *loaded = done.stdout.split()
        assert int(forks) > 0
        assert loaded == ["False", "False"]

    def test_missing_dataset_is_experiment_error(self, heart_setup):
        tmp, csv, meta = heart_setup
        cfg_file = tmp / "nofile.cfg"
        out = tmp / "nofile_out"
        cfg_file.write_text(config_text(tmp / "absent.csv", meta, out, hidden_size=4))
        with pytest.raises(ExperimentError, match="prepare"):
            run_experiment(parse_config(cfg_file))


@pytest.fixture(scope="module")
def prediction_emitted(tmp_path_factory, fire_like):
    tmp = tmp_path_factory.mktemp("pred")
    csv, meta = fire_like
    cfg_file = tmp / "pred.cfg"
    out = tmp / "pred_out"
    cfg_file.write_text(
        config_text(csv, meta, out, seed=3, hidden_size=4, methods="ga,rf", **FAST)
    )
    cfg = parse_config(cfg_file)
    emit_report(run_experiment(cfg), out)
    return out


class TestPredictionRun:
    def test_no_roc_files_and_four_metric_rows(self, prediction_emitted):
        out = prediction_emitted
        assert not list(out.glob("roc_*.csv"))
        lines = (out / "metrics.csv").read_text().splitlines()
        rows = {tuple(line.split(",")[:2]) for line in lines[1:]}
        for method in ("ga", "rf"):
            for metric in ("mse", "rmse", "mae", "pearson_r"):
                assert (method, metric) in rows

    def test_imputed_carries_original_units(self, prediction_emitted):
        lines = (prediction_emitted / "imputed_rf.csv").read_text().splitlines()
        assert lines[0] == "row,true_value,imputed_value,true_original,imputed_original"
        first = lines[1].split(",")
        assert 0.0 <= float(first[1]) <= 1.0
        assert float(first[3]) >= 0.0  # burned-area-like scale, not normalized

    def test_verify_passes(self, prediction_emitted):
        checks = verify_report(prediction_emitted)
        assert checks and all(ok for _, ok, _ in checks)

    @pytest.mark.parametrize(
        "name, key, cell",
        [("metrics.csv", "ga,mse", 2), ("pvalues.csv", "GA-RF", 1)],
        ids=["metrics.csv-ga,mse-2-ga.mse", "pvalues.csv-GA-RF-1-pvalue.GA-RF"],
    )
    def test_verify_fails_non_numeric_cell_as_one_check(
        self, prediction_emitted, tmp_path, capsys, name, key, cell
    ):
        clone = clone_report(prediction_emitted, tmp_path / "edited")
        lines = (clone / name).read_text().splitlines()
        (row,) = [i for i, line in enumerate(lines) if line.startswith(key + ",")]
        cells = lines[row].split(",")
        expected = float(cells[cell])
        cells[cell] = "abc"
        lines[row] = ",".join(cells)
        (clone / name).write_text("\n".join(lines) + "\n")
        checks = verify_report(clone)
        bad = [(n, d) for n, ok, d in checks if not ok]
        assert bad == [(name, f"{name}[{row}][{cell}] holds 'abc', expected {expected!r}")]
        # The checks of the other files still ran.
        assert len(checks) == len(verify_report(prediction_emitted))
        assert cli.main(["verify", str(clone)]) == 2
        fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert len(fails) == 1 and name in fails[0]

    @pytest.mark.parametrize(
        "keep, detail",
        [
            (1, "imputed_ga.csv cannot be graded: inputs must be non-empty"),
            (2, "imputed_*.csv cannot be compared: each sample needs at least 2 observations"),
        ],
        ids=["header-only", "one-row"],
    )
    def test_verify_names_the_imputed_file_it_cannot_grade(
        self, prediction_emitted, tmp_path, keep, detail
    ):
        clone = clone_report(prediction_emitted, tmp_path / "short")
        lines = (clone / "imputed_ga.csv").read_text().splitlines()
        (clone / "imputed_ga.csv").write_text("\n".join(lines[:keep]) + "\n")
        checks = verify_report(clone)
        assert checks[-1] == ("format", False, detail)
        assert [name for name, _, _ in checks].count("format") == 1


class TestComparison:
    FIVE_PAIRS = ["GA-SA", "GA-PSO", "GA-NS", "GA-RF", "SA-PSO", "SA-NS", "SA-RF", "PSO-NS", "PSO-RF", "NS-RF"]

    @pytest.mark.parametrize("methods, pairs", [
        (experiment.ALL_METHODS, FIVE_PAIRS),
        (("rf", "ns", "ga"), ["RF-NS", "RF-GA", "NS-GA"]),
    ], ids=["five-methods", "configured-order"])
    def test_pairs_follow_the_methods_order(self, methods, pairs):
        rng = np.random.default_rng(0)
        errors = {m: rng.normal(i * 0.1, 1.0, 30) for i, m in enumerate(methods)}
        comparison = experiment._comparison(errors)
        p_values = metrics.comparison_matrix(errors)
        assert comparison["methods"] == list(methods)
        assert comparison["p_values"] == p_values.tolist()
        assert [entry["pair"] for entry in comparison["pairs"]] == pairs
        for entry, (i, j) in zip(comparison["pairs"], itertools.combinations(range(len(methods)), 2)):
            assert entry["p_value"] == p_values[i, j] and entry["display"] == f"{p_values[i, j]:.2f}"

    def test_fewer_than_two_methods_compare_nothing(self):
        assert experiment._comparison({"rf": np.arange(3.0)}) == {}


class TestReportFiles:
    @pytest.mark.parametrize("fixture", ["emitted", "prediction_emitted"])
    def test_inventory_is_every_emitted_file_but_the_unstable(self, request, tmp_path, fixture):
        out = request.getfixturevalue(fixture)
        out = out[2] if isinstance(out, tuple) else out
        emitted = sorted(p.name for p in out.iterdir())
        assert UNSTABLE and UNSTABLE <= set(emitted)
        present = f"{len(set(emitted) - UNSTABLE)} files present"
        assert verify_report(out)[0] == ("inventory", True, present)
        for name in emitted:
            check, ok, detail = verify_report(clone_report(out, tmp_path / name, skip={name}))[0]
            assert check == "inventory" and ok == (name in UNSTABLE), name
            assert ok or name in detail


@pytest.fixture(scope="module")
def forest_only(heart_setup):
    """A reduced heart-like run of the forest alone: no pair to compare."""
    tmp, csv, meta = heart_setup
    cfg = parse_config(write_config(tmp, csv, meta, name="rf.cfg", out="rf_out", methods="rf"))
    emit_report(run_experiment(cfg), cfg.output_dir)
    return cfg.output_dir


def bench_report(tmp, table_name, **settings):
    """The emitted report of a run on the benchmark's ``table_name`` table at seed 0."""
    meta = write_table(tmp / "data.csv", table_name)
    (tmp / "run.cfg").write_text(config_text(tmp / "data.csv", meta, tmp / "out", seed=0, **settings))
    cfg = parse_config(tmp / "run.cfg")
    emit_report(run_experiment(cfg), cfg.output_dir)
    return cfg.output_dir


@pytest.fixture(scope="module")
def heart_paper(tmp_path_factory):
    """The benchmark's heart-paper workload at seed 0: all five methods at
    default budgets, hidden size searched."""
    return bench_report(tmp_path_factory.mktemp("heart_paper"), "heart")


@pytest.fixture(scope="module")
def fire_deep(tmp_path_factory):
    """The benchmark's fire-deep workload at seed 0: long SA and PSO searches
    over 16 test records at hidden size 6."""
    settings = {"sa.temperature_steps": 500, "pso.iterations": 500}
    return bench_report(
        tmp_path_factory.mktemp("fire_deep"), "fire", hidden_size=6, methods="sa,pso", **settings
    )


def failures(out):
    return [(name, detail) for name, ok, detail in verify_report(out) if not ok]


def _last_float(node):
    """(container, key) of the last float in a JSON value, in its serialized order, or None."""
    items = sorted(node.items()) if isinstance(node, dict) else enumerate(node)
    for key, value in reversed(list(items)):
        if isinstance(value, float):
            return node, key
        found = _last_float(value) if isinstance(value, (dict, list)) else None
        if found:
            return found
    return None


def raise_last_number(path, step):
    """Raise the last number of a report file by ``step``.

    In report.json that is the last float of the method blocks.  The file's
    own last number is ``train_loss``, which, like model.txt's weights, only
    a rerun of the experiment can vouch for.
    """
    if path.name == "report.json":
        document = json.loads(path.read_text())
        node, key = _last_float(document["methods"])
        node[key] += step
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        return
    lines = [line.split(",") for line in path.read_text().splitlines()]
    for cells in reversed(lines):
        for i in reversed(range(len(cells))):
            try:
                cells[i] = repr(float(cells[i]) + step)
            except ValueError:
                continue
            path.write_text("".join(",".join(row) + "\n" for row in lines))
            return


class TestVerifyReadsEveryFile:
    @pytest.mark.parametrize(
        "fixture", ["emitted", "prediction_emitted", "forest_only", "heart_paper", "fire_deep"]
    )
    def test_intact_reports_pass_every_check(self, request, fixture):
        out = request.getfixturevalue(fixture)
        out = out[2] if isinstance(out, tuple) else out
        assert failures(out) == []
        # One check per stable file, each named after its file, and two more.
        document = json.loads((out / "report.json").read_text())
        files = [name for file, name, _ in experiment.report_files(
            sorted(document["config"]["methods"]), document["task_kind"]) if file.stable]
        names = [name for name, _, _ in verify_report(out)]
        assert names == ["inventory", "split_counts", "model", *files]

    # split_counts and the budgets follow from the imputed files' rows and
    # the config echo; on fire-deep 64 rows split 32/16/16 and SA spends
    # 1 + 100 + 500 * 20 evaluations per record.
    @pytest.mark.parametrize(
        "edit, check, detail",
        [
            (lambda doc: doc["split_counts"].update(test=1),
             "split_counts", "split_counts.test holds 1, but imputed_sa.csv has 16 rows"),
            (lambda doc: doc["split_counts"].update(validation=17),
             "split_counts", "split_counts.validation holds 17, but imputed_sa.csv has 16 rows"),
            (lambda doc: doc["split_counts"].update(train=36),
             "split_counts", "split_counts.train holds 36, expected 32 to 35"),
            (lambda doc: doc["split_counts"].pop("train"),
             "split_counts", "split_counts does not hold the keys ('train', 'validation', 'test')"),
            (lambda doc: doc["methods"]["sa"].update(evaluations_per_task=7),
             "report.json", "report.json.methods.sa.evaluations_per_task holds 7, expected 10101"),
            (lambda doc: doc["config"]["pso"].update(iterations=499),
             "report.json", "report.json.methods.pso.evaluations_per_task holds 15030, expected 15000"),
        ],
        ids=["test-count", "validation-count", "train-count", "no-train", "sa-evaluations", "pso-config"],
    )
    def test_split_counts_and_budgets_must_follow_from_the_run(self, fire_deep, tmp_path, edit, check, detail):
        clone = clone_report(fire_deep, tmp_path / "edited")
        document = json.loads((clone / "report.json").read_text())
        edit(document)
        (clone / "report.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        ((name, text),) = failures(clone)
        assert name == check and text.startswith(detail)

    # Each entry follows from the config echo; heart-paper's hidden size is
    # searched and picks 4 at seed 0.  The normalization block must agree
    # with normalization.csv before the imputed files render from it.
    @pytest.mark.parametrize(
        "edit, check, detail",
        [
            (lambda doc: doc["methodology"].update(mae="mean error"),
             "report.json", "report.json.methodology.mae holds 'mean error', expected 'mean absolute error"),
            (lambda doc: doc["hidden_size"].update(requested=4),
             "report.json", "report.json.hidden_size.requested holds 4, expected 'auto'"),
            (lambda doc: doc["config"].update(hidden_size=4),
             "report.json", "report.json.hidden_size.requested holds 'auto', expected 4"),
            (lambda doc: doc["config"].update(task="prediction"),
             "report.json", "report.json.task_kind holds 'classification', expected 'prediction'"),
            (lambda doc: doc["normalization"][-1].update(max=doc["normalization"][-1]["max"] + 0.5),
             "normalization.csv", "normalization.csv[14][2] holds 1.0, expected 1.5 from report.json's"),
        ],
        ids=["methodology", "hidden-size-requested", "config-hidden-size", "config-task", "normalization"],
    )
    def test_report_json_entries_must_follow_from_the_config(
        self, heart_paper, tmp_path, edit, check, detail
    ):
        clone = clone_report(heart_paper, tmp_path / "edited")
        document = json.loads((clone / "report.json").read_text())
        edit(document)
        (clone / "report.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        ((name, text),) = failures(clone)
        assert name == check and text.startswith(detail)

    # fire-deep declares 13 numeric columns, named A1..A13 as no header names them.
    @pytest.mark.parametrize(
        "columns, check, detail",
        [
            (lambda cols: [["a", "numeric"], 3], "format",
             "report.json: columns entry 2 (3) is neither a kind in ('numeric', 'binary', 'categorical') "
             "nor a (name, kind) pair with one"),
            (lambda cols: cols[:-1], "format",
             "report.json: config.columns has 12 entries for 13 columns in the normalization block"),
            (lambda cols: [["a", "numeric"], *cols[1:]],
             "report.json", "report.json.normalization[0].column holds 'A1', expected 'a'"),
            (lambda cols: [*cols[:2], "binary", *cols[3:]],
             "report.json", "report.json.normalization[2].kind holds 'numeric', expected 'binary'"),
            (lambda cols: [*cols[:3], ["A4", "categorical"], *cols[4:]],
             "report.json", "report.json.normalization[3].kind holds 'numeric', expected 'categorical'"),
        ],
        ids=["not-a-kind", "one-short", "name", "kind", "pair-kind"],
    )
    def test_config_columns_must_name_the_normalization_block(self, fire_deep, tmp_path, columns, check, detail):
        clone = clone_report(fire_deep, tmp_path / "edited")
        document = json.loads((clone / "report.json").read_text())
        document["config"]["columns"] = columns(document["config"]["columns"])
        (clone / "report.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        assert failures(clone) == [(check, detail)]

    # fire-deep's normalization block holds 13 columns.
    @pytest.mark.parametrize("column", [13, 18])
    def test_missing_column_must_lie_in_the_normalization_block(self, fire_deep, tmp_path, column):
        clone = clone_report(fire_deep, tmp_path / "edited")
        document = json.loads((clone / "report.json").read_text())
        document["config"]["missing_column"] = column
        (clone / "report.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        assert failures(clone) == [("format", f"report.json: config.missing_column {column} out of range "
                                    "for 13 columns: must satisfy 0 <= column <= 12 in the normalization block")]

    # normalization.csv writes names unquoted, so a name there must not hold
    # a comma, a double quote or a line break.
    @pytest.mark.parametrize("name", ["A,1", "A\n1", '"A1'], ids=["comma", "line-break", "leading-quote"])
    def test_a_normalization_name_the_csv_cannot_hold_fails_format(self, fire_deep, tmp_path, name):
        clone = clone_report(fire_deep, tmp_path / "edited")
        document = json.loads((clone / "report.json").read_text())
        document["normalization"][0]["column"] = name
        (clone / "report.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        ((check, detail),) = failures(clone)
        assert check == "format" and detail.startswith("report.json unreadable: ValueError(")
        assert "holds a comma, a double quote or a line break" in detail

    # An echoed setting must hold a value that a config file could set:
    # JSON's false is not an integer, nor 500.0 or 30.0, nor 0 a boolean.
    @pytest.mark.parametrize("section, key, value, detail", [
        (None, "seed", False, "config.seed holds False, not of type int"),
        ("sa", "temperature_steps", 500.0, "config.sa.temperature_steps holds 500.0, not of type int"),
        ("pso", "swarm", 30.0, "config.pso.swarm holds 30.0, not of type int"),
        (None, "header", 0, "config.header holds 0, not of type bool"),
    ], ids=["seed-false", "sa-steps-float", "pso-swarm-float", "header-zero"])
    def test_config_echo_must_hold_the_types_of_a_config_file(self, fire_deep, tmp_path, section, key, value, detail):
        clone = clone_report(fire_deep, tmp_path / "edited")
        document = json.loads((clone / "report.json").read_text())
        (document["config"][section] if section else document["config"])[key] = value
        (clone / "report.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        assert failures(clone) == [("format", f"report.json: {detail}")]

    # fire-deep fixes its hidden size at 6.  An echo that fixes another size,
    # or a size no network can have (1, or JSON's true), states a model that
    # model.txt does not hold.
    @pytest.mark.parametrize("size", [5, 1, True], ids=["five", "one", "true"])
    def test_a_fixed_hidden_size_must_be_the_selected_one(self, fire_deep, tmp_path, size):
        clone = clone_report(fire_deep, tmp_path / "edited")
        document = json.loads((clone / "report.json").read_text())
        document["config"]["hidden_size"] = document["hidden_size"]["requested"] = size
        (clone / "report.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        assert failures(clone) == [
            ("model", f"model.txt.h holds 6, expected {size!r} from report.json"),
            ("report.json", f"report.json.hidden_size.selected holds 6, expected {size!r}"),
        ]

    def test_a_number_setting_takes_an_integer(self, fire_deep, tmp_path):
        # As a config file's "phi1 = 2" reads as 2.0.
        clone = clone_report(fire_deep, tmp_path / "edited")
        document = json.loads((clone / "report.json").read_text())
        document["config"]["pso"]["phi1"] = 2
        (clone / "report.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        assert failures(clone) == []

    @pytest.mark.parametrize(
        "edit, check, detail",
        [
            (lambda doc: doc["methods"]["ga"]["metrics"].update(auc=0.123),
             "report.json", "report.json.methods.ga.metrics.auc holds 0.123, expected "),
            (lambda doc: doc["methods"]["ga"]["imputed"][0].update(imputed=0.999),
             "report.json", "report.json.methods.ga.imputed[0].imputed holds 0.999, expected "),
            (lambda doc: doc["comparison"]["pairs"][0].update(p_value=0.5),
             "report.json", "report.json.comparison.pairs[0].p_value holds 0.5, expected "),
            # 13 predictors: an unset rf.mtry resolves to floor(sqrt(13)) = 3.
            (lambda doc: doc["methods"]["rf"].update(mtry_resolved=4),
             "report.json", "report.json.methods.rf.mtry_resolved holds 4, expected 3"),
            (lambda doc: doc["config"]["rf"].update(mtry=5),
             "report.json", "report.json.methods.rf.mtry_resolved holds 3, expected 5"),
        ],
        ids=["ga-auc", "ga-first-imputed", "first-p-value", "rf-mtry", "rf-mtry-configured"],
    )
    def test_report_json_entries_must_equal_the_regrading(
        self, heart_paper, tmp_path, edit, check, detail
    ):
        clone = clone_report(heart_paper, tmp_path / "edited")
        document = json.loads((clone / "report.json").read_text())
        edit(document)
        (clone / "report.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        ((name, text),) = failures(clone)
        assert name == check and text.startswith(detail)

    @pytest.mark.parametrize(
        "text, detail",
        [("", "pvalues.csv does not hold 1 entries"),
         ("pair,p_value,display\nXX-YY,0.5,0.50\n", "pvalues.csv does not hold 1 entries")],
        ids=["empty", "extra-row"],
    )
    def test_forest_only_pvalues_hold_no_row(self, forest_only, tmp_path, text, detail):
        assert (forest_only / "pvalues.csv").read_text() == "pair,p_value,display\n"
        clone = clone_report(forest_only, tmp_path / "edited")
        (clone / "pvalues.csv").write_text(text)
        assert failures(clone) == [("pvalues.csv", detail)]

    @pytest.mark.parametrize(
        "edit, detail",
        [
            (lambda lines: [lines[0], lines[1].split(",")[0] + ",0.0,1.0", *lines[2:]],
             "normalization.csv[1][1] holds 0.0, expected "),
            (lambda lines: lines[:-1], "normalization.csv does not hold 15 entries"),
            (lambda lines: [lines[0], "renamed" + lines[1][lines[1].index(","):], *lines[2:]],
             "normalization.csv[1][0] holds 'renamed', expected "),
        ],
        ids=["first-bounds", "last-row-dropped", "first-renamed"],
    )
    def test_normalization_must_equal_the_report_block(self, emitted, tmp_path, edit, detail):
        clone = clone_report(emitted[2], tmp_path / "edited")
        lines = (clone / "normalization.csv").read_text().splitlines()
        (clone / "normalization.csv").write_text("\n".join(edit(lines)) + "\n")
        ((name, text),) = failures(clone)
        assert name == "normalization.csv" and text.startswith(detail)

    @pytest.mark.parametrize(
        "n, h, check, detail",
        [
            (14, 3, "model", "model.txt.h holds 3, expected 4 from report.json"),
            (13, 4, "model", "model.txt.n holds 13, expected 14 from report.json"),
            (None, None, "format", "model.txt unreadable: "),
        ],
        ids=["other-hidden-size", "other-input-count", "truncated"],
    )
    def test_model_must_fit_the_report(self, emitted, tmp_path, n, h, check, detail):
        clone = clone_report(emitted[2], tmp_path / "edited")
        if n is None:
            text = (clone / "model.txt").read_text()
            (clone / "model.txt").write_text(text[: len(text) // 2])
        else:
            (clone / "model.txt").write_text(network.model_text(random_autoencoder(np.random.default_rng(0), n, h)))
        ((name, text),) = failures(clone)
        assert name == check and text.startswith(detail)


    @pytest.mark.parametrize("name, check, detail", [
        ("imputed_sa.csv", "format", "imputed_sa.csv cannot be graded: 'utf-8' codec can't decode byte 0xff"),
        ("metrics.csv", "metrics.csv", "metrics.csv does not hold 9 entries"),
    ], ids=["imputed", "rendered"])
    def test_a_byte_that_is_not_utf8_fails_the_check_of_its_file(self, fire_deep, tmp_path, name, check, detail):
        clone = clone_report(fire_deep, tmp_path / "edited")
        (clone / name).write_bytes((clone / name).read_bytes() + b"\xff")
        checks = verify_report(clone)
        ((failed, text),) = [(n, d) for n, ok, d in checks if not ok]
        assert failed == check and text.startswith(detail)
        if check != "format":  # the other files were still checked
            assert [n for n, _, _ in checks] == [n for n, _, _ in verify_report(fire_deep)]

    @pytest.mark.parametrize(
        "name", ["metrics.csv", "pvalues.csv", "normalization.csv", "imputed_ga.csv", "roc_ga.csv"]
    )
    def test_csv_headers_must_equal_the_re_rendering(self, emitted, tmp_path, name):
        clone = clone_report(emitted[2], tmp_path / "edited")
        lines = (clone / name).read_text().splitlines()
        *kept, last = lines[0].split(",")
        lines[0] = ",".join([*kept, "renamed"])
        (clone / name).write_text("\n".join(lines) + "\n")
        detail = f"{name}[0][{len(kept)}] holds 'renamed', expected {last!r}"
        if name == "normalization.csv":  # compared before anything renders from the block
            detail += " from report.json's normalization block"
        assert failures(clone) == [(name, detail)]

    # model.txt is left out: verify re-renders it from the weights it holds,
    # so only a rerun of the experiment can vouch for them.
    @pytest.mark.parametrize("fixture, pattern", [
        (fixture, file.name)
        for fixture, kind in (("heart_paper", "classification"), ("fire_deep", "prediction"))
        for file in REPORT_FILES if file.stable and file.name != "model.txt" and kind in file.kinds
    ])
    def test_the_last_number_of_every_file_is_checked(self, request, tmp_path, fixture, pattern):
        out = request.getfixturevalue(fixture)
        methods = sorted(json.loads((out / "report.json").read_text())["methods"])
        for name in sorted({pattern.format(method) for method in methods}):
            for step, failed in ((1e-6, [name]), (1e-12, [])):
                clone = clone_report(out, tmp_path / f"{name}-{step}")
                raise_last_number(clone / name, step)
                assert [n for n, _ in failures(clone)] == failed, (name, step)


class TestNormalizationExport:
    def test_table_format(self, emitted):
        _, report, out = emitted
        lines = (out / "normalization.csv").read_text().splitlines()
        assert lines[0] == "column,min,max"
        rows = [line.split(",") for line in lines[1:]]
        # Full precision: every bound reads back exactly.
        assert [(name, float(lo), float(hi)) for name, lo, hi in rows] == [
            (spec.column, spec.min, spec.max) for spec in report.columns
        ]

    def test_entries_are_the_column_specs(self, emitted):
        _, report, out = emitted
        block = json.loads((out / "report.json").read_text())["normalization"]
        names = [field.name for field in dataclasses.fields(data.ColumnSpec)]
        assert [sorted(entry) for entry in block] == [sorted(names)] * len(report.columns)
        assert tuple(data.ColumnSpec(**entry) for entry in block) == report.columns


class TestNormalizationScope:
    def test_train_scope_fits_on_leading_block(self, tmp_path):
        csv = tmp_path / "tiny.csv"
        # Three columns: with hidden_size = auto, fewer is a data error.
        rows = ["%d,%d,%d" % (i, 10 * i, i % 3) for i in range(1, 21)]
        csv.write_text("\n".join(rows) + "\n")
        cfg_file = tmp_path / "scope.cfg"
        cfg_file.write_text(
            f"dataset = {csv}\nmissing_column = 1\ntask = prediction\n"
            "normalization_scope = train\n"
        )
        from aeimpute.experiment import _prepare_dataset

        ds, _, _ = _prepare_dataset(parse_config(cfg_file))
        # 20 rows -> train block is the first 10; scaler fitted there.
        assert ds.columns[0].min == 1.0
        assert ds.columns[0].max == 10.0
        assert ds.rows.max() == 1.0  # later rows clamp into range


class TestModelFile:
    def test_saved_model_reproduces_forward(self, emitted):
        from aeimpute.network import load_model

        _, report, out = emitted
        loaded = load_model(out / "model.txt")
        x = np.linspace(0.1, 0.9, loaded.n_inputs)
        np.testing.assert_array_equal(loaded.forward(x), report.net.forward(x))


class TestCli:
    def test_run_verify_inspect_round_trip(self, heart_setup, capsys):
        tmp, csv, meta = heart_setup
        cfg_file = write_config(tmp, csv, meta, name="cli.cfg", out="cli_out")
        assert cli.main(["--quiet", "run", str(cfg_file)]) == 0
        assert cli.main(["verify", str(tmp / "cli_out")]) == 0
        out = capsys.readouterr().out
        assert "PASS inventory" in out
        assert cli.main(["inspect-model", str(tmp / "cli_out" / "model.txt")]) == 0
        out = capsys.readouterr().out
        assert "hidden units:   4" in out

    def test_inspect_model_text(self, tmp_path, capsys):
        path = tmp_path / "model.txt"
        path.write_text(network.model_text(random_autoencoder(np.random.default_rng(0), 5, 3)))
        assert cli.main(["inspect-model", str(path)]) == 0
        assert capsys.readouterr().out == (
            "inputs/outputs: 5\n"
            "hidden units:   3\n"
            "parameters:     38\n"
            "activations:    tanh -> logistic\n"
            "weight range:   [-1.62752, 0.956524]\n"
        )

    @pytest.mark.parametrize("flags, seed, out", [
        ([], 7, "out"),
        (["--seed", "99"], 99, "out"),
        (["--output", "elsewhere"], 7, "elsewhere"),
        (["--seed", "99", "--output", "elsewhere"], 99, "elsewhere"),
    ])
    def test_seed_and_output_flags_replace_fields(self, heart_setup, monkeypatch, flags, seed, out):
        tmp, csv, meta = heart_setup
        cfg_file = write_config(tmp, csv, meta, name="seeded.cfg")
        ran = []

        def stop(cfg, progress):
            ran.append(cfg)
            raise ExperimentError("stopped")

        monkeypatch.setattr(cli, "run_experiment", stop)
        flags = [str(tmp / flag) if flag == "elsewhere" else flag for flag in flags]
        assert cli.main([*flags, "run", str(cfg_file)]) == 2
        assert ran == [dataclasses.replace(parse_config(cfg_file), seed=seed, output_dir=tmp / out)]

    @pytest.mark.parametrize("flags", [["--seed", "3"], ["--output", "elsewhere"]])
    @pytest.mark.parametrize("command", ["verify", "inspect-model"])
    def test_seed_and_output_apply_to_run_only(self, tmp_path, capsys, command, flags):
        # A real model file and a directory: without the flags, inspect-model
        # exits 0 and verify grades the empty directory (exit 2).
        model = tmp_path / "model.txt"
        model.write_text(network.model_text(random_autoencoder(np.random.default_rng(0), 5, 3)))
        target = model if command == "inspect-model" else tmp_path
        assert cli.main([*flags, command, str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed and --output apply to run only" in captured.err

    def test_config_error_exit_code(self, heart_setup, capsys):
        tmp, csv, meta = heart_setup
        bad = tmp / "cli_bad.cfg"
        bad.write_text("dataset = x.csv\n")
        assert cli.main(["run", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_data_error_exit_code(self, heart_setup, capsys):
        tmp, csv, meta = heart_setup
        broken_csv = tmp / "broken.csv"
        broken_csv.write_text("1,2\n1\n")
        cfg_file = tmp / "broken.cfg"
        cfg_file.write_text(
            f"dataset = {broken_csv}\nmissing_column = 1\ntask = prediction\n"
            f"output = {tmp / 'broken_out'}\n"
        )
        assert cli.main(["run", str(cfg_file)]) == 1
        assert "data error" in capsys.readouterr().err

    # A column count is checked against the dataset, which the error names;
    # a kind is checked with the configuration, before the dataset is read.
    @pytest.mark.parametrize("columns, detail", [
        ("numeric,numeric,numeric", "data error: stage 'prepare' failed: {data}: "
                                    "columns has 3 entries for 2 columns"),
        ("numeric,bogus", "config error: columns entry 2 ('bogus') is neither a kind in "
                          "('numeric', 'binary', 'categorical') nor a (name, kind) pair with one"),
    ], ids=["column-count", "unknown-kind"])
    def test_schema_error_names_the_dataset(self, tmp_path, capsys, columns, detail):
        data = tmp_path / "data.csv"
        data.write_text("1,2\n3,4\n")
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(f"dataset = {data}\ncolumns = {columns}\nmissing_column = 1\n"
                            f"task = prediction\noutput = {tmp_path / 'out'}\n")
        assert cli.main(["--quiet", "run", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(detail.format(data=data))

    @pytest.mark.parametrize("case", ["not-utf8", "directory"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, case):
        cfg_file = tmp_path / "exp.cfg"
        if case == "directory":
            cfg_file.mkdir()
        else:
            cfg_file.write_bytes(b"seed = 1\n# caf\xe9\n")
        assert cli.main(["run", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(cfg_file) in err

    @pytest.mark.parametrize("case", ["not-utf8", "directory", "missing"])
    def test_unreadable_dataset_is_a_data_error(self, tmp_path, capsys, case):
        data = tmp_path / "data.csv"
        if case == "directory":
            data.mkdir()
        elif case == "not-utf8":
            data.write_bytes(b"1,2,3\n4,5,6\n7,8,\xe9\n")
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            f"dataset = {data}\nmissing_column = 1\ntask = prediction\noutput = {tmp_path / 'out'}\n"
        )
        assert cli.main(["--quiet", "run", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(data) in err

    # The fire table has 13 columns, so a fixed hidden size must lie in 2..12.
    @pytest.mark.parametrize("hidden_size", [13, 40])
    def test_hidden_size_the_data_cannot_hold_is_a_data_error(self, fire_like, tmp_path, capsys, hidden_size):
        csv, meta = fire_like
        cfg_file = tmp_path / "fire.cfg"
        cfg_file.write_text(config_text(csv, meta, tmp_path / "out", hidden_size=hidden_size))
        assert cli.main(["--quiet", "run", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("data error: stage 'prepare' failed: ")
        assert f"{csv}: hidden size {hidden_size} out of range for 13 inputs: must satisfy 2 <= h <= 12" in err

    def test_runtime_failure_exit_code(self, heart_setup, capsys, monkeypatch):
        tmp, csv, meta = heart_setup

        def run(obj, method, config=None, *, seeds):
            raise RuntimeError(f"{method} cannot search")

        monkeypatch.setattr(optimizers, "run", run)
        cfg_file = write_config(tmp, csv, meta, name="cli_fail.cfg", out="cli_fail_out", methods="ga")
        assert cli.main(["run", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: stage 'impute' failed: ga cannot search")
        assert "partial results" in err

    # Each fault is in the data alone and would fail a later stage: the run
    # stops after the split, before the hidden-size search or any training.
    @pytest.mark.parametrize("case, detail", [
        ("non-binary-target", "classification task needs a 0/1 target after scaling; column 'A1' has other values"),
        ("sorted-by-target", "the test block (the last 67 rows; the split follows file order) "
                             "holds 0 0s and 67 1s in column 'A14': a classification task needs both classes there"),
        ("few-train-rows", "{data}: rf needs at least 10 train rows for rf.min_leaf = 5, got 9"),
        ("three-rows", "{data}: need at least 4 rows for three non-empty splits, got 3"),
        ("one-column", "{data}: need at least 3 inputs for a narrow hidden layer, got 1"),
        ("two-columns", "{data}: need at least 3 inputs for a narrow hidden layer, got 2"),
        ("one-test-record", "comparing 2 methods needs at least 2 test records; "
                            "the test block of the 7 rows holds 1"),
        ("mtry-above-predictors", "{data}: rf.mtry = 20 exceeds the 13 predictors of a 14-column table"),
    ], ids=["non-binary-target", "sorted-by-target", "few-train-rows", "three-rows", "one-column",
            "two-columns", "one-test-record", "mtry-above-predictors"])
    def test_data_that_would_fail_later_is_a_data_error(self, heart_setup, tmp_path, capsys, case, detail):
        _, csv, meta = heart_setup
        lines = csv.read_text().splitlines()
        overrides = {}
        if case == "non-binary-target":
            meta = dict(meta, missing_column=0)
        elif case == "sorted-by-target":
            lines.sort(key=lambda line: float(line.rsplit(",", 1)[1]))
        elif case == "few-train-rows":
            lines = lines[:17]  # 9 train rows, 4 validation and 4 test
        elif case == "three-rows":
            lines = lines[:3]
        elif case in ("one-column", "two-columns"):  # the binary target, last, and the column before it
            kept = 1 if case == "one-column" else 2
            lines = [",".join(line.split(",")[-kept:]) for line in lines]
            meta = dict(meta, kinds=meta["kinds"][-kept:], missing_column=kept - 1)
        elif case == "mtry-above-predictors":
            overrides = {"rf.mtry": 20}
        else:
            lines = lines[:7]  # 5 train rows, 1 validation and 1 test
            overrides = {"task": "prediction", "methods": "ga,pso"}
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        settings = dict(FAST, seed=1, hidden_size="auto", **overrides)
        (tmp_path / "run.cfg").write_text(config_text(data, meta, out, **settings))
        assert cli.main(["run", str(tmp_path / "run.cfg")]) == 1
        printed = capsys.readouterr()
        assert printed.err == f"data error: stage 'prepare' failed: {detail.format(data=data)}\n"
        assert printed.out.splitlines()[-1] == "prepare"
        assert "stage: prepare" in (out / FAILURE_MARKER).read_text()
        assert "hidden_size" not in json.loads((out / "partial.json").read_text())

    def test_unwritable_report_is_a_runtime_failure(self, heart_setup, capsys):
        tmp, csv, meta = heart_setup
        cfg_file = write_config(tmp, csv, meta, name="cli_blocked.cfg")
        blocker = tmp / "blocked_out"
        blocker.write_text("a file where the output directory should go\n")
        assert cli.main(["--quiet", "--output", str(blocker), "run", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: cannot write the report to") and str(blocker) in err
        assert blocker.read_text() == "a file where the output directory should go\n"

    def test_verify_missing_dir(self, heart_setup, capsys):
        tmp, _, _ = heart_setup
        assert cli.main(["verify", str(tmp / "no_such_dir")]) == 1

    def test_verify_detects_tampering(self, heart_setup, tmp_path, capsys):
        tmp, csv, meta = heart_setup
        cfg_file = write_config(tmp, csv, meta, name="cli2.cfg", out="cli2_out")
        assert cli.main(["--quiet", "run", str(cfg_file)]) == 0
        metrics_file = tmp / "cli2_out" / "metrics.csv"
        lines = metrics_file.read_text().splitlines()
        method, metric, value = lines[1].split(",")
        lines[1] = f"{method},{metric},{float(value) + 0.5!r}"
        metrics_file.write_text("\n".join(lines) + "\n")
        assert cli.main(["verify", str(tmp / "cli2_out")]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_seed_flag_changes_results(self, heart_setup):
        tmp, csv, meta = heart_setup
        cfg_file = write_config(tmp, csv, meta, name="cli3.cfg", out="cli3_out")
        assert cli.main(["--quiet", "--seed", "1", "--output", str(tmp / "s1"), "run", str(cfg_file)]) == 0
        assert cli.main(["--quiet", "--seed", "2", "--output", str(tmp / "s2"), "run", str(cfg_file)]) == 0
        a = json.loads((tmp / "s1" / "report.json").read_text())
        b = json.loads((tmp / "s2" / "report.json").read_text())
        assert a["config"]["seed"] == 1 and b["config"]["seed"] == 2
        assert a["methods"]["ga"]["imputed"] != b["methods"]["ga"]["imputed"]


class TestTracedHooks:
    """The traced benchmark (``bench/spans.py``) wraps program functions by name
    and call shape; a reshaped function must still fit its wrapper."""

    def test_every_hook_fits_and_restores(self, heart_setup, monkeypatch):
        # One process: a span made in a forked worker stays in that worker.
        monkeypatch.setattr(parallel, "_worker_count", lambda n: 1)
        Tracer = bench_module("spans").Tracer
        from aeimpute.data import make_tasks
        from aeimpute.objective import MissingDataObjective

        tmp, csv, meta = heart_setup
        cfg = parse_config(write_config(tmp, csv, meta, name="traced.cfg", out="traced_out",
                                        hidden_size="auto"))
        assert cfg.methods == experiment.ALL_METHODS
        tracer = Tracer()
        tracer.install()
        originals = list(tracer._patched)
        try:
            report = run_experiment(cfg)
            # Functions the experiment does not call, in the shapes the tracer wraps.
            net = report.net
            _, (rows, _, _), _ = experiment._prepare_dataset(cfg)
            task = make_tasks(rows[:1], 0)
            tracer.spanned("probe", lambda: (
                network.train(rows, 3, network.TrainConfig(max_iterations=5)),
                net.forward(rows[0]),
                MissingDataObjective(net, task).evaluate(0.5),
            ))()
        finally:
            tracer.restore()
        for owner, attr, original in originals:
            assert getattr(owner, attr) is original, attr

        records = report.document["split_counts"]["test"]
        budgets = {
            "ga": cfg.ga.population + cfg.ga.generations * (cfg.ga.population - cfg.ga.elitism),
            "sa": 1 + 100 + cfg.sa.temperature_steps * cfg.sa.moves_per_step,
            "pso": cfg.pso.swarm * (cfg.pso.iterations + 1),
            "ns": cfg.ns.detectors * cfg.ns.generations,
        }
        for method, budget in budgets.items():
            assert len(tracer.select("optimizers." + method)) == 1, method
            rows_seen = tracer.count("optimizers." + method, "objective.rows")
            assert rows_seen == records * budget, method
        for name in ("data.load_csv", "data.normalize", "data.split", "data.make_tasks",
                     "network.select_hidden_size", "network.hidden_candidate", "network.train",
                     "forest.fit", "forest.predict", "metrics.roc_curve",
                     "metrics.comparison_matrix"):
            assert tracer.select(name), name
        assert tracer.count("network.train", "train_steps") >= 1
        assert tracer.count("forest.fit", "nodes") > 0
        probe = tracer.select("probe")[0].counts
        assert probe["forward.calls"] >= 2 and probe["objective.calls"] >= 1
        assert tracer.all_counts("forward.rows") >= tracer.all_counts("objective.rows")


def rejection(fn, *args, error=ValueError, **kwargs) -> str:
    """The message of the ``error`` that ``fn(*args, **kwargs)`` raises."""
    with pytest.raises(error) as caught:
        fn(*args, **kwargs)
    return str(caught.value)


class TestOneRuleOneMessage:
    """Each validity rule is stated once, in the module that owns it: every
    site that applies it rejects the same inputs with the same message.  At
    ``prepare`` the message follows the dataset's name, and the run fails
    with a ConfigError, which the CLI reports with exit code 1."""

    @staticmethod
    def prepare_rejection(tmp_path, n_rows, n_columns, **settings) -> str:
        """The message with which a run on a random (n_rows, n_columns) table
        fails at ``prepare``, without the dataset's name before it."""
        csv = tmp_path / "data.csv"
        rows = np.random.default_rng(0).uniform(size=(n_rows, n_columns))
        csv.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))
        cfg = ExperimentConfig(dataset=csv, task="prediction", output_dir=tmp_path / "out",
                               **{"missing_column": 0, **settings})
        with pytest.raises(ExperimentError, match="^stage 'prepare' failed: ") as caught:
            run_experiment(cfg)
        cause = str(caught.value.__cause__)
        assert isinstance(caught.value.__cause__, ConfigError) and cause.startswith(f"{csv}: ")
        return cause[len(f"{csv}: "):]

    @pytest.mark.parametrize("h", [1, 5, 9])
    def test_hidden_size_range(self, tmp_path, h):
        message = f"hidden size {h} out of range for 5 inputs: must satisfy 2 <= h <= 4"
        rows = np.random.default_rng(1).uniform(size=(12, 5))
        assert rejection(network.Autoencoder, 5, h, np.zeros(2 * 5 * h + h + 5)) == message
        assert rejection(network.train, rows, h) == message
        assert self.prepare_rejection(tmp_path, 12, 5, hidden_size=h, methods=("ga",)) == message

    @pytest.mark.parametrize("column", [5, 10])
    def test_missing_column_range(self, tmp_path, column):
        message = f"missing_column {column} out of range for 5 columns: must satisfy 0 <= column <= 4"
        rows = np.random.default_rng(1).uniform(size=(3, 5))
        assert rejection(data.make_tasks, rows, column) == message
        assert rejection(forest.fit, rows, column, seed=0) == message
        assert self.prepare_rejection(tmp_path, 12, 5, missing_column=column, methods=("ga",)) == message

    # 17 rows split 9/4/4, so the train block holds 2 x 5 - 1 rows.
    @pytest.mark.parametrize("rf, message", [
        (forest.ForestConfig(min_leaf=5), "rf needs at least 10 train rows for rf.min_leaf = 5, got 9"),
        (forest.ForestConfig(mtry=4, min_leaf=1), "rf.mtry = 4 exceeds the 3 predictors of a 4-column table"),
    ], ids=["rows", "mtry"])
    def test_forest_fit_preconditions(self, tmp_path, rf, message):
        train_rows = np.random.default_rng(1).uniform(size=(9, 4))
        assert rejection(forest.fit, train_rows, 0, rf, seed=0) == message
        assert self.prepare_rejection(tmp_path, 17, 4, methods=("rf",), rf=rf) == message

    def test_optimizer_tags(self):
        assert optimizers.ALGORITHM_TAGS == ("ga", "sa", "pso", "ns")
        assert experiment.ALL_METHODS == optimizers.ALGORITHM_TAGS + ("rf",)
        message = "unknown optimizer tag 'de'; expected one of ('ga', 'sa', 'pso', 'ns')"
        assert rejection(optimizers.budget, "de", optimizers.GaConfig()) == message
        assert rejection(optimizers.run, None, "de", seeds=[0]) == message
        # A tag's config type is checked in the same lookup.
        message = "ga expects a GaConfig, got SaConfig"
        assert rejection(optimizers.budget, "ga", optimizers.SaConfig(), error=TypeError) == message
        assert rejection(optimizers.run, None, "ga", optimizers.SaConfig(), seeds=[0], error=TypeError) == message
