"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured margin.

Criteria 7-9 exercise the full harness on the tables the benchmark
generates (``bench/inputs.py``, seed 0), at the sizes of the paper's three
datasets (1000x25, 517x13, 270x14); the loader and protocol are identical
for the real files.
"""

import dataclasses
import json
import math
from time import perf_counter, process_time

import numpy as np
import pytest

from aeimpute import forest, metrics, network, optimizers as opt
from aeimpute.experiment import (
    REPORT_FILES,
    emit_report,
    parse_config,
    run_experiment,
    verify_report,
)
from aeimpute.network import TrainConfig

from conftest import (
    Bimodal1D,
    QuadraticStub,
    config_text,
    manifold_rows,
    random_autoencoder,
)
from test_forest import full_sample_tree, step_rows
from test_metrics import p_two_tailed_quadrature


def report_line(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def benchmark_runs(tmp_path_factory, credit_like, fire_like, heart_like):
    """Run the three benchmark-shaped experiments at default budgets."""
    tmp = tmp_path_factory.mktemp("bench")
    runs = {}
    specs = [
        ("credit", credit_like, (500, 250, 250)),
        ("fire", fire_like, (259, 129, 129)),
        ("heart", heart_like, (136, 67, 67)),
    ]
    start = perf_counter()
    for name, (csv, meta), expected_counts in specs:
        cfg_file = tmp / f"{name}.cfg"
        out = tmp / f"{name}_out"
        cfg_file.write_text(config_text(csv, meta, out, seed=0), encoding="utf-8")
        cfg = parse_config(cfg_file)
        report = run_experiment(cfg)
        emit_report(report, out)
        runs[name] = {
            "cfg_file": cfg_file,
            "out": out,
            "report": report,
            "expected_counts": expected_counts,
            "meta": meta,
        }
    runs["elapsed"] = perf_counter() - start
    return runs


class TestCriterion1Gradient:
    def test_gradient_matches_finite_differences(self):
        start = perf_counter()
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(3, 9))
            h = int(rng.integers(2, n))
            net = random_autoencoder(rng, n, h)
            rows = rng.uniform(0, 1, size=(int(rng.integers(1, 9)), n))
            analytic = network._batch_loss_grad(net.parameters, rows, n, h)[1]
            eps = 1e-6
            base = net.parameters
            fd = np.empty_like(base)
            for i in range(base.size):
                up = base.copy()
                up[i] += eps
                down = base.copy()
                down[i] -= eps
                fd[i] = (
                    network._batch_loss_grad(up, rows, n, h)[0]
                    - network._batch_loss_grad(down, rows, n, h)[0]
                ) / (2 * eps)
            rel = np.abs(analytic - fd) / max(np.abs(fd).max(), 1e-8)
            worst = max(worst, float(rel.max()))
        elapsed = perf_counter() - start
        ok = worst < 1e-5 and elapsed < 10.0
        report_line(1, "gradient correctness", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
        assert worst < 1e-5
        assert elapsed < 10.0


class TestCriterion2Trainer:
    def test_manifold_loss_across_seeds(self):
        start = perf_counter()
        rows = manifold_rows(seed=7, count=200)
        losses = []
        for seed in range(10):
            _, loss = network.train(rows, 2, TrainConfig(rng_seed=seed, max_iterations=500))
            losses.append(loss)
        hits = sum(loss < 0.01 for loss in losses)
        elapsed = perf_counter() - start
        ok = hits >= 9 and elapsed < 30.0
        report_line(
            2,
            "trainer efficacy",
            ok,
            f"{hits}/10 seeds below 0.01 (worst {max(losses):.4f}), {elapsed:.1f}s",
        )
        assert hits >= 9
        assert elapsed < 30.0


class TestCriterion3Optimizers:
    def test_stub_and_grid_soundness(self):
        start = perf_counter()
        stub = QuadraticStub()
        stub_specs = [
            ("ga", opt.minimize_ga, opt.GaConfig, 0.02),
            ("sa", opt.minimize_sa, opt.SaConfig, 0.02),
            ("pso", opt.minimize_pso, opt.PsoConfig, 0.02),
            ("ns", opt.minimize_ns, opt.NsConfig, 0.05),
        ]
        stub_failures = []
        for name, fn, cfg_type, tol in stub_specs:
            for seed in range(20):
                result = fn(stub, cfg_type(), seeds=[seed])
                if abs(result.best_points[0] - 0.3) >= tol:
                    stub_failures.append((name, seed))

        bimodal = Bimodal1D()
        grid_min = bimodal.grid_minimum()
        grid_hits = {}
        for name, fn, cfg_type, _ in stub_specs[:3]:
            hits = 0
            for seed in range(20):
                result = fn(bimodal, cfg_type(), seeds=[seed])
                hits += (result.best_values[0] - grid_min) / grid_min <= 0.05
            grid_hits[name] = hits

        elapsed = perf_counter() - start
        ok = not stub_failures and all(v >= 18 for v in grid_hits.values()) and elapsed < 60.0
        report_line(
            3,
            "optimizer soundness",
            ok,
            f"stub failures {stub_failures or 'none'}, grid hits {grid_hits}, {elapsed:.1f}s",
        )
        assert not stub_failures
        for name, hits in grid_hits.items():
            assert hits >= 18, name
        assert elapsed < 60.0


class TestCriterion4Auc:
    def test_trapezoid_equals_concordance(self):
        start = perf_counter()
        rng = np.random.default_rng(404)
        worst = 0.0
        produced = 0
        while produced < 1000:
            n = int(rng.integers(2, 201))
            if rng.random() < 0.5:
                scores = np.round(rng.uniform(0, 1, n), int(rng.integers(1, 4)))
            else:
                scores = rng.uniform(0, 1, n)
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                continue
            produced += 1
            curve = metrics.roc_curve(scores, labels)
            pos = scores[labels == 1][:, None]
            neg = scores[labels == 0][None, :]
            concordance = ((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (
                pos.shape[0] * neg.shape[1]
            )
            worst = max(worst, abs(curve.auc - concordance))
        elapsed = perf_counter() - start
        ok = worst < 1e-12 and elapsed < 10.0
        report_line(4, "auc oracle equivalence", ok, f"max |diff| {worst:.2e}, {elapsed:.1f}s")
        assert worst < 1e-12
        assert elapsed < 10.0


class TestCriterion5Welch:
    def test_p_values_match_quadrature(self):
        # The bound is on the CPU time of the Welch tests alone.  Wall time
        # fails whenever another process shares the cores, and the oracle's
        # eigensolver runs on BLAS threads that spin while they wait, so its
        # CPU time grows with the load too, however correct the p-values are.
        elapsed = 0.0
        rng = np.random.default_rng(505)
        worst = 0.0
        for _ in range(100):
            a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.3, 3.0), int(rng.integers(2, 80)))
            b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.3, 3.0), int(rng.integers(2, 80)))
            start = process_time()
            result = metrics.welch_t_test(a, b)
            elapsed += process_time() - start
            oracle = p_two_tailed_quadrature(result.t_statistic, result.degrees_of_freedom)
            worst = max(worst, abs(result.p_value - oracle))
        start = process_time()
        identical = metrics.welch_t_test([1.0, 2.0, 3.5], [1.0, 2.0, 3.5])
        elapsed += process_time() - start
        ok = worst < 1e-6 and identical.p_value == 1.0 and elapsed < 10.0
        report_line(
            5,
            "welch t-test oracle",
            ok,
            f"max |p diff| {worst:.2e}, identical-sample p {identical.p_value}, {elapsed:.3f}s CPU",
        )
        assert worst < 1e-6
        assert identical.p_value == 1.0
        assert elapsed < 10.0


class TestCriterion6Forest:
    def test_memorization_and_step_function(self):
        start = perf_counter()
        rng = np.random.default_rng(606)
        rows = np.column_stack([rng.permutation(40) / 40.0, rng.uniform(0, 1, 40)])
        memorizer = full_sample_tree(rows, 1, forest.ForestConfig(n_trees=1, min_leaf=1, mtry=1), seed=0)
        memo_err = float(np.abs(memorizer.predict(rows[:, :1]) - rows[:, 1]).max())

        train = step_rows(rng, 200)
        held_out = step_rows(rng, 200)
        f = forest.fit(train, 2, forest.ForestConfig(n_trees=100), seed=1)
        preds = f.predict(held_out)
        mae = float(np.abs(preds - held_out[:, 2]).mean())
        elapsed = perf_counter() - start
        ok = memo_err == 0.0 and mae < 0.05 and elapsed < 30.0
        report_line(
            6,
            "random forest sanity",
            ok,
            f"memorization err {memo_err}, step MAE {mae:.4f}, {elapsed:.1f}s",
        )
        assert memo_err == 0.0
        assert mae < 0.05
        assert elapsed < 30.0


class TestCriterion7Protocol:
    def test_end_to_end_fidelity(self, benchmark_runs):
        failures = []
        picks = {}
        for name in ("credit", "fire", "heart"):
            run = benchmark_runs[name]
            report = run["report"]
            # A searched hidden size at n-1 gives a network close to the identity.
            n = len(report.document["normalization"])
            picks[name] = h = report.document["hidden_size"]["selected"]
            if report.document["hidden_size"]["requested"] == "auto" and not 2 <= h < n - 1:
                failures.append(f"{name} picked hidden size {h} of 2..{n - 1}")
            counts = (
                report.document["split_counts"]["train"],
                report.document["split_counts"]["validation"],
                report.document["split_counts"]["test"],
            )
            if counts != run["expected_counts"]:
                failures.append(f"{name} split {counts}")
            for method, block in report.document["methods"].items():
                values = [e["imputed"] for e in block["imputed"]]
                if not all(0.0 <= v <= 1.0 for v in values):
                    failures.append(f"{name}/{method} out of [0,1]")
            checks = verify_report(run["out"])
            bad = [c for c in checks if not c[1]]
            if bad:
                failures.append(f"{name} verify {bad[:3]}")
        elapsed = benchmark_runs["elapsed"]
        ok = not failures and elapsed < 900.0
        report_line(
            7,
            "end-to-end protocol fidelity",
            ok,
            f"failures {failures or 'none'}, hidden sizes picked {picks}, "
            f"three experiments in {elapsed:.0f}s",
        )
        assert not failures
        assert elapsed < 900.0


@pytest.mark.xfail(
    reason="expected-but-not-guaranteed stochastic ordering; a miss triggers "
    "investigation, not rejection",
    strict=False,
)
class TestCriterion8Ordering:
    def test_rf_auc_at_least_ns_auc(self, tmp_path_factory, heart_like, credit_like):
        start = perf_counter()
        tmp = tmp_path_factory.mktemp("ordering")
        outcomes = {}
        for name, (csv, meta) in (("heart", heart_like), ("credit", credit_like)):
            wins = 0
            for seed in range(5):
                out = tmp / f"{name}_{seed}"
                cfg_file = tmp / f"{name}_{seed}.cfg"
                cfg_file.write_text(
                    config_text(csv, meta, out, seed=seed, methods="ns,rf"),
                    encoding="utf-8",
                )
                report = run_experiment(parse_config(cfg_file))
                rf_auc = report.document["methods"]["rf"]["metrics"]["auc"]
                ns_auc = report.document["methods"]["ns"]["metrics"]["auc"]
                wins += rf_auc >= ns_auc
            outcomes[name] = wins
        elapsed = perf_counter() - start
        ok = all(w >= 4 for w in outcomes.values())
        report_line(
            8,
            "rf-over-ns ordering (stochastic)",
            ok,
            f"rf wins per dataset {outcomes} of 5 seeds, {elapsed:.0f}s",
        )
        assert ok


class TestCriterion9Determinism:
    def test_byte_identical_reruns_serial_and_parallel(self, benchmark_runs, tmp_path_factory):
        start = perf_counter()
        tmp = tmp_path_factory.mktemp("determinism")
        base = benchmark_runs["heart"]
        out = tmp / "rerun"
        emit_report(run_experiment(dataclasses.replace(parse_config(base["cfg_file"]), output_dir=out)), out)
        # Every file but the one(s) the report's file table marks as unstable.
        unstable = {file.name for file in REPORT_FILES if not file.stable}
        files = sorted(p.name for p in base["out"].iterdir() if p.name not in unstable)
        mismatches = [
            name for name in files if (out / name).read_bytes() != (base["out"] / name).read_bytes()
        ]
        elapsed = perf_counter() - start
        ok = not mismatches
        report_line(
            9,
            "determinism",
            ok,
            f"mismatches {mismatches or 'none'}, reruns in {elapsed:.0f}s",
        )
        assert not mismatches
