"""Benchmark of the aeimpute pipeline on three seeded synthetic workloads.

    python3 bench/run.py --workload heart-paper --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One round is ``run_experiment`` -> ``emit_report`` ->
``verify_report`` on a generated CSV, timed as ``run_s`` and checked by
``check.py``.  Rounds repeat until ``--seconds`` have passed (at least one);
every later round must reproduce the first round's files byte for byte.
``--trace 1`` adds one round with wrappers installed around the program's
public functions (``spans.py``) and reports per-layer metrics in place of the
end-to-end ones.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Outputs go to
``.bench_out/<workload>/`` under the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
NPROC = len(os.sched_getaffinity(0))
# At most one BLAS thread per core available to this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(NPROC))
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from check import GLOBAL_TOL, OPTIMIZER_METHODS, Checker  # noqa: E402
from spans import Tracer  # noqa: E402

OUT = Path(".bench_out")
SETUP_PROBES = 5
KERNEL_BATCHES = (1, 67, 2000)

# Today's default budgets, written into every config so that the workloads
# stay fixed if the program's defaults change.
DEFAULT_BUDGETS = {
    "ga": {"population": 50, "generations": 100, "elitism": 1},
    "sa": {"temperature_steps": 100, "moves_per_step": 20},
    "pso": {"swarm": 30, "iterations": 100},
    "ns": {"detectors": 50, "generations": 100},
}


@dataclass(frozen=True)
class Workload:
    make: object  # seed -> inputs.Table
    hidden_size: int | str
    methods: tuple[str, ...]
    raised: dict = field(default_factory=dict)  # budget overrides, "sa.temperature_steps" -> 500

    def budgets(self) -> dict:
        settings = {f"{m}.{k}": v for m in self.methods if m in DEFAULT_BUDGETS
                    for k, v in DEFAULT_BUDGETS[m].items()}
        settings.update(self.raised)
        return settings


WORKLOADS = {
    # The paper's protocol: every method at default budgets, hidden size searched.
    "heart-paper": Workload(inputs.heart, "auto", ("ga", "sa", "pso", "ns", "rf")),
    # Training-bound: 23 hidden-size candidates over 500 rows, forest only.
    "credit-train": Workload(inputs.credit, "auto", ("rf",)),
    # Long scalar searches over few records; prediction scoring, no search, no forest.
    "fire-deep": Workload(inputs.fire, 6, ("sa", "pso"),
                          {"sa.temperature_steps": 500, "pso.iterations": 500}),
}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "impute_mae": "normalized",
    "data.prepare_s": "s",
    "network.hidden_search_s": "s",
    "network.hidden_candidates": "count",
    "network.train_s": "s",
    "network.train_steps": "count",
    "network.forward_calls": "count",
    "network.forward_rows": "count",
    "network.forward_s": "s",
    **{f"network.forward_us_per_row.b{b}": "us/row" for b in KERNEL_BATCHES},
    "objective.evals": "count",
    "objective.calls": "count",
    "objective.self_s": "s",
    **{f"optimizers.{m}.{k}": u for m in OPTIMIZER_METHODS
       for k, u in (("s", "s"), ("evals_per_s", "1/s"), ("self_s", "s"), ("global_miss", "count"))},
    "forest.fit_s": "s",
    "forest.predict_s": "s",
    "forest.nodes": "count",
    "metrics.score_s": "s",
    "experiment.self_s": "s",
    "experiment.emit_s": "s",
    "experiment.verify_s": "s",
    "experiment.report_bytes": "bytes",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.span_coverage": "ratio",
}


def prepare(name: str, seed: int, work: Path):
    """Set-up: import the program, generate the CSV, write and parse the config."""
    from aeimpute import experiment

    wl = WORKLOADS[name]
    table = wl.make(seed)
    work.mkdir(parents=True, exist_ok=True)
    table.write_csv(work / "data.csv")
    lines = [
        f"dataset = {work / 'data.csv'}",
        f"columns = {','.join(table.kinds)}",
        f"missing_column = {table.missing_column}",
        f"task = {table.task}",
        f"hidden_size = {wl.hidden_size}",
        f"methods = {','.join(wl.methods)}",
        f"seed = {seed}",
        f"output = {work / 'round0'}",
    ]
    lines += [f"{k} = {v}" for k, v in wl.budgets().items()]
    (work / "experiment.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return table, experiment.parse_config(work / "experiment.cfg")


def setup_seconds(name: str, seed: int, work: Path) -> float:
    """Wall time of a fresh interpreter from launch to the end of ``prepare``."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
         "--setup-probe", str(work)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(done.stdout.split()[-1]) - start


def run_round(experiment, cfg, tracer=None):
    """One timed pipeline round: run, emit, verify."""
    def call(name, fn, *args):
        return fn(*args) if tracer is None else tracer.spanned(name, fn)(*args)

    start = time.perf_counter()
    report = call("experiment.run", experiment.run_experiment, cfg)
    call("experiment.emit", experiment.emit_report, report, cfg.output_dir)
    verify = call("experiment.verify", experiment.verify_report, cfg.output_dir)
    return time.perf_counter() - start, report, verify


def blas_threads() -> int:
    """Threads the bundled OpenBLAS will use; 0 when it cannot be asked."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


def forward_us_per_row(net, batch: int) -> float:
    """Median over 5 samples of forward_batch time per row, about 20k rows a sample."""
    rows = np.random.default_rng(batch).uniform(0.0, 1.0, size=(batch, net.n_inputs))
    reps = max(1, 20000 // batch)
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(reps):
            net.forward_batch(rows)
        samples.append((time.perf_counter() - start) / (reps * batch) * 1e6)
    return statistics.median(samples)


def layer_metrics(tracer, traced_s, untraced, report, out_dir, checker) -> dict:
    t = tracer
    values = {
        "impute_mae": checker.mean_abs_error(out_dir),
        "data.prepare_s": t.total("data"),
        "network.hidden_search_s": t.total("network.select_hidden_size"),
        "network.hidden_candidates": len(t.select("network.hidden_candidate")),
        "network.train_s": t.total("network.train"),
        "network.train_steps": t.count("network.train", "train_steps"),
        "network.forward_calls": t.all_counts("forward.calls"),
        "network.forward_rows": t.all_counts("forward.rows"),
        "network.forward_s": t.all_counts("forward.s"),
        **{f"network.forward_us_per_row.b{b}": forward_us_per_row(report.net, b)
           for b in KERNEL_BATCHES},
        "objective.evals": t.all_counts("objective.rows"),
        "objective.calls": t.all_counts("objective.calls"),
        "objective.self_s": t.all_counts("objective.self_s"),
        "forest.fit_s": t.total("forest.fit"),
        "forest.predict_s": t.total("forest.predict"),
        "forest.nodes": t.count("forest.fit", "nodes"),
        "metrics.score_s": t.total("metrics"),
        "experiment.self_s": sum(s.self_s for s in t.select("experiment.run")),
        "experiment.emit_s": t.total("experiment.emit"),
        "experiment.verify_s": t.total("experiment.verify"),
        "experiment.report_bytes": sum(p.stat().st_size for p in out_dir.iterdir()
                                       if p.name != "timings.json"),
        "trace.run_s": traced_s,
        "trace.overhead_s": traced_s - statistics.median(untraced),
        "trace.span_coverage": sum(s.duration for s in t.spans if s.parent is None) / traced_s,
    }
    gaps = checker.global_gaps(out_dir)
    for m in OPTIMIZER_METHODS:
        busy = t.total("optimizers." + m)
        evals = t.count("optimizers." + m, "objective.rows")
        values[f"optimizers.{m}.s"] = busy
        values[f"optimizers.{m}.evals_per_s"] = evals / busy if busy > 0 else 0.0
        values[f"optimizers.{m}.self_s"] = busy - t.count("optimizers." + m, "objective.s")
        values[f"optimizers.{m}.global_miss"] = int((gaps[m] > GLOBAL_TOL).sum()) if m in gaps else 0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aeimpute" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.setup_probe is not None:
        prepare(args.workload, args.seed, args.setup_probe)
        print(time.monotonic())
        return 0

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    setup = [] if args.trace else [
        setup_seconds(args.workload, args.seed, work / f"probe{k}") for k in range(SETUP_PROBES)
    ]
    table, cfg = prepare(args.workload, args.seed, work)
    wl = WORKLOADS[args.workload]
    checker = Checker(table, wl.methods, wl.budgets(), wl.hidden_size)
    from aeimpute import experiment

    run_times, outcomes = [], []
    first = work / "round0"
    began = time.perf_counter()
    while not run_times or time.perf_counter() - began < args.seconds:
        out_dir = work / f"round{len(run_times)}"
        run_s, _, verify = run_round(experiment, replace(cfg, output_dir=out_dir))
        run_times.append(run_s)
        outcomes.append(checker.check(out_dir, verify, first if out_dir != first else None))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    facts = {"workload": args.workload, "seed": args.seed, "nproc": NPROC,
             "numpy": np.__version__, "blas_threads": blas_threads()}

    if args.trace:
        tracer = Tracer()
        tracer.install()
        out_dir = work / "traced"
        try:
            traced_s, report, verify = run_round(experiment, replace(cfg, output_dir=out_dir), tracer)
        finally:
            tracer.restore()
        outcomes.append(checker.check(out_dir, verify, first))
        values = layer_metrics(tracer, traced_s, run_times, report, out_dir, checker)
        tracer.dump(work / "trace.json", {**facts, "untraced_run_s": run_times, "metrics": values})
        units = PER_LAYER
    else:
        values = {
            "run_s": statistics.median(run_times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END

    attempted = sum(len(o.cells) for o in outcomes)
    failed = sum(len(o.failed) for o in outcomes)
    for message in [msg for o in outcomes for msg in o.messages][:20]:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    print("# " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
