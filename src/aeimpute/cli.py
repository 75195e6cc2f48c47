"""Command-line entry points: run, verify, inspect-model.

Exit codes: 0 success, 1 usage, configuration or data error, 2 runtime failure
(partial results are persisted with a failure marker), a report that cannot
be written, or failed verification.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .data import CsvFormatError
from .experiment import (
    ConfigError,
    ExperimentError,
    emit_report,
    parse_config,
    run_experiment,
    verify_report,
)
from .network import load_model


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aeimpute",
        description=(
            "Impute masked test-column values by minimizing autoencoder "
            "reconstruction error with interchangeable optimizers, plus a "
            "random-forest baseline."
        ),
    )
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--output", type=Path, default=None, help="override the output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("config", type=Path)

    verify_p = sub.add_parser(
        "verify", help="regrade a report's imputed values and compare every file with its re-rendering"
    )
    verify_p.add_argument("report_dir", type=Path)

    inspect_p = sub.add_parser("inspect-model", help="summarize a saved model file")
    inspect_p.add_argument("model_file", type=Path)
    return parser


def _cmd_run(args) -> int:
    say = (lambda msg: None) if args.quiet else (lambda msg: print(msg, flush=True))
    try:
        flags = {"seed": args.seed, "output_dir": args.output}
        cfg = replace(parse_config(args.config), **{k: v for k, v in flags.items() if v is not None})
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    try:
        report = run_experiment(cfg, progress=say)
    except ExperimentError as err:
        cause = err.__cause__
        if isinstance(cause, (ConfigError, CsvFormatError)):
            print(f"data error: {err}", file=sys.stderr)
            return 1
        print(f"runtime failure: {err} (partial results in {cfg.output_dir})", file=sys.stderr)
        return 2
    try:
        paths = emit_report(report, cfg.output_dir)
    except OSError as err:
        print(f"runtime failure: cannot write the report to {cfg.output_dir}: {err}", file=sys.stderr)
        return 2
    say(f"wrote {len(paths)} files to {cfg.output_dir}")
    return 0


def _cmd_verify(args) -> int:
    if not args.report_dir.is_dir():
        print(f"not a report directory: {args.report_dir}", file=sys.stderr)
        return 1
    checks = verify_report(args.report_dir)
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed} of {len(checks)} checks failed", file=sys.stderr)
        return 2
    return 0


def _cmd_inspect(args) -> int:
    try:
        net = load_model(args.model_file)
    except (OSError, ValueError) as err:
        print(f"cannot read model: {err}", file=sys.stderr)
        return 1
    print(f"inputs/outputs: {net.n_inputs}")
    print(f"hidden units:   {net.n_hidden}")
    print(f"parameters:     {net.parameters.size}")
    print(f"activations:    {net.hidden_activation} -> {net.output_activation}")
    print(f"weight range:   [{net.parameters.min():.6g}, {net.parameters.max():.6g}]")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command != "run" and (args.seed is not None or args.output is not None):
        print("usage error: --seed and --output apply to run only", file=sys.stderr)
        return 1
    return {"run": _cmd_run, "verify": _cmd_verify, "inspect-model": _cmd_inspect}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
