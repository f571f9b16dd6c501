"""Command line front end.

    reflex-sim run <e1|e2|e3|e4|custom> [--config FILE] [--reflex on|off]
               [--feedback on|off] [--sweep <name|file>] [--check]
               [--out DIR] [--seed N]
    reflex-sim validate <config.yaml>
    reflex-sim metrics <log.csv>

Every run writes one directory holding ``log.csv`` (one row per physics
tick) and ``metrics.txt`` (key = value summary).  Sweeps add one
sub-directory per parameter set plus ``comparison.csv``.  Reruns of the
same command produce byte-identical CSV files.

The config file sets every value; ``--reflex``/``--feedback`` only switch a
layer on or off, and ``--seed`` sets the seed.

Exit codes: 0 success, 2 configuration error, 3 simulation divergence,
4 acceptance check failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from .acceptance import check_experiment
from .config import Experiment, builtin_experiment, load_experiment, validate_file
from .errors import ConfigError, SimulationDiverged
from .experiments import EXPERIMENT_NAMES, ExperimentDef, Variant
from .metrics import (
    AnalysisParams,
    compute_report,
    params_from_summary,
    read_summary,
    report_lines,
    report_values,
    write_summary,
)
from .scenario import run_each
from .telemetry import TelemetryLog

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_ACCEPTANCE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflex-sim",
        description="Tendon-driven arm simulator with a stretch-reflex controller.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment and write log.csv + metrics.txt")
    p_run.add_argument("experiment", choices=EXPERIMENT_NAMES + ("custom",))
    p_run.add_argument("--config", metavar="FILE", help="experiment YAML (required for custom)")
    p_run.add_argument("--reflex", choices=("on", "off"), help="force the stretch reflex on or off")
    p_run.add_argument("--feedback", choices=("on", "off"), help="force joint-angle feedback on or off")
    p_run.add_argument(
        "--sweep",
        metavar="NAME|FILE",
        help="run a sweep: 'paper' selects the experiment's built-in comparison sets, "
        "a YAML file supplies its own sweep list",
    )
    p_run.add_argument("--check", action="store_true", help="evaluate the experiment's acceptance check")
    p_run.add_argument("--out", metavar="DIR", default="runs", help="output directory (default: runs)")
    p_run.add_argument("--seed", type=int, help="seed for scripted event jitter")

    p_val = sub.add_parser("validate", help="check a config file, print any problems")
    p_val.add_argument("config", metavar="FILE")

    p_met = sub.add_parser("metrics", help="recompute the metric summary from a log.csv")
    p_met.add_argument("log", metavar="LOG_CSV")
    return parser


def _check_args(parser: argparse.ArgumentParser, args) -> None:
    """Reject argument combinations no config can make valid, before any work."""
    if args.command == "run" and args.experiment == "custom":
        if args.config is None:
            parser.error("run custom: --config FILE is required")
        if args.check:
            parser.error("--check: acceptance checks exist for built-in experiments only")


# ---- experiment assembly ----


def _experiment(args) -> Experiment:
    """The experiment the arguments name: the config file's, or the built-in as it ships."""
    if args.config is None:
        return builtin_experiment(args.experiment)
    parsed = load_experiment(args.config)
    if parsed.scenario != args.experiment:
        raise ConfigError([f"run {args.experiment}: config selects scenario "
                           f"{parsed.scenario!r}; pass the matching experiment name"])
    return parsed


def _switched(parsed: Experiment, args) -> ExperimentDef:
    """The parsed experiment after the --reflex/--feedback switches and --seed."""
    exp = parsed.exp
    if args.reflex is not None:
        exp = replace(exp, default_variant=exp.default_variant.switched(args.reflex == "on"))
    if args.feedback is not None:
        exp = replace(exp, feedback=parsed.feedback if args.feedback == "on" else None)
    if args.seed is not None:
        exp = replace(exp, scenario=replace(exp.scenario, seed=args.seed))
    return exp


def _resolve_sweep(exp: ExperimentDef, sweep_arg: str) -> tuple[Variant, ...]:
    if sweep_arg == "paper":
        return exp.paper_sweep
    path = Path(sweep_arg)
    if not path.is_file():
        raise ConfigError(
            [f"--sweep: {sweep_arg!r} is neither the named sweep 'paper' nor an existing file"]
        )
    sweep = load_experiment(path).sweep
    if sweep is None:
        raise ConfigError([f"--sweep: {path} does not define a sweep"])
    return exp.paper_sweep if sweep == "paper" else sweep


# ---- execution ----


def _write_comparison(path: Path, rows: list[tuple[str, dict[str, str]]]) -> None:
    keys = list(rows[0][1])
    with open(path, "w") as fh:
        fh.write(",".join(["variant", *keys]) + "\n")
        fh.writelines(",".join([label, *(kv.get(k, "") for k in keys)]) + "\n" for label, kv in rows)


def _cmd_run(args) -> int:
    parsed = _experiment(args)
    exp, robot = _switched(parsed, args), parsed.robot
    exp_dir = Path(args.out) / exp.name
    variants = _resolve_sweep(exp, args.sweep) if args.sweep else (exp.default_variant,)
    out_dirs = [exp_dir / v.label for v in variants] if args.sweep else [exp_dir]
    reports = {}

    def write(out_dir: Path, log: TelemetryLog) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        log.to_csv(out_dir / "log.csv")
        reports[out_dir] = compute_report(log, exp.analysis)
        write_summary(reports[out_dir], out_dir / "metrics.txt")
        if len(reports) < len(out_dirs):
            return
        if args.sweep:
            _write_comparison(exp_dir / "comparison.csv",
                              [(v.label, report_values(reports[d])) for v, d in zip(variants, out_dirs)])
            print(f"wrote {len(variants)} runs under {exp_dir}")
        else:
            print(f"wrote {exp_dir / 'log.csv'}")

    # the check makes its runs in one pass with these, so it reuses what was written
    jobs = [(exp.simulation(v, robot), partial(write, d)) for v, d in zip(variants, out_dirs)]
    if not args.check:
        run_each(jobs)
        return EXIT_OK
    result = check_experiment(args.experiment, robot, jobs)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: {result.details}")
    return EXIT_OK if result.passed else EXIT_ACCEPTANCE


def _cmd_validate(args) -> int:
    errors = validate_file(args.config)
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        return EXIT_CONFIG
    print(f"ok: {args.config}")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    at = path = Path(args.log)  # the file a ValueError is about
    if not path.is_file():
        raise ConfigError([f"metrics: not a file: {path}"])
    try:
        log = TelemetryLog.from_csv(path)
        at = path.parent / "metrics.txt"
        params = params_from_summary(read_summary(at)) if at.is_file() else AnalysisParams()
        lines = report_lines(compute_report(log, params))
    except ValueError as e:
        raise ConfigError([f"metrics: {at}: {e}"]) from None
    print("\n".join(lines))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(parser, args)
    except SystemExit as e:  # argparse exits 2 on usage errors, 0 on --help
        return int(e.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_metrics(args)
    except ConfigError as e:
        for err in e.errors:
            print(err, file=sys.stderr)
        return EXIT_CONFIG
    except SimulationDiverged as e:
        print(f"simulation diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
