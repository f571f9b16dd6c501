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
from pathlib import Path

import numpy as np

from .acceptance import check_experiment, run_variant
from .config import (
    ExperimentConfig,
    custom_scenario,
    default_robot,
    load_experiment,
    load_robot,
    validate_file,
)
from .control import FeedbackParams
from .errors import ConfigError, SimulationDiverged
from .experiments import EXPERIMENT_NAMES, ExperimentDef, Variant, builtin_experiments
from .metrics import (
    AnalysisParams,
    compute_report,
    params_from_summary,
    read_summary,
    report_lines,
    write_summary,
)
from .robot import Robot
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


# ---- experiment assembly ----


def _pick(value, fallback):
    return fallback if value is None else value


def _configured(v: Variant, cfg: ExperimentConfig) -> Variant:
    """``v`` with the reflex settings the config file sets."""
    return replace(v, dl_stretch=_pick(cfg.dl_stretch, v.dl_stretch),
                   dt_loose=_pick(cfg.dt_loose, v.dt_loose))


def _with_overrides(exp: ExperimentDef, cfg: ExperimentConfig | None, args) -> ExperimentDef:
    """Apply the config file's values, then the --reflex/--feedback switches and --seed."""
    v, c_stretch = exp.default_variant, exp.c_stretch
    fb = exp.feedback or FeedbackParams(theta_ref=exp.scenario.theta0.copy())
    reflex_on, feedback_on = v.reflex, exp.feedback is not None
    if cfg is not None:
        v, c_stretch = _configured(v, cfg), _pick(cfg.c_stretch, c_stretch)
        theta_ref = fb.theta_ref if cfg.theta_ref is None else np.array(cfg.theta_ref, dtype=float)
        fb = replace(fb, alpha=_pick(cfg.alpha, fb.alpha), rate_hz=_pick(cfg.rate_hz, fb.rate_hz),
                     theta_ref=theta_ref)
        reflex_on = _pick(cfg.reflex_enabled, reflex_on)
        feedback_on = _pick(cfg.feedback_enabled, feedback_on)
    if args.reflex is not None:
        reflex_on = args.reflex == "on"
    if args.feedback is not None:
        feedback_on = args.feedback == "on"
    if reflex_on != v.reflex:
        v = replace(v, reflex=reflex_on, label="reflex-on" if reflex_on else "reflex-off")
    scenario = exp.scenario if args.seed is None else replace(exp.scenario, seed=args.seed)
    return replace(exp, scenario=scenario, default_variant=v, c_stretch=c_stretch,
                   feedback=fb if feedback_on else None)


def _resolve_experiment(args) -> tuple[ExperimentDef, Robot]:
    cfg = load_experiment(args.config) if args.config else None
    if cfg is not None and cfg.robot_path is not None:
        robot = load_robot(cfg.robot_path)
    else:
        robot = default_robot()
    n_joints = robot.model.n_joints
    if cfg is not None and cfg.theta_ref is not None and len(cfg.theta_ref) != n_joints:
        raise ConfigError([f"feedback.theta_ref: expected {n_joints} joints, got {len(cfg.theta_ref)}"])

    if args.experiment == "custom":
        if cfg is None:
            raise ConfigError(["run custom: --config FILE is required"])
        if cfg.scenario != "custom":
            raise ConfigError(
                [f"run custom: config selects scenario {cfg.scenario!r}, not a custom script"]
            )
        scenario = custom_scenario(cfg, robot)
        off = Variant("reflex-off", False)
        exp = ExperimentDef(
            name=cfg.name,
            scenario=scenario,
            feedback=None,
            analysis=AnalysisParams(
                theta_ref=_pick(cfg.theta_ref, tuple(float(v) for v in scenario.theta0))
            ),
            default_variant=off,
            paper_sweep=(off, _configured(Variant("reflex-on", True), cfg)),
        )
    else:
        if cfg is not None and cfg.scenario != args.experiment:
            raise ConfigError(
                [
                    f"run {args.experiment}: config selects scenario "
                    f"{cfg.scenario!r}; pass the matching experiment name"
                ]
            )
        params = {args.experiment: cfg.scenario_params} if cfg is not None else {}
        exp = builtin_experiments(robot, **params)[args.experiment]
    return _with_overrides(exp, cfg, args), robot


def _resolve_sweep(exp: ExperimentDef, sweep_arg: str) -> tuple[Variant, ...]:
    if sweep_arg == "paper":
        return exp.paper_sweep
    path = Path(sweep_arg)
    if not path.exists():
        raise ConfigError(
            [f"--sweep: {sweep_arg!r} is neither the named sweep 'paper' nor an existing file"]
        )
    cfg = load_experiment(path)
    if cfg.sweep is None:
        raise ConfigError([f"--sweep: {path} does not define a sweep"])
    if cfg.sweep == "paper":
        return exp.paper_sweep
    return cfg.sweep


# ---- execution ----


def _run_one(exp: ExperimentDef, robot: Robot, variant: Variant, out_dir: Path) -> None:
    log = run_variant(exp, robot, variant)
    out_dir.mkdir(parents=True, exist_ok=True)
    log.to_csv(out_dir / "log.csv")
    write_summary(compute_report(log, exp.analysis), out_dir / "metrics.txt")


def _write_comparison(exp_dir: Path, variants: tuple[Variant, ...]) -> None:
    rows = []
    keys: list[str] | None = None
    for v in variants:
        kv = read_summary(exp_dir / v.label / "metrics.txt")
        metric_keys = [k for k in kv if not k.startswith("params.")]
        if keys is None:
            keys = metric_keys
        rows.append([v.label] + [kv.get(k, "") for k in keys])
    with open(exp_dir / "comparison.csv", "w") as fh:
        fh.write(",".join(["variant"] + (keys or [])) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _cmd_run(args) -> int:
    exp, robot = _resolve_experiment(args)
    exp_dir = Path(args.out) / exp.name

    if args.sweep:
        variants = _resolve_sweep(exp, args.sweep)
        labels = [v.label for v in variants]
        if len(set(labels)) != len(labels):
            raise ConfigError([f"sweep: duplicate variant labels {labels}"])
        for v in variants:
            _run_one(exp, robot, v, exp_dir / v.label)
        _write_comparison(exp_dir, variants)
        print(f"wrote {len(variants)} runs under {exp_dir}")
    else:
        _run_one(exp, robot, exp.default_variant, exp_dir)
        print(f"wrote {exp_dir / 'log.csv'}")

    if args.check:
        if args.experiment == "custom":
            raise ConfigError(["--check: acceptance checks exist for built-in experiments only"])
        result = check_experiment(args.experiment, robot)
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.details}")
        if not result.passed:
            return EXIT_ACCEPTANCE
    return EXIT_OK


def _cmd_validate(args) -> int:
    errors = validate_file(args.config)
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        return EXIT_CONFIG
    print(f"ok: {args.config}")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    path = Path(args.log)
    if not path.exists():
        raise ConfigError([f"metrics: file not found: {path}"])
    log = TelemetryLog.from_csv(path)
    sibling = path.parent / "metrics.txt"
    if sibling.exists():
        params = params_from_summary(read_summary(sibling))
    else:
        params = AnalysisParams()
    for line in report_lines(compute_report(log, params)):
        print(line)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
