"""Experiment-level acceptance checks, shared by the CLI --check flag and
the test suite.

Each check names the runs it reads (variants of the built-in experiment on
the given robot), reduces each run's log to a few numbers as it is made,
and evaluates one ordinal assertion over them:

  e1  reflex off contacts the extension stop on at least 3 of 7 impacts;
      reflex on never touches it.
  e2  postural drift with the reflex is at most half the no-reflex drift,
      for every swept parameter set.
  e3  a long release window beats plain feedback on convergence time, a
      short one loses to it, and the reflex never worsens peak deviation.
  e4  lifting with the reflex spikes tension at least as high but settles
      at most 0.8x the no-reflex steady tension; with friction removed the
      steady gap collapses below 5%.

The frictionless clause of e4 does not isolate friction as the mechanism:
on the shipped robot without friction the reflex never fires (the largest
tension rise over one control tick is 12.48 N, under the 15 N threshold),
so the frictionless reflex-on run is the reflex-off run, and its 0.0% gap
compares one simulation with itself.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .experiments import ExperimentDef, e1_experiment, e2_experiment, e3_experiment, e4_experiment
from .metrics import conv_time, drift, limit_contact, max_deviation, tension_stats
from .robot import Robot
from .scenario import Simulation, run_each
from .telemetry import TelemetryLog

__all__ = ["CriterionResult", "check_experiment", "zero_friction", "CHECKS"]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    details: str


@dataclass(frozen=True)
class _Check:
    runs: tuple[Simulation, ...]
    measure: Callable[[TelemetryLog], object]  # one log, reduced as it is made
    verdict: Callable[[list], CriterionResult]  # from the measures, in the order of runs


def zero_friction(robot: Robot) -> Robot:
    """The same robot with all joint friction removed (static and kinetic)."""
    n = robot.model.n_joints
    joints = replace(
        robot.model.joints, mu_static=np.zeros(n), mu_kinetic=np.zeros(n)
    )
    return replace(robot, model=replace(robot.model, joints=joints))


def _runs(exp: ExperimentDef, robot: Robot, labels) -> tuple[Simulation, ...]:
    by_label = {v.label: v for v in exp.paper_sweep}
    return tuple(exp.simulation(by_label[label], robot) for label in labels)


def _impact_windows(scenario):
    times = sorted(imp.t for imp in scenario.impulses)
    edges = times + [scenario.duration]
    return [(edges[i], edges[i + 1]) for i in range(len(times))]


def check_e1(robot: Robot) -> _Check:
    exp = e1_experiment(robot)
    windows = _impact_windows(exp.scenario)
    joint = exp.scenario.impulses[0].joint

    def measure(log):
        hits = sum(
            1 for t0, t1 in windows if np.max(log.limit_force[log.window(t0, t1), joint]) > 0.0
        )
        return hits, limit_contact(log)

    def verdict(measures):
        (hits_off, _), (_, on_contact) = measures
        return CriterionResult(
            name="e1 protective reflex",
            passed=hits_off >= 3 and on_contact == 0.0,
            details=(
                f"reflex off hit the stop on {hits_off}/{len(windows)} impacts (need >= 3); "
                f"reflex on max limit force {on_contact:g} N*m (need 0)"
            ),
        )

    return _Check(_runs(exp, robot, ["reflex-off", "reflex-on"]), measure, verdict)


def check_e2(robot: Robot) -> _Check:
    exp = e2_experiment(robot)
    joint = exp.scenario.impulses[0].joint
    a = exp.analysis
    labels = [v.label for v in exp.paper_sweep if v.reflex]

    def verdict(drifts):
        d_off = drifts[0]
        parts = [f"off {d_off:.4f} rad"]
        passed = True
        for label, d_on in zip(labels, drifts[1:]):
            ratio = d_on / d_off if d_off > 0 else float("inf")
            parts.append(f"{label} {d_on:.4f} (x{ratio:.2f})")
            passed = passed and d_on <= 0.5 * d_off
        return CriterionResult(
            name="e2 postural drift",
            passed=passed,
            details="; ".join(parts) + " (need each ratio <= 0.5)",
        )

    return _Check(
        _runs(exp, robot, ["reflex-off", *labels]),
        lambda log: drift(log, joint, a.drift_t_before, a.drift_t_after, a.window),
        verdict,
    )


def check_e3(robot: Robot) -> _Check:
    exp = e3_experiment(robot)
    a = exp.analysis
    on = [v for v in exp.paper_sweep if v.reflex]

    def measure(log):
        ct = conv_time(log, a.conv_joint, a.conv_t_impact, a.conv_theta_thre, a.conv_direction)
        dev = max_deviation(log, a.conv_joint, a.theta_ref[a.conv_joint], a.conv_t_impact)
        return ct, dev

    def verdict(stats):
        (ct_off, dev_off), rest = stats[0], stats[1:]
        ct_on = {v.dt_loose: ct for v, (ct, _) in zip(on, rest)}
        dev_on = {v.dt_loose: dev for v, (_, dev) in zip(on, rest)}
        ordering = ct_on[5.0] < ct_off and ct_on[1.0] > ct_off
        deviation = all(dev_on[k] <= dev_off for k in dev_on)
        return CriterionResult(
            name="e3 convergence ordering",
            passed=ordering and deviation,
            details=(
                f"conv time: off {ct_off:.2f}, dt1 {ct_on[1.0]:.2f}, dt3 {ct_on[3.0]:.2f}, "
                f"dt5 {ct_on[5.0]:.2f} s (need dt5 < off < dt1); "
                f"max deviation: off {dev_off:.3f}, on "
                + ", ".join(f"dt{k:g} {dev_on[k]:.3f}" for k in sorted(dev_on))
                + " rad (need each <= off)"
            ),
        )

    return _Check(_runs(exp, robot, ["reflex-off", *(v.label for v in on)]), measure, verdict)


def check_e4(robot: Robot) -> _Check:
    bots = (robot, zero_friction(robot))
    exps = [e4_experiment(bot) for bot in bots]
    wf = exps[0].analysis.window_final

    def verdict(stats):
        (peak_off, steady_off), (peak_on, steady_on), (_, steady_off0), (_, steady_on0) = stats
        gap0 = abs(steady_on0 - steady_off0) / steady_off0
        passed = (
            peak_on >= peak_off
            and steady_on <= 0.8 * steady_off
            and gap0 < 0.05
        )
        return CriterionResult(
            name="e4 lifting tensions",
            passed=passed,
            details=(
                f"peak on/off {peak_on:.0f}/{peak_off:.0f} N (need on >= off); "
                f"steady on/off {steady_on:.0f}/{steady_off:.0f} N "
                f"(x{steady_on / steady_off:.2f}, need <= 0.8); "
                f"frictionless steady gap {100 * gap0:.1f}% (need < 5%)"
            ),
        )

    runs = sum((_runs(exp, bot, ["reflex-off", "reflex-on"]) for exp, bot in zip(exps, bots)), ())
    return _Check(runs, lambda log: tension_stats(log, wf), verdict)


CHECKS = {"e1": check_e1, "e2": check_e2, "e3": check_e3, "e4": check_e4}


def check_experiment(
    name: str,
    robot: Robot,
    written: Sequence[tuple[Simulation, Callable[[TelemetryLog], object]]] = (),
) -> CriterionResult:
    """The acceptance check of the built-in ``name`` on ``robot``.

    ``written`` are the caller's own (simulation, function taking its log)
    jobs.  They run in one pass with the check's runs and before them, so a
    run the caller writes is not made again for the check.
    """
    check = CHECKS[name](robot)
    measures = [None] * len(check.runs)

    def keep(i, log):
        measures[i] = check.measure(log)

    run_each([*written, *((sim, partial(keep, i)) for i, sim in enumerate(check.runs))])
    return check.verdict(measures)
