"""Scenario scripts and the single-threaded simulation engine.

A scenario is a declarative script: initial posture, co-contraction
pretension, scripted events (joint-velocity impulses, payload changes, a
piecewise-linear reference trajectory) and which controllers run.  ``run``
executes it tick by tick and returns the telemetry log.

Per-step pipeline, in contract order:

  1. scripted events whose timestamp has arrived (within one physics step);
  2. tension from the current geometry and motor position;
  3. joint-angle feedback, when its 5 Hz tick is due (before the reflex when
     the ticks coincide);
  4. reference trajectory override, then pretension subtraction;
  5. reflex control tick at 100 Hz: trigger detection on tick-sampled
     tensions, offset ramp, tick-sample rotation;
  6. telemetry row for time t (state, tensions, references, limit forces);
  7. motor servo step and semi-implicit dynamics step to time t + dt.

Everything is deterministic; the only randomness is an optional uniform
jitter on impulse times for custom scenarios, drawn from a seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .arm import ArmState, apply_impulse, joint_torques, muscle_lengths_from_joints, step_dynamics
from .control import FeedbackParams, FeedbackState, feedback_update
from .errors import SimulationDiverged
from .muscles import MuscleUnit, step_motor, update_tension
from .reflex import ReflexParams, ReflexState, effective_ref
from .reflex import update as reflex_update
from .robot import Robot
from .telemetry import SLACK_TENSION, TelemetryLog

__all__ = [
    "Impulse",
    "PayloadSet",
    "RefTrajectory",
    "ScenarioScript",
    "run",
]


@dataclass(frozen=True)
class Impulse:
    """Instantaneous velocity change at a joint (impact)."""

    t: float
    joint: int
    delta_omega: float  # rad/s


@dataclass(frozen=True)
class PayloadSet:
    """Set the end-effector payload mass at time t."""

    t: float
    mass: float  # kg


@dataclass(frozen=True)
class RefTrajectory:
    """Piecewise-linear posture trajectory for the commanded references.

    Waypoints are (time, posture-based reference lengths in mm, one per
    muscle).  Active from the first waypoint time onward; values are held at
    the ends.  While active it overrides posture-hold and feedback output.
    """

    times: tuple[float, ...]
    refs: tuple[tuple[float, ...], ...]

    def eval(self, t: float) -> np.ndarray:
        ts = np.asarray(self.times)
        table = np.asarray(self.refs)
        return np.array([np.interp(t, ts, table[:, j]) for j in range(table.shape[1])])


@dataclass(frozen=True)
class ScenarioScript:
    name: str
    duration: float  # s
    theta0: np.ndarray  # rad
    pretension_mm: float = 0.0  # co-contraction: refs are shortened by this much
    initial_payload: float = 0.0  # kg
    impulses: tuple[Impulse, ...] = ()
    payload_events: tuple[PayloadSet, ...] = ()
    trajectory: RefTrajectory | None = None
    dt: float = 1e-3
    control_rate_hz: float = 100.0
    seed: int | None = None
    time_jitter: float = 0.0  # s, uniform +- shift on impulse times


def _jittered_impulses(scenario: ScenarioScript) -> list[Impulse]:
    imps = list(scenario.impulses)
    if scenario.time_jitter > 0.0:
        rng = np.random.default_rng(0 if scenario.seed is None else scenario.seed)
        shifted = []
        for imp in imps:
            t = imp.t + rng.uniform(-scenario.time_jitter, scenario.time_jitter)
            t = min(max(t, 0.0), scenario.duration - scenario.dt)
            shifted.append(replace(imp, t=t))
        imps = shifted
    return sorted(imps, key=lambda e: e.t)


def run(
    scenario: ScenarioScript,
    robot: Robot,
    reflex: ReflexParams | None = None,
    feedback: FeedbackParams | None = None,
) -> TelemetryLog:
    """Execute the scenario; returns the telemetry log.

    ``reflex=None`` runs with the reflex layer off (tensions are still
    tick-sampled so the df column stays meaningful).  ``feedback=None`` holds
    the initial posture open loop unless a trajectory takes over.
    """
    model = robot.model
    n, m = model.n_joints, model.n_muscles
    dt = scenario.dt
    n_steps = int(round(scenario.duration / dt))
    control_every = int(round(1.0 / (scenario.control_rate_hz * dt)))
    fb_every = int(round(1.0 / (feedback.rate_hz * dt))) if feedback is not None else 0

    theta0 = np.asarray(scenario.theta0, dtype=float)
    state = ArmState(theta=theta0.copy(), omega=np.zeros(n), payload_mass=scenario.initial_payload)
    refs_base = muscle_lengths_from_joints(theta0, model)
    pre = scenario.pretension_mm

    unit = MuscleUnit(
        params=robot.muscles,
        l_motor=refs_base - pre,
        f=np.ones(m),
        f_prev=np.ones(m),
    )
    unit = update_tension(unit, muscle_lengths_from_joints(theta0, model))
    unit = replace(unit, f_prev=unit.f)

    fb_state = FeedbackState.initial(feedback) if feedback is not None else None
    rx_state = ReflexState.initial(m, len(robot.groups)) if reflex is not None else None

    impulses = _jittered_impulses(scenario)
    payloads = sorted(scenario.payload_events, key=lambda e: e.t)
    next_imp = 0
    next_pay = 0

    # preallocated log buffers
    T = np.empty(n_steps)
    TH = np.empty((n_steps, n))
    OM = np.empty((n_steps, n))
    LM = np.empty((n_steps, m))
    LRC = np.empty((n_steps, m))
    LRE = np.empty((n_steps, m))
    F = np.empty((n_steps, m))
    DF = np.empty((n_steps, m))
    OFF = np.empty((n_steps, m))
    FIRED = np.zeros((n_steps, m), dtype=np.uint8)
    LF = np.empty((n_steps, n))
    SAT = np.zeros((n_steps, m), dtype=np.uint8)
    SLK = np.zeros((n_steps, m), dtype=np.uint8)

    reflex_events: list[tuple[int, float]] = []
    scripted: list[tuple[float, str]] = []
    offsets = np.zeros(m)
    df_held = np.zeros(m)
    f_max = robot.muscles.f_max

    for s in range(n_steps):
        t = s * dt

        while next_imp < len(impulses) and impulses[next_imp].t <= t + 1e-12:
            imp = impulses[next_imp]
            state = apply_impulse(state, imp.joint, imp.delta_omega)
            scripted.append((t, f"impulse joint={imp.joint} domega={imp.delta_omega}"))
            next_imp += 1
        while next_pay < len(payloads) and payloads[next_pay].t <= t + 1e-12:
            pay = payloads[next_pay]
            state = replace(state, payload_mass=pay.mass)
            scripted.append((t, f"payload mass={pay.mass}"))
            next_pay += 1

        unit = update_tension(unit, muscle_lengths_from_joints(state.theta, model))

        if fb_state is not None and s % fb_every == 0:
            fb_state = feedback_update(fb_state, state.theta, feedback)
            refs_base = muscle_lengths_from_joints(fb_state.theta_virtual, model)
        if scenario.trajectory is not None and t >= scenario.trajectory.times[0] - 1e-12:
            refs_base = scenario.trajectory.eval(t)

        refs_cmd = refs_base - pre

        if s % control_every == 0:
            if rx_state is not None:
                rx_state, offsets, fired_now = reflex_update(rx_state, unit.f_prev, unit.f, t, reflex)
                for j, tf in fired_now:
                    FIRED[s, j] = 1
                reflex_events.extend(fired_now)
            df_held = unit.f - unit.f_prev
            unit = replace(unit, f_prev=unit.f)

        refs_eff = effective_ref(refs_cmd, offsets)

        tau = joint_torques(unit.f, model)
        try:
            new_state, limit_force = step_dynamics(state, tau, dt, model)
        except SimulationDiverged as e:
            raise SimulationDiverged(str(e), tick=s) from None

        T[s] = t
        TH[s] = state.theta
        OM[s] = state.omega
        LM[s] = unit.l_motor
        LRC[s] = refs_cmd
        LRE[s] = refs_eff
        F[s] = unit.f
        DF[s] = df_held
        OFF[s] = offsets
        LF[s] = limit_force
        SAT[s] = unit.f >= f_max
        SLK[s] = unit.f < SLACK_TENSION

        unit = step_motor(unit, refs_eff, dt)
        state = new_state

    return TelemetryLog(
        dt=dt,
        t=T, theta=TH, omega=OM,
        l_motor=LM, l_ref_commanded=LRC, l_ref_effective=LRE,
        f=F, df=DF, reflex_offset=OFF, reflex_fired=FIRED,
        limit_force=LF, saturated=SAT, slack=SLK,
        reflex_events=reflex_events,
        scripted_events=scripted,
        meta={
            "scenario": scenario.name,
            "reflex": "on" if reflex is not None else "off",
            "feedback": "on" if feedback is not None else "off",
            "pretension_mm": pre,
        },
    )
