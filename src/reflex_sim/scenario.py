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

The loop steps one mutable ``EngineState`` of plain Python floats, bit for bit
equal to the array form: np.exp, both G products and np.interp stay numpy calls;
squares are x * x, never x ** 2; sums run left to right; clamps keep numpy's ties.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from struct import Struct

import numpy as np

from .arm import apply_impulse, joint_torques, muscle_lengths_from_joints, step_dynamics
from .control import FeedbackParams, FeedbackState, feedback_update
from .errors import SimulationDiverged
from .muscles import step_motor, update_tension
from .reflex import ReflexParams, ReflexState
from .reflex import update as reflex_update
from .robot import Robot
from .telemetry import SLACK_TENSION, TelemetryLog

__all__ = [
    "EngineState",
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


EVENT_SLACK = 1e-12  # s


def step_count(duration: float, dt: float) -> int:
    return int(round(duration / dt))


def last_event_time(duration: float, dt: float) -> float:
    """Latest event time that applies: events wait for a step t >= t_event - EVENT_SLACK."""
    return (step_count(duration, dt) - 1) * dt + EVENT_SLACK


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


@dataclass(slots=True)
class EngineState:
    """Everything a run changes from step to step; per-joint and per-muscle
    values are lists of plain Python floats.

    Steps replace these lists rather than edit them, so a shallow copy is a snapshot.
    """

    theta: list[float]  # rad
    omega: list[float]  # rad/s
    payload_mass: float  # kg
    l_motor: list[float]  # mm
    f: list[float]  # N, tension at this step
    f_prev: list[float]  # N, tension at the previous control tick
    df: list[float]  # N, tick-sampled difference, held between ticks
    offsets: list[float]  # mm, reflex offsets, held between ticks
    refs_cmd: list[float]  # mm, commanded references after the pretension
    reflex: ReflexState | None
    feedback: FeedbackState | None


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
    model, muscles = robot.model, robot.muscles
    n, m = model.n_joints, model.n_muscles
    dt = scenario.dt
    n_steps = step_count(scenario.duration, dt)
    control_every = int(round(1.0 / (scenario.control_rate_hz * dt)))
    fb_every = int(round(1.0 / (feedback.rate_hz * dt))) if feedback is not None else 0
    pre = scenario.pretension_mm

    theta0 = np.asarray(scenario.theta0, dtype=float)
    refs_cmd = (muscle_lengths_from_joints(theta0, model) - pre).tolist()
    f0 = update_tension(refs_cmd, muscle_lengths_from_joints(theta0, model).tolist(), muscles)
    st = EngineState(
        theta=theta0.tolist(), omega=[0.0] * n, payload_mass=scenario.initial_payload,
        l_motor=refs_cmd, f=f0, f_prev=f0, df=[0.0] * m, offsets=[0.0] * m, refs_cmd=refs_cmd,
        reflex=ReflexState.initial(m, len(robot.groups)) if reflex is not None else None,
        feedback=FeedbackState.initial(feedback) if feedback is not None else None,
    )

    impulses = _jittered_impulses(scenario)
    payloads = sorted(scenario.payload_events, key=lambda e: e.t)
    next_imp = next_pay = 0
    traj = scenario.trajectory
    if traj is not None:
        # np.interp over every active step time at once: the same formula per
        # point as one call per step, evaluated once per run
        times = np.arange(n_steps) * dt
        traj_start = traj.times[0] - EVENT_SLACK
        s0 = int(np.searchsorted(times, traj_start))
        table = np.asarray(traj.refs)
        traj_cmd = np.empty((n_steps - s0, m))
        for j in range(m):
            traj_cmd[:, j] = np.interp(times[s0:], traj.times, table[:, j]) - pre

    # log blocks, preallocated; each row is packed in place from the lists
    TH, OM, LF = (np.empty((n_steps, n)) for _ in range(3))
    LM, LRC, LRE, F, DF, OFF = (np.empty((n_steps, m)) for _ in range(6))
    put_n, put_m = Struct(f"{n}d").pack_into, Struct(f"{m}d").pack_into
    FIRED = np.zeros((n_steps, m), dtype=np.uint8)
    reflex_events: list[tuple[int, float]] = []
    scripted: list[tuple[float, str]] = []

    for s in range(n_steps):
        t = s * dt

        while next_imp < len(impulses) and impulses[next_imp].t <= t + EVENT_SLACK:
            imp = impulses[next_imp]
            st.omega = apply_impulse(st.omega, imp.joint, imp.delta_omega)
            scripted.append((t, f"impulse joint={imp.joint} domega={imp.delta_omega}"))
            next_imp += 1
        while next_pay < len(payloads) and payloads[next_pay].t <= t + EVENT_SLACK:
            pay = payloads[next_pay]
            st.payload_mass = pay.mass
            scripted.append((t, f"payload mass={pay.mass}"))
            next_pay += 1

        st.f = update_tension(
            st.l_motor, muscle_lengths_from_joints(st.theta, model).tolist(), muscles
        )

        if feedback is not None and s % fb_every == 0:
            st.feedback = feedback_update(st.feedback, st.theta, feedback)
            st.refs_cmd = (muscle_lengths_from_joints(st.feedback.theta_virtual, model) - pre).tolist()
        if traj is not None and t >= traj_start:
            st.refs_cmd = traj_cmd[s - s0].tolist()

        if s % control_every == 0:
            if reflex is not None:
                st.reflex, st.offsets, fired_now = reflex_update(st.reflex, st.f_prev, st.f, t, reflex)
                for j, _ in fired_now:
                    FIRED[s, j] = 1
                reflex_events.extend(fired_now)
            st.df = [a - b for a, b in zip(st.f, st.f_prev)]
            st.f_prev = st.f

        refs_eff = [c - o for c, o in zip(st.refs_cmd, st.offsets)]

        tau = joint_torques(st.f, model)
        try:
            theta, omega, limit_force = step_dynamics(
                st.theta, st.omega, st.payload_mass, tau, dt, model
            )
        except SimulationDiverged as e:
            raise SimulationDiverged(str(e), tick=s) from None

        row_n, row_m = 8 * n * s, 8 * m * s  # byte offsets of row s
        put_n(TH, row_n, *st.theta)
        put_n(OM, row_n, *st.omega)
        put_m(LM, row_m, *st.l_motor)
        put_m(LRC, row_m, *st.refs_cmd)
        put_m(LRE, row_m, *refs_eff)
        put_m(F, row_m, *st.f)
        put_m(DF, row_m, *st.df)
        put_m(OFF, row_m, *st.offsets)
        put_n(LF, row_n, *limit_force)

        st.l_motor = step_motor(st.l_motor, refs_eff, dt, muscles)
        st.theta, st.omega = theta, omega

    return TelemetryLog(
        dt=dt,
        t=np.arange(n_steps) * dt,
        theta=TH, omega=OM,
        l_motor=LM, l_ref_commanded=LRC, l_ref_effective=LRE,
        f=F, df=DF, reflex_offset=OFF, reflex_fired=FIRED,
        limit_force=LF,
        saturated=(F >= muscles.f_max).astype(np.uint8),
        slack=(F < SLACK_TENSION).astype(np.uint8),
        reflex_events=reflex_events,
        scripted_events=scripted,
    )
