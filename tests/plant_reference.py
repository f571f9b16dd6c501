"""Array-form reference for the whole simulation engine.

The production engine (``reflex_sim.scenario.run``) steps the plant over
plain Python floats.  This module keeps the earlier formulation: frozen
state records rebuilt every step and numpy calls on 2- and 4-element
arrays, one function per physical term.  It is slow and independent on
purpose, and is used as the oracle for the bit-for-bit engine equivalence
check (``tests/test_engine_oracle.py``).  Only the scenario, robot and
controller parameter records, the control rate, the feedback update and the
log container are shared with the package.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from reflex_sim.control import FeedbackParams, FeedbackState, feedback_update
from reflex_sim.errors import SimulationDiverged
from reflex_sim.reflex import ReflexParams
from reflex_sim.robot import Robot
from reflex_sim.scenario import CONTROL_RATE_HZ, Impulse, ScenarioScript
from reflex_sim.telemetry import SLACK_TENSION, TelemetryLog


# ---- plant ----


@dataclass(frozen=True)
class ArmState:
    theta: np.ndarray  # rad
    omega: np.ndarray  # rad/s
    payload_mass: float = 0.0  # kg, point mass at the tip of the last link


def muscle_lengths_from_joints(theta, model) -> np.ndarray:
    return model.l0 - model.G.T @ np.asarray(theta, dtype=float)


def joint_torques(f, model) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if np.any(f < 0.0):
        raise ValueError(f"negative muscle tension: {f!r}")
    return (model.G / 1000.0) @ f


def gravity_torques(state: ArmState, model) -> np.ndarray:
    mass, length, com = model.links.mass, model.links.length, model.links.com
    phi = np.cumsum(state.theta)
    distal = np.concatenate([np.cumsum(mass[::-1])[::-1][1:], [0.0]])
    w = mass * com + length * (distal + state.payload_mass)
    terms = np.sin(phi) * w
    return -model.gravity_g * np.cumsum(terms[::-1])[::-1]


def effective_inertia(state: ArmState, model) -> np.ndarray:
    if state.payload_mass == 0.0:
        return model.joints.inertia
    phi = np.cumsum(state.theta)
    steps = np.stack([model.links.length * np.sin(phi), -model.links.length * np.cos(phi)], axis=1)
    pos = np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
    tip = pos[-1]
    d2 = np.sum((tip - pos[:-1]) ** 2, axis=1)
    return model.joints.inertia + state.payload_mass * d2


def limit_torques(state: ArmState, model) -> tuple[np.ndarray, np.ndarray]:
    j = model.joints
    th, om = state.theta, state.omega
    over = th > j.limit_hi
    under = th < j.limit_lo
    with np.errstate(invalid="ignore"):  # inf * 0 on an infinite limit, discarded by where
        hi_push = np.where(
            over, np.maximum(0.0, j.limit_stiffness * (th - j.limit_hi) + j.limit_damping * om), 0.0
        )
        lo_push = np.where(
            under, np.maximum(0.0, j.limit_stiffness * (j.limit_lo - th) - j.limit_damping * om), 0.0
        )
    return lo_push - hi_push, lo_push + hi_push


def step_dynamics(state: ArmState, tau_muscle, dt: float, model) -> tuple[ArmState, np.ndarray]:
    if not np.all(np.isfinite(tau_muscle)):
        raise SimulationDiverged(f"non-finite applied torque: muscle={tau_muscle!r}")
    j = model.joints
    tau_limit, limit_force = limit_torques(state, model)
    tau_nf = (
        np.asarray(tau_muscle, dtype=float)
        + gravity_torques(state, model)
        + tau_limit
        - j.damping * state.omega
    )
    inertia = effective_inertia(state, model)
    omega = state.omega + (dt / inertia) * tau_nf
    fric_dv = np.minimum((dt / inertia) * j.mu_kinetic, np.abs(omega))
    omega = omega - np.sign(omega) * fric_dv
    hold = (np.abs(omega) < j.stiction_band) & (np.abs(tau_nf) <= j.mu_static)
    omega = np.where(hold, 0.0, omega)
    theta = state.theta + dt * omega
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(omega))):
        raise SimulationDiverged(f"integrator produced non-finite state: theta={theta!r}")
    return replace(state, theta=theta, omega=omega), limit_force


def apply_impulse(state: ArmState, joint: int, delta_omega: float) -> ArmState:
    omega = state.omega.copy()
    omega[joint] += delta_omega
    return replace(state, omega=omega)


# ---- muscles ----


@dataclass(frozen=True)
class MuscleUnit:
    l_motor: np.ndarray  # mm
    f: np.ndarray  # N
    f_prev: np.ndarray  # N, at the previous control tick


def update_tension(unit: MuscleUnit, geo_length, muscles) -> MuscleUnit:
    if not np.all(np.isfinite(geo_length)):
        raise ValueError(f"non-finite geometry length: {geo_length!r}")
    f = np.minimum(np.exp(np.multiply(muscles.k, np.subtract(geo_length, unit.l_motor))), muscles.f_max)
    return replace(unit, f=f)


def step_motor(unit: MuscleUnit, effective_ref, dt: float, muscles) -> MuscleUnit:
    rate = np.clip(
        np.multiply(muscles.servo_gain, np.subtract(effective_ref, unit.l_motor)),
        np.negative(muscles.motor_vmax),
        muscles.motor_vmax,
    )
    return replace(unit, l_motor=unit.l_motor + dt * rate)


# ---- reflex ----


@dataclass(frozen=True)
class ReflexState:
    fired_at: np.ndarray
    group_until: np.ndarray
    last_t: float

    @staticmethod
    def initial(n_muscles: int, n_groups: int) -> "ReflexState":
        return ReflexState(np.full(n_muscles, -np.inf), np.full(n_groups, -np.inf), -np.inf)


def reflex_update(state: ReflexState, tensions_prev, tensions_now, t: float, params: ReflexParams):
    if not t > state.last_t:
        raise ValueError(f"control ticks must advance: t={t} after last_t={state.last_t}")
    n_m = len(tensions_now)
    fired_at = state.fired_at.copy()
    group_until = state.group_until.copy()
    group_of = np.zeros(n_m, dtype=int)
    for gi, members in enumerate(params.groups):
        for m in members:
            group_of[m] = gi

    fired_at[t >= fired_at + params.dt_loose] = -np.inf
    idle = np.isneginf(fired_at)
    group_free = t >= group_until
    delta = np.asarray(tensions_now, dtype=float) - np.asarray(tensions_prev, dtype=float)
    fires = idle & group_free[group_of] & (delta > params.c_stretch)

    events: list[tuple[int, float]] = []
    if np.any(fires):
        fired_at[fires] = t
        for m in np.flatnonzero(fires):
            g = group_of[m]
            group_until[g] = max(group_until[g], t + params.dt_loose)
            events.append((int(m), t))

    active = ~np.isneginf(fired_at)
    offsets = np.where(
        active,
        params.dl_stretch * (1.0 - (t - np.where(active, fired_at, t)) / params.dt_loose),
        0.0,
    )
    offsets = np.maximum(offsets, 0.0)
    return ReflexState(fired_at, group_until, t), offsets, events


# ---- engine ----


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


def _traj_eval(traj, t: float) -> np.ndarray:
    ts = np.asarray(traj.times)
    table = np.asarray(traj.refs)
    return np.array([np.interp(t, ts, table[:, j]) for j in range(table.shape[1])])


def run(
    scenario: ScenarioScript,
    robot: Robot,
    reflex: ReflexParams | None = None,
    feedback: FeedbackParams | None = None,
) -> tuple[TelemetryLog, list[tuple[int, float]]]:
    """The array-form engine loop; same contract as ``reflex_sim.scenario.run``.

    Returns the log and the (muscle, time) of each reflex fire, listed as the
    reflex reports them, apart from the log's ``reflex_fired`` column.
    """
    model = robot.model
    muscles = robot.muscles
    n, m = model.n_joints, model.n_muscles
    dt = scenario.dt
    n_steps = int(round(scenario.duration / dt))
    control_every = int(round(1.0 / (CONTROL_RATE_HZ * dt)))
    fb_every = int(round(1.0 / (feedback.rate_hz * dt))) if feedback is not None else 0

    theta0 = np.asarray(scenario.theta0, dtype=float)
    state = ArmState(theta=theta0.copy(), omega=np.zeros(n), payload_mass=scenario.initial_payload)
    refs_base = muscle_lengths_from_joints(theta0, model)
    pre = scenario.pretension_mm

    unit = MuscleUnit(l_motor=refs_base - pre, f=np.ones(m), f_prev=np.ones(m))
    unit = update_tension(unit, muscle_lengths_from_joints(theta0, model), muscles)
    unit = replace(unit, f_prev=unit.f)

    fb_state = FeedbackState.initial(feedback) if feedback is not None else None
    rx_state = ReflexState.initial(m, len(robot.groups)) if reflex is not None else None

    impulses = _jittered_impulses(scenario)
    payloads = sorted(scenario.payload_events, key=lambda e: e.t)
    next_imp = 0
    next_pay = 0

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

        unit = update_tension(unit, muscle_lengths_from_joints(state.theta, model), muscles)

        if fb_state is not None and s % fb_every == 0:
            fb_state = feedback_update(fb_state, state.theta, feedback)
            refs_base = muscle_lengths_from_joints(fb_state.theta_virtual, model)
        if scenario.trajectory is not None and t >= scenario.trajectory.times[0] - 1e-12:
            refs_base = _traj_eval(scenario.trajectory, t)

        refs_cmd = refs_base - pre

        if s % control_every == 0:
            if rx_state is not None:
                rx_state, offsets, fired_now = reflex_update(rx_state, unit.f_prev, unit.f, t, reflex)
                for j, _ in fired_now:
                    FIRED[s, j] = 1
                reflex_events.extend(fired_now)
            df_held = unit.f - unit.f_prev
            unit = replace(unit, f_prev=unit.f)

        refs_eff = np.subtract(refs_cmd, offsets)

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
        SAT[s] = unit.f >= muscles.f_max
        SLK[s] = unit.f < SLACK_TENSION

        unit = step_motor(unit, refs_eff, dt, muscles)
        state = new_state

    log = TelemetryLog(
        dt=dt,
        t=T, theta=TH, omega=OM,
        l_motor=LM, l_ref_commanded=LRC, l_ref_effective=LRE,
        f=F, df=DF, reflex_offset=OFF, reflex_fired=FIRED,
        limit_force=LF, saturated=SAT, slack=SLK,
        scripted_events=scripted,
    )
    return log, reflex_events
