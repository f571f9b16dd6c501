"""Scenario scripts and the single-threaded simulation engine.

A scenario is a declarative script: initial posture, co-contraction
pretension, scripted events (joint-velocity impulses, payload changes, a
piecewise-linear reference trajectory) and which controllers run.  ``run``
executes it tick by tick and returns the telemetry log.  ``run_family`` makes
the runs of one scenario that differ only in their reflex settings, forking
each reflex-on run from the reflex-off run at its first fire, and
``run_each`` makes each distinct simulation of a list once.

Per-step pipeline, in contract order:

  1. tension from the current geometry and motor position;
  2. scripted events whose timestamp has arrived (within one physics step);
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

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, fields, is_dataclass, replace
from struct import Struct
from typing import NamedTuple

import numpy as np

from .arm import apply_impulse, joint_torques, muscle_lengths_from_joints, step_dynamics
from .control import FeedbackParams, FeedbackState, feedback_update
from .errors import SimulationDiverged
from .muscles import step_motor, update_tension
from .reflex import ReflexParams, ReflexState
from .reflex import update as reflex_update
from .robot import Robot
from .telemetry import TelemetryLog

__all__ = [
    "EngineState",
    "Impulse",
    "PayloadSet",
    "RefTrajectory",
    "ScenarioScript",
    "Simulation",
    "run",
    "run_each",
    "run_family",
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
    seed: int | None = None
    time_jitter: float = 0.0  # s, uniform +- shift on impulse times


EVENT_SLACK = 1e-12  # s
CONTROL_RATE_HZ = 100.0  # reflex ticks and tension sampling


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
    next_impulse: int = 0  # scripted impulses applied so far
    next_payload: int = 0  # scripted payload changes applied so far


class Simulation(NamedTuple):
    """What one run takes, in the order ``run`` takes it."""

    scenario: ScenarioScript
    robot: Robot
    reflex: ReflexParams | None
    feedback: FeedbackParams | None


class _Forks:
    """Where reflex-on runs leave a reflex-off run.

    Until a reflex first fires, every muscle is idle and every group free, so
    a reflex with trigger threshold c first fires at the first control tick
    where some tension rose by more than c, and up to that tick its run is
    the off run, bit for bit.  ``at`` maps each threshold that has passed to
    (that step, the state at its start, a copy of the log rows before it).
    """

    def __init__(self, thresholds, stop: bool):
        self.pending = sorted(thresholds)  # the lowest passes first
        self.stop = stop  # end the off run once every threshold has passed
        self.at: dict[float, tuple[int, EngineState, TelemetryLog]] = {}

    def passed(self, s: int, st: EngineState, log: TelemetryLog, rise: float) -> None:
        fork = (s, replace(st), log.head(s))
        while self.pending and rise > self.pending[0]:
            self.at[self.pending.pop(0)] = fork


def _initial_state(sim: Simulation) -> EngineState:
    scenario, model = sim.scenario, sim.robot.model
    m = model.n_muscles
    theta0 = np.asarray(scenario.theta0, dtype=float)
    refs_cmd = (muscle_lengths_from_joints(theta0, model) - scenario.pretension_mm).tolist()
    f0 = update_tension(refs_cmd, muscle_lengths_from_joints(theta0, model).tolist(), sim.robot.muscles)
    return EngineState(
        theta=theta0.tolist(), omega=[0.0] * model.n_joints, payload_mass=scenario.initial_payload,
        l_motor=refs_cmd, f=f0, f_prev=f0, df=[0.0] * m, offsets=[0.0] * m, refs_cmd=refs_cmd,
        reflex=ReflexState.initial(m, len(sim.robot.groups)) if sim.reflex is not None else None,
        feedback=FeedbackState.initial(sim.feedback) if sim.feedback is not None else None,
    )


def _steps(sim: Simulation, st: EngineState, s0: int, log: TelemetryLog,
           forks: _Forks | None = None) -> int:
    """Step ``st`` from step ``s0`` on, filling the log's rows; returns where it stopped.

    That is the end of the run, unless ``forks`` stop it at its last fork.
    """
    scenario, reflex, feedback = sim.scenario, sim.reflex, sim.feedback
    model, muscles = sim.robot.model, sim.robot.muscles
    n, m = model.n_joints, model.n_muscles
    dt = scenario.dt
    n_steps = len(log.t)
    control_every = int(round(1.0 / (CONTROL_RATE_HZ * dt)))
    fb_every = int(round(1.0 / (feedback.rate_hz * dt))) if feedback is not None else 0
    pre = scenario.pretension_mm
    watch = forks is not None and bool(forks.pending)

    impulses = _jittered_impulses(scenario)
    payloads = sorted(scenario.payload_events, key=lambda e: e.t)
    traj = scenario.trajectory
    if traj is not None:
        # np.interp over every active step time at once: the same formula per
        # point as one call per step, evaluated once per run
        times = np.arange(n_steps) * dt
        traj_start = traj.times[0] - EVENT_SLACK
        s_traj = int(np.searchsorted(times, traj_start))
        table = np.asarray(traj.refs)
        traj_cmd = np.empty((n_steps - s_traj, m))
        for j in range(m):
            traj_cmd[:, j] = np.interp(times[s_traj:], traj.times, table[:, j]) - pre

    # each row is packed in place from the lists
    TH, OM, LF = log.theta, log.omega, log.limit_force
    LM, LRC, LRE = log.l_motor, log.l_ref_commanded, log.l_ref_effective
    F, DF, OFF, FIRED = log.f, log.df, log.reflex_offset, log.reflex_fired
    put_n, put_m = Struct(f"{n}d").pack_into, Struct(f"{m}d").pack_into
    scripted = log.scripted_events

    for s in range(s0, n_steps):
        t = s * dt

        # scripted events move neither the joints nor the motors, so the
        # tension comes first and a fork can take the state of the step's start
        f = update_tension(st.l_motor, muscle_lengths_from_joints(st.theta, model).tolist(), muscles)
        if watch and s % control_every == 0:
            rise = max(a - b for a, b in zip(f, st.f_prev))
            if rise > forks.pending[0]:
                forks.passed(s, st, log, rise)
                watch = bool(forks.pending)
                if forks.stop and not watch:
                    return s
        st.f = f

        while st.next_impulse < len(impulses) and impulses[st.next_impulse].t <= t + EVENT_SLACK:
            imp = impulses[st.next_impulse]
            st.omega = apply_impulse(st.omega, imp.joint, imp.delta_omega)
            scripted.append((t, f"impulse joint={imp.joint} domega={imp.delta_omega}"))
            st.next_impulse += 1
        while st.next_payload < len(payloads) and payloads[st.next_payload].t <= t + EVENT_SLACK:
            pay = payloads[st.next_payload]
            st.payload_mass = pay.mass
            scripted.append((t, f"payload mass={pay.mass}"))
            st.next_payload += 1

        if feedback is not None and s % fb_every == 0:
            st.feedback = feedback_update(st.feedback, st.theta, feedback)
            st.refs_cmd = (muscle_lengths_from_joints(st.feedback.theta_virtual, model) - pre).tolist()
        if traj is not None and t >= traj_start:
            st.refs_cmd = traj_cmd[s - s_traj].tolist()

        if s % control_every == 0:
            if reflex is not None:
                st.reflex, st.offsets, fired_now = reflex_update(st.reflex, st.f_prev, st.f, t, reflex)
                for j, _ in fired_now:
                    FIRED[s, j] = 1
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
    return n_steps


def run(
    scenario: ScenarioScript,
    robot: Robot,
    reflex: ReflexParams | None = None,
    feedback: FeedbackParams | None = None,
    *,
    forks: _Forks | None = None,
) -> TelemetryLog:
    """Execute the scenario; returns the telemetry log.

    ``reflex=None`` runs with the reflex layer off (tensions are still
    tick-sampled so the df column stays meaningful).  ``feedback=None`` holds
    the initial posture open loop unless a trajectory takes over.  ``forks``
    is how ``run_family`` watches a reflex-off run.
    """
    sim = Simulation(scenario, robot, reflex, feedback)
    log = TelemetryLog.allocate(step_count(scenario.duration, scenario.dt), scenario.dt,
                                robot.model.n_joints, robot.model.n_muscles)
    end = _steps(sim, _initial_state(sim), 0, log, forks)
    return log.finished(end, robot.muscles.f_max)


def _resumed(sim: Simulation, fork: tuple[int, EngineState, TelemetryLog]) -> TelemetryLog:
    """The reflex-on run ``sim``, made from its fork off the reflex-off run."""
    s, state, head = fork
    log = head.grown(step_count(sim.scenario.duration, sim.scenario.dt))
    st = replace(state, reflex=ReflexState.initial(sim.robot.model.n_muscles, len(sim.robot.groups)))
    return log.finished(_steps(sim, st, s, log), sim.robot.muscles.f_max)


def run_family(
    scenario: ScenarioScript,
    robot: Robot,
    feedback: FeedbackParams | None,
    reflexes: Sequence[ReflexParams | None],
) -> Iterator[TelemetryLog]:
    """Yield the log of each reflex setting (None: reflex off), in order,
    bit for bit as ``run`` makes it.

    The reflex-off run goes first (see ``_Forks``).  A reflex-on run resumes
    from it at its first fire, and is the off run if it never fires; the off
    run stops at the last fork when no setting asks for it.  A divergence is
    raised at the first setting whose own run would raise it.
    """
    reflexes = list(reflexes)
    if len(reflexes) == 1:  # a lone run has no start to share
        yield run(scenario, robot, reflexes[0], feedback)
        return
    forks = _Forks({r.c_stretch for r in reflexes if r is not None}, stop=None not in reflexes)
    try:
        off, failure = run(scenario, robot, None, feedback, forks=forks), None
    except SimulationDiverged as e:
        off, failure = None, e
    is_off = [r is None or r.c_stretch not in forks.at for r in reflexes]
    for i, reflex in enumerate(reflexes):
        if not any(is_off[i:]):
            off = None  # freed before the runs that do not need it
        if not is_off[i]:
            yield _resumed(Simulation(scenario, robot, reflex, feedback), forks.at[reflex.c_stretch])
        elif failure is not None:
            raise failure
        else:
            yield off


def _frozen(obj):
    """A hashable stand-in for ``obj``, equal exactly when the values are equal bit for bit."""
    if is_dataclass(obj):
        return (type(obj).__name__, *(_frozen(getattr(obj, f.name)) for f in fields(obj)))
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, (tuple, list)):
        return tuple(map(_frozen, obj))
    if isinstance(obj, float):
        return obj.hex()
    return obj


def run_each(jobs: Iterable[tuple[Simulation, Callable[[TelemetryLog], object]]]) -> None:
    """Hand each job's function the log of its simulation, making each
    distinct simulation once.

    Simulations are told apart by their values, bit for bit; the seed counts
    only where it draws a time jitter.  Those that differ only in their reflex
    settings make one ``run_family``; families run one after another in the
    order of their first job.  In a family the reflex-off run is handed out
    first, so its log is freed before the reflex-on runs are made, and the
    rest follow in the order of their first job.
    """
    families: dict = {}
    for sim, take in jobs:
        scenario = sim.scenario if sim.scenario.time_jitter > 0.0 else replace(sim.scenario, seed=None)
        family = families.setdefault(_frozen(sim._replace(scenario=scenario, reflex=None)), {})
        family.setdefault(_frozen(sim.reflex), (sim, []))[1].append(take)
    for family in families.values():
        members = sorted(family.values(), key=lambda member: member[0].reflex is not None)
        first = members[0][0]
        logs = run_family(first.scenario, first.robot, first.feedback, [sim.reflex for sim, _ in members])
        for _, takers in members:
            log = next(logs)
            for take in takers:
                take(log)
            del log  # freed before the family makes its next run
