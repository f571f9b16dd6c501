"""Acceptance gate: eight go/no-go criteria for the simulator as a whole.

Each criterion prints exactly one line

    [n/8] <name>: PASS|FAIL -- <measured numbers and the pinned bounds>

so `pytest tests/test_acceptance.py -s` reads as a checklist.  The line is
printed before the assertion, so a failing run still shows every measured
number.  All tolerances are pinned here on purpose: a behavior change in the
package cannot silently relax this gate.

Criteria
  1  protective reflex: without it the knocked arm reaches the joint stop on
     at least 3 of 7 impacts; with it, never.
  2  postural drift: the reflex keeps drift at or below half the unprotected
     drift for every swept (contraction, release-time) set.
  3  feedback-assisted convergence: a slow release loses to plain feedback, a
     fast release beats it, and the reflex never worsens peak deviation.
  4  lifting: the reflex spikes tension at least as high, settles at most
     0.8x the no-reflex steady tension, and the gap collapses below 5% once
     joint friction is removed.
  5  reflex oracle: the production controller reproduces a brute-force
     reference event-for-event and offset-for-offset on 1000 seeded random
     tension streams.
  6  closed forms: the elastic law round-trips through its inverse to 1e-9,
     the release offset is exactly linear in time, and the virtual-target
     update follows its geometric closed form to 1e-12.
  7  determinism: rerunning every built-in experiment through the CLI yields
     byte-identical logs and metrics.
  8  invariants: a balanced arm holds its posture to 1e-6 rad for 5 s,
     kinetic energy never increases while coasting against friction alone,
     and stiction holds a sub-threshold load without creep for 1e4 steps.
"""

import time
from dataclasses import replace

import numpy as np

from reflex_sim.acceptance import check_experiment, zero_friction
from reflex_sim.cli import main
from reflex_sim.config import default_robot
from reflex_sim.control import FeedbackParams, FeedbackState, feedback_update
from reflex_sim.muscles import MuscleParams, elongation_from_tension, update_tension
from reflex_sim.reflex import ReflexParams, ReflexState, update as reflex_update
from reflex_sim.scenario import Impulse, ScenarioScript, run
from reflex_sim.arm import effective_inertia

from reflex_reference import replay as reference_replay

WALL_LIMIT_S = 10.0  # per-experiment budget for one full acceptance check


def _report(num: int, name: str, passed: bool, details: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"[{num}/8] {name}: {verdict} -- {details}")
    assert passed, f"criterion {num} failed: {details}"


# ---- criteria 1-4: the four built-in experiments --------------------------


def _experiment_criterion(num: int, exp_name: str) -> None:
    robot = default_robot()
    t0 = time.perf_counter()
    result = check_experiment(exp_name, robot)
    wall = time.perf_counter() - t0
    _report(
        num,
        result.name,
        result.passed and wall < WALL_LIMIT_S,
        f"{result.details}; wall {wall:.1f}s (budget {WALL_LIMIT_S:.0f}s)",
    )


def test_criterion_1_protective_reflex():
    _experiment_criterion(1, "e1")


def test_criterion_2_postural_drift():
    _experiment_criterion(2, "e2")


def test_criterion_3_convergence_ordering():
    _experiment_criterion(3, "e3")


def test_criterion_4_lifting_tensions():
    _experiment_criterion(4, "e4")


# ---- criterion 5: reflex controller vs brute-force reference --------------


def _random_stream(rng: np.random.Generator, n_ticks: int, n_muscles: int) -> np.ndarray:
    """A tension stream with enough sharp rises to exercise every rule."""
    steps = rng.normal(0.0, 9.0, size=(n_ticks, n_muscles))
    spikes = rng.uniform(10.0, 35.0, size=(n_ticks, n_muscles))
    steps += np.where(rng.random((n_ticks, n_muscles)) < 0.12, spikes, 0.0)
    stream = 100.0 + np.cumsum(steps, axis=0)
    return np.maximum(stream, 0.0)


def test_criterion_5_reflex_oracle():
    n_streams, n_ticks, n_muscles = 1000, 40, 4
    groups = ((0, 1), (2, 3))
    tick = 0.01
    total_events = 0
    mismatches = 0

    for seed in range(n_streams):
        rng = np.random.default_rng(seed)
        stream = _random_stream(rng, n_ticks, n_muscles)
        params = ReflexParams(
            c_stretch=15.0,
            dl_stretch=float(rng.uniform(5.0, 20.0)),
            dt_loose=float(rng.choice((0.2, 0.35, 0.5))),
            groups=groups,
        )
        times = [(i + 1) * tick for i in range(n_ticks)]

        state = ReflexState.initial(n_muscles, len(groups))
        got_events: list[tuple[int, float]] = []
        got_offsets = []
        for i, t in enumerate(times):
            prev = stream[i - 1] if i > 0 else stream[0]
            state, offsets, fired = reflex_update(state, prev, stream[i], t, params)
            got_events.extend(fired)
            got_offsets.append(list(offsets))

        want_events, want_offsets = reference_replay(
            times,
            stream.tolist(),
            params.c_stretch,
            params.dl_stretch,
            params.dt_loose,
            [list(g) for g in groups],
        )
        total_events += len(want_events)
        if got_events != want_events or not np.array_equal(
            np.array(got_offsets), np.array(want_offsets)
        ):
            mismatches += 1

    exercised = total_events >= 1000  # the streams must actually trigger
    _report(
        5,
        "reflex oracle equivalence",
        mismatches == 0 and exercised,
        f"{n_streams} seeded streams, {total_events} reference fire events, "
        f"{mismatches} mismatching streams (need 0, and >= 1000 events)",
    )


# ---- criterion 6: closed forms ---------------------------------------------


def test_criterion_6_closed_forms():
    # elastic law round-trip: f -> elongation -> f, relative error <= 1e-9
    worst_rt = 0.0
    for k in (0.3, 0.5, 1.0):
        f = np.logspace(-2, np.log10(390.0), 400)
        # the engine's law: motors at 0, paths at the elongations, no clamp
        unclamped = MuscleParams(k=np.full(400, k), f_max=np.full(400, np.inf),
                                 motor_vmax=np.ones(400), servo_gain=np.ones(400))
        back = np.array(update_tension([0.0] * 400, elongation_from_tension(f, k).tolist(), unclamped))
        worst_rt = max(worst_rt, float(np.max(np.abs(back - f) / f)))

    # release ramp: after one fire the offset is exactly linear in time
    params = ReflexParams(c_stretch=15.0, dl_stretch=12.0, dt_loose=0.4, groups=((0,),))
    state = ReflexState.initial(1, 1)
    tick = 0.01
    t_fire = tick
    state, offsets, fired = reflex_update(state, np.array([100.0]), np.array([140.0]), t_fire, params)
    worst_lin = abs(float(offsets[0]) - params.dl_stretch)  # snaps to dl at the fire tick
    flat = np.array([140.0])
    for i in range(2, 60):
        t = i * tick
        state, offsets, _ = reflex_update(state, flat, flat, t, params)
        expect = (
            params.dl_stretch * (1.0 - (t - t_fire) / params.dt_loose)
            if t < t_fire + params.dt_loose
            else 0.0
        )
        worst_lin = max(worst_lin, abs(float(offsets[0]) - expect))

    # virtual-target update against a perfectly tracking plant converges
    # geometrically: theta_v(n) = ref + (1-alpha)^n (theta_v(0) - ref)
    fb = FeedbackParams(alpha=0.3, rate_hz=5.0, theta_ref=np.array([0.5, -1.0]))
    fb_state = FeedbackState(theta_virtual=np.array([0.0, 0.0]))
    worst_fb = 0.0
    for n in range(1, 41):
        fb_state = feedback_update(fb_state, fb_state.theta_virtual, fb)
        expect = fb.theta_ref + (1.0 - fb.alpha) ** n * (np.array([0.0, 0.0]) - fb.theta_ref)
        worst_fb = max(worst_fb, float(np.max(np.abs(fb_state.theta_virtual - expect))))

    passed = worst_rt <= 1e-9 and worst_lin <= 1e-12 and worst_fb <= 1e-12
    _report(
        6,
        "unit closed forms",
        passed,
        f"elastic round-trip rel err {worst_rt:.1e} (<= 1e-9); "
        f"release-ramp linearity err {worst_lin:.1e} (<= 1e-12); "
        f"virtual-target geometric err {worst_fb:.1e} (<= 1e-12)",
    )


# ---- criterion 7: byte-identical CLI reruns --------------------------------


def test_criterion_7_determinism(tmp_path):
    stable = []
    for name in ("e1", "e2", "e3", "e4"):
        pair = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["run", name, "--out", str(out)]) == 0
            pair.append(
                (out / name / "log.csv").read_bytes()
                + (out / name / "metrics.txt").read_bytes()
            )
        stable.append(pair[0] == pair[1])
    _report(
        7,
        "byte-identical reruns",
        all(stable),
        "log.csv+metrics.txt identical across reruns: "
        + ", ".join(f"e{i + 1}={'yes' if s else 'NO'}" for i, s in enumerate(stable)),
    )


# ---- criterion 8: physics invariants ----------------------------------------


def _massless(robot):
    """The same robot with weightless links: no gravity torque anywhere."""
    links = replace(robot.model.links, mass=np.zeros_like(robot.model.links.mass))
    return replace(robot, model=replace(robot.model, links=links))


def test_criterion_8_physics_invariants():
    robot = default_robot()

    # (a) a gravity-free, symmetrically pretensioned arm parks exactly where
    # it started: net torque is zero, so nothing may move for 5 s
    still = run(
        ScenarioScript(
            name="hold",
            duration=5.0,
            theta0=np.array([0.3, -1.0]),
            pretension_mm=7.4,
        ),
        _massless(robot),
    )
    hold_err = float(np.max(np.abs(still.theta - np.array([0.3, -1.0]))))

    # (b) coasting against damping and friction with slack muscles: kinetic
    # energy must never increase between steps
    coast = run(
        ScenarioScript(
            name="coast",
            duration=2.0,
            theta0=np.array([0.0, -1.2]),
            pretension_mm=-30.0,  # refs longer than the path: tension ~ e^-15 N
            impulses=(
                Impulse(t=0.0, joint=0, delta_omega=2.0),
                Impulse(t=0.0, joint=1, delta_omega=3.0),
            ),
        ),
        _massless(robot),
    )
    inert = np.array(effective_inertia([0.0, 0.0], 0.0, _massless(robot).model))
    ke = 0.5 * np.sum(inert * coast.omega**2, axis=1)
    ke_jump = float(np.max(np.diff(ke)))
    ke_end = float(ke[-1])

    # (c) a sub-threshold gravity load (|tau| << mu_static) must not creep:
    # stiction holds the posture bit-still for 10^4 steps
    held = run(
        ScenarioScript(
            name="stick",
            duration=10.0,
            theta0=np.array([0.05, -0.05]),
            pretension_mm=7.4,
        ),
        robot,
    )
    creep = float(np.max(np.abs(held.theta - np.array([0.05, -0.05]))))
    n_steps = held.theta.shape[0]

    passed = hold_err <= 1e-6 and ke_jump <= 1e-12 and creep <= 1e-12 and n_steps >= 10_000
    _report(
        8,
        "physics invariants",
        passed,
        f"5 s equilibrium error {hold_err:.1e} rad (<= 1e-6); "
        f"max KE increase {ke_jump:.1e} J (<= 1e-12), final KE {ke_end:.1e} J; "
        f"stiction creep {creep:.1e} rad over {n_steps} steps (<= 1e-12)",
    )
