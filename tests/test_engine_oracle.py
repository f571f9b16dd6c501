"""The plain-float engine against the array-form reference, bit for bit.

Every ``TelemetryLog`` field must have the same bytes, the scripted events
must be equal, and the reflex events read from the engine's ``reflex_fired``
column must equal the reference's own list of fires; there is no tolerance.
A mismatch is a bug in one of the two engines.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

import plant_reference
from reflex_sim import arm
from reflex_sim.arm import ArmModel, JointParams, LinkParams, muscle_lengths_from_joints
from reflex_sim.config import default_robot
from reflex_sim.control import FeedbackParams
from reflex_sim.experiments import EXPERIMENT_NAMES, builtin_experiments
from reflex_sim.muscles import MuscleParams
from reflex_sim.reflex import ReflexParams
from reflex_sim.robot import Robot
from reflex_sim.scenario import Impulse, PayloadSet, RefTrajectory, ScenarioScript, run
from reflex_sim.telemetry import TelemetryLog


def _assert_same_bits(robot, scenario, reflex, feedback) -> TelemetryLog:
    got = run(scenario, robot, reflex, feedback)
    want, want_fires = plant_reference.run(scenario, robot, reflex, feedback)
    for f in fields(TelemetryLog):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name
    assert got.reflex_events == want_fires
    return got


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_builtin_default_variant_first_seconds(name):
    # 1.5 s covers the first impulses, the e3 payload drop, the feedback
    # ticks, the start of the e4 lift and the first reflex fire
    robot = default_robot()
    exp = builtin_experiments(robot)[name]
    scenario = replace(exp.scenario, duration=1.5)
    log = _assert_same_bits(robot, scenario, exp.reflex_params(exp.default_variant, robot.groups),
                            exp.feedback)
    assert log.reflex_events or name == "e4"


def _three_joint_robot() -> Robot:
    # muscle 6 spans joints 1 and 2, so G^T theta sums two products
    G = np.array([
        [-40.0, 40.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, -30.0, 30.0, 0.0, 0.0, 25.0],
        [0.0, 0.0, 0.0, 0.0, -20.0, 20.0, -15.0],
    ])
    model = ArmModel(
        joints=JointParams(
            inertia=np.array([0.15, 0.05, 0.02]),
            damping=np.array([0.3, 0.15, 0.1]),
            limit_lo=np.array([-2.5, -2.4, -1.0]),
            limit_hi=np.array([2.5, 0.0, 0.05]),
            limit_stiffness=np.array([500.0, 500.0, 400.0]),
            limit_damping=np.array([5.0, 5.0, 4.0]),
            mu_static=np.array([0.12, 0.08, 0.05]),
            mu_kinetic=np.array([0.08, 0.05, 0.03]),
            stiction_band=np.array([0.05, 0.05, 0.05]),
        ),
        G=G,
        l0=np.array([300.0, 300.0, 250.0, 250.0, 150.0, 150.0, 260.0]),
        links=LinkParams(
            mass=np.array([1.5, 0.8, 0.3]),
            length=np.array([0.25, 0.2, 0.08]),
            com=np.array([0.11, 0.09, 0.04]),
        ),
    )
    return Robot(
        model=model,
        muscles=MuscleParams(
            k=np.array([0.5, 0.5, 0.45, 0.45, 0.6, 0.6, 0.4]),
            f_max=np.full(7, 300.0),
            motor_vmax=np.full(7, 200.0),
            servo_gain=np.full(7, 20.0),
        ),
        joint_names=("shoulder", "elbow", "wrist"),
        muscle_names=tuple(f"m{i}" for i in range(7)),
        groups=((0, 1), (2, 3, 6), (4, 5)),
    )


def test_three_joint_robot_with_a_biarticular_muscle():
    robot = _three_joint_robot()
    theta0 = np.array([0.2, -1.2, 0.0])
    hold = muscle_lengths_from_joints(theta0, robot.model)
    target = hold + np.array([-3.0, 3.0, 2.0, -2.0, 0.0, 0.0, 1.0])
    scenario = ScenarioScript(
        name="three",
        duration=0.3,
        theta0=theta0,
        pretension_mm=6.0,
        impulses=(Impulse(t=0.02, joint=2, delta_omega=5.0), Impulse(t=0.05, joint=1, delta_omega=-4.0)),
        payload_events=(PayloadSet(t=0.1, mass=1.5),),
        trajectory=RefTrajectory(times=(0.15, 0.25), refs=(tuple(hold), tuple(target))),
    )
    log = _assert_same_bits(
        robot, scenario,
        ReflexParams(dl_stretch=8.0, dt_loose=0.2, groups=robot.groups),
        FeedbackParams(theta_ref=theta0, rate_hz=50.0),
    )
    # the script reached every path: events, a fire, the wrist stop
    assert len(log.scripted_events) == 3
    assert log.reflex_events
    assert np.any(log.limit_force[:, 2] > 0.0)


def test_plant_terms_match_reference_on_random_states():
    # many more states than a run visits: rare rounding differences (x ** 2
    # against x * x, libm against numpy) show here, about once per 1000 states
    robot = _three_joint_robot()
    model = robot.model
    rng = np.random.default_rng(23)
    for i in range(6000):
        theta = rng.uniform(-3.0, 3.0, 3)
        payload = 0.0 if i % 4 == 0 else float(rng.uniform(0.0, 5.0))
        state = plant_reference.ArmState(theta, np.zeros(3), payload)
        for term in ("gravity_torques", "effective_inertia"):
            got = getattr(arm, term)(theta.tolist(), payload, model)
            assert np.array(got).tobytes() == getattr(plant_reference, term)(state, model).tobytes()
        if i % 3:
            continue
        # a whole step, with joints at rest, slow, or fast enough to pass the stops
        omega = rng.uniform(-0.2, 0.2, 3) * 10.0 ** rng.integers(-2, 2, 3) * rng.integers(0, 2, 3)
        tau = plant_reference.joint_torques(rng.uniform(0.0, 300.0, 7), model)
        want, want_force = plant_reference.step_dynamics(
            replace(state, omega=omega), tau, 1e-3, model)
        got = arm.step_dynamics(theta.tolist(), omega.tolist(), payload, tau.tolist(), 1e-3, model)
        assert np.array(got[0]).tobytes() == want.theta.tobytes()
        assert np.array(got[1]).tobytes() == want.omega.tobytes()
        assert np.array(got[2]).tobytes() == want_force.tobytes()
