"""Built-in experiment definitions: protocol structure and constants."""

import math

import numpy as np
import pytest

from reflex_sim.config import default_robot
from reflex_sim.arm import muscle_lengths_from_joints
from reflex_sim.control import loaded_hold_refs
from reflex_sim.experiments import builtin_experiments, drop_impulses, e1_experiment, e3_experiment


@pytest.fixture(scope="module")
def robot():
    return default_robot()


@pytest.fixture(scope="module")
def experiments(robot):
    return builtin_experiments(robot)


class TestE1:
    def test_structure(self, experiments):
        e1 = experiments["e1"]
        sc = e1.scenario
        assert sc.theta0[1] == -0.03
        assert len(sc.impulses) == 7
        # protective scenario: every impact pushes toward the extension stop
        assert all(imp.delta_omega > 0 for imp in sc.impulses)
        assert all(imp.joint == 1 for imp in sc.impulses)
        assert e1.feedback is None
        labels = [v.label for v in e1.paper_sweep]
        assert labels[0] == "reflex-off" and len(labels) == 2

    def test_default_reflex_settings(self, experiments, robot):
        e1 = experiments["e1"]
        params = e1.reflex_params(e1.default_variant, robot.groups)
        assert params.c_stretch == 15.0
        assert params.dl_stretch == 10.0
        assert params.dt_loose == 0.5
        assert params.groups == robot.groups
        assert e1.reflex_params(e1.paper_sweep[0], robot.groups) is None


class TestE2:
    def test_seven_same_direction_impacts(self, experiments):
        sc = experiments["e2"].scenario
        assert len(sc.impulses) == 7
        # same-direction hits: the unprotected arm ratchets away from the
        # posture step by step instead of wandering around it
        signs = [math.copysign(1, imp.delta_omega) for imp in sc.impulses]
        assert signs == [1, 1, 1, 1, 1, 1, 1]
        assert sc.theta0[1] == -1.57

    def test_sweep_parameter_sets(self, experiments):
        sweep = experiments["e2"].paper_sweep
        assert len(sweep) == 4
        assert sweep[0].reflex is False
        assert [(v.dl_stretch, v.dt_loose) for v in sweep[1:]] == [
            (10.0, 0.5),
            (10.0, 1.0),
            (20.0, 1.0),
        ]

    def test_drift_windows_bracket_the_impacts(self, experiments):
        e2 = experiments["e2"]
        first = min(imp.t for imp in e2.scenario.impulses)
        last = max(imp.t for imp in e2.scenario.impulses)
        assert e2.analysis.drift_t_before <= first
        assert e2.analysis.drift_t_after >= last + 1.0
        assert e2.analysis.drift_t_after <= e2.scenario.duration


class TestE3:
    def test_payload_and_feedback(self, experiments):
        e3 = experiments["e3"]
        (pay,) = e3.scenario.payload_events
        assert pay.mass == 6.0
        assert e3.feedback.alpha == 0.3
        assert e3.feedback.rate_hz == 5.0
        assert np.array_equal(e3.feedback.theta_ref, e3.scenario.theta0)
        assert e3.analysis.conv_theta_thre == -1.545
        assert e3.analysis.conv_joint == 1

    def test_sweep_release_times(self, experiments):
        sweep = experiments["e3"].paper_sweep
        assert sweep[0].reflex is False
        assert [v.dt_loose for v in sweep[1:]] == [1.0, 3.0, 5.0]
        assert all(v.dl_stretch == 5.0 for v in sweep[1:])

    def test_drop_impulse_matches_capture_formula(self, robot):
        theta = np.array([0.0, -1.57])
        imps = drop_impulses(robot, theta, 3.6, 0.2)
        v = math.sqrt(2 * 9.81 * 0.2)
        # hand-built plant geometry at this posture
        L1, L2 = 0.25, 0.12
        elbow = np.array([L1 * math.sin(0.0), -L1 * math.cos(0.0)])
        tip = elbow + np.array([L2 * math.sin(-1.57), -L2 * math.cos(-1.57)])
        rx_e, ry_e = tip - elbow
        d2_e = rx_e**2 + ry_e**2
        expect_elbow = -rx_e * 3.6 * v / (0.04 + 3.6 * d2_e)
        assert imps[1].delta_omega == pytest.approx(expect_elbow, rel=1e-12)
        rx_s, ry_s = tip
        d2_s = rx_s**2 + ry_s**2
        expect_shoulder = -rx_s * 3.6 * v / (0.12 + 3.6 * d2_s)
        assert imps[0].delta_omega == pytest.approx(expect_shoulder, rel=1e-12)
        # bent-forearm drop knocks the elbow open (positive = extension)
        assert imps[1].delta_omega > 0

    def test_zero_height_drop_is_inert(self, robot):
        imps = drop_impulses(robot, np.array([0.0, -1.57]), 3.6, 0.0)
        assert all(imp.delta_omega == 0.0 for imp in imps)


class TestE4:
    def test_lift_protocol(self, experiments, robot):
        e4 = experiments["e4"]
        sc = e4.scenario
        assert sc.initial_payload == 2.0
        traj = sc.trajectory
        assert traj.times == (1.0, 7.0, 7.4, 7.65)
        start = muscle_lengths_from_joints(sc.theta0, robot.model)
        assert np.allclose(traj.refs[0], start, atol=1e-12)
        # the lift ends on load-bearing references so the loaded arm has
        # static support at the target posture
        end = loaded_hold_refs(
            np.array([0.0, -1.57]),
            robot.model,
            robot.muscles.k,
            payload_mass=2.0,
            pretension_mm=7.4,
        ) + 7.4
        assert np.allclose(traj.refs[3], end, atol=1e-12)
        # the pause holds the knee posture, then the pull-in covers the rest
        assert traj.refs[1] == traj.refs[2]
        knee = np.array(traj.refs[0]) + 0.88 * (end - np.array(traj.refs[0]))
        assert np.allclose(traj.refs[1], knee, atol=1e-12)
        # enough settle time after the pull-in for a steady-tension window
        assert sc.duration >= traj.times[3] + 2.0

    def test_ramp_speed_within_motor_limits(self, experiments, robot):
        traj = experiments["e4"].scenario.trajectory
        for i in range(len(traj.times) - 1):
            span = np.abs(np.array(traj.refs[i + 1]) - np.array(traj.refs[i]))
            rate = span / (traj.times[i + 1] - traj.times[i])
            assert np.all(rate < robot.muscles.motor_vmax)


class TestCatalog:
    def test_names(self, experiments):
        assert sorted(experiments) == ["e1", "e2", "e3", "e4"]

    def test_scenarios_view(self, experiments):
        names = {name: exp.scenario.name for name, exp in experiments.items()}
        assert names == {"e1": "e1", "e2": "e2", "e3": "e3", "e4": "e4"}

    def test_scenario_param_overrides(self, robot):
        assert e1_experiment(robot, impact_domega=2.5).scenario.impulses[0].delta_omega == 2.5
        assert e3_experiment(robot, drop_mass=5.0).scenario.payload_events[0].mass == 5.0
