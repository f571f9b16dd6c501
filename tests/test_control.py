from __future__ import annotations

import numpy as np
import pytest

from reflex_sim.arm import ArmModel, JointParams, LinkParams, muscle_lengths_from_joints
from reflex_sim.control import (
    FeedbackParams,
    FeedbackState,
    feedback_update,
)


def _model() -> ArmModel:
    return ArmModel(
        joints=JointParams(
            inertia=np.array([0.05]),
            damping=np.array([0.0]),
            limit_lo=np.array([-3.0]),
            limit_hi=np.array([3.0]),
            limit_stiffness=np.array([500.0]),
            limit_damping=np.array([5.0]),
            mu_static=np.array([0.2]),
            mu_kinetic=np.array([0.2]),
            stiction_band=np.array([0.05]),
        ),
        G=np.array([[20.0]]),
        l0=np.array([250.0]),
        links=LinkParams(mass=np.array([1.0]), length=np.array([0.2]), com=np.array([0.1])),
    )


def test_virtual_angle_starts_at_reference() -> None:
    p = FeedbackParams(alpha=0.3, rate_hz=5.0, theta_ref=np.array([-1.57]))
    s = FeedbackState.initial(p)
    assert np.array_equal(s.theta_virtual, np.array([-1.57]))


def test_single_update_frozen_value() -> None:
    p = FeedbackParams(alpha=0.3, rate_hz=5.0, theta_ref=np.array([-1.57]))
    s = FeedbackState(theta_virtual=np.array([-1.50]))
    s = feedback_update(s, np.array([-1.50]), p)
    # -1.50 + 0.3 * (-1.57 - (-1.50)) = -1.521
    assert s.theta_virtual[0] == pytest.approx(-1.521, abs=1e-12)


def test_hundred_updates_match_closed_form() -> None:
    # with a frozen measurement the recursion is theta_v0 + n*alpha*err
    p = FeedbackParams(alpha=0.3, rate_hz=5.0, theta_ref=np.array([-1.57]))
    s = FeedbackState(theta_virtual=np.array([-1.50]))
    meas = np.array([-1.40])
    for n in range(1, 101):
        s = feedback_update(s, meas, p)
        expected = -1.50 + n * 0.3 * (-1.57 - (-1.40))
        assert s.theta_virtual[0] == pytest.approx(expected, abs=1e-12)


def test_tracking_measurement_converges_geometrically() -> None:
    p = FeedbackParams(alpha=0.3, rate_hz=5.0, theta_ref=np.array([-1.57]))
    s = FeedbackState(theta_virtual=np.array([-1.00]))
    for n in range(1, 51):
        s = feedback_update(s, s.theta_virtual, p)
        expected = -1.57 + (1 - 0.3) ** n * (-1.00 + 1.57)
        assert s.theta_virtual[0] == pytest.approx(expected, rel=1e-9)


def test_update_is_pure() -> None:
    p = FeedbackParams(alpha=0.3, rate_hz=5.0, theta_ref=np.array([0.0]))
    s0 = FeedbackState(theta_virtual=np.array([1.0]))
    feedback_update(s0, np.array([0.5]), p)
    assert s0.theta_virtual[0] == 1.0


def test_virtual_posture_refs_are_the_length_map() -> None:
    # the engine commands the length map at the virtual target posture
    refs = muscle_lengths_from_joints(np.array([-1.57]), _model())
    assert refs[0] == pytest.approx(250.0 + 31.4, rel=1e-12)
