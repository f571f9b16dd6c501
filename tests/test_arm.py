from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflex_sim.arm import (
    ArmModel,
    JointParams,
    LinkParams,
    apply_impulse,
    effective_inertia,
    gravity_torques,
    joint_torques,
    limit_torques,
    muscle_lengths_from_joints,
    step_dynamics,
)
from reflex_sim.errors import SimulationDiverged


def _model(
    *,
    mu_static: tuple[float, float] = (2.0, 2.0),
    mu_kinetic: tuple[float, float] = (1.4, 1.4),
    damping: tuple[float, float] = (0.0, 0.0),
    limit_hi: tuple[float, float] = (2.5, 0.0),
) -> ArmModel:
    # two joints, four monoarticular muscles (flexor/extensor per joint)
    G = np.array(
        [
            [-60.0, 60.0, 0.0, 0.0],
            [0.0, 0.0, -50.0, 50.0],
        ]
    )
    return ArmModel(
        joints=JointParams(
            inertia=np.array([0.12, 0.04]),
            damping=np.array(damping),
            limit_lo=np.array([-2.5, -2.4]),
            limit_hi=np.array(limit_hi),
            limit_stiffness=np.array([500.0, 500.0]),
            limit_damping=np.array([5.0, 5.0]),
            mu_static=np.array(mu_static),
            mu_kinetic=np.array(mu_kinetic),
            stiction_band=np.array([0.05, 0.05]),
        ),
        G=G,
        l0=np.array([300.0, 300.0, 250.0, 250.0]),
        links=LinkParams(
            mass=np.array([1.5, 0.8]),
            length=np.array([0.25, 0.12]),
            com=np.array([0.11, 0.054]),
        ),
        gravity_g=9.81,
    )


def _single_joint_model(
    *,
    inertia: float = 0.05,
    mu_static: float = 0.2,
    mu_kinetic: float = 0.2,
    damping: float = 0.0,
    stiction_band: float = 0.05,
    limit: tuple[float, float] = (-100.0, 100.0),
    limit_stiffness: float = 500.0,
) -> ArmModel:
    return ArmModel(
        joints=JointParams(
            inertia=np.array([inertia]),
            damping=np.array([damping]),
            limit_lo=np.array([limit[0]]),
            limit_hi=np.array([limit[1]]),
            limit_stiffness=np.array([limit_stiffness]),
            limit_damping=np.array([5.0]),
            mu_static=np.array([mu_static]),
            mu_kinetic=np.array([mu_kinetic]),
            stiction_band=np.array([stiction_band]),
        ),
        G=np.array([[20.0]]),
        l0=np.array([250.0]),
        links=LinkParams(mass=np.array([1.0]), length=np.array([0.2]), com=np.array([0.1])),
        gravity_g=0.0,
    )


# ---- muscle geometry ----


def test_flexed_posture_lengthens_positive_moment_arm_muscle() -> None:
    m = _single_joint_model()
    l = muscle_lengths_from_joints(np.array([-1.57]), m)
    assert l[0] == pytest.approx(250.0 + 31.4, rel=1e-12)


def test_flexed_posture_shortens_negative_moment_arm_muscle() -> None:
    m = _single_joint_model()
    m = ArmModel(
        joints=m.joints, G=np.array([[-20.0]]), l0=m.l0, links=m.links,
        gravity_g=m.gravity_g,
    )
    l = muscle_lengths_from_joints(np.array([-1.57]), m)
    assert l[0] == pytest.approx(250.0 - 31.4, rel=1e-12)


def test_zero_posture_gives_rest_lengths() -> None:
    m = _model()
    assert np.array_equal(muscle_lengths_from_joints(np.zeros(2), m), m.l0)


@given(
    t1=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=2, max_size=2),
    t2=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=2, max_size=2),
)
@settings(max_examples=200)
def test_length_map_is_linear(t1: list[float], t2: list[float]) -> None:
    m = _model()
    a, b = np.array(t1), np.array(t2)
    lhs = muscle_lengths_from_joints(a, m) - muscle_lengths_from_joints(b, m)
    rhs = -m.G.T @ (a - b)
    assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12)


# ---- torque map ----


def test_tension_torques_joint_toward_muscle_shortening() -> None:
    # G = +20 mm/rad muscle shortens as theta grows; 100 N must pull theta up
    m = _single_joint_model()
    tau = joint_torques([100.0], m)
    assert tau[0] == 2.0


def test_antagonist_pair_with_equal_tension_cancels_exactly() -> None:
    m = _model()
    tau = joint_torques([40.0, 40.0, 55.0, 55.0], m)
    assert tau[0] == 0.0 and tau[1] == 0.0


def test_negative_tension_rejected() -> None:
    with pytest.raises(ValueError):
        joint_torques([10.0, -1.0, 0.0, 0.0], _model())


# ---- gravity ----


def test_gravity_at_right_angle_elbow_frozen_value() -> None:
    # hand-computed: w_elbow = 0.8*0.054 = 0.0432 kg*m, tau = 9.81*0.0432
    m = _model()
    tau = gravity_torques([0.0, -np.pi / 2], 0.0, m)
    assert tau[1] == pytest.approx(0.423792, rel=1e-9)
    assert tau[0] == pytest.approx(0.423792, rel=1e-9)  # same distal term, zero proximal


def test_gravity_with_payload_frozen_value() -> None:
    m = _model()
    tau = gravity_torques([0.0, -np.pi / 2], 2.0, m)
    # w_elbow = 0.0432 + 0.12*2.0 = 0.2832
    assert tau[1] == pytest.approx(9.81 * 0.2832, rel=1e-9)


def test_hanging_straight_down_is_gravity_free() -> None:
    m = _model()
    assert np.allclose(gravity_torques([0.0, 0.0], 5.0, m), 0.0, atol=1e-12)


def _potential_energy(theta: np.ndarray, payload: float, m: ArmModel) -> float:
    # independent oracle: sum of m*g*h from forward kinematics
    phi = np.cumsum(theta)
    y_joint = 0.0
    v = 0.0
    for j in range(len(theta)):
        y_com = y_joint - m.links.com[j] * np.cos(phi[j])
        v += m.links.mass[j] * m.gravity_g * y_com
        y_joint = y_joint - m.links.length[j] * np.cos(phi[j])
    v += payload * m.gravity_g * y_joint
    return float(v)


@given(
    th=st.lists(st.floats(min_value=-2.2, max_value=1.0), min_size=2, max_size=2),
    payload=st.sampled_from([0.0, 3.6, 10.0]),
)
@settings(max_examples=100)
def test_gravity_matches_potential_energy_gradient(th: list[float], payload: float) -> None:
    m = _model()
    theta = np.array(th)
    tau = gravity_torques(th, payload, m)
    eps = 1e-6
    for i in range(2):
        dp = theta.copy()
        dm = theta.copy()
        dp[i] += eps
        dm[i] -= eps
        expected = -(_potential_energy(dp, payload, m) - _potential_energy(dm, payload, m)) / (2 * eps)
        assert tau[i] == pytest.approx(expected, abs=5e-6)


# ---- payload inertia ----


def test_effective_inertia_without_payload_is_base() -> None:
    m = _model()
    assert np.array_equal(effective_inertia([0.3, -1.0], 0.0, m), m.joints.inertia)


def test_effective_inertia_with_payload_straight_arm() -> None:
    m = _model()
    ie = effective_inertia([0.0, 0.0], 2.0, m)
    assert ie[1] == pytest.approx(0.04 + 2.0 * 0.12**2, rel=1e-12)
    assert ie[0] == pytest.approx(0.12 + 2.0 * (0.25 + 0.12) ** 2, rel=1e-12)


# ---- joint limits ----


def test_limit_inactive_inside_range() -> None:
    m = _model()
    tau, force = limit_torques([0.0, -1.0], [0.0, 3.0], m)
    assert tau == [0.0, 0.0] and force == [0.0, 0.0]


def test_limit_resists_penetration() -> None:
    m = _model()
    tau, force = limit_torques([0.0, 0.01], [0.0, 1.0], m)
    assert tau[1] == pytest.approx(-(500.0 * 0.01 + 5.0 * 1.0), rel=1e-12)
    assert force[1] == pytest.approx(10.0, rel=1e-12)


def test_limit_never_pulls_inward() -> None:
    m = _model()
    tau, force = limit_torques([0.0, 0.01], [0.0, -10.0], m)
    assert tau[1] == 0.0 and force[1] == 0.0


def test_lower_limit_never_pulls_inward() -> None:
    # below the lower stop but moving back in fast: the damper term outweighs
    # the spring, and the one-sided limit must give zero, not a pull
    m = _model()
    tau, force = limit_torques([0.0, -2.41], [0.0, 10.0], m)
    assert tau[1] == 0.0 and force[1] == 0.0
    tau, force = limit_torques([0.0, -2.41], [0.0, 0.0], m)
    assert tau[1] == pytest.approx(500.0 * 0.01, rel=1e-9) and force[1] == tau[1]


# ---- dynamics step ----


def test_step_above_static_friction_frozen_value() -> None:
    # I=0.05, net 0.5 N*m against 0.2 N*m friction, 1 ms step
    m = _single_joint_model()
    theta, omega, _ = step_dynamics([0.0], [0.0], 0.0, [0.5], 1e-3, m)
    assert omega[0] == pytest.approx(0.006, rel=1e-12)
    assert theta[0] == pytest.approx(6e-6, rel=1e-12)


def test_sub_static_torque_holds_joint() -> None:
    m = _single_joint_model()
    theta, omega, _ = step_dynamics([0.0], [0.0], 0.0, [0.1], 1e-3, m)
    assert omega[0] == 0.0 and theta[0] == 0.0


def test_stiction_holds_at_exactly_mu_static() -> None:
    # the bound is inclusive: a load of exactly mu_static still holds
    m = _single_joint_model(mu_static=0.25, mu_kinetic=0.2)
    theta, omega, _ = step_dynamics([0.0], [0.0], 0.0, [0.25], 1e-3, m)
    assert omega[0] == 0.0 and theta[0] == 0.0
    theta, omega, _ = step_dynamics([0.0], [0.0], 0.0, [0.2500001], 1e-3, m)
    assert omega[0] > 0.0


def test_stiction_holds_for_ten_thousand_steps() -> None:
    m = _single_joint_model(mu_static=0.3, mu_kinetic=0.2)
    theta, omega = [0.123], [0.0]
    for _ in range(10_000):
        theta, omega, _ = step_dynamics(theta, omega, 0.0, [0.29], 1e-3, m)
    assert theta[0] == 0.123 and omega[0] == 0.0


def test_kinetic_energy_non_increasing_under_friction_only() -> None:
    m = _single_joint_model(mu_kinetic=0.3, mu_static=0.4)
    theta, omega = [0.0], [2.0]
    ke_prev = 0.5 * 0.05 * 4.0
    for _ in range(3000):
        theta, omega, _ = step_dynamics(theta, omega, 0.0, [0.0], 1e-3, m)
        ke = 0.5 * 0.05 * omega[0] ** 2
        assert ke <= ke_prev + 1e-15
        ke_prev = ke
    assert omega[0] == 0.0  # came to rest and stays


def test_friction_never_reverses_velocity_in_one_step() -> None:
    m = _single_joint_model(mu_kinetic=50.0, mu_static=50.0, stiction_band=0.0)
    _, omega, _ = step_dynamics([0.0], [0.001], 0.0, [0.0], 1e-3, m)
    assert omega[0] == 0.0  # stops, does not flip sign


def test_impulse_adds_velocity() -> None:
    omega = [0.0, 0.5]
    after = apply_impulse(omega, joint=1, delta_omega=1.6)
    assert after[1] == 2.1 and after[0] == 0.0
    assert omega[1] == 0.5  # value semantics: original untouched


def test_limit_penetration_bounded_for_hard_impact() -> None:
    m = _single_joint_model(limit=(-2.0, 0.0), mu_kinetic=0.5, mu_static=0.7, inertia=0.04)
    theta, omega = [-0.01], [3.0]
    worst = -np.inf
    for _ in range(2000):
        theta, omega, _ = step_dynamics(theta, omega, 0.0, [0.0], 1e-3, m)
        worst = max(worst, theta[0])
    assert worst <= 0.05


def test_non_finite_torque_is_fatal() -> None:
    m = _single_joint_model()
    with pytest.raises(SimulationDiverged):
        step_dynamics([0.0], [0.0], 0.0, [np.nan], 1e-3, m)
