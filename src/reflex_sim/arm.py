"""Rigid-arm plant: muscle geometry, gravity, joint limits, friction, integration.

The arm is a planar serial chain of pitch joints.  Muscle routing is linear
with constant moment arms: the matrix G (n_joints x n_muscles, mm/rad) maps
joint angles to muscle shortening, so path lengths are l = l0 - G^T theta and
tension f torques each joint toward the posture that shortens the muscle,
tau = (G/1000) f in N*m.

Friction is lumped at the joints as Coulomb friction with stiction: inside a
small velocity band a joint whose non-friction torque stays within mu_static
holds still; otherwise kinetic friction opposes motion.  The friction impulse
within one step can stop the joint but never reverse it.  Joint limits are
one-sided spring-dampers that only ever push back toward the range.

Integration is semi-implicit Euler at a fixed step (1 ms by default in the
engine): velocity first from the torque sum, then position from the new
velocity.  Non-finite state aborts the run rather than propagating.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SimulationDiverged

__all__ = [
    "JointParams",
    "LinkParams",
    "ArmModel",
    "ArmState",
    "muscle_lengths_from_joints",
    "joint_torques",
    "gravity_torques",
    "effective_inertia",
    "limit_torques",
    "step_dynamics",
    "apply_impulse",
]


@dataclass(frozen=True)
class JointParams:
    """Per-joint constants, each an array of length n_joints.

    inertia          base rotational inertia about the joint, kg*m^2
    damping          viscous coefficient, N*m*s/rad
    limit_lo/hi      hard range, rad
    limit_stiffness  one-sided limit spring, N*m/rad
    limit_damping    one-sided limit damper, N*m*s/rad
    mu_static        stiction torque bound, N*m (>= mu_kinetic)
    mu_kinetic       Coulomb torque while moving, N*m
    stiction_band    |omega| below which stiction may latch, rad/s
    """

    inertia: np.ndarray
    damping: np.ndarray
    limit_lo: np.ndarray
    limit_hi: np.ndarray
    limit_stiffness: np.ndarray
    limit_damping: np.ndarray
    mu_static: np.ndarray
    mu_kinetic: np.ndarray
    stiction_band: np.ndarray


@dataclass(frozen=True)
class LinkParams:
    """One link per joint: mass (kg), length (m), com offset from the joint (m)."""

    mass: np.ndarray
    length: np.ndarray
    com: np.ndarray


@dataclass(frozen=True)
class ArmModel:
    joints: JointParams
    G: np.ndarray  # n_joints x n_muscles, mm/rad, joints -> muscle shortening
    l0: np.ndarray  # muscle path lengths at the zero posture, mm
    links: LinkParams
    gravity_g: float = 9.81
    gravity_enabled: bool = True

    @property
    def n_joints(self) -> int:
        return self.G.shape[0]

    @property
    def n_muscles(self) -> int:
        return self.G.shape[1]


@dataclass(frozen=True)
class ArmState:
    theta: np.ndarray  # rad
    omega: np.ndarray  # rad/s
    payload_mass: float = 0.0  # kg, point mass at the tip of the last link

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))


def muscle_lengths_from_joints(theta: np.ndarray, model: ArmModel) -> np.ndarray:
    """Geometric muscle path lengths (mm) at posture ``theta``: l0 - G^T theta."""
    return model.l0 - model.G.T @ np.asarray(theta, dtype=float)


def joint_torques(f: np.ndarray, model: ArmModel) -> np.ndarray:
    """Joint torques (N*m) from muscle tensions (N).

    Tension moves each joint in the muscle's shortening direction; with the
    shortening map s = G^T theta that is tau = (G/1000) f.  Tensions are
    forces in a wire and can never be negative.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f < 0.0):
        raise ValueError(f"negative muscle tension: {f!r}")
    return (model.G / 1000.0) @ f


def _abs_angles(theta: np.ndarray) -> np.ndarray:
    return np.cumsum(theta)


def gravity_torques(state: ArmState, model: ArmModel) -> np.ndarray:
    """Gravity torque per joint for the planar chain, payload at the tip.

    tau_i = -g * sum_{j>=i} sin(phi_j) * w_j with w_j collecting the link's
    own com term plus everything hanging distal of link j.
    """
    n = model.n_joints
    if not model.gravity_enabled:
        return np.zeros(n)
    mass, length, com = model.links.mass, model.links.length, model.links.com
    phi = _abs_angles(state.theta)
    distal = np.concatenate([np.cumsum(mass[::-1])[::-1][1:], [0.0]])  # mass beyond link j
    w = mass * com + length * (distal + state.payload_mass)
    terms = np.sin(phi) * w
    return -model.gravity_g * np.cumsum(terms[::-1])[::-1]


def effective_inertia(state: ArmState, model: ArmModel) -> np.ndarray:
    """Base joint inertia plus the payload as a point mass at the tip."""
    if state.payload_mass == 0.0:
        return model.joints.inertia
    phi = _abs_angles(state.theta)
    steps = np.stack([model.links.length * np.sin(phi), -model.links.length * np.cos(phi)], axis=1)
    pos = np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)])  # joint 0 .. tip
    tip = pos[-1]
    d2 = np.sum((tip - pos[:-1]) ** 2, axis=1)
    return model.joints.inertia + state.payload_mass * d2


def limit_torques(state: ArmState, model: ArmModel) -> tuple[np.ndarray, np.ndarray]:
    """One-sided spring-damper limit torque and its logged magnitude per joint."""
    j = model.joints
    th, om = state.theta, state.omega
    over = th > j.limit_hi
    under = th < j.limit_lo
    hi_push = np.where(
        over, np.maximum(0.0, j.limit_stiffness * (th - j.limit_hi) + j.limit_damping * om), 0.0
    )
    lo_push = np.where(
        under, np.maximum(0.0, j.limit_stiffness * (j.limit_lo - th) - j.limit_damping * om), 0.0
    )
    tau = lo_push - hi_push
    return tau, lo_push + hi_push


def step_dynamics(
    state: ArmState,
    tau_muscle: np.ndarray,
    dt: float,
    model: ArmModel,
) -> tuple[ArmState, np.ndarray]:
    """One semi-implicit Euler step; returns (new state, limit-force magnitudes)."""
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
    # Coulomb friction as a capped impulse: may stop the joint, never reverse it
    fric_dv = np.minimum((dt / inertia) * j.mu_kinetic, np.abs(omega))
    omega = omega - np.sign(omega) * fric_dv
    hold = (np.abs(omega) < j.stiction_band) & (np.abs(tau_nf) <= j.mu_static)
    omega = np.where(hold, 0.0, omega)
    theta = state.theta + dt * omega

    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(omega))):
        raise SimulationDiverged(f"integrator produced non-finite state: theta={theta!r}")
    return replace(state, theta=theta, omega=omega), limit_force


def apply_impulse(state: ArmState, joint: int, delta_omega: float) -> ArmState:
    """Instantaneous velocity change at one joint (impact model)."""
    omega = state.omega.copy()
    omega[joint] += delta_omega
    return replace(state, omega=omega)
