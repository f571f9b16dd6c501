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

The per-step functions take and return lists of plain floats (one entry per
joint or muscle) and read the model's constants from ``ArmModel.floats``;
only the two matrix products go through numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import accumulate

import numpy as np

from .errors import SimulationDiverged

__all__ = [
    "JointParams",
    "LinkParams",
    "ArmModel",
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


class _Floats:
    """An ArmModel's constants as lists of plain floats, read by the step kernel."""

    def __init__(self, model: "ArmModel"):
        for f in fields(JointParams):  # the same names as JointParams
            setattr(self, f.name, np.asarray(getattr(model.joints, f.name), dtype=float).tolist())
        links, mass = model.links, np.asarray(model.links.mass, dtype=float)
        self.length = np.asarray(links.length, dtype=float).tolist()
        self.mass_com = (mass * links.com).tolist()
        # mass beyond link j, summed from the tip inward
        self.distal = np.concatenate([np.cumsum(mass[::-1])[::-1][1:], [0.0]]).tolist()
        self.torque_map = model.G / 1000.0


@dataclass(frozen=True)
class ArmModel:
    joints: JointParams
    G: np.ndarray  # n_joints x n_muscles, mm/rad, joints -> muscle shortening
    l0: np.ndarray  # muscle path lengths at the zero posture, mm
    links: LinkParams
    gravity_g: float = 9.81

    def __post_init__(self):
        object.__setattr__(self, "floats", _Floats(self))

    @property
    def n_joints(self) -> int:
        return self.G.shape[0]

    @property
    def n_muscles(self) -> int:
        return self.G.shape[1]


def muscle_lengths_from_joints(theta, model: ArmModel) -> np.ndarray:
    """Geometric muscle path lengths (mm) at posture ``theta``: l0 - G^T theta."""
    return model.l0 - model.G.T @ np.asarray(theta, dtype=float)


def joint_torques(f: list[float], model: ArmModel) -> list[float]:
    """Joint torques (N*m) from muscle tensions (N).

    Tension moves each joint in the muscle's shortening direction; with the
    shortening map s = G^T theta that is tau = (G/1000) f.  Tensions are
    forces in a wire and can never be negative.
    """
    if min(f) < 0.0:
        raise ValueError(f"negative muscle tension: {f!r}")
    return (model.floats.torque_map @ np.array(f)).tolist()


def gravity_torques(theta: list[float], payload_mass: float, model: ArmModel) -> list[float]:
    """Gravity torque per joint for the planar chain, payload at the tip.

    tau_i = -g * sum_{j>=i} sin(phi_j) * w_j with w_j collecting the link's
    own com term plus everything hanging distal of link j.
    """
    a = model.floats
    terms = [
        math.sin(phi) * (mc + length * (distal + payload_mass))
        for phi, mc, length, distal in zip(accumulate(theta), a.mass_com, a.length, a.distal)
    ]
    g = -model.gravity_g
    return [g * v for v in reversed(list(accumulate(reversed(terms))))]


def effective_inertia(theta: list[float], payload_mass: float, model: ArmModel) -> list[float]:
    """Base joint inertia plus the payload as a point mass at the tip."""
    a = model.floats
    if payload_mass == 0.0:
        return a.inertia
    segments = list(zip(accumulate(theta), a.length))
    xs = [0.0, *accumulate(length * math.sin(p) for p, length in segments)]  # joint 0 .. tip
    ys = [0.0, *accumulate(-length * math.cos(p) for p, length in segments)]
    tx, ty = xs[-1], ys[-1]
    return [
        inertia + payload_mass * ((tx - x) * (tx - x) + (ty - y) * (ty - y))
        for inertia, x, y in zip(a.inertia, xs, ys)
    ]


def limit_torques(
    theta: list[float], omega: list[float], model: ArmModel
) -> tuple[list[float], list[float]]:
    """One-sided spring-damper limit torque and its logged magnitude per joint."""
    a = model.floats
    tau, force = [], []
    for th, om, lo, hi, k, c in zip(
        theta, omega, a.limit_lo, a.limit_hi, a.limit_stiffness, a.limit_damping
    ):
        hi_push = lo_push = 0.0
        if th > hi:
            push = k * (th - hi) + c * om
            hi_push = 0.0 if 0.0 > push else push
        if th < lo:
            push = k * (lo - th) - c * om
            lo_push = 0.0 if 0.0 > push else push
        tau.append(lo_push - hi_push)
        force.append(lo_push + hi_push)
    return tau, force


def step_dynamics(
    theta: list[float],
    omega: list[float],
    payload_mass: float,
    tau_muscle: list[float],
    dt: float,
    model: ArmModel,
) -> tuple[list[float], list[float], list[float]]:
    """One semi-implicit Euler step; returns (theta, omega, limit-force magnitudes)."""
    if not all(map(math.isfinite, tau_muscle)):
        raise SimulationDiverged(f"non-finite applied torque: muscle={tau_muscle!r}")
    a = model.floats
    tau_limit, limit_force = limit_torques(theta, omega, model)
    tau_gravity = gravity_torques(theta, payload_mass, model)
    inertia = effective_inertia(theta, payload_mass, model)
    new_theta, new_omega = [], []
    for i, (th, om) in enumerate(zip(theta, omega)):
        tau_nf = tau_muscle[i] + tau_gravity[i] + tau_limit[i] - a.damping[i] * om
        h = dt / inertia[i]
        om = om + h * tau_nf
        # Coulomb friction as a capped impulse: may stop the joint, never reverse it
        cap, speed = h * a.mu_kinetic[i], abs(om)
        fric_dv = cap if cap < speed else speed
        if om > 0.0:
            om = om - fric_dv
        elif om < 0.0:
            om = om + fric_dv
        if abs(om) < a.stiction_band[i] and abs(tau_nf) <= a.mu_static[i]:
            om = 0.0
        new_omega.append(om)
        new_theta.append(th + dt * om)
    if not (all(map(math.isfinite, new_theta)) and all(map(math.isfinite, new_omega))):
        raise SimulationDiverged(f"integrator produced non-finite state: theta={new_theta!r}")
    return new_theta, new_omega, limit_force


def apply_impulse(omega: list[float], joint: int, delta_omega: float) -> list[float]:
    """Instantaneous velocity change at one joint (impact model); returns new velocities."""
    omega = list(omega)
    omega[joint] += delta_omega
    return omega
