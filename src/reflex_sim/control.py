"""Posture controllers above the reflex layer.

Joint-angle feedback integrates a virtual target angle toward the reference:
theta_virtual += alpha * (theta_ref - theta_measured), evaluated at a slow
fixed rate (5 Hz default).  Commanded muscle reference lengths are always the
length map evaluated at some target posture; reflex offsets and any
co-contraction are subtracted downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .arm import ArmModel, gravity_torques, muscle_lengths_from_joints
from .errors import ConfigError
from .muscles import elongation_from_tension

__all__ = [
    "FeedbackParams",
    "FeedbackState",
    "feedback_update",
    "loaded_hold_refs",
]


@dataclass(frozen=True)
class FeedbackParams:
    theta_ref: np.ndarray  # rad, per joint
    alpha: float = 0.3
    rate_hz: float = 5.0


@dataclass(frozen=True)
class FeedbackState:
    theta_virtual: np.ndarray  # rad

    @staticmethod
    def initial(params: FeedbackParams) -> "FeedbackState":
        return FeedbackState(theta_virtual=np.array(params.theta_ref, dtype=float))


def feedback_update(
    state: FeedbackState, theta_meas: np.ndarray, params: FeedbackParams
) -> FeedbackState:
    """One feedback tick; the engine is responsible for the 1/rate cadence."""
    tv = state.theta_virtual + params.alpha * (params.theta_ref - np.asarray(theta_meas))
    return replace(state, theta_virtual=tv)


def loaded_hold_refs(
    theta_target: np.ndarray,
    model: ArmModel,
    muscle_k,
    payload_mass: float = 0.0,
    pretension_mm: float = 0.0,
) -> np.ndarray:
    """Reference lengths that statically hold a posture against gravity (mm).

    Every muscle is shortened by the pretension; on each joint, the muscle
    whose moment arm opposes the local gravity torque is shortened further so
    the pair's net torque cancels gravity at the target posture.  Assumes one
    joint per muscle, which holds for the default arm.
    """
    theta = np.asarray(theta_target, dtype=float)
    n_m = model.n_muscles
    k = np.broadcast_to(np.asarray(muscle_k, dtype=float), (n_m,))
    tau_g = gravity_torques(theta.tolist(), payload_mass, model)
    f_pre = np.exp(k * pretension_mm)
    extra = np.zeros(n_m)
    for j in range(model.n_joints):
        need = -tau_g[j]  # N*m the muscles must produce
        if need == 0.0:
            continue
        contrib = model.G[j] * need  # positive where more tension helps
        m = int(np.argmax(contrib))
        if contrib[m] <= 0.0:  # a property of the robot file, so reported as one
            raise ConfigError([f"robot: no muscle on joint {j} can hold posture "
                               f"{theta.tolist()} against gravity"])
        f_target = f_pre[m] + abs(need) * 1000.0 / abs(model.G[j, m])
        extra[m] += elongation_from_tension(f_target, k[m]) - pretension_mm
    return muscle_lengths_from_joints(theta, model) - pretension_mm - extra
