"""Series-elastic muscle units driven by wire-winding motors.

Each muscle is a motor-wound wire in series with a nonlinear elastic element.
The motor tracks a reference wire length with a velocity-clamped proportional
servo; the elastic element turns the elongation between the geometric muscle
path and the motor-side wire length into tension via an exponential law

    f = exp(k * delta_n)        (f in N, delta_n in mm)

so tension is 1 N at zero elongation, decays toward zero on the slack side and
grows steeply under stretch.  Tensions are clamped to ``f_max``; values below
0.01 N are reported as-is and flagged slack downstream in telemetry.

The per-step functions take and return lists of plain floats, one entry per
muscle; only the exponential goes through numpy, on the whole vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MuscleParams",
    "elongation_from_tension",
    "step_motor",
    "update_tension",
]


@dataclass(frozen=True)
class MuscleParams:
    """Static per-muscle constants, each an array with one entry per muscle.

    k           spring steepness, 1/mm
    f_max       tension clamp, N
    motor_vmax  motor winding speed limit, mm/s
    servo_gain  proportional gain of the length servo, 1/s
    """

    k: np.ndarray
    f_max: np.ndarray
    motor_vmax: np.ndarray
    servo_gain: np.ndarray

    def __post_init__(self):
        # plain-float copies for the step kernel: k_list, f_max_list, ...
        for name in ("k", "f_max", "motor_vmax", "servo_gain"):
            value = np.asarray(getattr(self, name), dtype=float).tolist()
            object.__setattr__(self, f"{name}_list", value)


def elongation_from_tension(f, k):
    """Inverse law: elongation (mm) that produces tension ``f``.

    Defined for f > 0 only; zero or negative tension is a domain error.
    """
    if not np.all(np.greater(f, 0.0)):
        raise ValueError(f"tension must be positive, got {f!r}")
    return np.log(f) / k


def step_motor(l_motor: list[float], effective_ref: list[float], dt: float,
               params: MuscleParams) -> list[float]:
    """Motor-side wire lengths (mm) one step on toward ``effective_ref`` (mm).

    Winding rate is servo_gain * (ref - l_motor) clamped to +-motor_vmax.
    Only geometry changes here; tensions are recomputed from it next step.
    """
    out = []
    for l, ref, gain, vmax in zip(l_motor, effective_ref, params.servo_gain_list,
                                  params.motor_vmax_list):
        rate = gain * (ref - l)
        if rate < -vmax:
            rate = -vmax
        elif rate > vmax:
            rate = vmax
        out.append(l + dt * rate)
    return out


def update_tension(l_motor: list[float], geo_length, params: MuscleParams) -> list[float]:
    """Tensions (N) from the geometric path lengths (mm) and the motor lengths.

    Elongation is geo_length - l_motor.  The engine keeps the previous
    control tick's tensions itself; nothing here is rotated.
    """
    if not all(map(math.isfinite, geo_length)):
        raise ValueError(f"non-finite geometry length: {geo_length!r}")
    x = [k * (g - l) for k, g, l in zip(params.k_list, geo_length, l_motor)]
    return [f if f < f_max else f_max for f, f_max in zip(np.exp(x).tolist(), params.f_max_list)]
