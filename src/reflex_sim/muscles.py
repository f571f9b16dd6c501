"""Series-elastic muscle units driven by wire-winding motors.

Each muscle is a motor-wound wire in series with a nonlinear elastic element.
The motor tracks a reference wire length with a velocity-clamped proportional
servo; the elastic element turns the elongation between the geometric muscle
path and the motor-side wire length into tension via an exponential law

    f = exp(k * delta_n)        (f in N, delta_n in mm)

so tension is 1 N at zero elongation, decays toward zero on the slack side and
grows steeply under stretch.  Tensions are clamped to ``f_max``; values below
0.01 N are reported as-is and flagged slack downstream in telemetry.

All state transitions are pure: they return new instances.  Fields accept
either scalars (one muscle) or equal-shaped numpy arrays (a batch of muscles),
since every operation is elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "MuscleParams",
    "MuscleUnit",
    "tension_from_elongation",
    "elongation_from_tension",
    "step_motor",
    "update_tension",
]


@dataclass(frozen=True)
class MuscleParams:
    """Static per-muscle constants.

    k           spring steepness, 1/mm
    f_max       tension clamp, N
    motor_vmax  motor winding speed limit, mm/s
    servo_gain  proportional gain of the length servo, 1/s
    """

    k: float | np.ndarray
    f_max: float | np.ndarray = 400.0
    motor_vmax: float | np.ndarray = 200.0
    servo_gain: float | np.ndarray = 20.0


@dataclass(frozen=True)
class MuscleUnit:
    """Muscle state: motor-side wire length plus the last two tension samples.

    ``f_prev`` is rotated only at control-tick boundaries (100 Hz), never by
    the physics-rate tension update; the reflex trigger compares tick samples.
    """

    params: MuscleParams
    l_motor: float | np.ndarray  # mm, encoder side; this is the l reported to controllers
    f: float | np.ndarray  # N, current tension
    f_prev: float | np.ndarray  # N, tension at the previous control tick


def tension_from_elongation(
    delta_n: float | np.ndarray,
    k: float | np.ndarray,
    f_max: float | np.ndarray | None = None,
) -> float | np.ndarray:
    """Tension of the elastic element at elongation ``delta_n`` (mm).

    Pure exponential for all elongations (no piecewise zero on the slack
    side).  Clamped to [0, f_max] when a clamp is given.  Non-finite input is
    an invalid argument.
    """
    if not np.all(np.isfinite(delta_n)):
        raise ValueError(f"non-finite elongation: {delta_n!r}")
    f = np.exp(np.multiply(k, delta_n))
    if f_max is not None:
        f = np.minimum(f, f_max)
    return float(f) if np.ndim(f) == 0 else f


def elongation_from_tension(
    f: float | np.ndarray, k: float | np.ndarray
) -> float | np.ndarray:
    """Inverse law: elongation (mm) that produces tension ``f``.

    Defined for f > 0 only; zero or negative tension is a domain error.
    """
    if not np.all(np.greater(f, 0.0)):
        raise ValueError(f"tension must be positive, got {f!r}")
    out = np.log(f) / k
    return float(out) if np.ndim(out) == 0 else out


def step_motor(
    unit: MuscleUnit,
    effective_ref: float | np.ndarray,
    dt: float,
) -> MuscleUnit:
    """Advance the motor one step toward ``effective_ref`` (mm).

    Winding rate is servo_gain * (ref - l_motor) clamped to +-motor_vmax.
    Tension fields are untouched; only geometry changes here.
    """
    p = unit.params
    rate = np.clip(
        np.multiply(p.servo_gain, np.subtract(effective_ref, unit.l_motor)),
        np.negative(p.motor_vmax),
        p.motor_vmax,
    )
    l_new = unit.l_motor + dt * rate
    if np.ndim(l_new) == 0:
        l_new = float(l_new)
    return replace(unit, l_motor=l_new)


def update_tension(unit: MuscleUnit, geo_length: float | np.ndarray) -> MuscleUnit:
    """Recompute tension from the current geometric path length (mm).

    Elongation is geo_length - l_motor.  ``f_prev`` is deliberately not
    rotated; the engine rotates it at control ticks.
    """
    if not np.all(np.isfinite(geo_length)):
        raise ValueError(f"non-finite geometry length: {geo_length!r}")
    delta_n = np.subtract(geo_length, unit.l_motor)
    f = tension_from_elongation(delta_n, unit.params.k, unit.params.f_max)
    return replace(unit, f=f)
