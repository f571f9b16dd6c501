from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflex_sim.muscles import (
    MuscleParams,
    MuscleUnit,
    elongation_from_tension,
    step_motor,
    tension_from_elongation,
    update_tension,
)


def _params(**kw) -> MuscleParams:
    base = dict(k=0.5, f_max=400.0, motor_vmax=200.0, servo_gain=20.0)
    base.update(kw)
    return MuscleParams(**base)


def _unit(l_motor: float = 100.0, **kw) -> MuscleUnit:
    return MuscleUnit(params=_params(**kw), l_motor=l_motor, f=1.0, f_prev=1.0)


# ---- constitutive law ----


def test_zero_elongation_gives_unit_tension() -> None:
    assert tension_from_elongation(0.0, 0.5) == 1.0


def test_tension_at_ten_mm() -> None:
    # e^(0.5 * 10) = e^5
    assert tension_from_elongation(10.0, 0.5) == pytest.approx(148.4131591025766, rel=1e-12)


def test_tension_clamped_at_f_max() -> None:
    assert tension_from_elongation(20.0, 0.5, f_max=400.0) == 400.0


def test_negative_elongation_decays_toward_zero() -> None:
    f = tension_from_elongation(-10.0, 0.5)
    assert 0.0 < f < 0.01  # slack territory, still positive


def test_non_finite_elongation_rejected() -> None:
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            tension_from_elongation(bad, 0.5)


def test_inverse_of_unit_tension_is_zero() -> None:
    assert elongation_from_tension(1.0, 0.5) == 0.0


def test_inverse_recovers_ten_mm() -> None:
    assert elongation_from_tension(math.exp(5.0), 0.5) == pytest.approx(10.0, rel=1e-12)


def test_non_positive_tension_rejected() -> None:
    with pytest.raises(ValueError):
        elongation_from_tension(0.0, 0.5)
    with pytest.raises(ValueError):
        elongation_from_tension(-3.0, 0.5)


@given(f=st.floats(min_value=1e-6, max_value=400.0, exclude_min=True))
@settings(max_examples=200)
def test_round_trip_tension(f: float) -> None:
    k = 0.5
    back = tension_from_elongation(elongation_from_tension(f, k), k)
    assert back == pytest.approx(f, rel=1e-9)


@given(
    a=st.floats(min_value=-40.0, max_value=11.0),
    b=st.floats(min_value=-40.0, max_value=11.0),
)
@settings(max_examples=200)
def test_tension_strictly_monotone_below_clamp(a: float, b: float) -> None:
    lo, hi = sorted((a, b))
    if hi - lo < 1e-9:  # below float resolution of exp, not a physical case
        return
    assert tension_from_elongation(lo, 0.5) < tension_from_elongation(hi, 0.5)


# ---- motor servo ----


def test_motor_step_rate_clamped() -> None:
    # error -10 mm, gain 20/s asks for -200 mm/s, clamp allows it: 1 ms -> -0.2 mm
    u = step_motor(_unit(100.0), effective_ref=90.0, dt=1e-3)
    assert u.l_motor == pytest.approx(99.8, abs=1e-12)


def test_motor_step_proportional_inside_clamp() -> None:
    # error -0.1 mm -> rate -2 mm/s -> -0.002 mm over 1 ms
    u = step_motor(_unit(100.0), effective_ref=99.9, dt=1e-3)
    assert u.l_motor == pytest.approx(99.998, abs=1e-12)


def test_motor_step_does_not_touch_tension_fields() -> None:
    u0 = _unit(100.0)
    u = step_motor(u0, effective_ref=90.0, dt=1e-3)
    assert u.f == u0.f and u.f_prev == u0.f_prev


@given(
    l_motor=st.floats(min_value=0.0, max_value=500.0),
    ref=st.floats(min_value=0.0, max_value=500.0),
    dt=st.floats(min_value=1e-4, max_value=5e-3),
)
@settings(max_examples=200)
def test_motor_speed_never_exceeds_vmax(l_motor: float, ref: float, dt: float) -> None:
    u = step_motor(_unit(l_motor), effective_ref=ref, dt=dt)
    assert abs(u.l_motor - l_motor) <= 200.0 * dt * (1.0 + 1e-12)


def test_motor_converges_onto_reference() -> None:
    u = _unit(100.0)
    for _ in range(5000):
        u = step_motor(u, effective_ref=93.0, dt=1e-3)
    assert u.l_motor == pytest.approx(93.0, abs=1e-6)


# ---- tension update ----


def test_update_tension_uses_geometry_minus_motor() -> None:
    u = update_tension(_unit(100.0), geo_length=110.0)
    # delta_n = 10 mm
    assert u.f == pytest.approx(148.4131591025766, rel=1e-12)
    assert u.f_prev == 1.0  # rotated only at control ticks, not here


def test_update_tension_clamps_and_flags_by_value() -> None:
    u = update_tension(_unit(100.0), geo_length=130.0)
    assert u.f == 400.0


def test_update_tension_slack_side() -> None:
    u = update_tension(_unit(100.0), geo_length=80.0)
    assert 0.0 < u.f < 1e-4


def test_update_tension_non_finite_geometry_rejected() -> None:
    with pytest.raises(ValueError):
        update_tension(_unit(100.0), geo_length=float("nan"))


def test_vectorized_unit_matches_scalar_units() -> None:
    # the ops accept array-valued state so the engine can batch all muscles
    p = MuscleParams(
        k=np.array([0.5, 0.4]),
        f_max=np.array([400.0, 400.0]),
        motor_vmax=np.array([200.0, 300.0]),
        servo_gain=np.array([20.0, 30.0]),
    )
    u = MuscleUnit(params=p, l_motor=np.array([100.0, 200.0]), f=np.ones(2), f_prev=np.ones(2))
    u = step_motor(u, effective_ref=np.array([90.0, 199.9]), dt=1e-3)
    u = update_tension(u, geo_length=np.array([110.0, 202.0]))

    s0 = step_motor(_unit(100.0), effective_ref=90.0, dt=1e-3)
    s0 = update_tension(s0, geo_length=110.0)
    s1 = step_motor(
        _unit(200.0, k=0.4, motor_vmax=300.0, servo_gain=30.0),
        effective_ref=199.9,
        dt=1e-3,
    )
    s1 = update_tension(s1, geo_length=202.0)

    assert u.l_motor[0] == s0.l_motor and u.l_motor[1] == s1.l_motor
    assert u.f[0] == s0.f and u.f[1] == s1.f
