from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflex_sim.muscles import (
    MuscleParams,
    elongation_from_tension,
    step_motor,
    update_tension,
)


def _params(**kw) -> MuscleParams:
    # one muscle
    base = dict(k=0.5, f_max=400.0, motor_vmax=200.0, servo_gain=20.0)
    base.update(kw)
    return MuscleParams(**{key: np.array([value]) for key, value in base.items()})


# ---- constitutive law ----


def _tension(delta_n: float, k: float, f_max: float = math.inf) -> float:
    """The engine's tension at elongation ``delta_n`` (mm): motor at 0, path at delta_n."""
    (f,) = update_tension([0.0], [delta_n], _params(k=k, f_max=f_max))
    return f


def test_zero_elongation_gives_unit_tension() -> None:
    assert _tension(0.0, 0.5) == 1.0


def test_tension_at_ten_mm() -> None:
    # e^(0.5 * 10) = e^5
    assert _tension(10.0, 0.5) == pytest.approx(148.4131591025766, rel=1e-12)


def test_tension_clamped_at_f_max() -> None:
    assert _tension(20.0, 0.5, f_max=400.0) == 400.0


def test_negative_elongation_decays_toward_zero() -> None:
    f = _tension(-10.0, 0.5)
    assert 0.0 < f < 0.01  # slack territory, still positive


def test_non_finite_elongation_rejected() -> None:
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            _tension(bad, 0.5)


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
    back = _tension(elongation_from_tension(f, k), k)
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
    assert _tension(lo, 0.5) < _tension(hi, 0.5)


# ---- motor servo ----


def test_motor_step_rate_clamped() -> None:
    # error -10 mm, gain 20/s asks for -200 mm/s, clamp allows it: 1 ms -> -0.2 mm
    (l_motor,) = step_motor([100.0], [90.0], 1e-3, _params())
    assert l_motor == pytest.approx(99.8, abs=1e-12)


def test_motor_step_proportional_inside_clamp() -> None:
    # error -0.1 mm -> rate -2 mm/s -> -0.002 mm over 1 ms
    (l_motor,) = step_motor([100.0], [99.9], 1e-3, _params())
    assert l_motor == pytest.approx(99.998, abs=1e-12)


def test_motor_step_does_not_touch_tension_fields() -> None:
    # the servo returns motor lengths only and leaves its inputs alone;
    # tension follows from the new geometry at the next update
    l_motor, ref = [100.0], [90.0]
    out = step_motor(l_motor, ref, 1e-3, _params())
    assert len(out) == 1 and out is not l_motor
    assert l_motor == [100.0] and ref == [90.0]


@given(
    l_motor=st.floats(min_value=0.0, max_value=500.0),
    ref=st.floats(min_value=0.0, max_value=500.0),
    dt=st.floats(min_value=1e-4, max_value=5e-3),
)
@settings(max_examples=200)
def test_motor_speed_never_exceeds_vmax(l_motor: float, ref: float, dt: float) -> None:
    (after,) = step_motor([l_motor], [ref], dt, _params())
    assert abs(after - l_motor) <= 200.0 * dt * (1.0 + 1e-12)


def test_motor_converges_onto_reference() -> None:
    l_motor = [100.0]
    for _ in range(5000):
        l_motor = step_motor(l_motor, [93.0], 1e-3, _params())
    assert l_motor[0] == pytest.approx(93.0, abs=1e-6)


# ---- tension update ----


def test_update_tension_uses_geometry_minus_motor() -> None:
    (f,) = update_tension([100.0], [110.0], _params())
    # delta_n = 10 mm
    assert f == pytest.approx(148.4131591025766, rel=1e-12)


def test_update_tension_clamps_and_flags_by_value() -> None:
    assert update_tension([100.0], [130.0], _params()) == [400.0]


def test_update_tension_slack_side() -> None:
    (f,) = update_tension([100.0], [80.0], _params())
    assert 0.0 < f < 1e-4


def test_update_tension_non_finite_geometry_rejected() -> None:
    with pytest.raises(ValueError):
        update_tension([100.0], [float("nan")], _params())


def test_vectorized_unit_matches_scalar_units() -> None:
    # each muscle of a batch steps exactly as it would alone
    p = MuscleParams(
        k=np.array([0.5, 0.4]),
        f_max=np.array([400.0, 400.0]),
        motor_vmax=np.array([200.0, 300.0]),
        servo_gain=np.array([20.0, 30.0]),
    )
    l_motor = step_motor([100.0, 200.0], [90.0, 199.9], 1e-3, p)
    f = update_tension(l_motor, [110.0, 202.0], p)

    p0 = _params()
    s0 = step_motor([100.0], [90.0], 1e-3, p0)
    f0 = update_tension(s0, [110.0], p0)
    p1 = _params(k=0.4, motor_vmax=300.0, servo_gain=30.0)
    s1 = step_motor([200.0], [199.9], 1e-3, p1)
    f1 = update_tension(s1, [202.0], p1)

    assert l_motor == s0 + s1
    assert f == f0 + f1
