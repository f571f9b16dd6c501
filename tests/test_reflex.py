from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflex_reference import replay
from reflex_sim.config import default_robot
from reflex_sim.reflex import (
    ReflexParams,
    ReflexState,
    update,
)
from reflex_sim.scenario import Impulse, ScenarioScript, run


def _params(**kw) -> ReflexParams:
    base = dict(c_stretch=15.0, dl_stretch=10.0, dt_loose=0.5, groups=((0, 1), (2, 3)))
    base.update(kw)
    return ReflexParams(**base)


def _quiet(n: int = 4) -> np.ndarray:
    return np.full(n, 40.0)


def _spike(*muscles: int, base: float = 40.0, jump: float = 30.0, n: int = 4) -> np.ndarray:
    f = np.full(n, base)
    f[list(muscles)] += jump
    return f


# ---- trigger predicate ----


def test_detect_strictly_above_threshold() -> None:
    p = _params(groups=((0,), (1,), (2,)))
    prev = np.array([50.0, 50.0, 50.0])
    now = np.array([66.0, 65.0, 30.0])  # rise 16, exactly 15 (no fire), a release
    _, _, ev = update(ReflexState.initial(3), prev, now, t=1.0, params=p)
    assert ev == [(0, 1.0)]


# ---- firing and the loosening ramp ----


def test_fire_sets_full_offset_then_ramps_linearly() -> None:
    p = _params()
    s = ReflexState.initial(4)
    s, off, ev = update(s, _quiet(), _spike(2), t=1.0, params=p)
    assert ev == [(2, 1.0)]
    assert off == [0.0, 0.0, 10.0, 0.0]

    s, off, ev = update(s, _spike(2), _spike(2), t=1.25, params=p)
    assert ev == []
    assert off[2] == pytest.approx(5.0, abs=1e-12)

    s, off, ev = update(s, _spike(2), _spike(2), t=1.5, params=p)
    assert off[2] == 0.0  # ramp complete, muscle Idle again


def test_offsets_never_negative_and_ramp_is_linear() -> None:
    p = _params()
    s = ReflexState.initial(4)
    s, _, _ = update(s, _quiet(), _spike(0), t=0.0, params=p)
    t = 0.0
    prev = 10.0
    while t < 0.6:
        t = round(t + 0.01, 10)
        s, off, _ = update(s, _quiet(), _quiet(), t=t, params=p)
        assert off[0] >= 0.0
        if t < 0.5:
            assert off[0] == pytest.approx(10.0 * (1 - t / 0.5), abs=1e-9)
        else:
            assert off[0] == 0.0
        assert off[0] <= prev
        prev = off[0]


def test_fired_muscle_cannot_refire_until_idle() -> None:
    p = _params()
    s = ReflexState.initial(4)
    s, _, ev = update(s, _quiet(), _spike(2), t=1.0, params=p)
    assert len(ev) == 1
    # keeps spiking during its own loosening window: ignored
    s, _, ev = update(s, _quiet(), _spike(2), t=1.2, params=p)
    assert ev == []
    # at exactly t_fired + dt_loose the muscle is Idle and may fire again
    s, off, ev = update(s, _quiet(), _spike(2), t=1.5, params=p)
    assert ev == [(2, 1.5)] and off[2] == 10.0


# ---- group inhibition ----


def test_group_mate_suppressed_during_window() -> None:
    p = _params()
    s = ReflexState.initial(4)
    s, _, _ = update(s, _quiet(), _spike(2), t=1.0, params=p)
    s, off, ev = update(s, _quiet(), _spike(3), t=1.01, params=p)
    assert ev == [] and off[3] == 0.0


def test_other_group_unaffected() -> None:
    p = _params()
    s = ReflexState.initial(4)
    s, _, _ = update(s, _quiet(), _spike(2), t=1.0, params=p)
    s, off, ev = update(s, _quiet(), _spike(0), t=1.01, params=p)
    assert ev == [(0, 1.01)] and off[0] == 10.0


def test_same_tick_cofiring_within_group_allowed() -> None:
    p = _params()
    s = ReflexState.initial(4)
    s, off, ev = update(s, _quiet(), _spike(2, 3), t=1.0, params=p)
    assert ev == [(2, 1.0), (3, 1.0)]
    assert off[2] == 10.0 and off[3] == 10.0


def test_retrigger_at_window_end_is_allowed() -> None:
    p = _params()
    s = ReflexState.initial(4)
    s, _, _ = update(s, _quiet(), _spike(2), t=1.0, params=p)
    # group mate exactly at the window boundary: half-open, eligible
    s, off, ev = update(s, _quiet(), _spike(3), t=1.5, params=p)
    assert ev == [(3, 1.5)] and off[3] == 10.0


def test_inhibition_extends_with_later_fire() -> None:
    p = _params()
    s = ReflexState.initial(4)
    s, _, _ = update(s, _quiet(), _spike(2), t=1.0, params=p)
    s, _, ev = update(s, _quiet(), _spike(3), t=1.5, params=p)
    assert ev == [(3, 1.5)]
    # muscle 2 is Idle but its group is now inhibited until 2.0
    s, _, ev = update(s, _quiet(), _spike(2), t=1.9, params=p)
    assert ev == []
    s, _, ev = update(s, _quiet(), _spike(2), t=2.0, params=p)
    assert ev == [(2, 2.0)]


# ---- contracts ----


def test_non_monotone_time_rejected() -> None:
    p = _params()
    s = ReflexState.initial(4)
    s, _, _ = update(s, _quiet(), _quiet(), t=1.0, params=p)
    with pytest.raises(ValueError):
        update(s, _quiet(), _quiet(), t=1.0, params=p)
    with pytest.raises(ValueError):
        update(s, _quiet(), _quiet(), t=0.5, params=p)


def test_effective_ref_subtracts_offsets() -> None:
    # the engine sends commanded minus offset to the motors, on every row
    robot = default_robot()
    knock = ScenarioScript(
        name="knock", duration=0.3, theta0=np.array([0.0, -1.57]), pretension_mm=7.4,
        impulses=(Impulse(t=0.05, joint=1, delta_omega=4.2),),
    )
    log = run(knock, robot, reflex=ReflexParams(groups=robot.groups))
    assert np.any(log.reflex_offset > 0.0)
    assert np.array_equal(log.l_ref_effective, log.l_ref_commanded - log.reflex_offset)


def test_update_does_not_mutate_input_state() -> None:
    p = _params()
    s0 = ReflexState.initial(4)
    update(s0, _quiet(), _spike(2), t=1.0, params=p)
    assert np.all(np.isneginf(s0.fired_at)) and s0.last_t == -np.inf


# ---- equivalence with the brute-force reference ----


@st.composite
def _stream(draw):
    n_m = draw(st.integers(min_value=2, max_value=5))
    # random group partition
    labels = [draw(st.integers(min_value=0, max_value=2)) for _ in range(n_m)]
    groups = [[m for m, g in enumerate(labels) if g == gi] for gi in sorted(set(labels))]
    n_ticks = draw(st.integers(min_value=3, max_value=60))
    vals = draw(
        st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
                min_size=n_m,
                max_size=n_m,
            ),
            min_size=n_ticks,
            max_size=n_ticks,
        )
    )
    dt_loose = draw(st.sampled_from([0.05, 0.1, 0.35]))
    return groups, vals, dt_loose


@given(data=_stream())
@settings(max_examples=150, deadline=None)
def test_production_matches_reference_on_random_streams(data) -> None:
    groups, vals, dt_loose = data
    n_m = len(vals[0])
    p = ReflexParams(
        c_stretch=15.0,
        dl_stretch=10.0,
        dt_loose=dt_loose,
        groups=tuple(tuple(g) for g in groups),
    )
    times = [round(0.01 * i, 10) for i in range(len(vals))]

    s = ReflexState.initial(n_m)
    got_events: list[tuple[int, float]] = []
    got_offsets: list[list[float]] = []
    for i, t in enumerate(times):
        prev = np.array(vals[max(i - 1, 0)])
        now = np.array(vals[i])
        s, off, ev = update(s, prev, now, t=t, params=p)
        got_events.extend(ev)
        got_offsets.append([float(x) for x in off])

    want_events, want_offsets = replay(times, vals, 15.0, 10.0, dt_loose, groups)
    assert got_events == want_events
    assert np.allclose(np.array(got_offsets), np.array(want_offsets), rtol=0.0, atol=1e-12)
