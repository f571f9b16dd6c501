"""Metric definitions checked on hand-built synthetic logs."""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflex_sim.metrics import (
    AnalysisParams,
    MetricsReport,
    compute_report,
    conv_time,
    drift,
    limit_contact,
    max_deviation,
    params_from_summary,
    read_summary,
    report_lines,
    report_values,
    tension_stats,
    write_summary,
)
from reflex_sim.telemetry import TelemetryLog


def make_log(theta, f=None, dt=0.01, limit_force=None):
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    if theta.shape[0] == 1:
        theta = theta.T
    N, n = theta.shape
    if f is None:
        f = np.full((N, 2), 1.0)
    f = np.asarray(f, dtype=float)
    m = f.shape[1]
    if limit_force is None:
        limit_force = np.zeros((N, n))
    zf = np.zeros((N, m))
    zu = np.zeros((N, m), dtype=np.uint8)
    return TelemetryLog(
        dt=dt,
        t=np.arange(N) * dt,
        theta=theta,
        omega=np.zeros((N, n)),
        l_motor=zf.copy(),
        l_ref_commanded=zf.copy(),
        l_ref_effective=zf.copy(),
        f=f,
        df=zf.copy(),
        reflex_offset=zf.copy(),
        reflex_fired=zu.copy(),
        limit_force=np.asarray(limit_force, dtype=float),
        saturated=zu.copy(),
        slack=zu.copy(),
    )


def step_log(before, after, t_step, duration, dt=0.01):
    N = int(round(duration / dt))
    t = np.arange(N) * dt
    theta = np.where(t < t_step, before, after)
    return make_log(theta, dt=dt)


class TestDrift:
    def test_constant_log_is_zero(self):
        log = make_log(np.full(400, -1.0))
        assert drift(log, 0, 1.0, 3.0) == 0.0

    def test_step_postural_drift(self):
        # definitional example: elbow settles 0.023 rad away from where it was
        log = step_log(-1.570, -1.547, t_step=2.0, duration=4.0)
        assert drift(log, 0, 1.0, 4.0) == pytest.approx(0.023, abs=1e-12)

    def test_small_synthetic_step(self):
        log = step_log(0.0, 0.005, t_step=1.0, duration=2.0)
        assert drift(log, 0, 0.8, 2.0) == pytest.approx(0.005, abs=1e-15)

    def test_symmetric_in_window_order(self):
        log = step_log(-1.570, -1.547, t_step=2.0, duration=4.0)
        assert drift(log, 0, 1.0, 4.0) == drift(log, 0, 4.0, 1.0)

    def test_invariant_to_constant_offset(self):
        a = step_log(-1.570, -1.547, t_step=2.0, duration=4.0)
        b = step_log(-1.570 + 0.3, -1.547 + 0.3, t_step=2.0, duration=4.0)
        assert drift(a, 0, 1.0, 4.0) == pytest.approx(drift(b, 0, 1.0, 4.0), abs=1e-12)

    def test_window_outside_log_raises(self):
        log = make_log(np.zeros(200))
        with pytest.raises(ValueError):
            drift(log, 0, 0.2, 1.5)  # trailing window would start before t=0
        with pytest.raises(ValueError):
            drift(log, 0, 1.0, 2.5)  # beyond the end of the log

    def test_averaging_attenuates_single_sample_noise(self):
        theta = np.full(400, -1.0)
        theta[175] = -0.2  # one bad sensor sample inside the before-window
        log = make_log(theta)
        # a raw sample read at t=1.75 would report 0.8; the 50-sample window
        # mean dilutes it to 0.8/50
        assert drift(log, 0, 2.0, 4.0) == pytest.approx(0.8 / 50, abs=1e-12)


class TestConvTime:
    def _violating(self, lo, hi, duration=3.0, dt=0.01, base=-1.57, out=-1.50):
        N = int(round(duration / dt))
        t = np.arange(N) * dt
        theta = np.where((t >= lo) & (t < hi), out, base)
        return make_log(theta, dt=dt)

    def test_never_crossing_is_zero(self):
        log = make_log(np.full(300, -1.57))
        assert conv_time(log, 0, 1.0, -1.55, "below") == 0.0

    def test_single_excursion(self):
        # exceeds the threshold on [1.0, 1.42) only, impact at 1.0
        log = self._violating(1.0, 1.42)
        assert conv_time(log, 0, 1.0, -1.55, "below") == pytest.approx(0.42, abs=1e-12)

    def test_oscillation_to_log_end_is_non_converged(self):
        N = 290  # the final row is still astray mid-oscillation
        theta = np.where(np.arange(N) % 20 < 10, -1.50, -1.57)
        log = make_log(theta)
        assert conv_time(log, 0, 1.0, -1.55, "below") == np.inf

    def test_direction_above(self):
        log = self._violating(1.0, 1.3, base=1.57, out=1.50)
        assert conv_time(log, 0, 1.0, 1.55, "above") == pytest.approx(0.3, abs=1e-12)

    def test_truncation_after_recovery_is_stable(self):
        full = self._violating(1.0, 1.42, duration=3.0)
        for cut in (1.5, 2.0, 2.99):
            rows = int(round(cut / full.dt))
            part = make_log(full.theta[:rows, 0], dt=full.dt)
            assert conv_time(part, 0, 1.0, -1.55, "below") == conv_time(
                full, 0, 1.0, -1.55, "below"
            )

    def test_truncation_inside_excursion_flags_non_converged(self):
        full = self._violating(1.0, 1.42, duration=3.0)
        part = make_log(full.theta[:120, 0], dt=full.dt)  # ends at t=1.19, still out
        assert conv_time(part, 0, 1.0, -1.55, "below") == np.inf

    def test_finite_values_grow_with_the_log(self):
        # two excursions: each prefix that converges reports a value no
        # smaller than any earlier converged prefix
        N = 400
        t = np.arange(N) * 0.01
        theta = np.full(N, -1.57)
        theta[((t >= 1.0) & (t < 1.4)) | ((t >= 2.0) & (t < 2.3))] = -1.50
        seen = 0.0
        for rows in range(101, N + 1):
            part = make_log(theta[:rows], dt=0.01)
            v = conv_time(part, 0, 1.0, -1.55, "below")
            if np.isfinite(v):
                assert v >= seen
                seen = v


class TestTensionStats:
    def test_constant_tension(self):
        log = make_log(np.zeros(300), f=np.full((300, 3), 100.0))
        assert tension_stats(log, 1.0) == (100.0, 100.0)

    def test_spike_then_settle(self):
        f = np.full((400, 2), 10.0)
        f[:, 1] = 86.0
        f[120, 1] = 257.0  # brief spike on the loaded muscle
        log = make_log(np.zeros(400), f=f)
        peak, steady = tension_stats(log, 1.0)
        assert peak == 257.0
        assert steady == pytest.approx(86.0, abs=1e-12)

    def test_all_slack(self):
        log = make_log(np.zeros(300), f=np.full((300, 2), 0.005))
        peak, steady = tension_stats(log, 1.0)
        assert peak < 0.01 and steady < 0.01

    def test_steady_picks_most_loaded_muscle(self):
        f = np.column_stack([np.full(300, 30.0), np.full(300, 55.0)])
        log = make_log(np.zeros(300), f=f)
        assert tension_stats(log, 1.0)[1] == pytest.approx(55.0, abs=1e-12)


class TestOtherMetrics:
    def test_max_deviation(self):
        theta = np.full(300, -1.57)
        theta[100:110] = -1.42
        log = make_log(theta)
        assert max_deviation(log, 0, -1.57) == pytest.approx(0.15, abs=1e-12)

    def test_limit_contact(self):
        lf = np.zeros((200, 1))
        lf[50, 0] = 3.25
        log = make_log(np.zeros(200), limit_force=lf)
        assert limit_contact(log) == 3.25
        assert limit_contact(make_log(np.zeros(50))) == 0.0


class TestReportRoundTrip:
    def _params(self):
        return AnalysisParams(
            drift_t_before=1.0,
            drift_t_after=4.0,
            theta_ref=(-1.57,),
            conv_joint=0,
            conv_t_impact=2.0,
            conv_theta_thre=-1.55,
            conv_direction="below",
        )

    def test_summary_file_round_trip(self, tmp_path):
        log = step_log(-1.570, -1.547, t_step=2.0, duration=4.0)
        log.reflex_fired[200, 0] = 1  # muscle 0 fires at t = 2.0
        report = compute_report(log, self._params())
        path = tmp_path / "metrics.txt"
        write_summary(report, path)
        kv = read_summary(path)
        assert kv["drift_joint_0"] == repr(drift(log, 0, 1.0, 4.0))
        assert kv["reflex_event_count"] == "1"
        assert log.reflex_events == [(0, 2.0)]
        assert params_from_summary(kv) == self._params()

    def test_recompute_from_csv_matches_exactly(self, tmp_path):
        log = step_log(-1.570, -1.547, t_step=2.0, duration=4.0)
        log.reflex_fired[200, 0] = 1
        params = self._params()
        stored = report_lines(compute_report(log, params))
        log.to_csv(tmp_path / "log.csv")
        back = TelemetryLog.from_csv(tmp_path / "log.csv")
        assert report_lines(compute_report(back, params)) == stored

    def test_intrinsic_only_report(self):
        log = make_log(np.zeros(300), f=np.full((300, 2), 40.0))
        report = compute_report(log, AnalysisParams())
        assert report.drift_joint is None and report.conv_time is None
        assert report.peak_tension == 40.0
        lines = report_lines(report)
        assert not any(line.startswith("drift") for line in lines)


# ---- the summary format: every drawn report reads back as written ----

# -0.0 and the infinities included: each must come back with its own text
values = st.floats(allow_nan=False)
per_joint = st.lists(values, min_size=1, max_size=3).map(tuple)


@st.composite
def analysis_params(draw):
    drift_ts = draw(st.none() | st.tuples(values, values))
    conv = draw(st.none() | st.tuples(st.integers(0, 2), values, values,
                                      st.sampled_from(("below", "above"))))
    return AnalysisParams(
        window=draw(values),
        window_final=draw(values),
        drift_t_before=drift_ts and drift_ts[0],
        drift_t_after=drift_ts and drift_ts[1],
        theta_ref=draw(st.none() | per_joint),
        conv_joint=conv and conv[0],
        conv_t_impact=conv and conv[1],
        conv_theta_thre=conv and conv[2],
        conv_direction=conv and conv[3],
    )


@st.composite
def reports(draw):
    conv = draw(st.none() | st.just(float("inf")) | values)
    return MetricsReport(
        params=draw(analysis_params()),
        peak_tension=draw(values),
        peak_tension_muscle=draw(st.lists(values, min_size=1, max_size=6).map(tuple)),
        steady_tension=draw(values),
        limit_contact=draw(values),
        reflex_event_count=draw(st.integers(0, 10**6)),
        drift_joint=draw(st.none() | per_joint),
        max_deviation_joint=draw(st.none() | per_joint),
        conv_time=conv,
        converged=None if conv is None else conv != float("inf"),
    )


@given(report=reports())
@settings(derandomize=True, max_examples=300, deadline=None)
def test_summary_reads_back_what_report_lines_wrote(report):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "metrics.txt"
        write_summary(report, path)
        assert path.read_text().splitlines() == report_lines(report)
        kv = read_summary(path)
    back = params_from_summary(kv)
    assert back == report.params
    # and bit for bit: -0.0 reads back as -0.0
    assert report_lines(replace(report, params=back)) == report_lines(report)
    assert report_values(report).items() <= kv.items()
