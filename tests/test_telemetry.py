"""The log's rows and CSV: its text is repr of every value, row by row."""

import io
from dataclasses import fields

import numpy as np

from reflex_sim import telemetry
from reflex_sim.telemetry import TelemetryLog


def _reference(log: TelemetryLog) -> str:
    blocks = [log.t[:, None], log.theta, log.omega, log.l_motor, log.l_ref_commanded,
              log.l_ref_effective, log.f, log.df, log.reflex_offset, log.reflex_fired,
              log.limit_force, log.saturated, log.slack]
    lines = [",".join(log.header())]
    for i in range(len(log.t)):
        lines.append(",".join(map(repr, [v for b in blocks for v in b[i].tolist()])))
    return "\n".join(lines) + "\n"


def test_write_csv_equals_repr_of_every_value():
    rng = np.random.default_rng(5)
    n_rows = 2 * telemetry._CSV_CHUNK + 37  # the last chunk is short
    n, m = 2, 4
    pool = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0, 0.1, 1 / 3, np.inf, -np.inf])

    def floats(width):
        # mostly repeated values, so the cache is hit; some fresh ones
        out = rng.choice(pool, size=(n_rows, width))
        fresh = rng.random((n_rows, width)) < 0.3
        out[fresh] = rng.normal(scale=100.0, size=fresh.sum())
        return out

    def flags():
        return rng.integers(0, 2, size=(n_rows, m)).astype(np.uint8)

    theta = floats(n)
    theta[:3, 0] = [0.0, -0.0, 0.0]  # -0.0 next to 0.0 in one column of one chunk
    log = TelemetryLog(
        dt=1e-3, t=np.arange(n_rows) * 1e-3, theta=theta, omega=floats(n),
        l_motor=floats(m), l_ref_commanded=floats(m), l_ref_effective=floats(m), f=floats(m),
        df=floats(m), reflex_offset=floats(m), reflex_fired=flags(), limit_force=floats(n),
        saturated=flags(), slack=flags(),
    )
    buf = io.StringIO()
    log.write_csv(buf)
    text = buf.getvalue()
    assert text == _reference(log)
    assert [row.split(",")[1] for row in text.splitlines()[1:4]] == ["0.0", "-0.0", "0.0"]
    assert "5e-324" in text and "1e+300" in text


def _random_log(rng, n_rows, n, m) -> TelemetryLog:
    log = TelemetryLog.allocate(n_rows, 1e-3, n, m)
    for f in fields(TelemetryLog):
        block = getattr(log, f.name)
        if f.name != "t" and isinstance(block, np.ndarray):
            if block.dtype == np.uint8:
                block[:] = rng.integers(0, 2, size=block.shape)
            else:
                block[:] = rng.normal(scale=100.0, size=block.shape)
    return log


def test_csv_round_trip_keeps_every_block_dtype_and_bytes(tmp_path):
    log = _random_log(np.random.default_rng(9), 300, 3, 7)
    log.theta[0, 0] = -0.0
    log.to_csv(tmp_path / "log.csv")
    back = TelemetryLog.from_csv(tmp_path / "log.csv")
    assert (back.n_joints, back.n_muscles) == (3, 7)
    for f in fields(TelemetryLog):
        a, b = getattr(log, f.name), getattr(back, f.name)
        if isinstance(a, np.ndarray):
            assert (b.dtype, b.shape, b.tobytes()) == (a.dtype, a.shape, a.tobytes()), f.name
    assert back.reflex_events == log.reflex_events


def test_row_bytes_is_the_size_of_one_allocated_row():
    for n, m in ((2, 4), (3, 7), (1, 1)):
        row = TelemetryLog.allocate(1, 1e-3, n, m)
        arrays = [v for v in vars(row).values() if isinstance(v, np.ndarray)]
        assert telemetry.row_bytes(n, m) == sum(a.nbytes for a in arrays)
    assert telemetry.row_bytes(2, 4) == 8 * (1 + 3 * 2 + 6 * 4) + 3 * 4


def test_reflex_events_are_the_fired_column_in_tick_then_muscle_order():
    log = TelemetryLog.allocate(30, 1e-3, 2, 4)
    log.reflex_fired[20, [3, 1]] = 1
    log.reflex_fired[10, 2] = 1
    assert log.reflex_events == [(2, 10 * 1e-3), (1, 20 * 1e-3), (3, 20 * 1e-3)]


def test_fork_rows_grow_and_finish():
    rng = np.random.default_rng(4)
    log = _random_log(rng, 50, 2, 4)
    log.scripted_events.append((0.001, "impulse"))
    want = log.f[:20].copy()
    head = log.head(20)
    log.f[:] = 0.0
    assert head.f.tobytes() == want.tobytes()  # the head is a copy
    grown = head.grown(50)
    assert len(grown.t) == 50 and grown.t.tobytes() == log.t.tobytes()
    assert grown.f[:20].tobytes() == head.f.tobytes() and not grown.f[20:].any()
    assert grown.scripted_events == log.scripted_events
    grown.f[:, 0] = [0.0, 300.0] * 25
    done = grown.finished(30, np.full(4, 300.0))
    assert len(done.t) == 30 and done.f.shape == (30, 4)
    assert done.saturated[:, 0].tolist() == [0, 1] * 15
    assert done.slack[:, 0].tolist() == [1, 0] * 15
