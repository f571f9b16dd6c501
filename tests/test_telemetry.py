"""The CSV writer: its text is repr of every value, row by row."""

import io

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
