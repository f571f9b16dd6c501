"""Per-tick telemetry log and its CSV serialization.

One row per physics tick.  Column layout, in order, for n joints and m
muscles (indices, not names, so the header is stable for any plant size):

    t,
    theta_0..theta_{n-1}, omega_0..omega_{n-1},
    l_motor_0..,  l_ref_cmd_0..,  l_ref_eff_0..,
    f_0..,  df_0..,  reflex_offset_0..,  reflex_fired_0..,
    limit_force_0..limit_force_{n-1},
    saturated_0..,  slack_0..

Floats are written with repr (shortest round-trip form), so a parsed file
reproduces the in-memory arrays bit for bit and two identical runs produce
byte-identical files.  Scripted events and reflex events live on the object
(and in the metrics summary), not in the per-tick stream.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

__all__ = ["TelemetryLog", "SLACK_TENSION", "MAX_LOG_BYTES", "row_bytes"]

SLACK_TENSION = 0.01  # N; tensions below this are flagged slack
_CSV_CHUNK = 128  # rows formatted per write
# the most memory one run's log may take; a parsed config is held to it
MAX_LOG_BYTES = 1 << 30


def row_bytes(n_joints: int, n_muscles: int) -> int:
    """Bytes of one log row: t plus 3 float columns per joint, 6 float and 3 uint8 per muscle."""
    return 8 * (1 + 3 * n_joints + 6 * n_muscles) + 3 * n_muscles


def _text(values: np.ndarray) -> np.ndarray:
    """repr of every value, as an object array of the same shape.

    repr runs once per distinct value; floats are told apart by their bits,
    so -0.0 stays apart from 0.0.
    """
    flat = values.ravel()
    keys = flat.view(f"u{flat.itemsize}") if flat.dtype.kind == "f" else flat
    distinct, where = np.unique(keys, return_inverse=True)
    if flat.dtype.kind == "f":
        distinct = distinct.view(flat.dtype)
    text = np.array(list(map(repr, distinct.tolist())), dtype=object)
    return text[where].reshape(values.shape)


@dataclass
class TelemetryLog:
    dt: float
    t: np.ndarray  # (N,)
    theta: np.ndarray  # (N, n)
    omega: np.ndarray  # (N, n)
    l_motor: np.ndarray  # (N, m)
    l_ref_commanded: np.ndarray  # (N, m)
    l_ref_effective: np.ndarray  # (N, m)
    f: np.ndarray  # (N, m)
    df: np.ndarray  # (N, m), tick-sampled difference held between ticks
    reflex_offset: np.ndarray  # (N, m)
    reflex_fired: np.ndarray  # (N, m) uint8
    limit_force: np.ndarray  # (N, n)
    saturated: np.ndarray  # (N, m) uint8
    slack: np.ndarray  # (N, m) uint8
    reflex_events: list[tuple[int, float]] = field(default_factory=list)
    scripted_events: list[tuple[float, str]] = field(default_factory=list)

    @property
    def n_joints(self) -> int:
        return self.theta.shape[1]

    @property
    def n_muscles(self) -> int:
        return self.f.shape[1]

    @property
    def duration(self) -> float:
        return float(self.t[-1]) + self.dt if len(self.t) else 0.0

    # ---- time indexing ----

    def index_at(self, t: float) -> int:
        """Index of the first row at or after time t."""
        return int(np.searchsorted(self.t, t - 1e-12))

    def window(self, t0: float, t1: float) -> slice:
        """Row slice covering [t0, t1)."""
        return slice(self.index_at(t0), self.index_at(t1))

    # ---- CSV ----

    def header(self) -> list[str]:
        n, m = self.n_joints, self.n_muscles
        cols = ["t"]
        cols += [f"theta_{i}" for i in range(n)]
        cols += [f"omega_{i}" for i in range(n)]
        for stem in ("l_motor", "l_ref_cmd", "l_ref_eff", "f", "df", "reflex_offset", "reflex_fired"):
            cols += [f"{stem}_{j}" for j in range(m)]
        cols += [f"limit_force_{i}" for i in range(n)]
        for stem in ("saturated", "slack"):
            cols += [f"{stem}_{j}" for j in range(m)]
        return cols

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)

    def write_csv(self, fh: io.TextIOBase) -> None:
        fh.write(",".join(self.header()) + "\n")
        blocks = [
            self.t[:, None], self.theta, self.omega, self.l_motor,
            self.l_ref_commanded, self.l_ref_effective, self.f, self.df,
            self.reflex_offset, self.reflex_fired, self.limit_force, self.saturated, self.slack,
        ]
        # repr of a Python float or int is the column text.  The columns of one
        # dtype are formatted together, a chunk of rows at a time, so the
        # objects made for it stay a few hundred kB
        starts = np.cumsum([0] + [b.shape[1] for b in blocks])
        groups: dict[np.dtype, tuple[list, list]] = {}
        for b, start in zip(blocks, starts):
            cols, members = groups.setdefault(b.dtype, ([], []))
            cols.extend(range(start, start + b.shape[1]))
            members.append(b)
        for i in range(0, len(self.t), _CSV_CHUNK):
            cells = np.empty((min(_CSV_CHUNK, len(self.t) - i), starts[-1]), dtype=object)
            for cols, members in groups.values():
                cells[:, cols] = _text(np.concatenate([b[i:i + _CSV_CHUNK] for b in members], axis=1))
            fh.write("\n".join(map(",".join, cells.tolist())) + "\n")

    @staticmethod
    def from_csv(path) -> "TelemetryLog":
        with open(path, "r", newline="") as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        col = {name: i for i, name in enumerate(header)}
        n = sum(1 for c in header if c.startswith("theta_"))
        m = sum(1 for c in header if c.startswith("f_"))

        def grab(stem: str, count: int) -> np.ndarray:
            # C order so reductions sum in the same order as the live arrays
            return np.ascontiguousarray(data[:, [col[f"{stem}_{i}"] for i in range(count)]])

        t = data[:, col["t"]]
        dt = float(t[1] - t[0]) if len(t) > 1 else 1e-3
        log = TelemetryLog(
            dt=dt,
            t=t,
            theta=grab("theta", n),
            omega=grab("omega", n),
            l_motor=grab("l_motor", m),
            l_ref_commanded=grab("l_ref_cmd", m),
            l_ref_effective=grab("l_ref_eff", m),
            f=grab("f", m),
            df=grab("df", m),
            reflex_offset=grab("reflex_offset", m),
            reflex_fired=grab("reflex_fired", m).astype(np.uint8),
            limit_force=grab("limit_force", n),
            saturated=grab("saturated", m).astype(np.uint8),
            slack=grab("slack", m).astype(np.uint8),
        )
        fired = log.reflex_fired
        for i, j in zip(*np.nonzero(fired)):
            log.reflex_events.append((int(j), float(t[i])))
        return log
