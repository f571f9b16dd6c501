"""Per-tick telemetry log and its CSV serialization.

One row per physics tick.  Each per-tick block is declared once, as a field
of ``TelemetryLog`` with its CSV stem, width and dtype.  Column layout, in
order, for n joints and m muscles (indices, not names, so the header is
stable for any plant size):

    t,
    theta_0..theta_{n-1}, omega_0..omega_{n-1},
    l_motor_0..,  l_ref_cmd_0..,  l_ref_eff_0..,
    f_0..,  df_0..,  reflex_offset_0..,  reflex_fired_0..,
    limit_force_0..limit_force_{n-1},
    saturated_0..,  slack_0..

Floats are written with repr (shortest round-trip form), so a parsed file
reproduces the in-memory arrays bit for bit and two identical runs produce
byte-identical files.  Reflex events are in the per-tick stream, as
``reflex_fired``; scripted events live on the object only.
"""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

__all__ = ["TelemetryLog", "SLACK_TENSION", "MAX_LOG_BYTES", "row_bytes"]

SLACK_TENSION = 0.01  # N; tensions below this are flagged slack
_CSV_CHUNK = 128  # rows formatted per write
# the most memory one run's log may take; a parsed config is held to it
MAX_LOG_BYTES = 1 << 30


class _Block(NamedTuple):
    name: str  # the TelemetryLog field
    stem: str  # of its CSV columns, {stem}_0..
    per_joint: bool  # one column per joint, else per muscle
    dtype: np.dtype

    def width(self, n_joints: int, n_muscles: int) -> int:
        return n_joints if self.per_joint else n_muscles


def _block(stem: str, per: str, dtype=np.float64):
    """A TelemetryLog field that is a per-tick block; ``per`` is "joint" or "muscle"."""
    return field(metadata={"block": (stem, per == "joint", np.dtype(dtype))})


def row_bytes(n_joints: int, n_muscles: int) -> int:
    """Bytes of one log row: t and every block."""
    return 8 + sum(b.width(n_joints, n_muscles) * b.dtype.itemsize for b in _BLOCKS)


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
    t: np.ndarray  # (N,), row i at i * dt
    theta: np.ndarray = _block("theta", "joint")
    omega: np.ndarray = _block("omega", "joint")
    l_motor: np.ndarray = _block("l_motor", "muscle")
    l_ref_commanded: np.ndarray = _block("l_ref_cmd", "muscle")
    l_ref_effective: np.ndarray = _block("l_ref_eff", "muscle")
    f: np.ndarray = _block("f", "muscle")
    df: np.ndarray = _block("df", "muscle")  # tick-sampled difference held between ticks
    reflex_offset: np.ndarray = _block("reflex_offset", "muscle")
    reflex_fired: np.ndarray = _block("reflex_fired", "muscle", np.uint8)
    limit_force: np.ndarray = _block("limit_force", "joint")
    saturated: np.ndarray = _block("saturated", "muscle", np.uint8)
    slack: np.ndarray = _block("slack", "muscle", np.uint8)
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

    @property
    def reflex_events(self) -> list[tuple[int, float]]:
        """(muscle, time) of every reflex fire, in tick order, then muscle order."""
        rows, muscles = np.nonzero(self.reflex_fired)
        return [(int(j), float(self.t[i])) for i, j in zip(rows, muscles)]

    # ---- rows ----

    @staticmethod
    def allocate(n_rows: int, dt: float, n_joints: int, n_muscles: int) -> TelemetryLog:
        """A log of ``n_rows`` zero rows at times i * dt, to be filled in."""
        return TelemetryLog(dt, np.arange(n_rows) * dt, **{
            b.name: np.zeros((n_rows, b.width(n_joints, n_muscles)), b.dtype) for b in _BLOCKS
        })

    def head(self, rows: int) -> TelemetryLog:
        """A copy of the first ``rows`` rows and of the scripted events so far."""
        return replace(self, t=self.t[:rows], scripted_events=list(self.scripted_events),
                       **{b.name: getattr(self, b.name)[:rows].copy() for b in _BLOCKS})

    def grown(self, n_rows: int) -> TelemetryLog:
        """A copy of this log followed by zero rows, ``n_rows`` in all."""
        log = TelemetryLog.allocate(n_rows, self.dt, self.n_joints, self.n_muscles)
        for b in _BLOCKS:
            getattr(log, b.name)[:len(self.t)] = getattr(self, b.name)
        log.scripted_events = list(self.scripted_events)
        return log

    def finished(self, end: int, f_max: np.ndarray) -> TelemetryLog:
        """The first ``end`` rows, with saturated and slack set from the tensions."""
        log = replace(self, t=self.t[:end], **{b.name: getattr(self, b.name)[:end] for b in _BLOCKS})
        log.saturated[:] = log.f >= f_max
        log.slack[:] = log.f < SLACK_TENSION
        return log

    # ---- time indexing ----

    def index_at(self, t: float) -> int:
        """Index of the first row at or after time t."""
        return int(np.searchsorted(self.t, t - 1e-12))

    def window(self, t0: float, t1: float) -> slice:
        """Row slice covering [t0, t1)."""
        return slice(self.index_at(t0), self.index_at(t1))

    # ---- CSV ----

    def header(self) -> list[str]:
        return _header(self.n_joints, self.n_muscles)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)

    def write_csv(self, fh: io.TextIOBase) -> None:
        fh.write(",".join(self.header()) + "\n")
        blocks = [self.t[:, None], *(getattr(self, b.name) for b in _BLOCKS)]
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
        """The log a CSV file holds; ValueError names the column or row at fault."""
        with open(path, "r", newline="") as fh:
            header = fh.readline().strip().split(",")
            col = {name: i for i, name in enumerate(header)}
            # counted as one at least, so a file without joints or muscles lacks theta_0 or f_0
            n = sum(1 for c in header if c.startswith("theta_")) or 1
            m = sum(1 for c in header if c.startswith("f_")) or 1
            missing = [c for c in _header(n, m) if c not in col]
            if missing:
                raise ValueError(f"no column {missing[0]} in the header")
            try:
                with warnings.catch_warnings():  # on no rows; reported below
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as e:
                at = re.search(r"column (\d+)", str(e))  # numpy counts columns from 1
                name = f"column {header[int(at[1]) - 1]}: " if at and int(at[1]) <= len(header) else ""
                raise ValueError(f"{name}{e}") from None
        if not len(data):
            raise ValueError("no rows after the header")
        if data.shape[1] != len(header):
            raise ValueError(f"rows have {data.shape[1]} columns, the header {len(header)}")

        def grab(b: _Block) -> np.ndarray:
            # C order so reductions sum in the same order as the live arrays
            cols = [col[f"{b.stem}_{i}"] for i in range(b.width(n, m))]
            return np.ascontiguousarray(data[:, cols]).astype(b.dtype, copy=False)

        t = data[:, col["t"]]
        dt = float(t[1] - t[0]) if len(t) > 1 else 1e-3
        return TelemetryLog(dt, t, **{b.name: grab(b) for b in _BLOCKS})


_BLOCKS = tuple(_Block(f.name, *f.metadata["block"]) for f in fields(TelemetryLog) if f.metadata)


def _header(n_joints: int, n_muscles: int) -> list[str]:
    return ["t", *(f"{b.stem}_{i}" for b in _BLOCKS for i in range(b.width(n_joints, n_muscles)))]
