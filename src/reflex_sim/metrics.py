"""Evaluation quantities computed from a telemetry log.

All metrics are pure functions of the log, so recomputing a summary from a
round-tripped CSV reproduces the stored file exactly (floats are written in
repr form, the same shortest round-trip representation the CSV uses).

Posture metrics average over short windows (0.5 s by default) instead of
reading single samples; angle sensors are noisy and a lone bad sample should
not move a drift number.  Convergence time is the interval from an impact to
the earliest time after which the angle never strays past the threshold
again; if the log ends while still astray the run is flagged non-converged
(reported as inf) rather than credited with its last recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import count

import numpy as np

from .telemetry import TelemetryLog

__all__ = [
    "AnalysisParams",
    "MetricsReport",
    "drift",
    "conv_time",
    "tension_stats",
    "max_deviation",
    "limit_contact",
    "compute_report",
    "report_values",
    "report_lines",
    "write_summary",
    "read_summary",
    "params_from_summary",
]

_EPS = 1e-9


@dataclass(frozen=True)
class AnalysisParams:
    """What to evaluate on a log; None fields skip the optional metrics.

    window         mean window for posture metrics, s
    window_final   steady-tension window at the log end, s
    drift_*        window centers for postural drift (all joints)
    theta_ref      reference posture for max deviation (rad, per joint)
    conv_*         joint, impact time, angle threshold and target side for
                   convergence time
    """

    window: float = 0.5
    window_final: float = 1.0
    drift_t_before: float | None = None
    drift_t_after: float | None = None
    theta_ref: tuple[float, ...] | None = None
    conv_joint: int | None = None
    conv_t_impact: float | None = None
    conv_theta_thre: float | None = None
    conv_direction: str | None = None  # "below" or "above"


@dataclass(frozen=True)
class MetricsReport:
    params: AnalysisParams
    peak_tension: float
    peak_tension_muscle: tuple[float, ...]
    steady_tension: float
    limit_contact: float
    reflex_event_count: int
    drift_joint: tuple[float, ...] | None = None
    max_deviation_joint: tuple[float, ...] | None = None
    conv_time: float | None = None  # inf when non-converged
    converged: bool | None = None


def _window_mean(log: TelemetryLog, joint: int, t: float, window: float) -> float:
    """Mean joint angle over the trailing window [t - window, t)."""
    if t - window < log.t[0] - _EPS or t > log.duration + _EPS:
        raise ValueError(
            f"window [{t - window}, {t}) outside log [0, {log.duration})"
        )
    rows = log.window(t - window, t)
    return float(np.mean(log.theta[rows, joint]))


def drift(log: TelemetryLog, joint: int, t_before: float, t_after: float, window: float = 0.5) -> float:
    """Postural drift: |window-mean angle at t_after - the one at t_before|."""
    a = _window_mean(log, joint, t_before, window)
    b = _window_mean(log, joint, t_after, window)
    return abs(b - a)


def conv_time(
    log: TelemetryLog,
    joint: int,
    t_impact: float,
    theta_thre: float,
    direction: str = "below",
) -> float:
    """Time from the impact until the angle last leaves the threshold side.

    ``direction="below"`` means the posture has converged while theta <=
    theta_thre; "above" is the mirror.  Returns 0 when the threshold is never
    crossed after the impact and inf when the log ends still astray.
    """
    i0 = log.index_at(t_impact)
    th = log.theta[i0:, joint]
    if direction == "below":
        astray = th > theta_thre
    elif direction == "above":
        astray = th < theta_thre
    else:
        raise ValueError(f"direction must be 'below' or 'above', got {direction!r}")
    if not np.any(astray):
        return 0.0
    last = int(np.flatnonzero(astray)[-1])
    if last == len(th) - 1:
        return float("inf")
    return float(log.t[i0 + last + 1] - t_impact)


def tension_stats(log: TelemetryLog, window_final: float = 1.0) -> tuple[float, float]:
    """(peak, steady) tension in N.

    Peak is the maximum over every tick and muscle.  Steady is the mean over
    the final window of the most loaded muscle (the largest per-muscle mean).
    """
    peak = float(np.max(log.f))
    rows = log.window(log.duration - window_final, log.duration)
    steady = float(np.max(np.mean(log.f[rows], axis=0)))
    return peak, steady


def max_deviation(log: TelemetryLog, joint: int, theta_ref: float, t_from: float = 0.0) -> float:
    """Largest excursion from the reference angle from t_from onward (rad)."""
    i0 = log.index_at(t_from)
    return float(np.max(np.abs(log.theta[i0:, joint] - theta_ref)))


def limit_contact(log: TelemetryLog) -> float:
    """Largest joint-limit force magnitude seen anywhere in the run (N*m)."""
    return float(np.max(log.limit_force))


def compute_report(log: TelemetryLog, params: AnalysisParams) -> MetricsReport:
    if params.theta_ref is not None and len(params.theta_ref) != log.n_joints:
        raise ValueError(f"theta_ref: {len(params.theta_ref)} values for {log.n_joints} joints")
    if params.conv_joint is not None and not 0 <= params.conv_joint < log.n_joints:
        raise ValueError(f"conv_joint: {params.conv_joint} is not one of {log.n_joints} joints")
    peak_per = tuple(float(v) for v in np.max(log.f, axis=0))
    peak, steady = tension_stats(log, params.window_final)

    drift_vals = None
    if params.drift_t_before is not None and params.drift_t_after is not None:
        drift_vals = tuple(
            drift(log, j, params.drift_t_before, params.drift_t_after, params.window)
            for j in range(log.n_joints)
        )

    dev_vals = None
    if params.theta_ref is not None:
        dev_vals = tuple(
            max_deviation(log, j, params.theta_ref[j]) for j in range(log.n_joints)
        )

    ct = None
    converged = None
    if params.conv_joint is not None:
        ct = conv_time(
            log,
            params.conv_joint,
            params.conv_t_impact,
            params.conv_theta_thre,
            params.conv_direction,
        )
        converged = bool(np.isfinite(ct))

    return MetricsReport(
        params=params,
        peak_tension=peak,
        peak_tension_muscle=peak_per,
        steady_tension=steady,
        limit_contact=limit_contact(log),
        reflex_event_count=int(np.count_nonzero(log.reflex_fired)),
        drift_joint=drift_vals,
        max_deviation_joint=dev_vals,
        conv_time=ct,
        converged=converged,
    )


# ---- key = value summary files ----
#
# Each set field of a report is one key named after the field, a tuple field
# one key per index, {field}_{j}; an unset (None) field writes no line.  The
# analysis parameters follow by the same rule, with the prefix "params.".

_PARAMS = "params."


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):  # incl. np.float64; plain float repr keeps files portable
        return repr(float(v))
    return str(v)


def _keyed(obj, prefix: str) -> dict[str, str]:
    out = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, tuple):
            out.update((f"{prefix}{f.name}_{j}", _fmt(x)) for j, x in enumerate(v))
        elif v is not None and not isinstance(v, AnalysisParams):
            out[prefix + f.name] = _fmt(v)
    return out


def report_values(report: MetricsReport) -> dict[str, str]:
    """The summary's metric keys and their text, in file order, without the parameters."""
    return _keyed(report, "")


def report_lines(report: MetricsReport) -> list[str]:
    kv = {**report_values(report), **_keyed(report.params, _PARAMS)}
    return [f"{k} = {v}" for k, v in kv.items()]


def write_summary(report: MetricsReport, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in report_lines(report))


def read_summary(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(" = ")
            out[key] = value
    return out


def params_from_summary(kv: dict[str, str]) -> AnalysisParams:
    """The analysis parameters stored alongside the metric values.

    A field without a key keeps its default.  A value that does not parse as
    its field's type raises ValueError naming the key.
    """

    def parse(key, kind):
        try:
            return kind(kv[key])
        except ValueError:
            raise ValueError(f"{key}: must be a {kind.__name__}, got {kv[key]!r}") from None

    values = {}
    for f in fields(AnalysisParams):
        key = _PARAMS + f.name
        kind = {"int": int, "str": str}.get(f.type.split(" ")[0], float)  # a tuple holds floats
        if f.type.startswith("tuple"):
            n = next(j for j in count() if f"{key}_{j}" not in kv)
            if n:
                values[f.name] = tuple(parse(f"{key}_{j}", kind) for j in range(n))
        elif key in kv:
            values[f.name] = parse(key, kind)
    return AnalysisParams(**values)
