"""Stretch-reflex controller.

Runs at the control tick (100 Hz in the engine), watching the tick-to-tick
tension difference of every muscle.  When a muscle's tension jumps by more
than ``c_stretch`` within one tick it "fires": its reference-length offset
snaps to ``dl_stretch`` (contracting the muscle hard) and then ramps linearly
back to zero over ``dt_loose``, after which the muscle is Idle again.

A fire inhibits *new* triggers in the whole muscle group until the window
ends, so one muscle's contraction cannot chain the antagonists around it into
a mutual oscillation.  Two deliberate exceptions: muscles of a group that
exceed the threshold at the very same tick all fire together, and the instant
t_fired + dt_loose itself is free again (half-open window).  A muscle that
fired is also ineligible itself until it returns to Idle.

The controller is a pure state machine over sampled tensions; it knows
nothing about the plant.  Offsets are subtracted from the commanded
reference lengths downstream (``effective_ref``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ReflexParams", "ReflexState", "update", "effective_ref"]


@dataclass(frozen=True)
class ReflexParams:
    """Trigger threshold (N), contraction (mm), release time (s), groups.

    ``groups`` partitions the muscle indices; a fire inhibits its whole group.
    """

    c_stretch: float = 15.0
    dl_stretch: float = 10.0
    dt_loose: float = 0.5
    groups: tuple[tuple[int, ...], ...] = ()


@dataclass(frozen=True)
class ReflexState:
    """fired_at[m] is -inf when Idle, else the fire time (still Loosening).

    group_until[g] is the end of group g's inhibition window; last_t guards
    tick monotonicity.
    """

    fired_at: np.ndarray
    group_until: np.ndarray
    last_t: float

    @staticmethod
    def initial(n_muscles: int, n_groups: int | None = None) -> "ReflexState":
        return ReflexState(
            fired_at=np.full(n_muscles, -np.inf),
            group_until=np.full(n_groups if n_groups is not None else n_muscles, -np.inf),
            last_t=-np.inf,
        )


def _group_index(params: ReflexParams, n_muscles: int) -> np.ndarray:
    idx = np.zeros(n_muscles, dtype=int)
    for gi, members in enumerate(params.groups):
        for m in members:
            idx[m] = gi
    return idx


def update(
    state: ReflexState,
    tensions_prev: np.ndarray,
    tensions_now: np.ndarray,
    t: float,
    params: ReflexParams,
) -> tuple[ReflexState, np.ndarray, list[tuple[int, float]]]:
    """One control tick; returns (new state, offsets in mm, fire events).

    ``tensions_prev``/``tensions_now`` are the tick samples the trigger
    compares: a muscle fires when its tension rose by strictly more than
    ``c_stretch``.  Ticks must advance strictly in time.
    """
    if not t > state.last_t:
        raise ValueError(f"control ticks must advance: t={t} after last_t={state.last_t}")

    n_m = len(tensions_now)
    fired_at = state.fired_at.copy()
    group_until = state.group_until.copy()
    group_of = _group_index(params, n_m)

    # loosening windows that have run out: back to Idle before eligibility.
    # the deadline is the absolute instant fired_at + dt_loose, the same form
    # the group window uses, so the two never disagree by a rounding ulp
    fired_at[t >= fired_at + params.dt_loose] = -np.inf

    idle = np.isneginf(fired_at)
    group_free = t >= group_until
    delta = np.asarray(tensions_now, dtype=float) - np.asarray(tensions_prev, dtype=float)
    fires = idle & group_free[group_of] & (delta > params.c_stretch)

    events: list[tuple[int, float]] = []
    if np.any(fires):
        fired_at[fires] = t
        for m in np.flatnonzero(fires):
            g = group_of[m]
            group_until[g] = max(group_until[g], t + params.dt_loose)
            events.append((int(m), t))

    active = ~np.isneginf(fired_at)
    offsets = np.where(
        active,
        params.dl_stretch * (1.0 - (t - np.where(active, fired_at, t)) / params.dt_loose),
        0.0,
    )
    offsets = np.maximum(offsets, 0.0)

    return ReflexState(fired_at=fired_at, group_until=group_until, last_t=t), offsets, events


def effective_ref(l_ref_commanded: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Reference lengths actually sent to the motors: commanded minus offsets."""
    return np.subtract(l_ref_commanded, offsets)
