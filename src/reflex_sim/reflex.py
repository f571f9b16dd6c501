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
nothing about the plant.  The engine subtracts the offsets from the
commanded reference lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ReflexParams", "ReflexState", "update"]


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

    fired_at: tuple[float, ...]
    group_until: tuple[float, ...]
    last_t: float

    @staticmethod
    def initial(n_muscles: int, n_groups: int | None = None) -> "ReflexState":
        return ReflexState(
            fired_at=(-math.inf,) * n_muscles,
            group_until=(-math.inf,) * (n_groups if n_groups is not None else n_muscles),
            last_t=-math.inf,
        )


def update(
    state: ReflexState,
    tensions_prev,
    tensions_now,
    t: float,
    params: ReflexParams,
) -> tuple[ReflexState, list[float], list[tuple[int, float]]]:
    """One control tick; returns (new state, offsets in mm, fire events).

    ``tensions_prev``/``tensions_now`` are the tick samples the trigger
    compares: a muscle fires when its tension rose by strictly more than
    ``c_stretch``.  Ticks must advance strictly in time.
    """
    if not t > state.last_t:
        raise ValueError(f"control ticks must advance: t={t} after last_t={state.last_t}")

    dt_loose = params.dt_loose
    group_index = {m: gi for gi, members in enumerate(params.groups) for m in members}
    group_of = [group_index.get(m, 0) for m in range(len(tensions_now))]
    # loosening windows that have run out: back to Idle before eligibility.
    # the deadline is the absolute instant fired_at + dt_loose, the same form
    # the group window uses, so the two never disagree by a rounding ulp
    fired_at = [-math.inf if t >= tf + dt_loose else tf for tf in state.fired_at]
    group_until = list(state.group_until)

    # decide every muscle before any fire closes its group: same-tick co-fires
    fires = [
        m for m, (tf, g, prev, now) in enumerate(zip(fired_at, group_of, tensions_prev, tensions_now))
        if tf == -math.inf and t >= group_until[g] and now - prev > params.c_stretch
    ]
    events: list[tuple[int, float]] = []
    for m in fires:
        fired_at[m] = t
        g = group_of[m]
        group_until[g] = t + dt_loose
        events.append((m, t))

    offsets = []
    for tf in fired_at:
        off = 0.0
        if tf != -math.inf:
            off = params.dl_stretch * (1.0 - (t - tf) / dt_loose)
            if off <= 0.0:
                off = 0.0
        offsets.append(off)
    return ReflexState(fired_at=tuple(fired_at), group_until=tuple(group_until), last_t=t), offsets, events
