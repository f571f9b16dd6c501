"""Built-in experiment definitions.

Four upper-limb experiments on the default two-joint arm (shoulder pitch,
elbow pitch), each a scenario script plus the matching controller settings,
analysis parameters, and the named "paper" sweep grid:

  e1  protective reflex: elbow nearly extended, repeated same-direction
      impacts push it toward the extension limit stop.
  e2  postural stability: elbow bent 90 deg, seven alternating impacts;
      postural drift is measured before vs after.
  e3  feedback-assisted recovery: slow joint-angle feedback holds the bent
      posture; a mass dropped onto the hand loads the arm and knocks it off
      the reference; convergence time back under the angle threshold.
  e4  active lifting: a heavy payload is lifted by ramping the commanded
      references over one second; stiction leaves the no-reflex lift parked
      with elevated steady tension.

Impact strengths and timings are not physical constants; they are defaults
tuned once against the acceptance checks and frozen here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .arm import muscle_lengths_from_joints
from .control import FeedbackParams, loaded_hold_refs
from .metrics import AnalysisParams
from .reflex import ReflexParams
from .robot import Robot
from .scenario import Impulse, PayloadSet, RefTrajectory, ScenarioScript, Simulation

__all__ = [
    "Variant",
    "ExperimentDef",
    "builtin_experiments",
    "drop_impulses",
    "PRETENSION_MM",
    "EXPERIMENT_NAMES",
    "EXPERIMENT_FUNCTIONS",
    "BUILTIN_JOINTS",
]

# every built-in poses, strikes and lifts the two-joint arm (shoulder, elbow)
BUILTIN_JOINTS = 2

# co-contraction: refs are shortened by this much, giving every muscle a
# working tension well above slack so the trigger threshold is reachable
PRETENSION_MM = 7.4

# tuned impact magnitudes (rad/s at the struck joint)
E1_IMPACT_DOMEGA = 3.4
E2_IMPACT_DOMEGA = 4.2
E3_DROP_MASS = 6.0  # kg
E3_DROP_HEIGHT = 0.05  # m free fall onto the hand
E4_PAYLOAD = 2.0  # kg
# the lift is a slow approach followed by a quick final pull-in: the slow
# phase stretches the flexor too gradually to trip the reflex, while the
# pull-in gives a sharp stretch that does -- so the reflex release is the
# last transient of the lift and decides the parked posture
E4_RAMP_DURATION = 6.0  # s, slow approach
E4_PAUSE_DURATION = 0.4  # s, regrip pause that lets the arm park before the pull-in
E4_SNATCH_DURATION = 0.25  # s, final pull-in
E4_KNEE_FRACTION = 0.88  # reference span covered by the slow approach

THETA_BENT = -1.57  # rad, elbow bent to a right angle
THETA_NEAR_LIMIT = -0.03  # rad, elbow just short of the extension stop
E3_THETA_THRE = -1.545  # rad, convergence threshold
E3_DL_STRETCH = 5.0  # mm, small yank so the recoil cannot out-swing the catch itself


@dataclass(frozen=True)
class Variant:
    """One run of a sweep: reflex off, or on with these reflex settings."""

    label: str
    reflex: bool
    dl_stretch: float = ReflexParams.dl_stretch
    dt_loose: float = ReflexParams.dt_loose

    def switched(self, on: bool) -> Variant:
        """This variant with the reflex switched on or off; a switch renames it."""
        if on == self.reflex:
            return self
        return replace(self, reflex=on, label="reflex-on" if on else "reflex-off")


@dataclass(frozen=True)
class ExperimentDef:
    name: str
    scenario: ScenarioScript
    feedback: FeedbackParams | None
    analysis: AnalysisParams
    default_variant: Variant
    paper_sweep: tuple[Variant, ...]
    c_stretch: float = ReflexParams.c_stretch

    def reflex_params(self, variant: Variant, groups: tuple[tuple[int, ...], ...]) -> ReflexParams | None:
        if not variant.reflex:
            return None
        return ReflexParams(
            c_stretch=self.c_stretch,
            dl_stretch=variant.dl_stretch,
            dt_loose=variant.dt_loose,
            groups=groups,
        )

    def simulation(self, variant: Variant, robot: Robot) -> Simulation:
        return Simulation(self.scenario, robot, self.reflex_params(variant, robot.groups), self.feedback)


def _impacts(joint: int, domega: float, count: int, t0: float, spacing: float, alternate: bool):
    out = []
    for i in range(count):
        sign = -1.0 if (alternate and i % 2 == 1) else 1.0
        out.append(Impulse(t=t0 + i * spacing, joint=joint, delta_omega=sign * domega))
    return tuple(out)


def drop_impulses(robot: Robot, theta: np.ndarray, mass: float, height: float) -> tuple[Impulse, ...]:
    """Joint velocity jumps when a falling mass is caught at the hand.

    The mass lands with v = sqrt(2 g h) straight down and sticks to the tip;
    the vertical momentum maps through the link geometry to an angular
    impulse about every joint, divided by the inertia including the newly
    attached mass.
    """
    model = robot.model
    v = math.sqrt(2.0 * model.gravity_g * height)
    phi = np.cumsum(np.asarray(theta, dtype=float))
    steps = np.stack(
        [model.links.length * np.sin(phi), -model.links.length * np.cos(phi)], axis=1
    )
    pos = np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)])  # joint 0 .. tip
    tip = pos[-1]
    out = []
    for i in range(model.n_joints):
        rx, ry = tip - pos[i]
        d2 = rx * rx + ry * ry
        # torque impulse of the vertical momentum J = (0, -m v) about joint i
        ang = -rx * mass * v
        domega = ang / (model.joints.inertia[i] + mass * d2)
        out.append(Impulse(t=0.0, joint=i, delta_omega=float(domega)))
    return tuple(out)


def e1_experiment(robot: Robot, impact_domega: float = E1_IMPACT_DOMEGA,
                  n_impacts: int = 7) -> ExperimentDef:
    scenario = ScenarioScript(
        name="e1",
        duration=9.0,
        theta0=np.array([0.0, THETA_NEAR_LIMIT]),
        pretension_mm=PRETENSION_MM,
        impulses=_impacts(1, impact_domega, n_impacts, t0=1.0, spacing=1.0, alternate=False),
    )
    return ExperimentDef(
        name="e1",
        scenario=scenario,
        feedback=None,
        analysis=AnalysisParams(theta_ref=(0.0, THETA_NEAR_LIMIT)),
        default_variant=Variant("reflex-on", True, 10.0, 0.5),
        paper_sweep=(
            Variant("reflex-off", False),
            Variant("reflex-on", True, 10.0, 0.5),
        ),
    )


def e2_experiment(robot: Robot, impact_domega: float = E2_IMPACT_DOMEGA,
                  n_impacts: int = 7) -> ExperimentDef:
    # 1.2 s spacing: even a 1.0 s reflex release finishes before the next hit.
    # All knocks push the same way, so without the reflex the elbow ratchets
    # outward hit after hit, while the reflex re-anchors the posture each time.
    scenario = ScenarioScript(
        name="e2",
        duration=10.0,
        theta0=np.array([0.0, THETA_BENT]),
        pretension_mm=PRETENSION_MM,
        impulses=_impacts(1, impact_domega, n_impacts, t0=1.0, spacing=1.2, alternate=False),
    )
    return ExperimentDef(
        name="e2",
        scenario=scenario,
        feedback=None,
        analysis=AnalysisParams(
            drift_t_before=1.0,
            drift_t_after=10.0,
            theta_ref=(0.0, THETA_BENT),
        ),
        default_variant=Variant("set1", True, 10.0, 0.5),
        paper_sweep=(
            Variant("reflex-off", False),
            Variant("set1", True, 10.0, 0.5),
            Variant("set2", True, 10.0, 1.0),
            Variant("set3", True, 20.0, 1.0),
        ),
    )


def e3_experiment(
    robot: Robot,
    drop_mass: float = E3_DROP_MASS,
    drop_height: float = E3_DROP_HEIGHT,
    t_drop: float = 1.0,
) -> ExperimentDef:
    theta0 = np.array([0.0, THETA_BENT])
    caught = drop_impulses(robot, theta0, drop_mass, drop_height)
    scenario = ScenarioScript(
        name="e3",
        duration=10.0,
        theta0=theta0,
        pretension_mm=PRETENSION_MM,
        impulses=tuple(
            Impulse(t=t_drop, joint=imp.joint, delta_omega=imp.delta_omega) for imp in caught
        ),
        payload_events=(PayloadSet(t=t_drop, mass=drop_mass),),
    )
    return ExperimentDef(
        name="e3",
        scenario=scenario,
        feedback=FeedbackParams(theta_ref=theta0.copy()),
        analysis=AnalysisParams(
            theta_ref=tuple(float(v) for v in theta0),
            conv_joint=1,
            conv_t_impact=t_drop,
            conv_theta_thre=E3_THETA_THRE,
            conv_direction="below",
        ),
        default_variant=Variant("dt5.0", True, E3_DL_STRETCH, 5.0),
        paper_sweep=(
            Variant("reflex-off", False),
            Variant("dt1.0", True, E3_DL_STRETCH, 1.0),
            Variant("dt3.0", True, E3_DL_STRETCH, 3.0),
            Variant("dt5.0", True, E3_DL_STRETCH, 5.0),
        ),
    )


def e4_experiment(
    robot: Robot,
    payload: float = E4_PAYLOAD,
    ramp_duration: float = E4_RAMP_DURATION,
    t_ramp: float = 1.0,
) -> ExperimentDef:
    theta_start = np.array([0.0, -0.3])
    theta_end = np.array([0.0, THETA_BENT])
    refs_start = muscle_lengths_from_joints(theta_start, robot.model)
    # the lift must END on load-bearing references, otherwise the loaded arm
    # has no static support and slides off the posture after every release;
    # trajectory points are stored before the engine subtracts the pretension
    refs_end = (
        loaded_hold_refs(
            theta_end,
            robot.model,
            robot.muscles.k,
            payload_mass=payload,
            pretension_mm=PRETENSION_MM,
        )
        + PRETENSION_MM
    )
    refs_knee = refs_start + E4_KNEE_FRACTION * (refs_end - refs_start)
    t_knee = t_ramp + ramp_duration
    t_snatch = t_knee + E4_PAUSE_DURATION  # the arm settles onto the knee posture here
    t_end = t_snatch + E4_SNATCH_DURATION
    scenario = ScenarioScript(
        name="e4",
        duration=t_end + 2.25,
        theta0=theta_start,
        pretension_mm=PRETENSION_MM,
        initial_payload=payload,
        trajectory=RefTrajectory(
            times=(t_ramp, t_knee, t_snatch, t_end),
            refs=(tuple(refs_start), tuple(refs_knee), tuple(refs_knee), tuple(refs_end)),
        ),
    )
    return ExperimentDef(
        name="e4",
        scenario=scenario,
        feedback=None,
        analysis=AnalysisParams(window_final=1.0),
        default_variant=Variant("reflex-on", True, 10.0, 0.5),
        paper_sweep=(
            Variant("reflex-off", False),
            Variant("reflex-on", True, 10.0, 0.5),
        ),
    )


# the function behind each built-in, called with the robot it runs on (e1 and e2
# do not depend on it); a config's scenario_params are its keyword arguments
EXPERIMENT_FUNCTIONS = {
    "e1": e1_experiment, "e2": e2_experiment, "e3": e3_experiment, "e4": e4_experiment,
}
EXPERIMENT_NAMES = tuple(EXPERIMENT_FUNCTIONS)


def builtin_experiments(robot: Robot) -> dict[str, ExperimentDef]:
    """All four experiments keyed by name, as they ship."""
    return {name: fn(robot) for name, fn in EXPERIMENT_FUNCTIONS.items()}
