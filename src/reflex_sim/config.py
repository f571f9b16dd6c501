"""YAML config schemas: robot descriptions and experiment scripts.

Two file kinds, both with ``schema_version: 1``:

kind: robot       joints, links, muscles (with per-joint moment arms),
                  reflex inhibition groups, gravity
kind: experiment  scenario selection (builtin name or a custom script),
                  reflex and feedback settings, optional sweep

Validation never runs physics.  All problems in a file are collected into
one list of "field.path: message" strings; loaders raise ConfigError
carrying that list.
"""

from __future__ import annotations

import importlib.resources
import inspect
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .arm import ArmModel, JointParams, LinkParams
from .errors import ConfigError
from .experiments import EXPERIMENT_FUNCTIONS, EXPERIMENT_NAMES, Variant
from .muscles import MuscleParams
from .robot import Robot
from .scenario import Impulse, PayloadSet, RefTrajectory, ScenarioScript, last_event_time

__all__ = [
    "ExperimentConfig",
    "validate_file",
    "load_robot",
    "load_experiment",
    "default_robot",
    "default_robot_path",
    "custom_scenario",
]

SCHEMA_VERSION = 1

_JOINT_FIELDS = (
    "inertia", "damping", "limit_lo", "limit_hi", "limit_stiffness",
    "limit_damping", "mu_static", "mu_kinetic", "stiction_band",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed, validated experiment file (paths resolved but not loaded)."""

    name: str
    scenario: str
    base_dir: Path
    robot_path: Path | None = None
    scenario_params: dict = field(default_factory=dict)
    reflex_enabled: bool | None = None
    c_stretch: float | None = None
    dl_stretch: float | None = None
    dt_loose: float | None = None
    feedback_enabled: bool | None = None
    alpha: float | None = None
    rate_hz: float | None = None
    theta_ref: tuple[float, ...] | None = None
    sweep: str | tuple[Variant, ...] | None = None
    custom: dict | None = None


# ---- small validation helpers ----


def _is_number(v, inf_ok=False) -> bool:
    """A real number that is not NaN; infinite only when ``inf_ok``."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    return math.isfinite(v) or (inf_ok and math.isinf(v))


def _num(d, key, path, errors, *, gt=None, ge=None, lt=None, le=None, required=True,
         inf_ok=False):
    if key not in d:
        if required:
            errors.append(f"{path}.{key}: required")
        return None
    v = d[key]
    if not _is_number(v, inf_ok):
        errors.append(f"{path}.{key}: must be a finite number, got {v!r}")
        return None
    v = float(v)
    if gt is not None and not v > gt:
        errors.append(f"{path}.{key}: must be > {gt}, got {v}")
    if ge is not None and not v >= ge:
        errors.append(f"{path}.{key}: must be >= {ge}, got {v}")
    if lt is not None and not v < lt:
        errors.append(f"{path}.{key}: must be < {lt}, got {v}")
    if le is not None and not v <= le:
        errors.append(f"{path}.{key}: must be <= {le}, got {v}")
    return v


def _numlist(d, key, path, errors, *, required=True):
    if key not in d:
        if required:
            errors.append(f"{path}.{key}: required")
        return None
    v = d[key]
    if not isinstance(v, list) or not all(_is_number(x) for x in v):
        errors.append(f"{path}.{key}: must be a list of finite numbers")
        return None
    return [float(x) for x in v]


def _seq_of_maps(d, key, path, errors):
    v = d.get(key)
    if not isinstance(v, list) or not v or not all(isinstance(x, dict) for x in v):
        errors.append(f"{path + '.' if path else ''}{key}: must be a non-empty list of mappings")
        return None
    return v


def _head_errors(doc, expected_kind):
    errors = []
    if not isinstance(doc, dict):
        return [f"top level: must be a mapping, got {type(doc).__name__}"]
    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"schema_version: must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}"
        )
    kind = doc.get("kind")
    if kind not in ("robot", "experiment"):
        errors.append(f"kind: must be 'robot' or 'experiment', got {kind!r}")
    elif expected_kind is not None and kind != expected_kind:
        errors.append(f"kind: expected '{expected_kind}', got '{kind}'")
    return errors


# ---- robot schema ----


def _robot_errors(doc) -> list[str]:
    errors = _head_errors(doc, "robot")
    if not isinstance(doc, dict):
        return errors

    _num(doc, "gravity", "", errors, ge=0.0, required=False)

    joints = _seq_of_maps(doc, "joints", "", errors)
    links = _seq_of_maps(doc, "links", "", errors)
    muscles = _seq_of_maps(doc, "muscles", "", errors)

    if joints is not None:
        for i, j in enumerate(joints):
            p = f"joints[{i}]"
            _num(j, "inertia", p, errors, gt=0.0)
            _num(j, "damping", p, errors, ge=0.0)
            lo = _num(j, "limit_lo", p, errors, inf_ok=True)
            hi = _num(j, "limit_hi", p, errors, inf_ok=True)
            if lo is not None and hi is not None and not lo < hi:
                errors.append(f"{p}.limit_lo: must be < limit_hi ({lo} >= {hi})")
            _num(j, "limit_stiffness", p, errors, ge=0.0)
            _num(j, "limit_damping", p, errors, ge=0.0)
            mu_s = _num(j, "mu_static", p, errors, ge=0.0)
            mu_k = _num(j, "mu_kinetic", p, errors, ge=0.0)
            if mu_s is not None and mu_k is not None and mu_s < mu_k:
                errors.append(f"{p}.mu_static: must be >= mu_kinetic ({mu_s} < {mu_k})")
            _num(j, "stiction_band", p, errors, ge=0.0)

    if links is not None:
        if joints is not None and len(links) != len(joints):
            errors.append(f"links: expected one per joint ({len(joints)}), got {len(links)}")
        for i, l in enumerate(links):
            p = f"links[{i}]"
            _num(l, "mass", p, errors, gt=0.0)
            length = _num(l, "length", p, errors, gt=0.0)
            com = _num(l, "com", p, errors, ge=0.0)
            if com is not None and length is not None and com > length:
                errors.append(f"{p}.com: must be <= length ({com} > {length})")

    names = []
    if muscles is not None:
        for i, m in enumerate(muscles):
            p = f"muscles[{i}]"
            names.append(m.get("name", i))
            _num(m, "k", p, errors, gt=0.0)
            _num(m, "l0", p, errors, gt=0.0)
            _num(m, "f_max", p, errors, gt=0.0)
            _num(m, "motor_vmax", p, errors, gt=0.0)
            _num(m, "servo_gain", p, errors, gt=0.0)
            arms = _numlist(m, "moment_arms", p, errors)
            if arms is not None and joints is not None and len(arms) != len(joints):
                errors.append(
                    f"{p}.moment_arms: expected one per joint ({len(joints)}), got {len(arms)}"
                )
        if len(set(names)) != len(names):
            errors.append("muscles: names must be unique")

    groups = doc.get("groups")
    if groups is not None and muscles is not None:
        if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
            errors.append("groups: must be a list of lists")
        else:
            flat = [m for g in groups for m in g]
            resolved = []
            for m in flat:
                if isinstance(m, str):
                    if m not in names:
                        errors.append(f"groups: unknown muscle name {m!r}")
                    else:
                        resolved.append(names.index(m))
                elif isinstance(m, int) and not isinstance(m, bool) and 0 <= m < len(names):
                    resolved.append(m)
                else:
                    errors.append(f"groups: invalid muscle reference {m!r}")
            if len(resolved) == len(flat) and sorted(resolved) != list(range(len(names))):
                errors.append(
                    "groups: must partition the muscles (each exactly once)"
                )
    return errors


def _robot_from_doc(doc) -> Robot:
    joints = doc["joints"]
    jp = JointParams(
        **{f: np.array([float(j[f]) for j in joints]) for f in _JOINT_FIELDS}
    )
    links = doc["links"]
    lp = LinkParams(
        mass=np.array([float(l["mass"]) for l in links]),
        length=np.array([float(l["length"]) for l in links]),
        com=np.array([float(l["com"]) for l in links]),
    )
    muscles = doc["muscles"]
    G = np.array([[float(a) for a in m["moment_arms"]] for m in muscles]).T
    model = ArmModel(
        joints=jp, G=G, l0=np.array([float(m["l0"]) for m in muscles]), links=lp,
        gravity_g=float(doc.get("gravity", 9.81)),
    )
    mp = MuscleParams(
        k=np.array([float(m["k"]) for m in muscles]),
        f_max=np.array([float(m["f_max"]) for m in muscles]),
        motor_vmax=np.array([float(m["motor_vmax"]) for m in muscles]),
        servo_gain=np.array([float(m["servo_gain"]) for m in muscles]),
    )
    names = [str(m.get("name", i)) for i, m in enumerate(muscles)]
    groups = doc.get("groups")
    if groups is None:
        resolved = tuple((i,) for i in range(len(names)))
    else:
        resolved = tuple(
            tuple(names.index(m) if isinstance(m, str) else int(m) for m in g)
            for g in groups
        )
    return Robot(
        model=model,
        muscles=mp,
        joint_names=tuple(str(j.get("name", i)) for i, j in enumerate(joints)),
        muscle_names=tuple(names),
        groups=resolved,
    )


# ---- experiment schema ----


def _variant_from(d, idx, errors) -> Variant | None:
    p = f"sweep[{idx}]"
    label = d.get("label", f"run{idx}")
    reflex = d.get("reflex", True)
    if not isinstance(reflex, bool):
        errors.append(f"{p}.reflex: must be true or false")
        return None
    # unset values keep the Variant defaults
    values = {k: _num(d, k, p, errors, gt=0.0) for k in ("dl_stretch", "dt_loose") if k in d}
    if None in values.values():
        return None
    return Variant(label=str(label), reflex=reflex, **values)


def _custom_errors(doc) -> list[str]:
    errors = []
    duration = _num(doc, "duration", "custom", errors, gt=0.0)
    theta0 = _numlist(doc, "theta0", "custom", errors)
    if theta0 is not None and not theta0:
        errors.append("custom.theta0: must not be empty")
    _num(doc, "pretension_mm", "custom", errors, ge=0.0, required=False)
    _num(doc, "time_jitter", "custom", errors, ge=0.0, required=False)

    # an event after the last step's time would never apply
    last = None if duration is None else last_event_time(duration, ScenarioScript.dt)

    def check_time(t, p):
        if None not in (t, last) and t > last:
            errors.append(f"{p}.t: must be within [0, {last:.6g}], the last step, got {t}")

    for i, imp in enumerate(doc.get("impulses", [])):
        p = f"custom.impulses[{i}]"
        if not isinstance(imp, dict):
            errors.append(f"{p}: must be a mapping")
            continue
        check_time(_num(imp, "t", p, errors, ge=0.0), p)
        joint = imp.get("joint")
        if not isinstance(joint, int) or isinstance(joint, bool) or joint < 0:
            errors.append(f"{p}.joint: must be a joint index >= 0")
        _num(imp, "delta_omega", p, errors)
    for i, pay in enumerate(doc.get("payloads", [])):
        p = f"custom.payloads[{i}]"
        if not isinstance(pay, dict):
            errors.append(f"{p}: must be a mapping")
            continue
        check_time(_num(pay, "t", p, errors, ge=0.0), p)
        _num(pay, "mass", p, errors, ge=0.0)

    traj = doc.get("trajectory")
    if traj is not None:
        if not isinstance(traj, dict):
            errors.append("custom.trajectory: must be a mapping")
        else:
            times = _numlist(traj, "times", "custom.trajectory", errors)
            refs = traj.get("refs")
            if times is not None and any(
                b <= a for a, b in zip(times, times[1:])
            ):
                errors.append("custom.trajectory.times: must be strictly increasing")
            if (
                not isinstance(refs, list)
                or not refs
                or not all(isinstance(r, list) and all(_is_number(x) for x in r) for r in refs)
                or len({len(r) for r in refs}) > 1
            ):
                errors.append(
                    "custom.trajectory.refs: must be equal-length rows of finite numbers, one per time"
                )
            elif times is not None and len(refs) != len(times):
                errors.append("custom.trajectory.refs: need exactly one row per time")
    return errors


def _scenario_params_errors(scenario: str, params: dict) -> list[str]:
    """Keyword arguments of the built-in's function, typed by their defaults."""
    errors: list[str] = []
    signature = inspect.signature(EXPERIMENT_FUNCTIONS[scenario]).parameters
    known = [name for name in signature if name != "robot"]
    for key, value in params.items():
        p = f"scenario_params.{key}"
        if key not in known:
            errors.append(f"{p}: unknown parameter for {scenario}; known: {', '.join(known)}")
        elif isinstance(signature[key].default, int):
            if isinstance(value, bool) or not isinstance(value, int):
                errors.append(f"{p}: must be an integer, got {value!r}")
        else:
            _num(params, key, "scenario_params", errors,
                 ge=0.0 if key == "drop_height" else None)
    return errors


def _experiment_errors(doc, base_dir: Path) -> list[str]:
    errors = _head_errors(doc, "experiment")
    if not isinstance(doc, dict):
        return errors

    scenario = doc.get("scenario")
    valid = EXPERIMENT_NAMES + ("custom",)
    if scenario not in valid:
        errors.append(f"scenario: must be one of {', '.join(valid)}, got {scenario!r}")

    robot = doc.get("robot")
    if robot is not None:
        if not isinstance(robot, str):
            errors.append("robot: must be a path string")
        elif not (base_dir / robot).exists():
            errors.append(f"robot: file not found: {robot}")

    reflex = doc.get("reflex", {})
    if not isinstance(reflex, dict):
        errors.append("reflex: must be a mapping")
    else:
        if "enabled" in reflex and not isinstance(reflex["enabled"], bool):
            errors.append("reflex.enabled: must be true or false")
        for key in ("c_stretch", "dl_stretch", "dt_loose"):
            _num(reflex, key, "reflex", errors, gt=0.0, required=False)

    fb = doc.get("feedback", {})
    if not isinstance(fb, dict):
        errors.append("feedback: must be a mapping")
    else:
        if "enabled" in fb and not isinstance(fb["enabled"], bool):
            errors.append("feedback.enabled: must be true or false")
        _num(fb, "alpha", "feedback", errors, gt=0.0, le=1.0, required=False)
        # at most one feedback tick per physics step
        _num(fb, "rate_hz", "feedback", errors, gt=0.0, le=1.0 / ScenarioScript.dt,
             required=False)
        if "theta_ref" in fb and fb["theta_ref"] is not None:
            _numlist(fb, "theta_ref", "feedback", errors)

    sweep = doc.get("sweep")
    if sweep is not None and sweep != "paper":
        if not isinstance(sweep, list) or not sweep:
            errors.append("sweep: must be 'paper' or a non-empty list of run mappings")
        else:
            for i, entry in enumerate(sweep):
                if not isinstance(entry, dict):
                    errors.append(f"sweep[{i}]: must be a mapping")
                else:
                    _variant_from(entry, i, errors)

    params = doc.get("scenario_params", {})
    if not isinstance(params, dict):
        errors.append("scenario_params: must be a mapping")
    elif scenario in EXPERIMENT_FUNCTIONS:
        errors.extend(_scenario_params_errors(scenario, params))
    elif scenario == "custom" and params:
        errors.append("scenario_params: only a built-in scenario takes parameters; "
                      "a custom script sets its values in the custom block")

    custom = doc.get("custom")
    if scenario == "custom":
        if not isinstance(custom, dict):
            errors.append("custom: required mapping when scenario is 'custom'")
        else:
            errors.extend(_custom_errors(custom))
    elif custom is not None and not isinstance(custom, dict):
        errors.append("custom: must be a mapping")
    return errors


def _experiment_from_doc(doc, path: Path) -> ExperimentConfig:
    base_dir = path.parent
    reflex = doc.get("reflex", {}) or {}
    fb = doc.get("feedback", {}) or {}
    sweep = doc.get("sweep")
    if isinstance(sweep, list):
        errs: list[str] = []
        sweep = tuple(_variant_from(d, i, errs) for i, d in enumerate(sweep))
    theta_ref = fb.get("theta_ref")
    return ExperimentConfig(
        name=str(doc.get("name", doc.get("scenario"))),
        scenario=doc["scenario"],
        base_dir=base_dir,
        robot_path=(base_dir / doc["robot"]) if doc.get("robot") else None,
        scenario_params=dict(doc.get("scenario_params", {})),
        reflex_enabled=reflex.get("enabled"),
        c_stretch=reflex.get("c_stretch"),
        dl_stretch=reflex.get("dl_stretch"),
        dt_loose=reflex.get("dt_loose"),
        feedback_enabled=fb.get("enabled"),
        alpha=fb.get("alpha"),
        rate_hz=fb.get("rate_hz"),
        theta_ref=tuple(theta_ref) if theta_ref else None,
        sweep=sweep,
        custom=doc.get("custom"),
    )


def custom_scenario(cfg: ExperimentConfig, robot: Robot) -> ScenarioScript:
    """Build the scripted scenario from a validated custom experiment config."""
    doc = cfg.custom
    theta0 = np.array(doc["theta0"], dtype=float)
    if len(theta0) != robot.model.n_joints:
        raise ConfigError(
            [f"custom.theta0: expected {robot.model.n_joints} joints, got {len(theta0)}"]
        )
    n_m = robot.model.n_muscles
    traj = None
    if doc.get("trajectory"):
        refs = doc["trajectory"]["refs"]
        if any(len(r) != n_m for r in refs):
            raise ConfigError(
                [f"custom.trajectory.refs: expected {n_m} muscles per row"]
            )
        traj = RefTrajectory(
            times=tuple(float(t) for t in doc["trajectory"]["times"]),
            refs=tuple(tuple(float(v) for v in r) for r in refs),
        )
    bad_joint = [
        i for i, imp in enumerate(doc.get("impulses", []))
        if imp["joint"] >= robot.model.n_joints
    ]
    if bad_joint:
        raise ConfigError(
            [f"custom.impulses[{i}].joint: no such joint" for i in bad_joint]
        )
    return ScenarioScript(
        name=cfg.name,
        duration=float(doc["duration"]),
        theta0=theta0,
        pretension_mm=float(doc.get("pretension_mm", 0.0)),
        impulses=tuple(
            Impulse(t=float(i["t"]), joint=int(i["joint"]), delta_omega=float(i["delta_omega"]))
            for i in doc.get("impulses", [])
        ),
        payload_events=tuple(
            PayloadSet(t=float(p["t"]), mass=float(p["mass"]))
            for p in doc.get("payloads", [])
        ),
        trajectory=traj,
        time_jitter=float(doc.get("time_jitter", 0.0)),
    )


# ---- entry points ----


def _read_doc(path) -> tuple[dict | None, list[str]]:
    p = Path(path)
    if not p.exists():
        return None, [f"{p}: file not found"]
    try:
        doc = yaml.safe_load(p.read_text())
    except yaml.YAMLError as e:
        return None, [f"{p}: invalid YAML: {e}"]
    return doc, []


def validate_file(path) -> list[str]:
    """All schema problems in the file; empty list means valid."""
    doc, errors = _read_doc(path)
    if errors:
        return errors
    if not isinstance(doc, dict):
        return [f"top level: must be a mapping, got {type(doc).__name__}"]
    kind = doc.get("kind")
    if kind == "robot":
        return _robot_errors(doc)
    if kind == "experiment":
        return _experiment_errors(doc, Path(path).parent)
    return _head_errors(doc, None)


def load_robot(path) -> Robot:
    doc, errors = _read_doc(path)
    errors = errors or _robot_errors(doc)
    if errors:
        raise ConfigError(errors)
    return _robot_from_doc(doc)


def load_experiment(path) -> ExperimentConfig:
    doc, errors = _read_doc(path)
    errors = errors or _experiment_errors(doc, Path(path).parent)
    if errors:
        raise ConfigError(errors)
    return _experiment_from_doc(doc, Path(path))


def default_robot_path() -> Path:
    return Path(str(importlib.resources.files("reflex_sim") / "data" / "robot.yaml"))


def default_robot() -> Robot:
    return load_robot(default_robot_path())
