"""YAML config schemas: robot descriptions and experiment scripts.

Two file kinds, both with ``schema_version: 1``:

kind: robot       joints, links, muscles (with per-joint moment arms),
                  reflex inhibition groups, gravity
kind: experiment  scenario selection (builtin name or a custom script),
                  the robot it runs on, reflex and feedback settings,
                  optional sweep

Each file is parsed in one pass that reads every field once, checks it and
builds what it configures.  An experiment is parsed together with the robot
it names, so every width is checked against that robot, and the result is
the runnable experiment; ``validate`` parses and discards it.  Parsing never
runs physics.  All problems in a file are collected into one list of
"field.path: message" strings, raised as one ConfigError.
"""

from __future__ import annotations

import importlib.resources
import inspect
import math
import os
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from .arm import ArmModel, JointParams, LinkParams
from .control import FeedbackParams
from .errors import ConfigError
from .experiments import (
    BUILTIN_JOINTS,
    EXPERIMENT_FUNCTIONS,
    EXPERIMENT_NAMES,
    ExperimentDef,
    Variant,
)
from .metrics import AnalysisParams
from .muscles import MuscleParams
from .robot import Robot
from .scenario import (
    Impulse,
    PayloadSet,
    RefTrajectory,
    ScenarioScript,
    last_event_time,
    step_count,
)
from .telemetry import MAX_LOG_BYTES, row_bytes

__all__ = [
    "Experiment",
    "validate_file",
    "load_robot",
    "load_experiment",
    "builtin_experiment",
    "default_robot",
    "default_robot_path",
]

SCHEMA_VERSION = 1
_NAME_MAX = 255  # bytes in one file name, the common file systems' limit

# libyaml's parser when PyYAML was built with it; either way PyYAML's own
# resolver and constructor type the scalars, so both give the same documents
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# the bounds each number of a robot entry must meet, as _num keywords
_JOINT_FIELDS = {
    "inertia": {"gt": 0.0}, "damping": {"ge": 0.0},
    "limit_lo": {"inf_ok": True}, "limit_hi": {"inf_ok": True},
    "limit_stiffness": {"ge": 0.0}, "limit_damping": {"ge": 0.0},
    "mu_static": {"ge": 0.0}, "mu_kinetic": {"ge": 0.0}, "stiction_band": {"ge": 0.0},
}
_LINK_FIELDS = {"mass": {"gt": 0.0}, "length": {"gt": 0.0}, "com": {"ge": 0.0}}
_MUSCLE_FIELDS = dict.fromkeys(("k", "l0", "f_max", "motor_vmax", "servo_gain"), {"gt": 0.0})


class Experiment(NamedTuple):
    """An experiment file parsed into everything ``run`` needs."""

    scenario: str  # a built-in's name, or "custom"
    exp: ExperimentDef  # the file's values set, each layer switched as the file says
    robot: Robot
    feedback: FeedbackParams  # the feedback settings, kept when the file switches the layer off
    sweep: str | tuple[Variant, ...] | None  # "paper", the file's own runs, or none


# ---- small parsing helpers ----


def _is_number(v, inf_ok=False) -> bool:
    """A real number that is not NaN; infinite only when ``inf_ok``."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    return math.isfinite(v) or (inf_ok and math.isinf(v))


def _num(d, key, path, errors, *, gt=None, ge=None, le=None, required=True, inf_ok=False):
    """``d[key]`` as a float, or None (with an error) when missing or out of bounds."""
    at = f"{path}.{key}" if path else key
    if key not in d:
        if required:
            errors.append(f"{at}: required")
        return None
    v = d[key]
    if not _is_number(v, inf_ok):
        errors.append(f"{at}: must be a finite number, got {v!r}")
        return None
    v = float(v)
    for ok, bound in ((gt is None or v > gt, f"> {gt}"), (ge is None or v >= ge, f">= {ge}"),
                      (le is None or v <= le, f"<= {le}")):
        if not ok:
            errors.append(f"{at}: must be {bound}, got {v}")
            return None
    return v


def _numlist(d, key, path, errors, *, joints=None, required=True):
    """``d[key]`` as a list of floats, one per joint when ``joints`` is given, or None."""
    if d.get(key) is None:
        if required:
            errors.append(f"{path}.{key}: required")
        return None
    v = d[key]
    if not isinstance(v, list) or not all(_is_number(x) for x in v):
        errors.append(f"{path}.{key}: must be a list of finite numbers")
        return None
    if joints is not None and len(v) != joints:
        errors.append(f"{path}.{key}: expected {joints} values, one per joint, got {len(v)}")
        return None
    return [float(x) for x in v]


def _maps(d, key, errors) -> list[dict]:
    """A required non-empty list of mappings."""
    v = d.get(key)
    if not isinstance(v, list) or not v or not all(isinstance(x, dict) for x in v):
        errors.append(f"{key}: must be a non-empty list of mappings")
        return []
    return v


def _entries(d, key, path, errors) -> list[tuple[str, dict]]:
    """(path, mapping) of each entry of an optional list of mappings."""
    items = d.get(key, [])
    if not isinstance(items, list):
        errors.append(f"{path}.{key}: must be a list")
        return []
    out = []
    for i, item in enumerate(items):
        if isinstance(item, dict):
            out.append((f"{path}.{key}[{i}]", item))
        else:
            errors.append(f"{path}.{key}[{i}]: must be a mapping")
    return out


def _mapping(d, key, errors) -> dict:
    v = d.get(key, {})
    if not isinstance(v, dict):
        errors.append(f"{key}: must be a mapping")
        return {}
    return v


def _switch(section: dict, path, errors) -> bool | None:
    """A layer's ``enabled`` flag, or None when the file leaves it unset."""
    enabled = section.get("enabled")
    if "enabled" in section and not isinstance(enabled, bool):
        errors.append(f"{path}.enabled: must be true or false")
        return None
    return enabled


def _dir_name(v, at, errors) -> bool:
    """Whether ``v`` names one directory inside the output directory; an error if not."""
    if isinstance(v, str) and v not in ("", ".", "..") and not any(c in v for c in "/\\\0"):
        try:
            if len(os.fsencode(v)) <= _NAME_MAX:
                return True
        except UnicodeEncodeError:
            pass
    errors.append(f"{at}: must be a non-empty string other than '.' and '..', of at most "
                  f"{_NAME_MAX} bytes, without '/', '\\' or NUL, got {v!r}")
    return False


def _head_errors(doc, expected_kind):
    if not isinstance(doc, dict):
        return [f"top level: must be a mapping, got {type(doc).__name__}"]
    errors = []
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


# ---- robot ----


def _rows(items, key, fields, errors) -> list[dict]:
    """Each entry's numbers, checked against their bounds (None where they fail)."""
    return [
        {f: _num(item, f, f"{key}[{i}]", errors, **bounds) for f, bounds in fields.items()}
        for i, item in enumerate(items)
    ]


def _groups(groups, names, errors) -> tuple[tuple[int, ...], ...]:
    """Inhibition groups as muscle indices; one muscle per group when unset."""
    if groups is None:
        return tuple((i,) for i in range(len(names)))
    if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
        errors.append("groups: must be a list of lists")
        return ()
    resolved = []
    for group in groups:
        members = []
        for m in group:
            if isinstance(m, str) and m in names:
                members.append(names.index(m))
            elif isinstance(m, int) and not isinstance(m, bool) and 0 <= m < len(names):
                members.append(m)
            else:
                errors.append(f"groups: unknown muscle {m!r}")
        resolved.append(tuple(members))
    flat = sorted(m for g in resolved for m in g)
    if len(flat) == sum(map(len, groups)) and flat != list(range(len(names))):
        errors.append("groups: must partition the muscles (each exactly once)")
    return tuple(resolved)


def _parse_robot(doc) -> Robot:
    errors = _head_errors(doc, "robot")
    if not isinstance(doc, dict):
        raise ConfigError(errors)
    gravity = _num(doc, "gravity", "", errors, ge=0.0, required=False)
    joints, links, muscles = (_maps(doc, key, errors) for key in ("joints", "links", "muscles"))

    joint_rows = _rows(joints, "joints", _JOINT_FIELDS, errors)
    for i, r in enumerate(joint_rows):
        lo, hi, mu_s, mu_k = r["limit_lo"], r["limit_hi"], r["mu_static"], r["mu_kinetic"]
        if None not in (lo, hi) and not lo < hi:
            errors.append(f"joints[{i}].limit_lo: must be < limit_hi ({lo} >= {hi})")
        if None not in (mu_s, mu_k) and mu_s < mu_k:
            errors.append(f"joints[{i}].mu_static: must be >= mu_kinetic ({mu_s} < {mu_k})")

    if joints and links and len(links) != len(joints):
        errors.append(f"links: expected one per joint ({len(joints)}), got {len(links)}")
    link_rows = _rows(links, "links", _LINK_FIELDS, errors)
    for i, r in enumerate(link_rows):
        if None not in (r["com"], r["length"]) and r["com"] > r["length"]:
            errors.append(f"links[{i}].com: must be <= length ({r['com']} > {r['length']})")

    muscle_rows = _rows(muscles, "muscles", _MUSCLE_FIELDS, errors)
    arms = [
        _numlist(m, "moment_arms", f"muscles[{i}]", errors, joints=len(joints) or None)
        for i, m in enumerate(muscles)
    ]
    names = [str(m.get("name", i)) for i, m in enumerate(muscles)]
    if len(set(names)) != len(names):
        errors.append("muscles: names must be unique")
    groups = _groups(doc.get("groups"), names, errors)
    if errors:
        raise ConfigError(errors)

    def column(rows, f):
        return np.array([r[f] for r in rows])

    model = ArmModel(
        joints=JointParams(**{f: column(joint_rows, f) for f in _JOINT_FIELDS}),
        G=np.array(arms).T,
        l0=column(muscle_rows, "l0"),
        links=LinkParams(**{f: column(link_rows, f) for f in _LINK_FIELDS}),
        gravity_g=9.81 if gravity is None else gravity,
    )
    return Robot(
        model=model,
        muscles=MuscleParams(
            **{f: column(muscle_rows, f) for f in ("k", "f_max", "motor_vmax", "servo_gain")}
        ),
        joint_names=tuple(str(j.get("name", i)) for i, j in enumerate(joints)),
        muscle_names=tuple(names),
        groups=groups,
    )


# ---- experiment ----


def _robot_named(ref, base_dir: Path, errors) -> Robot | None:
    """The robot an experiment runs on: the shipped default, or the file it names."""
    if ref is None:
        return default_robot()
    if not isinstance(ref, str):
        errors.append("robot: must be a path string")
        return None
    if not (base_dir / ref).is_file():
        errors.append(f"robot: file not found: {ref}")
        return None
    try:
        return load_robot(base_dir / ref)
    except ConfigError as e:
        errors.extend(f"robot: {ref}: {err}" for err in e.errors)
        return None


def _parse_sweep(sweep, errors) -> str | tuple[Variant, ...] | None:
    if sweep is None or sweep == "paper":
        return sweep
    if not isinstance(sweep, list) or not sweep:
        errors.append("sweep: must be 'paper' or a non-empty list of run mappings")
        return None
    variants = []
    for i, entry in enumerate(sweep):
        p = f"sweep[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{p}: must be a mapping")
            continue
        label = entry.get("label", f"run{i}")
        if not _dir_name(label, f"{p}.label", errors):
            continue
        if label == "comparison.csv":
            errors.append(f"{p}.label: must not be comparison.csv, the sweep's own file")
            continue
        reflex = entry.get("reflex", True)
        if not isinstance(reflex, bool):
            errors.append(f"{p}.reflex: must be true or false")
            continue
        # unset values keep the Variant defaults
        values = {k: _num(entry, k, p, errors, gt=0.0) for k in ("dl_stretch", "dt_loose") if k in entry}
        variants.append(Variant(label, reflex, **values))
    labels = [v.label for v in variants]
    if len(set(labels)) != len(labels):
        errors.append(f"sweep: labels must be unique, got {labels}")
    return tuple(variants)


def _scenario_params(scenario: str, params: dict, errors) -> dict:
    """Keyword arguments of the built-in's function, typed by their defaults."""
    signature = inspect.signature(EXPERIMENT_FUNCTIONS[scenario]).parameters
    known = [name for name in signature if name != "robot"]
    out = {}
    for key, value in params.items():
        p = f"scenario_params.{key}"
        if key not in known:
            errors.append(f"{p}: unknown parameter for {scenario}; known: {', '.join(known)}")
        elif isinstance(signature[key].default, int):
            if isinstance(value, bool) or not isinstance(value, int):
                errors.append(f"{p}: must be an integer, got {value!r}")
            out[key] = value
        else:
            out[key] = _num(params, key, "scenario_params", errors,
                            ge=0.0 if key == "drop_height" else None)
    return out


def _max_steps(robot: Robot | None) -> float:
    """The most physics steps a run may make: its log must fit in MAX_LOG_BYTES."""
    if robot is None:
        return math.inf
    return MAX_LOG_BYTES // row_bytes(robot.model.n_joints, robot.model.n_muscles)


def _has_steps(duration: float, dt: float, robot: Robot | None) -> bool:
    """At least one physics step, and no more than a log may hold."""
    return math.isfinite(duration / dt) and 1 <= step_count(duration, dt) <= _max_steps(robot)


def _steps_needed(dt: float, robot: Robot | None) -> str:
    return (f"at least one and at most {_max_steps(robot)} physics steps of {dt} s "
            f"(a log may take {MAX_LOG_BYTES} bytes)")


def _parse_custom(doc: dict, name: str, robot: Robot | None, errors) -> ScenarioScript | None:
    """The scripted scenario; every width and joint index is checked against ``robot``."""
    n_errors = len(errors)
    n_joints = robot.model.n_joints if robot is not None else None
    n_muscles = robot.model.n_muscles if robot is not None else None
    dt = ScenarioScript.dt
    duration = _num(doc, "duration", "custom", errors, gt=0.0)
    if duration is not None and not _has_steps(duration, dt, robot):
        errors.append(f"custom.duration: must give {_steps_needed(dt, robot)}, got {duration}")
        duration = None
    theta0 = _numlist(doc, "theta0", "custom", errors, joints=n_joints)
    pretension = _num(doc, "pretension_mm", "custom", errors, ge=0.0, required=False)
    # a jitter wider than the run only clamps more events to its ends
    jitter = _num(doc, "time_jitter", "custom", errors, ge=0.0, le=duration, required=False)

    # an event after the last step's time would never apply
    last = None if duration is None else last_event_time(duration, dt)

    def event_time(item, p):
        t = _num(item, "t", p, errors, ge=0.0)
        if None not in (t, last) and t > last:
            errors.append(f"{p}.t: must be within [0, {last:.6g}], the last step, got {t}")
        return t

    impulses = []
    for p, imp in _entries(doc, "impulses", "custom", errors):
        t = event_time(imp, p)
        joint = imp.get("joint")
        limit = math.inf if n_joints is None else n_joints
        if not (isinstance(joint, int) and not isinstance(joint, bool) and 0 <= joint < limit):
            errors.append(f"{p}.joint: must be a joint index of the robot, "
                          f"0 <= joint < {limit}, got {joint!r}")
        impulses.append(Impulse(t=t, joint=joint, delta_omega=_num(imp, "delta_omega", p, errors)))
    payloads = [
        PayloadSet(t=event_time(pay, p), mass=_num(pay, "mass", p, errors, ge=0.0))
        for p, pay in _entries(doc, "payloads", "custom", errors)
    ]

    trajectory = None
    traj = doc.get("trajectory")
    if traj is not None and not isinstance(traj, dict):
        errors.append("custom.trajectory: must be a mapping")
    elif traj is not None:
        times = _numlist(traj, "times", "custom.trajectory", errors)
        if times is not None and any(b <= a for a, b in zip(times, times[1:])):
            errors.append("custom.trajectory.times: must be strictly increasing")
        refs = traj.get("refs")
        if not (isinstance(refs, list) and refs and all(
            isinstance(r, list) and all(_is_number(x) for x in r) for r in refs
        )):
            errors.append("custom.trajectory.refs: must be a non-empty list of rows of finite numbers")
        elif any(len(r) != (n_muscles or len(refs[0])) for r in refs):
            errors.append(f"custom.trajectory.refs: expected {n_muscles or len(refs[0])} values "
                          "per row, one per muscle of the robot")
        elif times is not None and len(refs) != len(times):
            errors.append("custom.trajectory.refs: need exactly one row per time")
        elif times is not None:
            trajectory = RefTrajectory(
                times=tuple(times), refs=tuple(tuple(float(v) for v in r) for r in refs)
            )
    if len(errors) > n_errors:
        return None
    return ScenarioScript(
        name=name,
        duration=duration,
        theta0=np.array(theta0),
        pretension_mm=0.0 if pretension is None else pretension,
        impulses=tuple(impulses),
        payload_events=tuple(payloads),
        trajectory=trajectory,
        time_jitter=jitter or 0.0,
    )


def _parse_experiment(doc, base_dir: Path) -> Experiment:
    errors = _head_errors(doc, "experiment")
    if not isinstance(doc, dict):
        raise ConfigError(errors)
    scenario = doc.get("scenario")
    valid = EXPERIMENT_NAMES + ("custom",)
    if scenario not in valid:
        errors.append(f"scenario: must be one of {', '.join(valid)}, got {scenario!r}")
    robot = _robot_named(doc.get("robot"), base_dir, errors)
    n_joints = robot.model.n_joints if robot is not None else None
    if scenario in EXPERIMENT_NAMES and n_joints not in (None, BUILTIN_JOINTS):
        errors.append(f"robot: the built-in {scenario} needs a {BUILTIN_JOINTS}-joint robot, "
                      f"got {n_joints} joints")

    reflex = _mapping(doc, "reflex", errors)
    reflex_on = _switch(reflex, "reflex", errors)
    reflex_values = {
        k: _num(reflex, k, "reflex", errors, gt=0.0, required=False)
        for k in ("c_stretch", "dl_stretch", "dt_loose")
    }

    fb = _mapping(doc, "feedback", errors)
    feedback_on = _switch(fb, "feedback", errors)
    dt = ScenarioScript.dt
    # at most one feedback tick per physics step, and a finite number of steps per tick
    rate = _num(fb, "rate_hz", "feedback", errors, gt=0.0, le=1.0 / dt, required=False)
    if rate is not None and (rate * dt == 0.0 or math.isinf(1.0 / (rate * dt))):
        errors.append(f"feedback.rate_hz: too small to give a finite tick period, got {rate}")
    theta_ref = _numlist(fb, "theta_ref", "feedback", errors, joints=n_joints, required=False)
    feedback_values = {
        "alpha": _num(fb, "alpha", "feedback", errors, gt=0.0, le=1.0, required=False),
        "rate_hz": rate,
        "theta_ref": None if theta_ref is None else np.array(theta_ref),
    }

    sweep = _parse_sweep(doc.get("sweep"), errors)

    params = _mapping(doc, "scenario_params", errors)
    if scenario in EXPERIMENT_NAMES:
        params = _scenario_params(scenario, params, errors)
    elif scenario == "custom" and params:
        errors.append("scenario_params: only a built-in scenario takes parameters; "
                      "a custom script sets its values in the custom block")

    name = doc.get("name", scenario)
    if "name" in doc:
        _dir_name(name, "name", errors)
    custom = doc.get("custom")
    script = None
    if scenario == "custom" and not isinstance(custom, dict):
        errors.append("custom: required mapping when scenario is 'custom'")
    elif scenario == "custom":
        script = _parse_custom(custom, name, robot, errors)
    elif custom is not None and not isinstance(custom, dict):
        errors.append("custom: must be a mapping")
    if errors:
        raise ConfigError(errors)

    if script is not None:
        base = ExperimentDef(
            name=name,
            scenario=script,
            feedback=None,
            analysis=AnalysisParams(theta_ref=tuple(theta_ref or script.theta0.tolist())),
            default_variant=Variant("reflex-off", False),
            paper_sweep=(),
        )
    else:
        base = EXPERIMENT_FUNCTIONS[scenario](robot, **params)
        duration, dt = base.scenario.duration, base.scenario.dt
        if not _has_steps(duration, dt, robot):
            raise ConfigError([f"scenario_params: they make {scenario} last {duration} s; "
                               f"a run needs {_steps_needed(dt, robot)}"])
    variant = replace(base.default_variant, **{
        k: reflex_values[k] for k in ("dl_stretch", "dt_loose") if reflex_values[k] is not None
    })
    if reflex_on is not None:
        variant = variant.switched(reflex_on)
    feedback = replace(
        base.feedback or FeedbackParams(theta_ref=base.scenario.theta0.copy()),
        **{k: v for k, v in feedback_values.items() if v is not None},
    )
    if feedback_on is None:
        feedback_on = base.feedback is not None
    exp = replace(
        base,
        name=name,
        default_variant=variant,
        # a custom script compares reflex off with the reflex as the file sets it
        paper_sweep=(variant.switched(False), variant.switched(True)) if script else base.paper_sweep,
        c_stretch=base.c_stretch if reflex_values["c_stretch"] is None else reflex_values["c_stretch"],
        feedback=feedback if feedback_on else None,
    )
    return Experiment(scenario, exp, robot, feedback, sweep)


# ---- entry points ----


def _read_doc(path):
    p = Path(path)
    if not p.is_file():
        raise ConfigError([f"{p}: file not found"])
    try:
        return yaml.load(p.read_bytes(), Loader=_LOADER)
    except yaml.YAMLError as e:
        raise ConfigError([f"{p}: invalid YAML: {e}"]) from None


def validate_file(path) -> list[str]:
    """Every problem in the file; an empty list means it loads (an experiment: runs)."""
    try:
        doc = _read_doc(path)
        kind = doc.get("kind") if isinstance(doc, dict) else None
        if kind == "robot":
            _parse_robot(doc)
        elif kind == "experiment":
            _parse_experiment(doc, Path(path).parent)
        else:
            return _head_errors(doc, None)
    except ConfigError as e:
        return e.errors
    return []


def load_robot(path) -> Robot:
    return _parse_robot(_read_doc(path))


def load_experiment(path) -> Experiment:
    return _parse_experiment(_read_doc(path), Path(path).parent)


def builtin_experiment(name: str) -> Experiment:
    """A built-in as it ships: what a file naming only its scenario parses to."""
    doc = {"schema_version": SCHEMA_VERSION, "kind": "experiment", "scenario": name}
    return _parse_experiment(doc, Path())


def default_robot_path() -> Path:
    return Path(str(importlib.resources.files("reflex_sim") / "data" / "robot.yaml"))


def default_robot() -> Robot:
    return load_robot(default_robot_path())
