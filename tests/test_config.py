"""Config loading and validation: schemas, field paths, shipped defaults."""

import numpy as np
import pytest
import yaml

from reflex_sim.config import (
    default_robot,
    load_experiment,
    load_robot,
    validate_file,
)
from reflex_sim.errors import ConfigError


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def _robot_dict():
    return {
        "schema_version": 1,
        "kind": "robot",
        "gravity": 9.81,
        "joints": [
            {
                "name": "shoulder",
                "inertia": 0.12,
                "damping": 0.6,
                "limit_lo": -2.8,
                "limit_hi": 2.8,
                "limit_stiffness": 500.0,
                "limit_damping": 5.0,
                "mu_static": 3.0,
                "mu_kinetic": 2.0,
                "stiction_band": 0.05,
            },
            {
                "name": "elbow",
                "inertia": 0.04,
                "damping": 0.25,
                "limit_lo": -2.4,
                "limit_hi": 0.0,
                "limit_stiffness": 500.0,
                "limit_damping": 5.0,
                "mu_static": 3.0,
                "mu_kinetic": 1.4,
                "stiction_band": 0.05,
            },
        ],
        "links": [
            {"mass": 1.5, "length": 0.25, "com": 0.11},
            {"mass": 0.8, "length": 0.12, "com": 0.054},
        ],
        "muscles": [
            {"name": "shoulder_flexor", "k": 0.5, "l0": 300.0, "f_max": 400.0,
             "motor_vmax": 300.0, "servo_gain": 30.0, "moment_arms": [-60.0, 0.0]},
            {"name": "shoulder_extensor", "k": 0.5, "l0": 300.0, "f_max": 400.0,
             "motor_vmax": 300.0, "servo_gain": 30.0, "moment_arms": [60.0, 0.0]},
            {"name": "elbow_flexor", "k": 0.5, "l0": 250.0, "f_max": 400.0,
             "motor_vmax": 300.0, "servo_gain": 30.0, "moment_arms": [0.0, -50.0]},
            {"name": "elbow_extensor", "k": 0.5, "l0": 250.0, "f_max": 400.0,
             "motor_vmax": 300.0, "servo_gain": 30.0, "moment_arms": [0.0, 50.0]},
        ],
        "groups": [
            ["shoulder_flexor", "shoulder_extensor"],
            ["elbow_flexor", "elbow_extensor"],
        ],
    }


def _experiment_dict():
    return {
        "schema_version": 1,
        "kind": "experiment",
        "name": "demo",
        "scenario": "custom",
        "reflex": {"enabled": True, "c_stretch": 15.0, "dl_stretch": 10.0, "dt_loose": 0.5},
        "feedback": {"enabled": False, "alpha": 0.3, "rate_hz": 5.0},
        "custom": {
            "duration": 2.0,
            "theta0": [0.0, -1.0],
            "pretension_mm": 7.4,
            "impulses": [{"t": 0.5, "joint": 1, "delta_omega": 2.0}],
            "payloads": [{"t": 1.0, "mass": 1.5}],
        },
    }


class TestShippedDefaults:
    def test_default_robot_loads(self):
        robot = default_robot()
        assert robot.model.n_joints == 2
        assert robot.model.n_muscles == 4
        assert robot.joint_names == ("shoulder", "elbow")
        assert len(robot.groups) == 2
        assert sorted(m for g in robot.groups for m in g) == [0, 1, 2, 3]
        # elbow extension stop sits at zero
        assert robot.model.joints.limit_hi[1] == 0.0
        assert np.all(robot.model.joints.mu_static >= robot.model.joints.mu_kinetic)

    def test_shipped_configs_validate_clean(self):
        import importlib.resources as res

        data = res.files("reflex_sim") / "data"
        for entry in data.iterdir():
            if entry.name.endswith(".yaml"):
                assert validate_file(str(entry)) == [], entry.name


    def test_both_yaml_loaders_read_the_same_documents(self):
        # the loader is libyaml's parser under PyYAML's own resolver and constructor
        import importlib.resources as res

        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML is built without libyaml")
        data = res.files("reflex_sim") / "data"
        shipped = [entry for entry in data.iterdir() if entry.name.endswith(".yaml")]
        assert shipped
        for entry in shipped:
            text = entry.read_bytes()
            fast, plain = (yaml.load(text, Loader=loader)
                           for loader in (yaml.CSafeLoader, yaml.SafeLoader))
            assert repr(fast) == repr(plain), entry.name  # repr tells 1 from 1.0


class TestRobotValidation:
    def test_valid_dict_round_trips(self, tmp_path):
        robot = load_robot(_write(tmp_path, "r.yaml", _robot_dict()))
        assert robot.muscle_names[2] == "elbow_flexor"
        assert robot.model.G[1, 2] == -50.0
        assert robot.model.l0[0] == 300.0

    def test_static_below_kinetic_is_rejected(self, tmp_path):
        d = _robot_dict()
        d["joints"][0]["mu_static"] = 0.5
        errs = validate_file(_write(tmp_path, "r.yaml", d))
        assert any("joints[0].mu_static" in e for e in errs)

    def test_groups_must_partition_muscles(self, tmp_path):
        d = _robot_dict()
        d["groups"] = [["shoulder_flexor", "shoulder_extensor"], ["elbow_flexor"]]
        errs = validate_file(_write(tmp_path, "r.yaml", d))
        assert any("groups" in e for e in errs)
        d["groups"] = [
            ["shoulder_flexor", "shoulder_extensor"],
            ["elbow_flexor", "elbow_extensor", "shoulder_flexor"],
        ]
        errs = validate_file(_write(tmp_path, "r2.yaml", d))
        assert any("groups" in e for e in errs)

    def test_moment_arm_arity(self, tmp_path):
        d = _robot_dict()
        d["muscles"][3]["moment_arms"] = [0.0]
        errs = validate_file(_write(tmp_path, "r.yaml", d))
        assert any("muscles[3].moment_arms" in e for e in errs)

    def test_multiple_errors_aggregate(self, tmp_path):
        d = _robot_dict()
        d["joints"][1]["inertia"] = -1.0
        d["muscles"][0]["k"] = 0.0
        errs = validate_file(_write(tmp_path, "r.yaml", d))
        assert any("joints[1].inertia" in e for e in errs)
        assert any("muscles[0].k" in e for e in errs)
        with pytest.raises(ConfigError) as exc:
            load_robot(_write(tmp_path, "r2.yaml", d))
        assert len(exc.value.errors) >= 2


class TestExperimentValidation:
    def test_valid_custom_experiment(self, tmp_path):
        parsed = load_experiment(_write(tmp_path, "e.yaml", _experiment_dict()))
        assert parsed.scenario == "custom"
        sc = parsed.exp.scenario
        assert sc.duration == 2.0
        assert sc.impulses[0].joint == 1
        assert sc.payload_events[0].mass == 1.5

    def test_zero_release_time_names_the_field(self, tmp_path):
        d = _experiment_dict()
        d["reflex"]["dt_loose"] = 0.0
        errs = validate_file(_write(tmp_path, "e.yaml", d))
        assert any("reflex.dt_loose" in e for e in errs)

    def test_unknown_scenario_name(self, tmp_path):
        d = _experiment_dict()
        d["scenario"] = "e9"
        del d["custom"]
        errs = validate_file(_write(tmp_path, "e.yaml", d))
        assert any("scenario" in e for e in errs)

    def test_custom_scenario_requires_block(self, tmp_path):
        d = _experiment_dict()
        del d["custom"]
        errs = validate_file(_write(tmp_path, "e.yaml", d))
        assert any("custom" in e for e in errs)

    def test_event_time_outside_duration(self, tmp_path):
        d = _experiment_dict()
        d["custom"]["impulses"][0]["t"] = 5.0
        errs = validate_file(_write(tmp_path, "e.yaml", d))
        assert any("custom.impulses[0].t" in e for e in errs)

    def test_negative_payload_mass(self, tmp_path):
        d = _experiment_dict()
        d["custom"]["payloads"][0]["mass"] = -1.0
        errs = validate_file(_write(tmp_path, "e.yaml", d))
        assert any("custom.payloads[0].mass" in e for e in errs)

    def test_missing_robot_path(self, tmp_path):
        d = _experiment_dict()
        d["robot"] = "no_such_robot.yaml"
        errs = validate_file(_write(tmp_path, "e.yaml", d))
        assert any("robot" in e for e in errs)

    def test_theta0_arity_checked_against_robot(self, tmp_path):
        d = _experiment_dict()
        d["custom"]["theta0"] = [0.0]
        path = _write(tmp_path, "e.yaml", d)
        with pytest.raises(ConfigError):
            load_experiment(path)
        assert any(e.startswith("custom.theta0:") for e in validate_file(path))

    def test_sweep_inline_list(self, tmp_path):
        d = _experiment_dict()
        d["sweep"] = [
            {"label": "off", "reflex": False},
            {"label": "a", "reflex": True, "dl_stretch": 10.0, "dt_loose": 1.0},
        ]
        sweep = load_experiment(_write(tmp_path, "e.yaml", d)).sweep
        assert len(sweep) == 2
        assert sweep[0].reflex is False
        assert sweep[1].dt_loose == 1.0

    def test_sweep_bad_values(self, tmp_path):
        d = _experiment_dict()
        d["sweep"] = [{"label": "a", "reflex": True, "dt_loose": -1.0}]
        errs = validate_file(_write(tmp_path, "e.yaml", d))
        assert any("sweep[0].dt_loose" in e for e in errs)


NAN, INF = float("nan"), float("inf")


def _set(doc, path, value):
    """Set doc[path[0]][path[1]]...; integer steps index into lists."""
    *head, last = path
    for step in head:
        doc = doc[step]
    doc[last] = value


# (path into _experiment_dict(), value, field path the error names)
REJECTED_EXPERIMENT_VALUES = [
    pytest.param(("feedback", "rate_hz"), 5000.0, "feedback.rate_hz", id="rate-above-physics-rate"),
    pytest.param(("feedback", "alpha"), NAN, "feedback.alpha", id="nan-alpha"),
    pytest.param(("feedback", "theta_ref"), [0.0, NAN], "feedback.theta_ref", id="nan-theta-ref"),
    pytest.param(("reflex", "dl_stretch"), NAN, "reflex.dl_stretch", id="nan-dl-stretch"),
    pytest.param(("custom", "duration"), INF, "custom.duration", id="infinite-duration"),
    pytest.param(("custom", "duration"), NAN, "custom.duration", id="nan-duration"),
    pytest.param(("custom", "theta0"), [0.0, NAN], "custom.theta0", id="nan-theta0"),
    pytest.param(("custom", "impulses", 0, "delta_omega"), NAN, "custom.impulses[0].delta_omega",
                 id="nan-impulse"),
    pytest.param(("custom", "impulses", 0, "t"), 2.0, "custom.impulses[0].t",
                 id="impulse-at-duration"),
    pytest.param(("custom", "payloads", 0, "t"), 2.0, "custom.payloads[0].t",
                 id="payload-at-duration"),
    # inside the last step: the last step is at 1.999, so the event never applied
    pytest.param(("custom", "impulses", 0, "t"), 1.9995, "custom.impulses[0].t",
                 id="impulse-inside-the-last-step"),
    pytest.param(("custom", "payloads", 0, "t"), 1.9995, "custom.payloads[0].t",
                 id="payload-inside-the-last-step"),
    pytest.param(("custom", "trajectory"), {"times": [0.0, 1.0], "refs": [[1.0] * 4, [NAN] * 4]},
                 "custom.trajectory.refs", id="nan-trajectory-ref"),
]


@pytest.mark.parametrize("path, value, field", REJECTED_EXPERIMENT_VALUES)
def test_rejected_experiment_values_name_the_field(tmp_path, path, value, field):
    d = _experiment_dict()
    _set(d, path, value)
    errs = validate_file(_write(tmp_path, "e.yaml", d))
    assert any(e.startswith(field + ":") for e in errs), errs


def test_events_just_before_the_end_are_accepted(tmp_path):
    d = _experiment_dict()
    d["custom"]["impulses"][0]["t"] = 1.999
    d["custom"]["payloads"][0]["t"] = 1.999
    assert validate_file(_write(tmp_path, "e.yaml", d)) == []


@pytest.mark.parametrize("scenario, params, field", [
    ("e1", {"impact_force": 2.0}, "scenario_params.impact_force"),
    ("e1", {"n_impacts": 2.5}, "scenario_params.n_impacts"),
    ("e2", {"impact_domega": "hard"}, "scenario_params.impact_domega"),
    ("e3", {"drop_height": -1.0}, "scenario_params.drop_height"),
    ("e4", {"robot": 1.0}, "scenario_params.robot"),
    ("e4", {"payload": NAN}, "scenario_params.payload"),
    ("custom", {"impact_domega": 9.0}, "scenario_params"),
])
def test_scenario_params_checked_against_the_experiment(tmp_path, scenario, params, field):
    d = {"schema_version": 1, "kind": "experiment", "scenario": scenario,
         "scenario_params": params}
    if scenario == "custom":
        d["custom"] = _experiment_dict()["custom"]
    errs = validate_file(_write(tmp_path, "e.yaml", d))
    assert [e.split(":")[0] for e in errs] == [field]


def test_known_scenario_params_validate(tmp_path):
    d = {"schema_version": 1, "kind": "experiment", "scenario": "e3",
         "scenario_params": {"drop_mass": 5.0, "drop_height": 0.0, "t_drop": 2}}
    assert validate_file(_write(tmp_path, "e.yaml", d)) == []


def test_robot_rejects_nan_but_allows_infinite_limits(tmp_path):
    d = _robot_dict()
    d["joints"][0]["limit_lo"] = -INF
    d["joints"][0]["limit_hi"] = INF
    assert validate_file(_write(tmp_path, "r.yaml", d)) == []
    d["joints"][0]["limit_hi"] = NAN
    d["joints"][1]["damping"] = NAN
    errs = validate_file(_write(tmp_path, "r2.yaml", d))
    assert any(e.startswith("joints[0].limit_hi:") for e in errs)
    assert any(e.startswith("joints[1].damping:") for e in errs)


class TestFileLevelErrors:
    def test_missing_file(self, tmp_path):
        errs = validate_file(str(tmp_path / "none.yaml"))
        assert errs and "none.yaml" in errs[0]

    def test_unknown_kind(self, tmp_path):
        errs = validate_file(_write(tmp_path, "x.yaml", {"schema_version": 1, "kind": "zebra"}))
        assert any("kind" in e for e in errs)

    def test_wrong_schema_version(self, tmp_path):
        d = _robot_dict()
        d["schema_version"] = 99
        errs = validate_file(_write(tmp_path, "x.yaml", d))
        assert any("schema_version" in e for e in errs)

    def test_not_a_mapping(self, tmp_path):
        path = tmp_path / "x.yaml"
        path.write_text("- 1\n- 2\n")
        errs = validate_file(str(path))
        assert errs
