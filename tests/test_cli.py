"""End-to-end tests of the command line front end.

Most tests drive a small half-second custom scenario so the whole file
stays fast; the built-in experiments get their own coverage in the
acceptance suite.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import reflex_sim.scenario
from reflex_sim.acceptance import check_experiment
from reflex_sim.cli import main
from reflex_sim.config import default_robot, default_robot_path
from reflex_sim.scenario import last_event_time


def write_yaml(path, doc):
    path.write_text(yaml.safe_dump(doc))
    return path


def mini_doc(duration=0.5, reflex=True, impulse=3.0, jitter=0.0, robot=None):
    doc = {
        "schema_version": 1,
        "kind": "experiment",
        "name": "mini",
        "scenario": "custom",
        "reflex": {"enabled": reflex},
        "custom": {
            "duration": duration,
            "theta0": [0.0, -1.0],
            # high pretension so the default knock crosses the reflex
            # trigger on its first tick (rest tension ~244 N, rise ~19 N/tick)
            "pretension_mm": 11.0,
            "impulses": [{"t": 0.1, "joint": 1, "delta_omega": impulse}],
        },
    }
    if jitter:
        doc["custom"]["time_jitter"] = jitter
    if robot is not None:
        doc["robot"] = robot
    return doc


def default_robot_doc():
    return yaml.safe_load(default_robot_path().read_text())


def three_joint_robot_doc():
    """The default arm plus a wrist joint driven by one more antagonist pair."""
    doc = default_robot_doc()
    doc["joints"].append(dict(doc["joints"][1], name="wrist", inertia=0.02, limit_lo=-1.0,
                              limit_hi=0.05))
    doc["links"].append({"mass": 0.3, "length": 0.08, "com": 0.04})
    for m in doc["muscles"]:
        m["moment_arms"].append(0.0)
    for name, arm in (("wrist_flexor", -20.0), ("wrist_extensor", 20.0)):
        doc["muscles"].append(dict(doc["muscles"][2], name=name, l0=150.0,
                                   moment_arms=[0.0, 0.0, arm]))
    doc["groups"].append(["wrist_flexor", "wrist_extensor"])
    return doc


def write_robots(directory):
    """Robot files the configs below name: a 3-joint arm and two the built-ins cannot use."""
    write_yaml(directory / "robot3.yaml", three_joint_robot_doc())
    bad = default_robot_doc()
    bad["joints"][0]["inertia"] = -1.0
    write_yaml(directory / "negative_inertia.yaml", bad)
    weak = default_robot_doc()
    weak["muscles"][2]["moment_arms"] = [0.0, 50.0]  # both elbow muscles extend
    write_yaml(directory / "no_elbow_flexor.yaml", weak)


@pytest.fixture
def mini_cfg(tmp_path):
    return write_yaml(tmp_path / "mini.yaml", mini_doc())


def read_metrics(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


# ---- run ----


def test_run_custom_writes_artifacts(tmp_path, mini_cfg, capsys):
    rc = main(["run", "custom", "--config", str(mini_cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    log = tmp_path / "out" / "mini" / "log.csv"
    metrics = tmp_path / "out" / "mini" / "metrics.txt"
    assert log.exists() and metrics.exists()
    header = log.read_text().splitlines()[0]
    assert header.startswith("t,theta_0")
    assert "peak_tension" in read_metrics(metrics)
    assert str(log) in capsys.readouterr().out


def test_run_custom_requires_config(capsys):
    rc = main(["run", "custom"])
    assert rc == 2
    assert "--config" in capsys.readouterr().err


def test_run_unknown_experiment_exits_2(capsys):
    assert main(["run", "e9"]) == 2


def test_run_scenario_mismatch_exits_2(tmp_path, mini_cfg, capsys):
    rc = main(["run", "e1", "--config", str(mini_cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "scenario" in capsys.readouterr().err


def test_run_default_out_dir(tmp_path, mini_cfg, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "custom", "--config", str(mini_cfg)]) == 0
    assert (tmp_path / "runs" / "mini" / "log.csv").exists()


def test_rerun_is_byte_identical(tmp_path, mini_cfg):
    assert main(["run", "custom", "--config", str(mini_cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "custom", "--config", str(mini_cfg), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "mini" / "log.csv").read_bytes()
    b = (tmp_path / "b" / "mini" / "log.csv").read_bytes()
    assert a == b


def test_seeded_jitter_reproducible_per_seed(tmp_path):
    cfg = write_yaml(tmp_path / "jit.yaml", mini_doc(jitter=0.05))
    for name, seed in (("s1", "1"), ("s1b", "1"), ("s2", "2")):
        rc = main(
            ["run", "custom", "--config", str(cfg), "--seed", seed, "--out", str(tmp_path / name)]
        )
        assert rc == 0
    s1 = (tmp_path / "s1" / "mini" / "log.csv").read_bytes()
    s1b = (tmp_path / "s1b" / "mini" / "log.csv").read_bytes()
    s2 = (tmp_path / "s2" / "mini" / "log.csv").read_bytes()
    assert s1 == s1b
    assert s1 != s2


def test_reflex_flag_overrides_config(tmp_path, mini_cfg):
    base = ["run", "custom", "--config", str(mini_cfg)]
    assert main(base + ["--reflex", "off", "--out", str(tmp_path / "off")]) == 0
    assert main(base + ["--reflex", "on", "--out", str(tmp_path / "on")]) == 0
    off = read_metrics(tmp_path / "off" / "mini" / "metrics.txt")
    on = read_metrics(tmp_path / "on" / "mini" / "metrics.txt")
    assert off["reflex_event_count"] == "0"
    assert int(on["reflex_event_count"]) >= 1


def test_feedback_flag_changes_output(tmp_path, mini_cfg):
    base = ["run", "custom", "--config", str(mini_cfg)]
    assert main(base + ["--feedback", "off", "--out", str(tmp_path / "off")]) == 0
    assert main(base + ["--feedback", "on", "--out", str(tmp_path / "on")]) == 0
    off = (tmp_path / "off" / "mini" / "log.csv").read_bytes()
    on = (tmp_path / "on" / "mini" / "log.csv").read_bytes()
    assert off != on


def test_divergence_exits_3(tmp_path, capsys):
    robot = yaml.safe_load(default_robot_path().read_text())
    for joint in robot["joints"]:
        joint["limit_stiffness"] = 1e12
    write_yaml(tmp_path / "stiff.yaml", robot)
    doc = mini_doc(robot="stiff.yaml")
    doc["custom"]["theta0"] = [0.0, 0.5]  # past the elbow stop, inside a huge penalty spring
    cfg = write_yaml(tmp_path / "exp.yaml", doc)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["run", "custom", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "tick" in capsys.readouterr().err


# ---- override precedence ----
#
# The rule: the config file sets every value, --reflex/--feedback only switch
# a layer on or off, --seed sets the seed.  Each row records what reaches the
# engine; a stub engine stops the command before any physics runs.

E3_THETA0 = (0.0, -1.57)
E3_REFLEX = (15.0, 5.0, 5.0)  # c_stretch, dl_stretch, dt_loose of e3's default variant
E3_FEEDBACK = (0.3, 5.0, E3_THETA0)  # alpha, rate_hz, theta_ref


class EngineReached(Exception):
    """Raised by the stub engine once it has recorded its inputs."""


PRECEDENCE = [
    pytest.param("custom", {"reflex": {"enabled": True, "c_stretch": 20.0, "dl_stretch": 5.0,
                                       "dt_loose": 1.0}},
                 [], (20.0, 5.0, 1.0), None, None, id="custom-config-sets-reflex"),
    pytest.param("custom", {"reflex": {"enabled": True, "dl_stretch": 5.0}},
                 ["--reflex", "off"], None, None, None, id="custom-flag-switches-reflex-off"),
    pytest.param("custom", {"reflex": {"enabled": False, "dl_stretch": 5.0}},
                 ["--reflex", "on"], (15.0, 5.0, 0.5), None, None,
                 id="custom-flag-on-keeps-config-values"),
    pytest.param("custom", {}, [], None, None, None, id="custom-defaults-reflex-off"),
    pytest.param("custom", {}, ["--reflex", "on"], (15.0, 10.0, 0.5), None, None,
                 id="custom-flag-on-defaults"),
    pytest.param("custom", {"feedback": {"enabled": True, "alpha": 0.9, "rate_hz": 10.0,
                                         "theta_ref": [0.1, -0.9]}},
                 [], None, (0.9, 10.0, (0.1, -0.9)), None, id="custom-config-sets-feedback"),
    pytest.param("custom", {"feedback": {"enabled": True, "alpha": 0.9}},
                 ["--feedback", "off"], None, None, None, id="custom-flag-switches-feedback-off"),
    pytest.param("custom", {}, ["--feedback", "on"], None, (0.3, 5.0, (0.0, -1.0)), None,
                 id="custom-feedback-on-defaults"),
    pytest.param("custom", {}, ["--seed", "7"], None, None, 7, id="custom-seed"),
    pytest.param("e3", None, [], E3_REFLEX, E3_FEEDBACK, None, id="e3-builtin"),
    pytest.param("e3", None, ["--reflex", "off", "--feedback", "off"], None, None, None,
                 id="e3-flags-switch-off"),
    pytest.param("e3", {"reflex": {"c_stretch": 20.0, "dl_stretch": 8.0},
                        "feedback": {"alpha": 0.5, "theta_ref": [0.0, -1.5]}},
                 [], (20.0, 8.0, 5.0), (0.5, 5.0, (0.0, -1.5)), None, id="e3-config-sets-values"),
    pytest.param("e3", {"reflex": {"enabled": False}, "feedback": {"enabled": False}},
                 [], None, None, None, id="e3-config-switches-off"),
    pytest.param("e3", {"reflex": {"enabled": False, "dt_loose": 2.0}},
                 ["--reflex", "on"], (15.0, 5.0, 2.0), E3_FEEDBACK, None,
                 id="e3-flag-on-keeps-config-reflex"),
    pytest.param("e3", {"feedback": {"enabled": False, "alpha": 0.9}},
                 ["--feedback", "on"], E3_REFLEX, (0.9, 5.0, E3_THETA0), None,
                 id="e3-flag-on-keeps-config-feedback"),
    pytest.param("e3", {"reflex": {"enabled": True}, "feedback": {"enabled": True}},
                 ["--reflex", "off", "--feedback", "off", "--seed", "3"], None, None, 3,
                 id="e3-flags-beat-config-switches"),
    pytest.param("e1", None, ["--feedback", "on"], (15.0, 10.0, 0.5), (0.3, 5.0, (0.0, -0.03)),
                 None, id="e1-feedback-on-defaults"),
]


@pytest.fixture
def engine_inputs(monkeypatch):
    """What the CLI hands the engine; the stub engine raises EngineReached."""
    import reflex_sim.scenario

    seen = {}

    def engine(scenario, robot, reflex=None, feedback=None):
        seen.update(scenario=scenario, reflex=reflex, feedback=feedback)
        raise EngineReached

    monkeypatch.setattr(reflex_sim.scenario, "run", engine)
    return seen


@pytest.mark.parametrize("exp, sections, flags, reflex, feedback, seed", PRECEDENCE)
def test_override_precedence(tmp_path, engine_inputs, exp, sections, flags, reflex, feedback, seed):
    argv = ["run", exp, "--out", str(tmp_path / "out")] + flags
    if sections is not None:
        doc = mini_doc() if exp == "custom" else {
            "schema_version": 1, "kind": "experiment", "scenario": exp,
        }
        doc.pop("reflex", None)
        doc.update(sections)
        argv += ["--config", str(write_yaml(tmp_path / "cfg.yaml", doc))]
    with pytest.raises(EngineReached):
        main(argv)

    rx, fb = engine_inputs["reflex"], engine_inputs["feedback"]
    assert (rx and (rx.c_stretch, rx.dl_stretch, rx.dt_loose)) == reflex
    assert (fb and (fb.alpha, fb.rate_hz, tuple(fb.theta_ref))) == feedback
    assert engine_inputs["scenario"].seed == seed


def test_scenario_params_reach_the_builtin(tmp_path, engine_inputs):
    doc = {"schema_version": 1, "kind": "experiment", "scenario": "e1",
           "scenario_params": {"impact_domega": 2.5, "n_impacts": 2}}
    cfg = write_yaml(tmp_path / "e1.yaml", doc)
    assert main(["validate", str(cfg)]) == 0
    with pytest.raises(EngineReached):
        main(["run", "e1", "--config", str(cfg), "--out", str(tmp_path / "out")])
    impulses = engine_inputs["scenario"].impulses
    assert [imp.delta_omega for imp in impulses] == [2.5, 2.5]


def _builtin_doc(scenario, **params):
    return {"schema_version": 1, "kind": "experiment", "scenario": scenario,
            "scenario_params": params}


def _custom_doc(section, key, value):
    doc = mini_doc()
    doc.setdefault(section, {})[key] = value
    return doc


def _mini_with(**custom):
    doc = mini_doc()
    doc["custom"].update(custom)
    return doc


def _builtin_on(scenario, robot):
    return {"schema_version": 1, "kind": "experiment", "scenario": scenario, "robot": robot}


def _named(name):
    return dict(mini_doc(), name=name)


def _sweep_labelled(label):
    return dict(mini_doc(), sweep=[{"label": label, "reflex": False}])


# configs that validate once accepted, or crashed on, and that run could not run:
# it stopped with a traceback or with exit 2; write_robots makes the robot files
RUN_CRASHERS = [
    pytest.param("custom", _custom_doc("feedback", "rate_hz", 5000.0), "feedback.rate_hz",
                 id="feedback-rate-above-physics-rate"),
    pytest.param("custom", _custom_doc("custom", "duration", float("inf")), "custom.duration",
                 id="infinite-duration"),
    pytest.param("e1", _builtin_doc("e1", n_impacts=2.5), "scenario_params.n_impacts",
                 id="fractional-impact-count"),
    pytest.param("e3", _builtin_doc("e3", drop_height=-1.0), "scenario_params.drop_height",
                 id="negative-drop-height"),
    pytest.param("e3", _builtin_doc("e3", drop_heigth=0.1), "scenario_params.drop_heigth",
                 id="unknown-scenario-param"),
    pytest.param("e4", _builtin_doc("e4", t_ramp=-100.0), "scenario_params",
                 id="scenario-params-giving-no-steps"),
    pytest.param("e2", _builtin_on("e2", "robot3.yaml"), "robot", id="builtin-on-3-joint-robot"),
    pytest.param("custom", mini_doc(robot="negative_inertia.yaml"), "joints[0].inertia",
                 id="invalid-robot-file"),
    pytest.param("e4", _builtin_on("e4", "no_elbow_flexor.yaml"), "robot: no muscle on joint 1",
                 id="builtin-on-robot-that-cannot-hold-the-lift"),
    pytest.param("custom", _mini_with(theta0=[0.0, -1.0, 0.0]), "custom.theta0",
                 id="theta0-wider-than-robot"),
    pytest.param("custom", _mini_with(impulses=[{"t": 0.1, "joint": 5, "delta_omega": 1.0}]),
                 "custom.impulses[0].joint", id="impulse-on-missing-joint"),
    pytest.param("custom", _mini_with(trajectory={"times": [0.1, 0.2],
                                                  "refs": [[250.0] * 3, [250.0] * 3]}),
                 "custom.trajectory.refs", id="trajectory-rows-narrower-than-muscles"),
    pytest.param("custom", _custom_doc("feedback", "theta_ref", [0.0, -1.0, 0.0]),
                 "feedback.theta_ref", id="theta-ref-wider-than-robot"),
    pytest.param("custom", _mini_with(duration=0.0004, impulses=[]), "custom.duration",
                 id="duration-below-half-a-step"),
    pytest.param("custom", _mini_with(duration=0.0005, impulses=[]), "custom.duration",
                 id="duration-of-half-a-step"),
    pytest.param("custom", _mini_with(duration=1e306, impulses=[]), "custom.duration",
                 id="duration-past-a-finite-step-count"),
    pytest.param("custom", _mini_with(duration=1.0e9, impulses=[]), "custom.duration",
                 id="duration-past-the-log-size-cap"),
    pytest.param("e4", _builtin_doc("e4", ramp_duration=1.0e300), "scenario_params",
                 id="scenario-params-past-the-log-size-cap"),
    pytest.param("custom", _mini_with(impulses=5), "custom.impulses", id="impulses-not-a-list"),
    pytest.param("custom", mini_doc(robot=""), "robot", id="empty-robot-path"),
    pytest.param("custom", _mini_with(time_jitter=1e308), "custom.time_jitter",
                 id="jitter-wider-than-the-run"),
    pytest.param("custom", _custom_doc("feedback", "rate_hz", 1e-320), "feedback.rate_hz",
                 id="feedback-period-past-float-range"),
    pytest.param("custom", _sweep_labelled("comparison.csv"), "sweep[0].label",
                 id="sweep-label-naming-the-comparison-file"),
    pytest.param("custom", _named("../../x"), "name", id="name-leaving-the-output-directory"),
    pytest.param("custom", _named(".."), "name", id="name-of-the-parent-directory"),
    pytest.param("custom", _sweep_labelled("../../x"), "sweep[0].label",
                 id="sweep-label-leaving-the-output-directory"),
    pytest.param("custom", _sweep_labelled("a\\b"), "sweep[0].label", id="sweep-label-with-backslash"),
    pytest.param("custom", _sweep_labelled(True), "sweep[0].label", id="sweep-label-yaml-boolean"),
    pytest.param("custom", _sweep_labelled("x" * 300), "sweep[0].label",
                 id="sweep-label-longer-than-a-file-name"),
    pytest.param("custom", _named("é" * 200), "name", id="name-of-400-bytes"),
]


@pytest.mark.parametrize("exp, doc, field", RUN_CRASHERS)
def test_validate_rejects_what_run_cannot_run(tmp_path, capsys, exp, doc, field):
    write_robots(tmp_path)
    cfg = write_yaml(tmp_path / "bad.yaml", doc)
    assert main(["validate", str(cfg)]) == 2
    assert field in capsys.readouterr().err
    assert main(["run", exp, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_builtin_runs_on_a_robot_only_another_builtin_rejects(tmp_path):
    # no muscle flexes the elbow: e4's lift cannot be held, e1 needs no hold
    write_robots(tmp_path)
    cfg = write_yaml(tmp_path / "e1.yaml", _builtin_on("e1", "no_elbow_flexor.yaml"))
    assert main(["run", "e1", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_name_sets_the_output_directory_of_every_scenario(tmp_path, capsys):
    # 255 bytes, the longest file name; --check still checks the built-in e1
    name = "é" * 127 + "x"
    cfg = write_yaml(tmp_path / "nm.yaml", {"schema_version": 1, "kind": "experiment",
                                            "scenario": "e1", "name": name})
    assert main(["run", "e1", "--config", str(cfg), "--check", "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("PASS e1 ")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [name]
    assert (tmp_path / "out" / name / "metrics.txt").is_file()


def test_theta_ref_arity_checked_against_robot(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "e3.yaml", {"schema_version": 1, "kind": "experiment",
                                            "scenario": "e3", "feedback": {"theta_ref": [0.0]}})
    assert main(["run", "e3", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "feedback.theta_ref" in capsys.readouterr().err


@pytest.fixture
def physics_steps(monkeypatch):
    """Counts the engine's physics steps."""
    count = [0]
    step = reflex_sim.scenario.step_dynamics

    def counted(*args):
        count[0] += 1
        return step(*args)

    monkeypatch.setattr(reflex_sim.scenario, "step_dynamics", counted)
    return count


# reflex-off runs of e2 (10 s) and e4 (9.9 s, with and without friction) in
# full; e2's three reflex-on runs from their fork at step 1010; e4's from
# step 7420, and not at all without friction, where it never fires.  A seed
# draws nothing on a built-in, so the seeded run is still the check's own
@pytest.mark.parametrize("exp, seed, steps", [
    pytest.param("e2", (), 10_000 + 3 * 8_990, id="e2-36970"),
    pytest.param("e2", ("--seed", "3"), 10_000 + 3 * 8_990, id="e2-seed3-36970"),
    pytest.param("e4", (), 9_900 + 2_480 + 9_900, id="e4-22280"),
])
def test_check_makes_each_distinct_run_once_and_forks_the_rest(tmp_path, capsys, physics_steps, exp,
                                                               seed, steps):
    assert main(["run", exp, *seed, "--check", "--out", str(tmp_path / "out")]) == 0
    assert physics_steps[0] == steps
    assert capsys.readouterr().out.splitlines()[-1].startswith(f"PASS {exp} ")


def test_check_does_not_reuse_a_run_the_config_changed(tmp_path, capsys, physics_steps):
    doc = {"schema_version": 1, "kind": "experiment", "scenario": "e2",
           "scenario_params": {"impact_domega": 3.0}}
    cfg = write_yaml(tmp_path / "e2.yaml", doc)
    code = main(["run", "e2", "--config", str(cfg), "--check", "--out", str(tmp_path / "out")])
    cli_steps = physics_steps[0]
    result = check_experiment("e2", default_robot())
    check_steps = physics_steps[0] - cli_steps
    assert code == (0 if result.passed else 4)
    status = "PASS" if result.passed else "FAIL"
    assert capsys.readouterr().out.splitlines()[-1] == f"{status} {result.name}: {result.details}"
    assert cli_steps == 10_000 + check_steps  # its own set1 run, then every run of the check


def test_check_on_custom_exits_2(tmp_path, mini_cfg, capsys):
    rc = main(
        ["run", "custom", "--config", str(mini_cfg), "--check", "--out", str(tmp_path / "out")]
    )
    assert rc == 2
    assert "built-in" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---- sweeps ----


def test_sweep_paper_on_custom_runs_off_and_on(tmp_path, mini_cfg, capsys):
    rc = main(
        ["run", "custom", "--config", str(mini_cfg), "--sweep", "paper", "--out", str(tmp_path / "out")]
    )
    assert rc == 0
    base = tmp_path / "out" / "mini"
    for label in ("reflex-off", "reflex-on"):
        assert (base / label / "log.csv").exists()
        assert (base / label / "metrics.txt").exists()
    off = read_metrics(base / "reflex-off" / "metrics.txt")
    on = read_metrics(base / "reflex-on" / "metrics.txt")
    assert off["reflex_event_count"] == "0"
    assert int(on["reflex_event_count"]) >= 1

    lines = (base / "comparison.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "variant"
    assert "peak_tension" in header and "steady_tension" in header
    assert [row.split(",")[0] for row in lines[1:]] == ["reflex-off", "reflex-on"]


def test_sweep_from_file_inline_list(tmp_path):
    doc = mini_doc()
    doc["sweep"] = [
        {"label": "a", "reflex": False},
        {"label": "b", "reflex": True, "dl_stretch": 12.0, "dt_loose": 0.3},
    ]
    cfg = write_yaml(tmp_path / "sw.yaml", doc)
    rc = main(
        ["run", "custom", "--config", str(cfg), "--sweep", str(cfg), "--out", str(tmp_path / "out")]
    )
    assert rc == 0
    assert (tmp_path / "out" / "mini" / "a" / "log.csv").exists()
    assert (tmp_path / "out" / "mini" / "b" / "log.csv").exists()


def test_sweep_unknown_name_exits_2(tmp_path, mini_cfg, capsys):
    rc = main(
        ["run", "custom", "--config", str(mini_cfg), "--sweep", "nope", "--out", str(tmp_path / "out")]
    )
    assert rc == 2
    assert "nope" in capsys.readouterr().err


# ---- validate ----


def test_validate_good_file(tmp_path, mini_cfg, capsys):
    assert main(["validate", str(mini_cfg)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_bad_file(tmp_path, capsys):
    doc = mini_doc()
    doc["reflex"]["dt_loose"] = 0.0
    cfg = write_yaml(tmp_path / "bad.yaml", doc)
    assert main(["validate", str(cfg)]) == 2
    assert "reflex.dt_loose" in capsys.readouterr().err


def test_validate_robot_file(capsys):
    assert main(["validate", str(default_robot_path())]) == 0


# ---- metrics ----


def test_metrics_missing_file_exits_2(tmp_path, capsys):
    assert main(["metrics", str(tmp_path / "none.csv")]) == 2


def test_metrics_recomputes_stored_summary(tmp_path, mini_cfg, capsys):
    assert main(["run", "custom", "--config", str(mini_cfg), "--out", str(tmp_path / "out")]) == 0
    log = tmp_path / "out" / "mini" / "log.csv"
    capsys.readouterr()
    assert main(["metrics", str(log)]) == 0
    stdout = capsys.readouterr().out.strip().splitlines()
    stored = (tmp_path / "out" / "mini" / "metrics.txt").read_text().strip().splitlines()
    assert stdout == stored


def test_metrics_without_summary_uses_defaults(tmp_path, mini_cfg, capsys):
    assert main(["run", "custom", "--config", str(mini_cfg), "--out", str(tmp_path / "out")]) == 0
    log = tmp_path / "out" / "mini" / "log.csv"
    moved = tmp_path / "alone.csv"
    moved.write_bytes(log.read_bytes())
    capsys.readouterr()
    assert main(["metrics", str(moved)]) == 0
    out = capsys.readouterr().out
    assert "peak_tension = " in out
    assert "max_deviation_joint_0" not in out  # no stored theta_ref to measure against


@pytest.mark.parametrize("exp, key", [("e1", "max_deviation_joint_1"), ("e2", "drift_joint_1"),
                                      ("e3", "conv_time"), ("e4", "steady_tension")])
def test_metrics_prints_each_builtin_summary(tmp_path, capsys, exp, key):
    assert main(["run", exp, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["metrics", str(tmp_path / exp / "log.csv")]) == 0
    stored = (tmp_path / exp / "metrics.txt").read_text()
    assert capsys.readouterr().out == stored
    assert f"\n{key} = " in stored


def _sibling_params(run_dir):
    summary = run_dir / "metrics.txt"
    summary.write_text(summary.read_text().replace("params.window = 0.5", "params.window = abc"))
    return run_dir / "log.csv", ("metrics.txt", "params.window")


def _sibling_theta_ref(run_dir):
    summary = run_dir / "metrics.txt"
    lines = summary.read_text().splitlines(keepends=True)
    summary.write_text("".join(line for line in lines if not line.startswith("params.theta_ref_1 ")))
    return run_dir / "log.csv", ("metrics.txt", "theta_ref")


def _bad_cell(run_dir):
    log = run_dir / "log.csv"
    head, first, *rest = log.read_text().splitlines(keepends=True)
    cells = first.split(",")
    cells[2] = "abc"  # theta_1
    log.write_text("".join([head, ",".join(cells), *rest]))
    return log, ("log.csv", "theta_1")


def _header_only(run_dir):
    log = run_dir / "log.csv"
    log.write_text(log.read_text().splitlines(keepends=True)[0])
    return log, ("log.csv", "no rows")


def _no_omega(run_dir):
    log = run_dir / "log.csv"
    rows = [line.split(",") for line in log.read_text().splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if not name.startswith("omega_")]
    log.write_text("".join(",".join(row[i] for i in keep) + "\n" for row in rows))
    return log, ("log.csv", "omega_0")


@pytest.mark.parametrize("spoil", [
    pytest.param(_sibling_params, id="summary-param-not-a-number"),
    pytest.param(_sibling_theta_ref, id="summary-theta-ref-narrower-than-the-log"),
    pytest.param(_bad_cell, id="log-cell-not-a-number"),
    pytest.param(lambda run_dir: (run_dir, (run_dir.name,)), id="directory"),
    pytest.param(_header_only, id="header-only-log"),
    pytest.param(_no_omega, id="log-without-omega-columns"),
])
def test_metrics_on_files_it_did_not_write_exits_2(tmp_path, mini_cfg, capsys, spoil):
    assert main(["run", "custom", "--config", str(mini_cfg), "--out", str(tmp_path / "out")]) == 0
    path, named = spoil(tmp_path / "out" / "mini")
    capsys.readouterr()
    assert main(["metrics", str(path)]) == 2
    err = capsys.readouterr().err
    assert all(n in err for n in named), err


# ---- the contract: what validate accepts, run runs ----
#
# Custom configs on the default arm (2 joints, 4 muscles) and on the 3-joint
# arm (6 muscles), with widths drawn to match either robot, joint indices
# past the end, durations down to below half a physics step, and events
# anywhere in or after the run.

finite = dict(allow_nan=False, allow_infinity=False)


def _rows(width, values):
    return st.lists(values, min_size=width, max_size=width)


ROBOTS = {None: (2, 4), "robot3.yaml": (3, 6)}  # robot: joints, muscles
# one of these is wrong in about half the drawn configs; the rest are valid
FAULTS = ("duration", "theta0", "theta_ref", "joint", "event_time", "mass", "jitter", "refs")


@st.composite
def contract_configs(draw):
    robot = draw(st.sampled_from(list(ROBOTS)))
    n_joints, n_muscles = ROBOTS[robot]
    fault = draw(st.sampled_from((None,) * len(FAULTS) + FAULTS))
    duration = draw(st.sampled_from([0.0006, 0.001, 0.0015]) | st.floats(0.001, 0.2, **finite))
    t = st.floats(0.0, last_event_time(duration, 0.001), **finite)

    def angles(wrong):
        return draw(_rows(5 - n_joints if wrong else n_joints, st.floats(-1.5, 0.0, **finite)))

    custom = {
        "duration": draw(st.sampled_from([0.0004, 0.0005])) if fault == "duration" else duration,
        "theta0": angles(fault == "theta0"),
        "pretension_mm": draw(st.floats(0.0, 12.0, **finite)),
        "impulses": draw(st.lists(st.fixed_dictionaries({
            "t": t, "joint": st.integers(0, n_joints - 1),
            "delta_omega": st.floats(-5.0, 5.0, **finite),
        }), min_size=fault in ("joint", "event_time"), max_size=3)),
        "payloads": draw(st.lists(st.fixed_dictionaries({
            "t": t, "mass": st.floats(0.0, 6.0, **finite),
        }), min_size=fault == "mass", max_size=2)),
        "time_jitter": draw(st.floats(0.0, duration, **finite)),
    }
    if fault == "joint":
        custom["impulses"][0]["joint"] = n_joints
    if fault == "event_time":
        custom["impulses"][0]["t"] = draw(st.floats(duration, 0.25, **finite))
    if fault == "mass":
        custom["payloads"][0]["mass"] = -1.0
    if fault == "jitter":
        custom["time_jitter"] = 2 * duration
    if fault == "refs" or draw(st.booleans()):
        times = draw(st.lists(st.floats(0.0, 0.25, **finite), min_size=1, max_size=3,
                              unique=True).map(sorted))
        width = n_muscles - (fault == "refs")
        custom["trajectory"] = {
            "times": times,
            "refs": draw(_rows(len(times), _rows(width, st.floats(230.0, 310.0, **finite)))),
        }
    doc = {
        "schema_version": 1, "kind": "experiment", "name": "prop", "scenario": "custom",
        "reflex": {"enabled": draw(st.booleans()),
                   "dl_stretch": draw(st.floats(0.5, 20.0, **finite)),
                   "dt_loose": draw(st.floats(0.01, 2.0, **finite))},
        "feedback": {"enabled": draw(st.booleans()),
                     "alpha": draw(st.floats(0.01, 1.0, **finite)),
                     "rate_hz": draw(st.floats(0.5, 1000.0, **finite))},
        "custom": custom,
    }
    if fault == "theta_ref" or draw(st.booleans()):
        doc["feedback"]["theta_ref"] = angles(fault == "theta_ref")
    if robot is not None:
        doc["robot"] = robot
    return doc, draw(st.integers(0, 2**31 - 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(contract_configs())
def test_validate_accepts_only_what_run_can_run(case):
    doc, seed = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_robots(tmp)
        cfg = str(write_yaml(tmp / "prop.yaml", doc))
        out = tmp / "out"
        validated = main(["validate", cfg])
        with np.errstate(all="ignore"):
            ran = main(["run", "custom", "--config", cfg, "--seed", str(seed), "--out", str(out)])
        if validated == 0:
            assert ran in (0, 3)
        else:
            assert (validated, ran) == (2, 2)
            assert not out.exists()
