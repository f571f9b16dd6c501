"""Tests of the benchmark itself, kept out of the program's test suite.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

import run
from bench_trace import LAYERS, Tracer
from bench_workloads import (
    DL_STRETCH_GRID,
    DT_LOOSE_GRID,
    JOB_DURATIONS,
    MAX_IMPULSE,
    MAX_JITTER,
    MAX_PAYLOAD,
    N_JOBS,
    Op,
    check_op,
    custom_configs,
)

run.import_program()

import reflex_sim  # noqa: E402
from reflex_sim import config, experiments, scenario  # noqa: E402
from reflex_sim.telemetry import TelemetryLog  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _package_attributes():
    """Every attribute of every loaded reflex_sim module and of TelemetryLog."""
    attrs = {
        (name, key): value
        for name, module in sys.modules.items()
        if name.startswith("reflex_sim") and module is not None
        for key, value in vars(module).items()
    }
    attrs.update({("TelemetryLog", k): v for k, v in vars(TelemetryLog).items()})
    return attrs


def _short_run(robot, duration=0.05, variant="reflex-on"):
    exp = experiments.builtin_experiments(robot)["e1"]
    exp = replace(exp, scenario=replace(exp.scenario, duration=duration))
    v = next(v for v in exp.paper_sweep if v.label == variant)
    return scenario.run(exp.scenario, robot, reflex=exp.reflex_params(v, robot.groups))


# ---- generator ----


def test_generator_is_deterministic_per_seed():
    assert custom_configs(7) == custom_configs(7)
    assert custom_configs(7) != custom_configs(8)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_configs_validate_and_stay_in_the_paper_ranges(tmp_path, seed):
    jobs = custom_configs(seed)
    assert len(jobs) == N_JOBS
    assert sum(yaml.safe_load(t)["custom"]["duration"] for _, t, _ in jobs) == (
        N_JOBS / len(JOB_DURATIONS) * sum(JOB_DURATIONS))
    for name, text, _ in jobs:
        path = tmp_path / f"{name}.yaml"
        path.write_text(text)
        assert config.validate_file(path) == []
        doc = yaml.safe_load(text)
        custom = doc["custom"]
        assert all(abs(i["delta_omega"]) <= MAX_IMPULSE and i["joint"] in (0, 1)
                   for i in custom["impulses"])
        assert all(0.0 <= p["mass"] <= MAX_PAYLOAD for p in custom["payloads"])
        assert 0.0 <= custom["time_jitter"] <= MAX_JITTER
        assert doc["reflex"]["dl_stretch"] in DL_STRETCH_GRID
        assert doc["reflex"]["dt_loose"] in DT_LOOSE_GRID
        assert (doc["feedback"]["alpha"], doc["feedback"]["rate_hz"]) == (0.3, 5.0)


# ---- metric names ----


def test_benchmark_names_are_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


def test_reported_metrics_match_the_declared_ones():
    e2e, _ = run.end_to_end_metrics([1.0], [2.0], [1.0, 1.0], 10.0)
    layers, _ = run.layer_metrics(Tracer(), [1.1], [1.0])
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: u for k, (_, u) in layers.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, pytest.approx(89.0 / 0.99))
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 0.0)


# ---- tracer ----


def test_every_layer_is_found_and_every_original_restored():
    robot = config.default_robot()
    before = _package_attributes()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            patched = {owner for owner, _, _ in tracer._patched}
            assert scenario.step_dynamics is not before[("reflex_sim.scenario", "step_dynamics")]
            wrapped_layers = {
                getattr(getattr(owner, attr), "__wrapped__", None) for owner, attr, _ in tracer._patched
            }
            assert len(wrapped_layers) == len(LAYERS)
            assert TelemetryLog in patched
            _short_run(robot)
            raise RuntimeError("leave the block by an exception")
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_counts_self_time_and_redundant_runs():
    robot = config.default_robot()
    tracer = Tracer()
    with tracer.installed():
        tracer.begin_op()
        log = _short_run(robot)
        _short_run(robot)  # the same simulation again in one op
        _short_run(robot, variant="reflex-off")
        tracer.begin_op()
        _short_run(robot)
    values, counters = tracer.totals()
    steps = len(log.t)
    assert values["scenario.run.calls"] == 4
    assert counters["scenario.run.redundant"] == 1
    assert counters["scenario.steps"] == 4 * steps
    assert values["arm.step_dynamics.calls"] == 4 * steps
    assert values["reflex.update.calls"] == 3 * steps // 10
    assert 0.0 < values["scenario.run.self_s"] < values["scenario.run.busy_s"]
    assert values["cli.main.calls"] == 0  # a layer not called reads 0


def test_threads_lose_no_counts():
    robot = config.default_robot()
    steps = len(_short_run(robot, duration=0.02).t)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tracer = Tracer()
        with tracer.installed(), ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_short_run, robot, 0.02) for _ in range(16)]
            for f in futures:
                f.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    values, _ = tracer.totals()
    assert values["arm.step_dynamics.calls"] == 16 * steps
    assert values["scenario.run.calls"] == 16


# ---- checks and failure paths ----


def test_check_op_reports_exit_codes_missing_files_and_hash_mismatch(tmp_path):
    (tmp_path / "a.txt").write_text("x")
    op = Op(label="op", commands=[["run", "e1"]], outputs=["a.txt", "b.txt"], sim_s=1.0,
            stdout_marks=["wrote "])
    problems, hashes = check_op(op, [0], ["wrote a\n"], tmp_path, {"a.txt": "0" * 64})
    assert any("sha256" in p for p in problems) and any("b.txt" in p for p in problems)
    problems, _ = check_op(op, [3], [""], tmp_path, {})
    assert any("exit 3" in p for p in problems)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / run.HERE.name / "run.py"), "--workload", "paper-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert Path(reflex_sim.__file__).is_relative_to(run.SRC)
