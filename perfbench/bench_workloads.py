"""The benchmark's workloads: the ops of one pass, their inputs, and the
checks on their outputs.

Every op goes through the public entry point ``reflex_sim.cli.main(argv)``.
An op is one CLI command, except in ``custom-seeded``, where it is one job
of three commands (validate, run, metrics).  Outputs go to a directory the
benchmark owns; nothing is written under ``runs/``.

The built-in workloads run fixed commands, so their outputs are the same at
every seed and are compared with the SHA-256 values in ``golden.json``.
``custom-seeded`` generates its experiment files from the seed; its outputs
are compared with ``golden.json`` at ``DEFAULT_SEED`` and, at any seed,
between passes of one run, which must be byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
DEFAULT_SEED = 1

WORKLOADS = ("paper-sweep", "acceptance-gate", "custom-seeded")

# custom-seeded draws from the ranges of the paper's experiments
N_JOBS = 25
# every seed gets the same mix of job costs: each duration has 5 jobs, 2 of
# them carrying a payload, which makes each later step dearer
JOB_DURATIONS = (2.0, 2.5, 3.0, 3.5, 4.0)  # s
POSTURES = ((0.0, -1.57), (0.0, -0.3), (0.0, -0.03))  # rad: e2/e3 bent, e4 start, e1 near the stop
PRETENSION_MM = 7.4
MAX_IMPULSE = 4.2  # rad/s, e2's knock
MAX_PAYLOAD = 6.0  # kg, e3's dropped mass
DL_STRETCH_GRID = (5.0, 10.0, 20.0)  # mm, values of the paper sweeps
DT_LOOSE_GRID = (0.5, 1.0, 3.0, 5.0)  # s, values of the paper sweeps
MAX_JITTER = 0.1  # s


@dataclass
class Op:
    """One closed-loop operation: CLI commands run back to back."""

    label: str
    commands: list[list[str]]
    outputs: list[str]  # files it writes, relative to the pass directory
    sim_s: float  # simulated seconds whose result it reports, each simulation once
    stdout_marks: list[str] = field(default_factory=list)  # per command, required prefix of a line
    metrics_echo: str | None = None  # metrics.txt the last command's stdout must equal


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


# ---- built-in workloads ----


def _distinct_sim_s(exp, variants) -> float:
    """Seconds simulated by the distinct variants; labels do not change a simulation."""
    runs = {(v.dl_stretch, v.dt_loose) if v.reflex else None for v in variants}
    return len(runs) * exp.scenario.duration


def paper_sweep_ops(experiments, out: Path) -> list[Op]:
    ops = []
    for name in ("e2", "e3"):
        exp = experiments[name]
        labels = [v.label for v in exp.paper_sweep]
        ops.append(Op(
            label=f"run {name} --sweep paper",
            commands=[["run", name, "--sweep", "paper", "--out", str(out)]],
            outputs=[f"{name}/{lab}/{f}" for lab in labels for f in ("log.csv", "metrics.txt")]
            + [f"{name}/comparison.csv"],
            sim_s=len(labels) * exp.scenario.duration,
            stdout_marks=[f"wrote {len(labels)} runs under "],
        ))
    return ops


def acceptance_ops(experiments, out: Path) -> list[Op]:
    ops = []
    for name in ("e1", "e2", "e3", "e4"):
        exp = experiments[name]
        # the check evaluates the paper sweep (e4: on the robot with and without
        # friction); the written default variant is one of those simulations
        sims = _distinct_sim_s(exp, exp.paper_sweep + (exp.default_variant,))
        if name == "e4":
            sims *= 2
        ops.append(Op(
            label=f"run {name} --check",
            commands=[["run", name, "--check", "--out", str(out)]],
            outputs=[f"{name}/log.csv", f"{name}/metrics.txt"],
            sim_s=sims,
            stdout_marks=["PASS "],
        ))
    return ops


# ---- custom-seeded ----


def custom_configs(seed: int) -> list[tuple[str, str, int]]:
    """(name, YAML text, CLI seed) of each job; the same seed gives the same bytes."""
    rng = np.random.default_rng(seed)
    slots = rng.permutation(N_JOBS)
    jobs = []
    for i in range(N_JOBS):
        name = f"job{i:02d}"
        kind, duration_index = divmod(int(slots[i]), len(JOB_DURATIONS))
        duration = JOB_DURATIONS[duration_index]
        impulses = [
            {
                "t": round(float(rng.uniform(0.2, duration - 0.2)), 3),
                "joint": int(rng.integers(0, 2)),
                "delta_omega": round(float(rng.uniform(-MAX_IMPULSE, MAX_IMPULSE)), 3),
            }
            for _ in range(int(rng.integers(1, 4)))
        ]
        payloads = [
            {
                "t": round(float(rng.uniform(0.0, duration - 0.2)), 3),
                "mass": round(float(rng.uniform(0.0, MAX_PAYLOAD)), 3),
            }
            for _ in range(kind % 2)
        ]
        doc = {
            "schema_version": 1,
            "kind": "experiment",
            "name": name,
            "scenario": "custom",
            "reflex": {
                "enabled": bool(rng.integers(0, 2)),
                "dl_stretch": float(rng.choice(DL_STRETCH_GRID)),
                "dt_loose": float(rng.choice(DT_LOOSE_GRID)),
            },
            "feedback": {"enabled": bool(rng.integers(0, 2)), "alpha": 0.3, "rate_hz": 5.0},
            "custom": {
                "duration": duration,
                "theta0": list(POSTURES[int(rng.integers(0, len(POSTURES)))]),
                "pretension_mm": PRETENSION_MM,
                "impulses": impulses,
                "payloads": payloads,
                "time_jitter": round(float(rng.uniform(0.0, MAX_JITTER)), 3),
            },
        }
        text = yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)
        jobs.append((name, text, int(rng.integers(0, 2**31 - 1))))
    return jobs


def custom_ops(seed: int, inputs: Path, out: Path) -> list[Op]:
    inputs.mkdir(parents=True, exist_ok=True)
    ops = []
    for name, text, cli_seed in custom_configs(seed):
        cfg = inputs / f"{name}.yaml"
        cfg.write_text(text)
        log = out / name / "log.csv"
        ops.append(Op(
            label=name,
            commands=[
                ["validate", str(cfg)],
                ["run", "custom", "--config", str(cfg), "--seed", str(cli_seed), "--out", str(out)],
                ["metrics", str(log)],
            ],
            outputs=[f"{name}/log.csv", f"{name}/metrics.txt"],
            sim_s=float(yaml.safe_load(text)["custom"]["duration"]),
            stdout_marks=["ok: ", "wrote ", ""],
            metrics_echo=f"{name}/metrics.txt",
        ))
    return ops


def build_ops(workload: str, seed: int, experiments, work: Path, out: Path) -> list[Op]:
    if workload == "paper-sweep":
        return paper_sweep_ops(experiments, out)
    if workload == "acceptance-gate":
        return acceptance_ops(experiments, out)
    if workload == "custom-seeded":
        return custom_ops(seed, work / "inputs", out)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def expected_hashes(workload: str, seed: int, golden: dict) -> dict[str, str]:
    """Stored output hashes that apply to this run (empty when none do)."""
    entry = golden.get(workload, {})
    if workload == "custom-seeded" and seed != entry.get("seed"):
        return {}
    return dict(entry.get("files", {}))


def check_op(op: Op, codes: list[int], stdouts: list[str], out: Path,
             expected: dict[str, str]) -> tuple[list[str], dict[str, str]]:
    """Problems with one op's results, and the hashes of the files it wrote."""
    problems = []
    for argv, code, text, mark in zip(op.commands, codes, stdouts, op.stdout_marks):
        if code != 0:
            problems.append(f"{' '.join(argv[:2])}: exit {code}")
        elif not any(line.startswith(mark) for line in text.splitlines()):
            problems.append(f"{' '.join(argv[:2])}: no output line starting {mark!r}")
    hashes = {}
    for rel in op.outputs:
        path = out / rel
        if not path.is_file():
            problems.append(f"{rel}: not written")
            continue
        hashes[rel] = sha256(path)
        if rel in expected and hashes[rel] != expected[rel]:
            problems.append(f"{rel}: sha256 {hashes[rel][:12]} != expected {expected[rel][:12]}")
    if op.metrics_echo is not None and (out / op.metrics_echo).is_file():
        if stdouts[-1] != (out / op.metrics_echo).read_text():
            problems.append(f"metrics stdout differs from {op.metrics_echo}")
    return problems, hashes
