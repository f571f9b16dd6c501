"""Benchmark of reflex-sim through its public CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/reflex_sim`` next to this directory, never from an installed copy.
One client drives ``reflex_sim.cli.main(argv)`` in this process as a closed
loop: each op starts when the previous one has returned.  Workloads and
their checks are in ``bench_workloads.py``; the per-layer tracer is in
``bench_trace.py``.

A run is a whole number of passes over the workload's ops,
ceil(S / nominal pass time), so two versions of the program do the same
work at the same S.  ``--trace 0`` reports the end-to-end metrics; the
tracer is not installed.  ``--trace 1`` alternates untraced and traced
passes and reports per-layer figures per traced pass, plus the tracing
overhead.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 with a result printed, 1 when set-up fails, 2 when there is
no program source to benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from bench_trace import LAYERS, STATS, Tracer  # noqa: E402
from bench_workloads import WORKLOADS, build_ops, check_op, expected_hashes, load_golden  # noqa: E402

# One pass at the baseline (2-core AMD EPYC, Python 3.11, numpy 2.4).  These
# fix how many passes a run makes; they are not limits.
NOMINAL_PASS_S = {"paper-sweep": 5.5, "acceptance-gate": 9.4, "custom-seeded": 5.0}
# set-up is sampled at least SETUP_MIN times, then until SETUP_BUDGET_S is spent
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 4.0
PROBE_TIMEOUT_S = 60
# no pass starts after this many seconds of measuring, so a run ends within 180 s
DEADLINE_S = 100
THREADS_ENV = "REFLEX_SIM_THREADS"
# One sweep worker.  On a 2-vCPU host the default pool (2 workers) is no
# faster, since the workers take turns on the GIL, and its pass times spread
# about three times as much.
SWEEP_THREADS = "1"
TAIL_BEYOND = 10


class SetupError(Exception):
    pass


def import_program():
    """Import reflex_sim from this checkout's src/; exit 2 when it is not there."""
    package = SRC / "reflex_sim"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no program source at {package}; run from a reflex-sim checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import reflex_sim.cli  # noqa: F401

    import reflex_sim
    if Path(reflex_sim.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported reflex_sim from {reflex_sim.__file__}, not {package}",
              file=sys.stderr)
        sys.exit(2)


class Bench:
    """Inputs and outputs of one workload in a directory the benchmark owns."""

    def __init__(self, workload: str, seed: int, work: Path):
        from reflex_sim import cli, config, experiments

        self.cli = cli
        self.out = work / "out"
        robot = config.default_robot()
        self.ops = build_ops(workload, seed, experiments.builtin_experiments(robot), work, self.out)
        self.sim_s_per_pass = sum(op.sim_s for op in self.ops)
        self.expected = expected_hashes(workload, seed, load_golden())

    def run_op(self, op, tracer: Tracer | None = None):
        """Run one op; returns (latency s, exit codes, stdouts, exception text or None)."""
        codes, stdouts = [], []
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            for argv in op.commands:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    codes.append(self.cli.main(argv))
                stdouts.append(out.getvalue())
        except Exception:  # a traceback from the program is a failed op, not a crash here
            return time.perf_counter() - t0, codes, stdouts, traceback.format_exc(limit=3)
        return time.perf_counter() - t0, codes, stdouts, None

    def run_pass(self, tracer: Tracer | None = None):
        """One pass over all ops; returns (wall s, op latencies, problems per failed op)."""
        if self.out.exists():
            shutil.rmtree(self.out)
        results = []
        t0 = time.perf_counter()
        for op in self.ops:
            results.append((op, self.run_op(op, tracer)))
        wall = time.perf_counter() - t0

        latencies, failures = [], []
        for op, (latency, codes, stdouts, crash) in results:
            latencies.append(latency)
            if crash is not None:
                failures.append(f"{op.label}: raised\n{crash}")
                continue
            problems, hashes = check_op(op, codes, stdouts, self.out, self.expected)
            for rel, digest in hashes.items():
                self.expected.setdefault(rel, digest)  # later passes must match
            if problems:
                failures.append(f"{op.label}: " + "; ".join(problems))
        return wall, latencies, failures


def setup_sample(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until its workload is ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) < 2 or lines[-2] != "ready":
        raise SetupError(f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
    return float(lines[-1]) - t0


def tail(values: list[float]) -> tuple[float, float]:
    """The highest nearest-rank percentile with TAIL_BEYOND samples above it.

    Returns (value, percentile).  With too few samples for any such
    percentile, this is the minimum (percentile 0).
    """
    xs = sorted(values)
    k = max(0, len(xs) - 1 - TAIL_BEYOND)
    return xs[k], (100.0 * k / (len(xs) - 1) if len(xs) > 1 else 0.0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def _passes(count: int):
    """Yield for each pass to run: count of them, fewer if DEADLINE_S is reached first."""
    start = time.monotonic()
    for i in range(count):
        if i and time.monotonic() - start > DEADLINE_S:
            print(f"perfbench: deadline reached after {i} of {count} passes", file=sys.stderr)
            return
        yield i


def end_to_end_metrics(setups, walls, latencies, sim_s_per_pass) -> tuple[dict, dict]:
    """Metrics of an untraced run, as {name: (value, unit)}, and notes on them."""
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_s, "s"),
        "sim_s_per_s": (sim_s_per_pass / statistics.median(walls), "sim-s/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "wall_s": f"median of {len(walls)} passes",
        "op_p50_s": f"{len(latencies)} ops",
        "op_tail_s": f"p{tail_pct:.1f} of {len(latencies)} ops",
        "sim_s_per_s": f"{sim_s_per_pass:g} simulated s over the median pass",
    }
    return metrics, notes


def layer_metrics(tracer: Tracer, traced_walls, untraced_walls) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, per traced pass, and notes on them."""
    passes = len(traced_walls)
    values, counters = tracer.totals()
    metrics = {}
    for name, _, _ in LAYERS:
        for stat in STATS:
            value = values[f"{name}.{stat}"]
            unit = {"calls": "count", "per_call_us": "us"}.get(stat, "s")
            metrics[f"{name}.{stat}"] = (value if stat == "per_call_us" else value / passes, unit)
    runs = values["scenario.run.calls"]
    redundant = counters["scenario.run.redundant"]
    metrics["reflex.fires"] = (counters["reflex.fires"] / passes, "count")
    metrics["scenario.steps"] = (counters["scenario.steps"] / passes, "count")
    metrics["scenario.run.redundant_frac"] = (redundant / runs if runs else 0.0, "frac")
    for layer in ("telemetry.write_csv", "telemetry.from_csv"):
        mb = counters[f"{layer}.bytes"] / 1e6
        busy = values[f"{layer}.busy_s"]
        metrics[f"{layer}.mb"] = (mb / passes, "MB")
        metrics[f"{layer}.mb_per_s"] = (mb / busy if busy else 0.0, "MB/s")
    metrics["trace_overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0, "frac")
    notes = {
        "scenario.run.redundant_frac": f"{redundant}/{runs:g} runs",
        "trace_overhead_frac": f"median traced pass over median untraced pass, {passes} each",
    }
    return metrics, notes


def measure(bench: Bench, passes: int, workload: str, seed: int) -> tuple[dict, dict]:
    setups = []
    while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX and sum(setups) < SETUP_BUDGET_S):
        setups.append(setup_sample(workload, seed))
    walls, latencies, failures = [], [], []
    for _ in _passes(passes):
        wall, lat, fail = bench.run_pass()
        walls.append(wall)
        latencies += lat
        failures += fail
    metrics, notes = end_to_end_metrics(setups, walls, latencies, bench.sim_s_per_pass)
    return metrics, {"passes": len(walls), "attempted": len(latencies), "failures": failures,
                     "notes": notes}


def measure_traced(bench: Bench, passes: int) -> tuple[dict, dict]:
    """Alternate untraced and traced passes, so both see the same machine load."""
    tracer = Tracer()
    untraced, traced, attempted, failures = [], [], 0, []
    for _ in _passes(passes):
        wall, lat, fail = bench.run_pass()
        untraced.append(wall)
        attempted, failures = attempted + len(lat), failures + fail
        with tracer.installed():
            wall, lat, fail = bench.run_pass(tracer)
        traced.append(wall)
        attempted, failures = attempted + len(lat), failures + fail
    metrics, notes = layer_metrics(tracer, traced, untraced)
    return metrics, {"passes": len(traced), "attempted": attempted, "failures": failures,
                     "notes": notes}


def machine_note() -> str:
    import numpy

    cpu = platform.processor() or "unknown CPU"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    return (f"nproc {os.cpu_count()}, {cpu}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ[THREADS_ENV] = SWEEP_THREADS  # never inherited from the caller
    import_program()

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        bench = Bench(args.workload, args.seed, work)
        bench.run_op(bench.ops[0])  # warm-up, untimed and unchecked
        if args.setup_probe:
            print(f"ready {time.monotonic()!r}", flush=True)
            return 0
        passes = max(1, math.ceil(args.seconds / NOMINAL_PASS_S[args.workload]))
        if args.trace:
            metrics, result = measure_traced(bench, passes)
        else:
            metrics, result = measure(bench, passes, args.workload, args.seed)
    except (SetupError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: set-up failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    failed, attempted = len(result["failures"]), result["attempted"]
    for problem in result["failures"][:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {result['passes']} passes"
          f"{' of each kind' if args.trace else ''}, {attempted} ops, closed loop with one client")
    print(f"machine: {machine_note()}")
    for name, (value, unit) in metrics.items():
        note = result["notes"].get(name)
        print(f"  {name:<44} {value:>14.6g} {unit:<8}" + (f" ({note})" if note else ""))
    print(f"  {'fail_frac':<44} {failed / attempted:>14.6g} {'frac':<8} ({failed}/{attempted} ops)")
    if args.trace:
        print("  per-layer counts and times are per traced pass")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
