"""Per-layer tracing for the benchmark, done from outside the program.

``Tracer.installed()`` replaces each traced function of ``reflex_sim`` by a
wrapper at every place a caller looks it up (each module attribute that is
the function, or the class attribute for a method), and puts the originals
back on exit.  Outside that block the program runs its own functions.

Each wrapper records, per call, the wall time (``perf_counter``) and the
CPU time of the calling thread (``thread_time``).  Wall minus CPU is time the
thread was runnable or blocked but not running, which is mostly waiting for
the GIL when several threads run the program.  Self time is the wall time minus the
wall time of traced calls made from inside it on the same thread, so work a
layer hands to a pool thread is not its child.

Statistics are kept per thread, without locks, and summed at the end.
A layer the program no longer defines or no longer calls reads 0 calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import os
import sys
import threading
import time

import numpy as np

PACKAGE = "reflex_sim"

# (metric prefix, module of the package, attribute path inside that module)
LAYERS = (
    ("arm.step_dynamics", "arm", "step_dynamics"),
    ("arm.joint_torques", "arm", "joint_torques"),
    ("arm.muscle_lengths_from_joints", "arm", "muscle_lengths_from_joints"),
    ("muscles.update_tension", "muscles", "update_tension"),
    ("muscles.step_motor", "muscles", "step_motor"),
    ("reflex.update", "reflex", "update"),
    ("control.feedback_update", "control", "feedback_update"),
    ("scenario.run", "scenario", "run"),
    ("telemetry.write_csv", "telemetry", "TelemetryLog.write_csv"),
    ("telemetry.from_csv", "telemetry", "TelemetryLog.from_csv"),
    ("metrics.compute_report", "metrics", "compute_report"),
    ("metrics.write_summary", "metrics", "write_summary"),
    ("config.load_robot", "config", "load_robot"),
    ("config.load_experiment", "config", "load_experiment"),
    ("config.validate_file", "config", "validate_file"),
    ("experiments.builtin_experiments", "experiments", "builtin_experiments"),
    ("acceptance.check_experiment", "acceptance", "check_experiment"),
    ("cli.main", "cli", "main"),
)

STATS = ("calls", "busy_s", "cpu_s", "wait_s", "self_s", "per_call_us")
COUNTERS = (
    "reflex.fires",
    "scenario.steps",
    "scenario.run.redundant",
    "telemetry.write_csv.bytes",
    "telemetry.from_csv.bytes",
)

# slots of one layer's per-thread accumulator
_CALLS, _BUSY, _CPU, _CHILD = range(4)


def freeze(obj):
    """A hashable value that is equal exactly when the inputs are equal."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__qualname__,) + tuple(
            freeze(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (list, tuple)):
        return tuple(freeze(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, freeze(v)) for k, v in obj.items()))
    return obj


class Tracer:
    """Traces the layers of an imported ``reflex_sim`` while installed."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[list, dict]] = []  # (per-layer stats, counters)
        self._seen_runs: set = set()
        self._patched: list[tuple[object, str, object]] = []  # (owner, attr, original)

    # ---- accumulation ----

    def _thread_state(self):
        local = self._local
        try:
            return local.stats, local.counters, local.stack
        except AttributeError:
            local.stats = [[0, 0.0, 0.0, 0.0] for _ in LAYERS]
            local.counters = dict.fromkeys(COUNTERS, 0)
            local.stack = []
            with self._lock:
                self._threads.append((local.stats, local.counters))
            return local.stats, local.counters, local.stack

    def begin_op(self) -> None:
        """Start a new op: a simulation counts as redundant if it repeats within one op."""
        with self._lock:
            self._seen_runs.clear()

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer statistics and counters summed over all threads so far."""
        values: dict[str, float] = {}
        with self._lock:
            threads = list(self._threads)
        for i, (name, _, _) in enumerate(LAYERS):
            calls = sum(t[0][i][_CALLS] for t in threads)
            busy = sum(t[0][i][_BUSY] for t in threads)
            cpu = sum(t[0][i][_CPU] for t in threads)
            child = sum(t[0][i][_CHILD] for t in threads)
            values[f"{name}.calls"] = calls
            values[f"{name}.busy_s"] = busy
            values[f"{name}.cpu_s"] = cpu
            values[f"{name}.wait_s"] = busy - cpu
            values[f"{name}.self_s"] = busy - child
            values[f"{name}.per_call_us"] = 1e6 * busy / calls if calls else 0.0
        counters = {k: sum(t[1][k] for t in threads) for k in COUNTERS}
        return values, counters

    # ---- wrapping ----

    def _wrap(self, index: int, fn, before, after):
        perf, tcpu = time.perf_counter, time.thread_time
        thread_state = self._thread_state

        def traced(*args, **kwargs):
            stats, counters, stack = thread_state()
            token = before(counters, args, kwargs) if before is not None else None
            stack.append(0.0)
            t0 = perf()
            c0 = tcpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1 = tcpu()
                t1 = perf()
                child = stack.pop()
                wall = t1 - t0
                if stack:
                    stack[-1] += wall
                s = stats[index]
                s[_CALLS] += 1
                s[_BUSY] += wall
                s[_CPU] += c1 - c0
                s[_CHILD] += child
            if after is not None:
                after(counters, token, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self, name: str, fn):
        """(before, after) observers that count work beyond calls and time."""
        if name == "reflex.update":
            def fires(counters, token, args, kwargs, result):
                counters["reflex.fires"] += len(result[2])
            return None, fires
        if name == "scenario.run":
            signature = inspect.signature(fn)

            def repeat(counters, args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = freeze(tuple(bound.arguments.items()))
                with self._lock:
                    seen = key in self._seen_runs
                    self._seen_runs.add(key)
                counters["scenario.run.redundant"] += seen

            def steps(counters, token, args, kwargs, result):
                counters["scenario.steps"] += len(result.t)
            return repeat, steps
        if name == "telemetry.write_csv":
            def position(counters, args, kwargs):
                return _file_of(args, kwargs).tell()

            def written(counters, token, args, kwargs, result):
                counters["telemetry.write_csv.bytes"] += _file_of(args, kwargs).tell() - token
            return position, written
        if name == "telemetry.from_csv":
            def read(counters, token, args, kwargs, result):
                path = args[0] if args else kwargs["path"]
                counters["telemetry.from_csv.bytes"] += os.path.getsize(path)
            return None, read
        return None, None

    @contextlib.contextmanager
    def installed(self):
        """Trace the layers inside the block; restore every original after it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        try:
            for index, (name, module_name, attr_path) in enumerate(LAYERS):
                self._install(index, name, module_name, attr_path, modules)
            yield self
        finally:
            for owner, attr, original in reversed(self._patched):
                setattr(owner, attr, original)
            self._patched.clear()

    def _install(self, index, name, module_name, attr_path, modules) -> None:
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            return
        owner_name, _, attr = attr_path.rpartition(".")
        if owner_name:  # a method: callers look it up on the class
            owner = getattr(module, owner_name, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                return
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = self._wrap(index, fn, *self._hooks(name, fn))
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
            return
        fn = getattr(module, attr, None)
        if fn is None:
            return
        wrapper = self._wrap(index, fn, *self._hooks(name, fn))
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    self._patched.append((m, key, fn))
                    setattr(m, key, wrapper)


def _file_of(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["fh"]
