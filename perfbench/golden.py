"""Write golden.json: SHA-256 of every output of one pass of each workload.

    python3 perfbench/golden.py

Run from the root of a source checkout, only when a change to the program
is meant to change its outputs; say so where the change is recorded.  The
built-in workloads do not depend on the seed; custom-seeded is recorded at
DEFAULT_SEED.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from bench_workloads import DEFAULT_SEED, GOLDEN_PATH, WORKLOADS, check_op


def main() -> int:
    run.import_program()
    golden = {}
    run.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="golden-", dir=run.WORK_ROOT))
    try:
        for workload in WORKLOADS:
            bench = run.Bench(workload, DEFAULT_SEED, work / workload)
            files = {}
            for op in bench.ops:
                _, codes, stdouts, crash = bench.run_op(op)
                problems, hashes = check_op(op, codes, stdouts, bench.out, {})
                if crash or problems:
                    print(f"{workload} {op.label}: {crash or problems}", file=sys.stderr)
                    return 1
                files.update(hashes)
            golden[workload] = {"seed": DEFAULT_SEED, "files": dict(sorted(files.items()))}
            print(f"{workload}: {len(files)} files")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK_ROOT.rmdir()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
