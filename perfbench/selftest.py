"""The benchmark's own test.

    python3 perfbench/selftest.py [workload ...]

1. Two traced runs of each workload (default: all three), each in a fresh
   process, must pass their output checks and report every per-layer
   counter identically: counters count work, so they may not drift.
2. Outside a checkout (only ``BENCHMARK.json`` and ``perfbench/`` present)
   the benchmark must exit non-zero without printing a result.

Exits 0 when every check holds. A traced run of ``sweep`` takes about two
minutes on a 2-core machine.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def traced(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "42", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return result["metrics"]


def check_counters_repeat(workload):
    first, second = traced(workload), traced(workload)
    assert first.keys() == second.keys()
    counts = [k for k, m in first.items() if m["unit"] == "count"]
    drift = {k: (first[k]["value"], second[k]["value"]) for k in counts
             if first[k]["value"] != second[k]["value"]}
    assert not drift, f"{workload}: counters differ between runs: {drift}"
    print(f"ok {workload}: {len(counts)} counters repeat exactly; trace "
          f"overhead {first['trace.overhead_s']['value']:+.2f} s, "
          f"{second['trace.overhead_s']['value']:+.2f} s")


def check_refuses_without_checkout():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "charging",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok: refuses to run without the package sources")


def main(argv):
    for workload in argv or sorted(WORKLOADS):
        check_counters_repeat(workload)
    check_refuses_without_checkout()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
