"""Smoke test of the benchmark itself; not part of the repository's test suite.

    python3 perfbench/smoke.py

Runs every workload at its smallest size, untraced and traced, and checks
that the result line has the contracted keys, that the metric names and
units are exactly those of BENCHMARK.json, that every value is a number and
that every correctness check passed.  Then checks that in a directory
holding only BENCHMARK.json and the benchmark (no program) the benchmark
exits with an error and prints no result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT = 180


def run(cwd, workload, trace):
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--size", "smoke",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def check_result(done, expected):
    errors = []
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct {result.get('correct')} failed {result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted {result.get('attempted')}")
    metrics = result.get("metrics", {})
    if {n: m.get("unit") for n, m in metrics.items()} != expected:
        errors.append(f"metric names or units differ from BENCHMARK.json: {sorted(metrics)}")
    for name, m in metrics.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            errors.append(f"{name} = {v!r}")
    return errors


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors = check_result(run(ROOT, workload, trace), units[trace])
            failures += bool(errors)
            print(f"{workload} trace {trace}: {'ok' if not errors else 'FAIL'}")
            for error in errors:
                print(f"  {error}")

    work = BENCH_DIR / ".work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        done = run(bare, spec["workloads"][0]["name"], 0)
        printed = any(line.startswith("{") for line in done.stdout.splitlines())
        ok = done.returncode != 0 and not printed
        failures += not ok
        print(f"without the program: exit {done.returncode}, result printed {printed}: {'ok' if ok else 'FAIL'}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
