"""Run the benchmark over several seeds and summarize each metric across runs.

    python3 perfbench/summarize.py --workload sweep --seeds 1-10

Runs ``run.py`` once per seed, one after another, and prints for every
metric the median and quartiles of the per-run values, the spread
(interquartile range over median) and, for end-to-end metrics, that spread
against the metric's bound in BENCHMARK.json.  ``--out`` also saves the
per-run results as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results, spec):
    """Print and return median, quartiles and spread of every metric across runs."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    print(f"{'metric':42s} {'unit':>8s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        unit = first["unit"]
        if any(v is None for v in values):
            print(f"{name:42s} {unit:>8s} {'missing':>12s}")
            continue
        if len(values) > 1:
            q1, med, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = med = q3 = values[0]
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "  OVER BOUND" if spread > bound else ("  over a third" if spread > bound / 3 else "")
        print(
            f"{name:42s} {unit:>8s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
            f"{'' if bound is None else bound:>6}{flag}"
        )
        summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    results = []
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, seconds, args.trace)
        print(
            f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
            f"failed {result['failed']}",
            flush=True,
        )
        results.append(result)
    summary = summarize(results, spec)
    if args.out:
        record = {
            "workload": args.workload,
            "seeds": parse_seeds(args.seeds),
            "seconds": seconds,
            "trace": args.trace,
            "summary": summary,
            "runs": results,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
