"""mrckit benchmark: certified-fit time on three workloads, with per-layer timing.

    python3 perfbench/run.py --workload binary-lattice --seed 1 --seconds 35 --trace 0

Run from the repository root.  The program is imported from ``src/``; the
inputs are generated from ``--seed``.  After set-up (timed several times,
median reported) and one untimed warm-up pass at the smallest size, the run
repeats whole passes of the workload until the next one would overrun
``--seconds``.  One process calls mrckit's public API sequentially; only
``mrckit experiment`` starts worker processes, at most ``nproc``.  Before
every operation the run samples a fixed reference computation
(``reference.py``), and it reports each pass's times scaled by that pass's
speed factor, so that the machine's changing speed mostly cancels.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes (experiment in-process, so every span
stays here), writes the spans under ``perfbench/.work/traces/`` and reports
the per-layer metrics.  The report goes to stdout; its last line is the JSON
result.  ``--size smoke`` runs the smallest inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread per process, set before numpy loads, so the only
# parallelism is the experiment's process pool.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
SETUP_REPEATS = 9


def import_program():
    """Import mrckit from this checkout's sources, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import mrckit
    except ImportError as exc:
        sys.exit(f"cannot import mrckit from {SRC}: {exc}")
    if SRC not in Path(mrckit.__file__).resolve().parents:
        sys.exit(f"mrckit was imported from {mrckit.__file__}, not from {SRC}")


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def median(values):
    return statistics.median(values) if values else None


def mean(values):
    return sum(values) / len(values) if values else None


def nproc():
    return len(os.sched_getaffinity(0))


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the name is informational
        blas = "unknown"
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        **{var: os.environ.get(var) for var in BLAS_VARS},
    }


def set_up(workload, size, seed, workdir, sets, between):
    """Generate the run's input sets SETUP_REPEATS times; returns (sets, seconds list).

    ``between`` is called, untimed, before each repeat.
    """
    from workloads import make_inputs

    times = []
    for _ in range(SETUP_REPEATS):
        between()
        t0 = time.perf_counter()
        inputs = [make_inputs(workload, size, seed, i, workdir / f"set{i}") for i in range(sets)]
        times.append(time.perf_counter() - t0)
    return inputs, times


def end_to_end(logs, scales, setup_times, setup_scale):
    """Samples of every end-to-end metric, keyed by name.

    Times are scaled to nominal machine speed: those of ``logs[i]`` by
    ``scales[i]``, set-up times by ``setup_scale`` (see reference.py).
    """
    from workloads import FIXED_KINDS, MRC_KINDS

    samples = {
        "setup_s": [t * setup_scale for t in setup_times],
        "pass_s": [log.pass_s * k for log, k in zip(logs, scales)],
    }
    for name in [f"fit_s.{kind}" for kind in MRC_KINDS + FIXED_KINDS] + ["sweep_s"]:
        samples[name] = [t * k for log, k in zip(logs, scales) for t in log.times.get(name, [])]
    samples["predict_rows_per_s"] = [
        log.predict_rows / (log.predict_s * k) for log, k in zip(logs, scales) if log.predict_s > 0
    ]
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    samples["peak_rss_mb"] = [usage / 1024.0]
    samples["dual_objective_mean"] = [mean(log.uppers) for log in logs if log.uppers]
    return samples


def per_layer(log, spans, start, end):
    """Per-layer metrics of one traced pass, from its spans and outcomes."""
    from tracing import layer_self_times

    by = {}
    for s in spans[start:end]:
        by.setdefault(s[0], []).append(s)

    def durations(name, tag=None):
        return [s[2] - s[1] for s in by.get(name, []) if tag is None or s[5] == tag]

    out = {}
    for kind in ("zero-one", "log", "alpha2"):
        calls = durations("solver.objective", kind)
        out[f"solver.objective_call_us.{kind}"] = 1e6 * mean(calls) if calls else None
        out[f"solver.objective_calls.{kind}"] = len(calls)
    alpha = durations("solver.max_offset_alpha")
    out["solver.alpha_offset_us"] = 1e6 * mean(alpha) if alpha else None
    out["solver.train_s.zero-one-exact"] = mean(durations("solver.train_zero_one_exact"))
    for kind, tag in (("zero-one-subgradient", "zero-one"), ("log", "log"), ("alpha2", "alpha2")):
        out[f"solver.train_s.{kind}"] = mean(durations("solver.train_mrc", tag))
    for use in ("train", "bounds"):
        lps = durations(f"simplex.solve_lp.{use}")
        out[f"simplex.solve_s.{use}"] = sum(lps)
        out[f"simplex.calls.{use}"] = len(lps)
    shapes = [s[5] for s in by.get("simplex.solve_lp.train", [])]
    out["simplex.rows.train"] = max((r for r, _ in shapes), default=0)
    out["simplex.cols.train"] = max((c for _, c in shapes), default=0)
    out["bounds.lower_bound_s"] = mean(durations("bounds.lower_bound"))
    out["bounds.worst_case_s"] = mean(durations("bounds.worst_case_risk"))
    out["bounds.gap_mean"] = mean(log.gaps)
    objective_calls = 0
    for kind, name in (("logreg", "logreg"), ("adversarial01", "adversarial01")):
        calls = durations(f"marginals.{name}_objective")
        objective_calls += len(calls)
        out[f"marginals.objective_call_us.{kind}"] = 1e6 * mean(calls) if calls else None
        trainer = "train_logreg" if kind == "logreg" else "train_adversarial01"
        out[f"marginals.train_s.{kind}"] = mean(durations(f"marginals.{trainer}"))
    out["marginals.objective_calls"] = objective_calls
    out["features.fit_thresholds_s"] = mean(durations("features.fit_thresholds"))
    atoms = by.get("features.constraint_atoms", [])
    box_atoms = durations("features.estimate_expectations") + durations("features.constraint_atoms")
    out["features.box_atoms_s"] = sum(box_atoms) / len(atoms) if atoms else None
    out["features.atoms"] = median([s[5] for s in atoms])
    out["features.dim"] = median([s[5] for s in by.get("features.fit_thresholds", [])])
    out["core.indicator_matrix_s"] = sum(durations("core.indicator_matrix"))
    out["predictors.rule_s"] = sum(durations("predictors.rule_probs"))
    out["data_io.load_dataset_s"] = mean(durations("data_io.load_dataset"))
    loads = durations("data_io.load_model")
    saves = durations("data_io.save_model")
    out["data_io.model_roundtrip_s"] = (sum(loads) + sum(saves)) / len(loads) if loads else None
    out["cli.experiment_s"] = mean(durations("cli.experiment"))
    out["cli.cells"] = log.cells
    for layer, seconds in layer_self_times(spans, start, end).items():
        out[f"self_s.{layer}"] = seconds
    return out


def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def report(samples, units):
    """Print each metric's unit, median, quartiles and sample count; return the medians."""
    print(
        f"{'metric':42s} {'unit':>8s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
        f"{'n':>4s}"
    )
    values = {}
    for name, unit in units.items():
        got = [v for v in samples.get(name, []) if v is not None]
        if not got:
            values[name] = None
            print(f"{name:42s} {unit:>8s} {'missing':>12s}")
            continue
        q1, med, q3 = quartiles(got)
        values[name] = med
        print(
            f"{name:42s} {unit:>8s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
            f"{len(got):4d}"
        )
    return values


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    import tracing
    from reference import NOMINAL_S, Reference
    from workloads import INPUT_SETS, make_inputs, run_pass

    e2e_units, layer_units = declared_metrics()
    env = environment()
    print("environment " + json.dumps(env))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    reference = Reference()
    try:
        inputs, setup_times = set_up(
            args.workload, args.size, args.seed, workdir, INPUT_SETS, reference.sample
        )
        # the traced run keeps the experiment in this process
        workers = 1 if args.trace else min(inputs[0].cells, env["nproc"])
        warm = make_inputs(args.workload, "smoke", args.seed, INPUT_SETS, workdir / "warmup")
        logs = [run_pass(warm, workers)]

        tracer = tracing.Tracer()
        timed, traced, marks, scales = [], [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            t0 = time.perf_counter()
            current = inputs[len(timed) % len(inputs)]
            first = len(reference.samples)
            timed.append(run_pass(current, workers, between=reference.sample))
            scales.append(reference.scale(first))
            if args.trace:
                start = tracer.mark()
                with tracer.installed():
                    traced.append(run_pass(current, workers, tracer))
                marks.append((start, tracer.mark()))
            if time.perf_counter() + (time.perf_counter() - t0) > deadline:
                break
        logs += timed + traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    for failure in dict.fromkeys(f for log in logs for f in log.failures):
        print(f"FAILED {failure}")
    print(f"workload {args.workload} seed {args.seed} size {args.size} passes {len(timed)}")
    print(f"operations attempted {attempted} failed {failed} error_rate {failed / attempted:.6g}")

    if args.trace:
        layer_samples = {}
        for log, (start, end) in zip(traced, marks):
            for name, value in per_layer(log, tracer.spans, start, end).items():
                layer_samples.setdefault(name, []).append(value)
        plain = median([log.pass_s for log in timed])
        layer_samples["trace.overhead_frac"] = [
            median([log.pass_s for log in traced]) / plain - 1.0
        ]
        print("per-layer metrics (traced passes)")
        values = report(layer_samples, layer_units)
        start, end = marks[-1]
        breakdown = tracing.op_breakdown(tracer.spans, start, end)
        print("self time by layer within each operation, last traced pass (s)")
        for op, row in breakdown.items():
            parts = "  ".join(f"{k}={v:.4f}" for k, v in row.items() if v > 5e-5)
            if parts:
                print(f"  {op:40s} {parts}")
        trace_dir = WORK / "traces"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(
            path,
            {"workload": args.workload, "seed": args.seed, "environment": env,
             "passes": marks, "per_layer": values, "op_self_s": breakdown},
        )
        print(f"spans written to {path.relative_to(ROOT)}")
        units = layer_units
    else:
        print("end-to-end metrics")
        setup_scale = reference.scale()
        print(
            f"reference computation: median {statistics.median(reference.samples):.6g} s "
            f"over {len(reference.samples)} samples, nominal {NOMINAL_S} s; times below "
            f"are scaled to nominal speed, by {min(scales):.4g} to {max(scales):.4g} a pass"
        )
        values = report(end_to_end(timed, scales, setup_times, setup_scale), e2e_units)
        units = e2e_units

    result = {
        "correct": failed == 0 and all(v is not None for v in values.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    import_program()
    sys.exit(main())
