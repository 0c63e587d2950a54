"""Inputs and timed passes of the three benchmark workloads.

Every pass runs the same operations, each through mrckit's public API and
each timed from outside:

* certified MRC fits (featurize, train, ``bound_report``) of four kinds:
  0-1 exact LP, 0-1 subgradient, log and alpha:2;
* the fixed-marginal learners ``train_logreg`` and ``train_adversarial01``;
* ``predict_probs`` of every fitted model on a large batch;
* a model JSON round trip;
* ``mrckit experiment`` run in-process through ``cli.main``.

The workloads differ in the data and the sizes, chosen so that a different
layer dominates each one (see README.md).  Inputs come from the workload
seed only; mrckit sees nothing but the generated data and files.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mrckit import bounds, cli, data_io, features, marginals, predictors, solver
from mrckit.core import AlphaLoss, LogLoss, ZeroOneLoss
from mrckit.datasets import KnownJoint, two_class_demo_joint

WIDTH = 0.25
ITERS = 1000
CONTRAST_ITERS = 200  # for fits a workload runs only for contrast

MRC_KINDS = ("zero-one-exact", "zero-one-subgradient", "log", "alpha2")
FIXED_KINDS = ("logistic-regression", "adversarial-zero-one")
MRC_METHODS = ("mrc-zero-one", "mrc-log")

_LOSSES = {
    "zero-one-subgradient": ZeroOneLoss(),
    "log": LogLoss(),
    "alpha2": AlphaLoss(2.0),
}
_TRAINERS = {
    "logistic-regression": "train_logreg",
    "adversarial-zero-one": "train_adversarial01",
}

# Tolerances of the correctness checks.
SANDWICH_TOL = 1e-7
RESIDUAL_TOL = 1e-9
CROSS_TOL = 1e-9
PROB_TOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    """Everything about a workload that sets how much work a pass does."""

    n_mrc: int  # training rows of the certified MRC fits
    max_leaves: int
    n_fixed: int  # training rows of the fixed-marginal fits
    csv_rows: int  # rows of the CSV the experiment reads
    train_sizes: tuple
    test_size: int
    methods: tuple  # experiment methods
    contrast: tuple  # fit kinds the workload runs only for contrast
    repeats: int = 2  # times each operation runs in a pass
    predict_rows: int = 50_000
    iters: int = ITERS
    contrast_iters: int = CONTRAST_ITERS


SMOKE = dict(predict_rows=2000, iters=100, contrast_iters=50, repeats=1)
# Budgets are below the experiment's 4000 so that every operation takes at
# most about a second and a run holds many samples of each; per-call costs,
# which the layers' optimizations change, do not depend on the budget.
SIZES = {
    "binary-lattice": {
        "full": Sizes(
            n_mrc=10_000, max_leaves=20, n_fixed=500, csv_rows=2000, train_sizes=(1000,),
            test_size=500, methods=MRC_METHODS, contrast=FIXED_KINDS,
        ),
        "smoke": Sizes(
            n_mrc=300, max_leaves=20, n_fixed=60, csv_rows=400, train_sizes=(200,),
            test_size=100, methods=MRC_METHODS, contrast=FIXED_KINDS, **SMOKE,
        ),
    },
    "multiclass-lattice": {
        "full": Sizes(
            n_mrc=3000, max_leaves=4, n_fixed=500, csv_rows=900, train_sizes=(600,),
            test_size=300, methods=("mrc-log",), contrast=("alpha2",) + FIXED_KINDS,
        ),
        "smoke": Sizes(
            n_mrc=200, max_leaves=3, n_fixed=60, csv_rows=300, train_sizes=(150,),
            test_size=100, methods=("mrc-log",), contrast=("alpha2",) + FIXED_KINDS,
            **SMOKE,
        ),
    },
    "sweep": {
        "full": Sizes(
            n_mrc=10_000, max_leaves=20, n_fixed=500, csv_rows=3000, train_sizes=(100, 500),
            test_size=1000, methods=cli.METHODS, contrast=(), iters=500,
            repeats=1,
        ),
        "smoke": Sizes(
            n_mrc=200, max_leaves=20, n_fixed=60, csv_rows=600, train_sizes=(60, 120),
            test_size=200, methods=cli.METHODS, contrast=(), **SMOKE,
        ),
    },
}
WORKLOADS = tuple(SIZES)
INPUT_SETS = 8  # distinct input sets per run; passes cycle through them


def lattice_joint(rng, num_classes=4, side=6, spread=1.5, floor=0.1) -> KnownJoint:
    """K-class joint on a side x side lattice with class centres drawn from rng.

    Centres sit near evenly spaced anchors on a circle, jittered by up to one
    lattice step, so every draw gives K distinct but overlapping classes.
    p(y | x) mixes a Gaussian bump around each centre with a uniform floor;
    the instance marginal is uniform.
    """
    grid = np.arange(float(side))
    X = np.array([[a, b] for a in grid for b in grid])
    mid = (side - 1) / 2.0
    angles = 2.0 * np.pi * (np.arange(num_classes) + 0.5) / num_classes
    anchors = mid + 0.3 * side * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    centres = anchors + rng.uniform(-1.0, 1.0, size=anchors.shape)
    d2 = ((X[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
    bump = np.exp(-d2 / (2.0 * spread**2))
    cond = (1.0 - floor) * bump / bump.sum(axis=1, keepdims=True) + floor / num_classes
    probs = cond / X.shape[0]
    return KnownJoint(instances=X, probs=probs / probs.sum())


@dataclass
class Inputs:
    """One input set: training samples, a prediction batch and the experiment files."""

    sizes: Sizes
    mrc_data: object  # Dataset
    fixed_data: object  # Dataset
    batch: np.ndarray
    cells: int
    config_path: Path
    out_path: Path
    model_path: Path


def make_inputs(workload, size, seed, index, workdir: Path) -> Inputs:
    """Generate input set ``index`` of a run from the seed and write its files.

    The sweep and binary-lattice draw from the two-class demo joint; the
    multiclass joint's centres are drawn afresh for every set.
    """
    sz = SIZES[workload][size]
    rng = np.random.default_rng([seed, index])
    if workload == "multiclass-lattice":
        joint = lattice_joint(rng)
    else:
        joint = two_class_demo_joint()
    workdir.mkdir(exist_ok=True)
    table = joint.sample(sz.csv_rows, rng.integers(2**32))
    csv_path = workdir / "data.csv"
    data_io.save_dataset(table, csv_path)
    config = {
        "dataset": str(csv_path),
        "train_sizes": list(sz.train_sizes),
        "repetitions": 1,
        "test_size": sz.test_size,
        "lambda": str(WIDTH),
        "seed": int(rng.integers(2**31)),
        "max_leaves": sz.max_leaves,
        "methods": list(sz.methods),
        "max_iters": sz.iters,
    }
    config_path = workdir / "experiment.json"
    config_path.write_text(json.dumps(config))
    return Inputs(
        sizes=sz,
        mrc_data=joint.sample(sz.n_mrc, rng.integers(2**32)),
        fixed_data=_head(table, sz.n_fixed),
        batch=joint.sample(sz.predict_rows, rng.integers(2**32)).instances,
        cells=len(sz.train_sizes),
        config_path=config_path,
        out_path=workdir / "experiment.csv",
        model_path=workdir / "model.json",
    )


def _head(data, n):
    return type(data)(
        instances=data.instances[:n], labels=data.labels[:n], num_classes=data.num_classes
    )


class PassLog:
    """Timings, outcomes and check failures of one pass."""

    def __init__(self, tracer=None, between=None):
        self.tracer = tracer
        self.between = between  # called before every operation, outside pass_s
        self.between_s = 0.0
        self.times = {}  # metric name -> list of seconds
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.uppers = []
        self.gaps = []
        self.predict_rows = 0
        self.predict_s = 0.0
        self.cells = 0
        self.pass_s = math.nan

    def add_time(self, name, seconds):
        self.times.setdefault(name, []).append(seconds)

    def run(self, op, fn, checks=None):
        """Attempt one operation; an exception or a failed check fails it.

        ``checks(result)`` returns a list of (ok, description) pairs.  Returns
        the result, or None when the operation raised.
        """
        if self.between is not None:
            t0 = time.perf_counter()
            self.between()
            self.between_s += time.perf_counter() - t0
        self.attempted += 1
        try:
            with self.tracer.op(op) if self.tracer else nullcontext():
                result = fn()
                bad = [what for ok, what in (checks(result) if checks else []) if not ok]
        except Exception as exc:  # any failure of the program counts, then the pass goes on
            self.failed += 1
            self.failures.append(f"{op}: {type(exc).__name__}: {exc}")
            return None
        if bad:
            self.failed += 1
            self.failures.extend(f"{op}: {what}" for what in bad)
        return result


def _timed(log, name, fn):
    def call():
        t0 = time.perf_counter()
        out = fn()
        log.add_time(name, time.perf_counter() - t0)
        return out

    return call


def _config(kind, sz):
    iters = sz.contrast_iters if kind in sz.contrast else sz.iters
    return solver.SolverConfig(max_iters=iters)


def _certified_fit(kind, data, sz):
    cfg = _config(kind, sz)
    fm = features.fit_thresholds(data, features.StumpSpec(sz.max_leaves))
    box = features.estimate_expectations(fm, data, WIDTH)
    atoms = features.constraint_atoms(fm, data)
    if kind == "zero-one-exact":
        model = solver.train_zero_one_exact(box, atoms, cfg, feature_map=fm)
    else:
        model = solver.train_mrc(_LOSSES[kind], box, atoms, cfg, feature_map=fm)
    report = bounds.bound_report(model, box, atoms)
    return model, box, atoms, report


def _fit_checks(fit):
    model, box, atoms, report = fit
    table = bounds.model_loss_table(model, atoms)
    worst = bounds.worst_case_risk(table, box, atoms)
    residual = solver.dual_feasibility_residual(model, atoms)
    return [
        (math.isfinite(report.upper) and math.isfinite(report.lower), "certificate not finite"),
        (
            report.lower - SANDWICH_TOL <= worst <= report.upper + SANDWICH_TOL,
            f"lower {report.lower!r} <= worst case {worst!r} <= upper {report.upper!r} fails",
        ),
        (residual <= RESIDUAL_TOL, f"dual feasibility residual {residual!r}"),
    ]


def _fixed_fit(kind, data, sz):
    cfg = _config(kind, sz)
    fm = features.fit_thresholds(data, features.StumpSpec(sz.max_leaves))
    return getattr(marginals, _TRAINERS[kind])(data, fm, WIDTH, cfg)


def _prob_checks(probs, rows):
    return [
        (probs.shape[0] == rows, f"{probs.shape[0]} probability rows for {rows} instances"),
        (bool(np.all(np.isfinite(probs))) and bool(np.all(probs >= -PROB_TOL)), "bad probabilities"),
        (float(np.max(np.abs(probs.sum(axis=1) - 1.0))) <= PROB_TOL, "rows do not sum to 1"),
    ]


def _roundtrip(model, inputs):
    data_io.save_model(model, inputs.model_path, str(WIDTH), inputs.mrc_data.n)
    loaded, _ = data_io.load_model(inputs.model_path)
    return loaded


def _experiment(inputs, workers):
    os.environ["MRC_THREADS"] = str(workers)
    code = cli.main(
        ["experiment", "--config", str(inputs.config_path), "--out", str(inputs.out_path)]
    )
    if code != 0:
        raise RuntimeError(f"mrckit experiment exited with code {code}")


def _experiment_checks(inputs, log):
    with open(inputs.out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    log.cells = len({(r["n"], r["seed"]) for r in rows})
    sz = inputs.sizes
    expected = sorted((n, 0, m) for n in sz.train_sizes for m in sz.methods)
    seen = sorted((int(r["n"]), int(r["seed"]), r["method"]) for r in rows)
    bad = [
        r
        for r in rows
        if r["method"].startswith("mrc-")
        and not float(r["lower"]) <= float(r["upper"])
    ]
    return [
        (seen == expected, f"experiment rows {seen} != {expected}"),
        (not bad, f"lower > upper on {len(bad)} MRC rows"),
        (all(math.isfinite(float(r["risk"])) for r in rows), "non-finite risk"),
    ]


def run_pass(inputs: Inputs, workers: int, tracer=None, between=None) -> PassLog:
    """One timed pass of the workload's operations.

    Every operation runs ``Sizes.repeats`` times.  ``workers`` caps the
    experiment's process pool; ``tracer`` (installed by the caller)
    receives one root span per operation; ``between`` is called before
    every operation, outside its timing.
    """
    log = PassLog(tracer, between)
    sz = inputs.sizes
    t_start = time.perf_counter()

    fits = {}
    for kind in MRC_KINDS:
        for _ in range(sz.repeats):
            fit = log.run(
                f"fit {kind}",
                _timed(log, f"fit_s.{kind}", lambda: _certified_fit(kind, inputs.mrc_data, sz)),
                _fit_checks,
            )
            if fit is not None:
                fits.setdefault(kind, fit)
    for model, box, atoms, report in fits.values():
        log.uppers.append(report.upper)
        log.gaps.append(report.upper - report.lower)
    if "zero-one-exact" in fits and "zero-one-subgradient" in fits:
        exact = fits["zero-one-exact"][3].upper
        sub = fits["zero-one-subgradient"][3].upper
        log.run(
            "subgradient vs exact 0-1",
            lambda: sub,
            lambda s: [(s >= exact - CROSS_TOL, f"subgradient upper {s!r} < exact {exact!r}")],
        )

    models = [fit[0] for fit in fits.values()]
    for kind in FIXED_KINDS:
        for _ in range(sz.repeats):
            model = log.run(
                f"fit {kind}",
                _timed(log, f"fit_s.{kind}", lambda: _fixed_fit(kind, inputs.fixed_data, sz)),
                lambda m: [(math.isfinite(m.objective_value), "objective not finite")],
            )
        if model is not None:
            models.append(model)

    rows = inputs.batch.shape[0]

    def predict(model):
        t0 = time.perf_counter()
        probs = predictors.predict_probs(model, inputs.batch)
        log.predict_s += time.perf_counter() - t0
        log.predict_rows += rows
        return probs

    for _ in range(sz.repeats):
        for model in models:
            log.run(
                f"predict {model.loss.name}/{model.variant}",
                lambda: predict(model),
                lambda p: _prob_checks(p, rows),
            )

    probe = inputs.batch[:1000]
    for kind, fit in fits.items():
        model = fit[0]
        log.run(
            f"model round trip {kind}",
            lambda: _roundtrip(model, inputs),
            lambda m: [
                (
                    np.array_equal(
                        predictors.predict_probs(m, probe), predictors.predict_probs(model, probe)
                    ),
                    "reloaded model predicts differently",
                )
            ],
        )

    for _ in range(sz.repeats):
        log.run(
            "experiment",
            _timed(log, "sweep_s", lambda: _experiment(inputs, workers)),
            lambda _: _experiment_checks(inputs, log),
        )
    log.pass_s = time.perf_counter() - t_start - log.between_s
    return log
