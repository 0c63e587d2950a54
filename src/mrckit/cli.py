"""Batch command-line interface.

Subcommands: featurize, train, predict, eval, bounds, experiment, oracle.
Exit codes: 0 success, 2 malformed input, 3 numeric failure under --strict.
Every fit builds its widths, box and atom table in ``_box_and_atoms`` and
trains by ``solver.train_mrc``, exactly for 0-1 loss at any class count.
``experiment`` runs its (train size, repetition) cells in a process
pool of at most one worker per cell, capped by MRC_THREADS (unset or 0: every
core; 1: in-process).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import math
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from .core import LOG, ZERO_ONE, Dataset, Loss
from .data_io import (
    InputError,
    array_rows,
    load_dataset,
    load_instances,
    load_model,
    save_feature_map,
    save_model,
)
from .features import (
    StumpSpec,
    constraint_atoms,
    estimate_expectations,
    fit_thresholds,
    hoeffding_widths,
    widths_vector,
)
from .marginals import train_adversarial01, train_logreg
from .oracle import brute_force_max_entropy, grid_units
from .predictors import empirical_risk, predict_probs, sample_labels
from .solver import SolverConfig, train_mrc
from .solver import train_zero_one_exact  # unused here: perfbench/tracing.py wraps it by name

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

ORACLE_BUDGET = 25_000_000  # lattice entries (points x cells); 2.1e7 peaked at 79 MB

METHODS = ("mrc-zero-one", "mrc-log", "adversarial-zero-one", "logistic-regression")


def _parse_widths(text, fm):
    """Width policy: scalar broadcast, file:<path>, or theorem3:<delta>."""
    if text.startswith("theorem3:"):
        try:
            delta = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise InputError(f"bad width policy {text!r}") from exc
        if not 0.0 < delta < 1.0:
            raise InputError("theorem3 delta must lie in (0, 1)")
        return hoeffding_widths(fm, delta)
    if text.startswith("file:"):
        path = text.split(":", 1)[1]
        try:
            widths = np.loadtxt(path, dtype=np.float64).ravel()
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read widths file {path}: {exc}") from exc
    else:
        try:
            widths = float(text)
        except ValueError as exc:
            raise InputError(f"bad width policy {text!r}") from exc
    try:
        return widths_vector(widths, fm.dim)
    except ValueError as exc:
        raise InputError(f"width policy {text!r}: {exc}") from exc


def _box_and_atoms(fm, data, policy):
    """The width policy's widths, the expectation box and the atom table of
    ``data``; the box's mean is read from the table, built once."""
    widths = _parse_widths(policy, fm)
    atoms = constraint_atoms(fm, data)
    return widths, estimate_expectations(fm, data, widths, atoms), atoms


def _add_solver_flags(p):
    p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    p.add_argument("--max-leaves", type=int, default=20)


def cmd_featurize(args):
    data = load_dataset(args.data, args.classes)
    fm = fit_thresholds(data, StumpSpec(args.max_leaves))
    save_feature_map(fm, args.out)
    print(f"thresholds {fm.num_thresholds}")
    print(f"features {fm.dim}")
    return EXIT_OK


def cmd_train(args):
    cfg = SolverConfig(max_iters=args.max_iters)
    data = load_dataset(args.data, args.classes)
    loss = Loss.from_spec(args.loss)
    fm = fit_thresholds(data, StumpSpec(args.max_leaves))
    _, box, atoms = _box_and_atoms(fm, data, getattr(args, "lambda"))
    model = train_mrc(loss, box, atoms, cfg, feature_map=fm)
    upper = bounds_mod.upper_bound(model, box)
    stored = None
    print(f"upper_bound {upper!r}")
    if args.lower:
        report = bounds_mod.bound_report(model, box, atoms)
        print(f"lower_bound {report.lower!r}")
        stored = {
            "upper": report.upper,
            "lower": report.lower,
            **report.slack_terms,
        }
    if args.out:
        save_model(model, args.out, getattr(args, "lambda"), data.n, bounds=stored)
    if args.strict and not model.converged:
        print("solver did not converge within the iteration budget", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_predict(args):
    if args.seed is not None and args.seed < 0:
        raise InputError(f"--seed must be a non-negative integer, got {args.seed}")
    model, _ = load_model(args.model)
    X = load_instances(args.data)
    probs = predict_probs(model, X)
    labels = np.argmax(probs, axis=1) + 1
    header = ["label"] + [f"prob_{y}" for y in range(1, model.num_classes + 1)]
    columns = [labels, probs]
    if args.seed is not None:
        header.append("sampled")
        columns.append(sample_labels(probs, args.seed))
    _write_csv(args.out, header, array_rows(*columns))
    return EXIT_OK


def _write_csv(path, header, rows):
    out = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def _risk_name(loss):
    return loss.name.replace("-", "_") + "_risk"


def cmd_eval(args):
    model, meta = load_model(args.model)
    data = load_dataset(args.data, model.num_classes)
    probs = predict_probs(model, data.instances)
    # the 0-1 and log risks always, then the model's own (a no-op for those two)
    risks = {
        _risk_name(loss): empirical_risk(loss, probs, data)
        for loss in (ZERO_ONE, LOG, model.loss)
    }
    for name, value in risks.items():
        print(f"{name} {value!r}")
    if args.bounds:
        stored = meta.get("bounds")
        if stored is None:
            raise InputError("model file carries no stored bounds (train with --lower)")
        risk = risks[_risk_name(model.loss)]
        ok = stored["lower"] <= risk <= stored["upper"]
        print(f"sandwich {stored['lower']!r} <= {risk!r} <= {stored['upper']!r} {'ok' if ok else 'VIOLATED'}")
    return EXIT_OK


def cmd_bounds(args):
    model, _ = load_model(args.model)
    data = load_dataset(args.data, model.num_classes)
    _, box, atoms = _box_and_atoms(model.feature_map, data, getattr(args, "lambda"))
    report = bounds_mod.bound_report(model, box, atoms)
    table = bounds_mod.model_loss_table(model, atoms)
    worst = bounds_mod.worst_case_risk(table, box, atoms)
    print(f"upper_bound {report.upper!r}")
    print(f"lower_bound {report.lower!r}")
    print(f"worst_case_risk {worst!r}")
    for name, value in report.slack_terms.items():
        print(f"{name} {value!r}")
    return EXIT_OK


def _experiment_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError(f"config {path} must hold a JSON object")
    required = {"dataset": str, "train_sizes": list, "repetitions": int, "test_size": int}
    defaults = {"lambda": "0.25", "seed": 0, "max_leaves": 20, "methods": list(METHODS),
                "max_iters": 4000}
    unknown = sorted(set(cfg) - set(required) - set(defaults))
    if unknown:
        raise InputError(f"unknown config keys {unknown}; accepted: {[*required, *defaults]}")
    for key in required:
        if key not in cfg:
            raise InputError(f"config is missing {key!r}")
    cfg = {**defaults, **cfg}
    kinds = {**required, **{key: type(value) for key, value in defaults.items()}}
    for key, kind in kinds.items():
        # JSON true/false load as bool, a subclass of int
        if isinstance(cfg[key], bool) or not isinstance(cfg[key], kind):
            raise InputError(f"config key {key!r} must be {kind.__name__}")
    if not all(type(n) is int and n > 0 for n in cfg["train_sizes"]):
        raise InputError("train_sizes must be positive integers")
    if cfg["repetitions"] < 1 or cfg["test_size"] < 1:
        raise InputError("repetitions and test_size must be positive")
    if cfg["seed"] < 0:
        raise InputError(f"config key 'seed' must be non-negative, got {cfg['seed']}")
    bad = [m for m in cfg["methods"] if m not in METHODS]
    if bad:
        raise InputError(f"unknown methods {bad}; choose from {list(METHODS)}")
    for key in ("train_sizes", "methods"):
        repeated = sorted({v for v in cfg[key] if cfg[key].count(v) > 1})
        if repeated:
            raise InputError(f"config key {key!r} repeats {repeated}")
    try:
        SolverConfig(max_iters=cfg["max_iters"])
    except ValueError as exc:
        raise InputError(f"config key 'max_iters': {exc}") from exc
    return cfg


def _stratified_split(data: Dataset, n_train, n_test, rng):
    """Training indices stratified by label; test drawn from the remainder.

    Each class gets its share of ``n_train`` rounded half to even; the
    rounding drift is then settled one row at a time, largest class first.
    """
    if n_train + n_test > data.n:
        raise InputError(
            f"dataset too small: {data.n} rows cannot supply {n_train} train + {n_test} test"
        )
    per_class = [np.flatnonzero(data.labels == y) for y in range(1, data.num_classes + 1)]
    counts = np.array([idx.shape[0] for idx in per_class])
    take = np.rint(n_train * counts / data.n).astype(np.int64)
    drift = n_train - int(take.sum())
    order = np.argsort(-counts, kind="stable")
    i = 0
    while drift != 0:
        y = order[i % order.shape[0]]
        step = 1 if drift > 0 else -1
        if 0 <= take[y] + step <= counts[y]:
            take[y] += step
            drift -= step
        i += 1
    train_idx = np.concatenate(
        [rng.choice(idx, size=t, replace=False) for idx, t in zip(per_class, take)]
    )
    rest = np.setdiff1d(np.arange(data.n), train_idx)
    return train_idx, rng.choice(rest, size=n_test, replace=False)


def _subset(data: Dataset, idx) -> Dataset:
    return Dataset(
        instances=data.instances[idx],
        labels=data.labels[idx],
        num_classes=data.num_classes,
    )


def _run_cell(payload):
    """One (train size, repetition) cell; returns its formatted CSV rows."""
    cfg, data, n, rep = payload
    rng = np.random.default_rng([cfg["seed"], n, rep])
    train_idx, test_idx = _stratified_split(data, n, cfg["test_size"], rng)
    train = _subset(data, train_idx)
    test = _subset(data, test_idx)
    fm = fit_thresholds(train, StumpSpec(cfg["max_leaves"]))
    widths, box, atoms = _box_and_atoms(fm, train, cfg["lambda"])
    solver_cfg = SolverConfig(max_iters=cfg["max_iters"])

    rows = []
    for method in cfg["methods"]:
        if method in ("mrc-zero-one", "mrc-log"):
            loss = ZERO_ONE if method == "mrc-zero-one" else LOG
            model = train_mrc(loss, box, atoms, solver_cfg, feature_map=fm)
            report = bounds_mod.bound_report(model, box, atoms)
            bound_cells = [repr(float(report.upper)), repr(float(report.lower))]
        else:
            trainer = train_adversarial01 if method == "adversarial-zero-one" else train_logreg
            model = trainer(train, fm, widths, solver_cfg, atoms=atoms)
            bound_cells = ["", ""]
        risk = empirical_risk(model.loss, predict_probs(model, test.instances), test)
        rows.append([n, rep, method, repr(float(risk)), *bound_cells])
    return rows


def cmd_experiment(args):
    cfg = _experiment_config(args.config)
    threads = os.environ.get("MRC_THREADS", "0")
    if not threads.strip().isdecimal():
        raise InputError(f"MRC_THREADS must be a non-negative integer, not {threads!r}")
    data = load_dataset(cfg["dataset"])
    payloads = [(cfg, data, n, rep) for n in cfg["train_sizes"] for rep in range(cfg["repetitions"])]
    workers = min(len(payloads), int(threads) or os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_cell, payloads))
    else:
        chunks = [_run_cell(p) for p in payloads]
    rows = sorted((row for chunk in chunks for row in chunk), key=lambda r: r[:3])
    _write_csv(args.out, ["n", "seed", "method", "risk", "upper", "lower"], rows)
    return EXIT_OK


def cmd_oracle(args):
    cfg = SolverConfig(max_iters=args.max_iters)
    units = grid_units(args.grid_step)
    data = load_dataset(args.data, args.classes)
    loss = Loss.from_spec(args.loss)
    fm = fit_thresholds(data, StumpSpec(args.max_leaves))
    distinct = np.unique(data.instances, axis=0)
    cells = distinct.shape[0] * data.num_classes
    points = math.comb(units + cells - 1, cells - 1)  # compositions of units into cells
    if points * cells > ORACLE_BUDGET:
        raise InputError(
            f"{points} lattice points x {cells} cells (distinct instances x labels) at grid "
            f"step {args.grid_step!r} exceed the enumeration budget of {ORACLE_BUDGET} entries"
        )
    _, box, atoms = _box_and_atoms(fm, data, getattr(args, "lambda"))
    value = brute_force_max_entropy(loss, fm, distinct, box, args.grid_step)
    model = train_mrc(loss, box, atoms, cfg, feature_map=fm)
    print(f"brute_force_max_entropy {value!r}")
    print(f"dual_objective {model.objective_value!r}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mrckit",
        description="Minimax risk classifiers with training-time risk bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="fit threshold features and save them")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-leaves", type=int, default=20)
    p.add_argument("--classes", type=int, default=None)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train a model and report its risk bounds")
    p.add_argument("--data", required=True)
    p.add_argument("--loss", required=True, help="zero-one, log, or alpha:<a>")
    p.add_argument("--lambda", default="0.25", help="scalar, file:<path>, or theorem3:<delta>")
    p.add_argument("--out", default=None)
    p.add_argument("--lower", action="store_true", help="also compute the lower bound")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--classes", type=int, default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="per-instance labels and probabilities")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None, help="also emit sampled labels")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="empirical risks of a model on labeled data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--bounds", action="store_true", help="show the stored bound sandwich")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bounds", help="recompute bounds for a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--lambda", default="0.25")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("experiment", help="run a sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("oracle", help="brute-force maximum entropy on tiny data")
    p.add_argument("--data", required=True)
    p.add_argument("--loss", required=True)
    p.add_argument("--lambda", default="0")
    p.add_argument("--grid-step", type=float, default=0.02)
    p.add_argument("--classes", type=int, default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
