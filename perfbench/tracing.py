"""Span tracing around mrckit's layer entry points, for the traced run only.

``Tracer.installed()`` replaces each entry point below with a wrapper, at
the attribute its callers look it up by (a module global, or a method on its
class), and restores the originals on exit.  Each call records a span
(name, start, end, parent span, op id, tag) in memory; ``write`` dumps them
as JSON lines when the run ends.  Nothing is installed in untraced runs.

A span's layer is its name up to the first dot: the mrckit module it enters,
or ``bench`` for the benchmark's own operation spans.  A layer's self time is
its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from mrckit import bounds, cli, core, data_io, features, marginals, predictors, solver

LAYERS = (
    "features",
    "core",
    "solver",
    "simplex",
    "bounds",
    "marginals",
    "predictors",
    "data_io",
    "cli",
    "bench",
)


def _loss_kind(loss):
    if isinstance(loss, core.AlphaLoss):
        return f"alpha{loss.alpha:g}"
    return loss.name


def _objective_tag(args, kwargs, result):
    return _loss_kind(args[0].loss)


def _train_tag(args, kwargs, result):
    return _loss_kind(result.loss)


def _lp_tag(args, kwargs, result):
    return list(args[1].shape)


def _atoms_tag(args, kwargs, result):
    return result.count


def _fm_tag(args, kwargs, result):
    return result.dim


# (owner, attribute, span name, tag function or None).  Owners are the
# modules and classes whose attribute the caller reads at call time.
ENTRY_POINTS = (
    (features, "fit_thresholds", "features.fit_thresholds", _fm_tag),
    (cli, "fit_thresholds", "features.fit_thresholds", _fm_tag),
    (features, "estimate_expectations", "features.estimate_expectations", None),
    (cli, "estimate_expectations", "features.estimate_expectations", None),
    (features, "constraint_atoms", "features.constraint_atoms", _atoms_tag),
    (cli, "constraint_atoms", "features.constraint_atoms", _atoms_tag),
    (features, "feature_mean", "features.feature_mean", None),
    (marginals, "feature_mean", "features.feature_mean", None),
    (core.FeatureMap, "indicator_matrix", "core.indicator_matrix", None),
    (core.ConstraintAtoms, "scores", "core.atom_scores", None),
    (solver, "train_mrc", "solver.train_mrc", _train_tag),
    (cli, "train_mrc", "solver.train_mrc", _train_tag),
    (solver, "train_zero_one_exact", "solver.train_zero_one_exact", None),
    (cli, "train_zero_one_exact", "solver.train_zero_one_exact", None),
    (solver.ReducedObjective, "value_and_subgradient", "solver.objective", _objective_tag),
    (solver, "max_offset_alpha", "solver.max_offset_alpha", None),
    (solver, "subgradient_minimize", "solver.subgradient_minimize", None),
    (marginals, "subgradient_minimize", "solver.subgradient_minimize", None),
    (solver, "solve_lp", "simplex.solve_lp.train", _lp_tag),
    (bounds, "solve_lp", "simplex.solve_lp.bounds", _lp_tag),
    (bounds, "bound_report", "bounds.bound_report", None),
    (bounds, "lower_bound", "bounds.lower_bound", None),
    (bounds, "worst_case_risk", "bounds.worst_case_risk", None),
    (bounds, "model_loss_table", "bounds.model_loss_table", None),
    (marginals, "train_logreg", "marginals.train_logreg", None),
    (cli, "train_logreg", "marginals.train_logreg", None),
    (marginals, "train_adversarial01", "marginals.train_adversarial01", None),
    (cli, "train_adversarial01", "marginals.train_adversarial01", None),
    (marginals, "logreg_objective", "marginals.logreg_objective", None),
    (marginals, "adversarial01_objective", "marginals.adversarial01_objective", None),
    (marginals, "predict_fixed_marginal", "marginals.predict_fixed_marginal", None),
    (predictors, "predict_probs", "predictors.predict_probs", None),
    (cli, "predict_probs", "predictors.predict_probs", None),
    (predictors, "rule_probs", "predictors.rule_probs", None),
    (data_io, "save_model", "data_io.save_model", None),
    (data_io, "load_model", "data_io.load_model", None),
    (cli, "load_dataset", "data_io.load_dataset", None),
    (cli, "cmd_experiment", "cli.experiment", None),
)


class Tracer:
    """In-memory span recorder; spans of one benchmark operation share an op id."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, tag]
        self._stack = []
        self._op = -1
        self._ops = 0

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op, None])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, name):
        """Root span of one benchmark operation, with a fresh op id."""
        self._op = self._ops
        self._ops += 1
        idx = self._enter(f"bench.{name}")
        try:
            yield
        finally:
            self._exit(idx)
            self._op = -1

    def _wrap(self, fn, name, tag):
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if tag is not None:
                self.spans[idx][5] = tag(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, tag in ENTRY_POINTS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, tag))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def mark(self):
        """Index of the next span; spans between two marks form one traced pass."""
        return len(self.spans)

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, t0, t1, parent, op, tag in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, op, tag]) + "\n")


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans, start, end):
    """Self time of each span in spans[start:end], a closed set of ops."""
    own = [s[2] - s[1] for s in spans[start:end]]
    for s in spans[start:end]:
        if s[3] >= start:
            own[s[3] - start] -= s[2] - s[1]
    return own


def layer_self_times(spans, start, end):
    """Total self time of each layer over spans[start:end]."""
    out = dict.fromkeys(LAYERS, 0.0)
    for s, own in zip(spans[start:end], self_times(spans, start, end)):
        out[layer_of(s[0])] += own
    return out


def op_breakdown(spans, start, end):
    """Self time by layer under each benchmark operation, summed by op name."""
    names = {s[4]: s[0] for s in spans[start:end] if s[3] < start}
    table = {}
    for s, own in zip(spans[start:end], self_times(spans, start, end)):
        row = table.setdefault(names[s[4]], dict.fromkeys(LAYERS, 0.0))
        row[layer_of(s[0])] += own
    return table
