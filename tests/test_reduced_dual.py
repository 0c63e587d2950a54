"""One reduced dual serves both uncertainty sets.

F(w) = half_width.|w| - midpoint.w - q.offsets(w): the box alone weights the
per-pattern offsets one-hot at the smallest, a pinned instances' marginal
weights them by the pattern frequencies.  The guard below keeps trained
models assembled in one place.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mrckit
from mrckit.core import AlphaLoss, ConstraintAtoms, LogLoss, ZeroOneLoss
from mrckit.datasets import two_class_demo_joint
from mrckit.features import StumpSpec, constraint_atoms, estimate_expectations, fit_thresholds
from mrckit.marginals import adversarial01_objective, logreg_objective
from mrckit.solver import ReducedDual, ReducedObjective

SRC = Path(mrckit.__file__).resolve().parent

# the one trained-model assembly, and the model-file reader
MODEL_BUILDERS = {("solver.py", "ReducedDual.model"), ("data_io.py", "load_model")}


@pytest.fixture(scope="module")
def table():
    data = two_class_demo_joint().sample(3000, seed=0)
    fm = fit_thresholds(data, StumpSpec(20))
    return fm, data, estimate_expectations(fm, data, 0.25), constraint_atoms(fm, data)


def _weights(dim, count=20, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(scale=2.0, size=dim) for _ in range(count)]


@pytest.mark.parametrize("loss", [ZeroOneLoss(), LogLoss(), AlphaLoss(2.0)], ids=repr)
def test_box_dual_is_the_one_hot_formula_bit_for_bit(table, loss):
    fm, _, box, atoms = table
    ro = ReducedObjective(loss, box, atoms)
    for w in _weights(fm.dim):
        offsets, label_weights = loss.active_label_weights(atoms.scores(w))
        j = int(np.argmin(offsets))
        q = np.zeros(atoms.count)
        q[j] = 1.0
        value = float(box.half_width @ np.abs(w) - box.midpoint @ w - q @ offsets)
        grad_offset = (label_weights * q[:, None]).T @ atoms.patterns
        grad = box.half_width * np.sign(w) - box.midpoint + grad_offset.ravel()
        got_value, got_grad = ro.value_and_subgradient(w)
        assert got_value == value
        assert np.array_equal(got_grad, grad)
        # the one-hot weighting is the smallest offset with its pattern's label weights
        assert value == float(box.half_width @ np.abs(w) - box.midpoint @ w - offsets[j])
        assert np.array_equal(grad_offset, np.outer(label_weights[j], atoms.patterns[j]))


LOSSES = [ZeroOneLoss(), LogLoss(), AlphaLoss(0.5), AlphaLoss(2.0), AlphaLoss(4.0)]


@st.composite
def reduced_duals(draw):
    """A reduced dual on random patterns over K = 2-6 labels, for the box
    (marginal None) or a pinned marginal, with weights and a second point."""
    loss = draw(st.sampled_from(LOSSES))
    k, b, r = draw(st.integers(2, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    patterns = np.hstack([np.ones((r, 1)), rng.integers(0, 2, size=(r, b - 1))])
    atoms = ConstraintAtoms(patterns, k)
    marginal = rng.dirichlet(np.ones(r)) if draw(st.booleans()) else None
    dual = ReducedDual(loss, atoms, rng.uniform(0.0, 0.2, atoms.dim), rng.uniform(0.0, 1.0, atoms.dim),
                       marginal)
    scale = draw(st.sampled_from([0.01, 1.0, 10.0]))
    return dual, scale * rng.normal(size=atoms.dim), scale * rng.normal(size=(4, atoms.dim))


@settings(max_examples=300, deadline=None)
@given(case=reduced_duals())
def test_evaluate_is_the_offset_formula_with_a_subgradient(case):
    dual, w, others = case
    value, grad, offsets = dual.evaluate(w)
    scores = dual.atoms.scores(w)
    own = dual.loss.offset(scores)
    q_offset = own.min() if dual.marginal is None else dual.marginal @ own
    formula = float(dual.half_width @ np.abs(w) - dual.midpoint @ w - q_offset)
    if isinstance(dual.loss, AlphaLoss):
        assert abs(value - formula) <= 1e-12 * (1.0 + abs(formula))
        assert dual.loss.residual(scores, offsets[:, None]) <= 0.0
    else:  # closed forms, not rounded: feasible to the rounding of their sums
        assert value == formula
        tol = 4.0 * scores.shape[1] * np.finfo(float).eps * (1.0 + np.abs(scores).max())
        assert dual.loss.residual(scores, offsets[:, None]) <= tol
    for other in (w + 1e-3 * others[0], *others):
        slack = 1e-9 * (1.0 + abs(value))
        assert dual.evaluate(other)[0] >= value + grad @ (other - w) - slack


@pytest.mark.parametrize(
    "loss, objective",
    [(ZeroOneLoss(), adversarial01_objective), (LogLoss(), logreg_objective)],
    ids=["zero-one", "log"],
)
def test_fixed_marginal_objectives_are_the_frequency_weighted_formula(table, loss, objective):
    fm, data, _, atoms = table
    # mean and frequencies from the rows, not from the table
    phi = fm.indicator_matrix(data.instances)
    mean = np.zeros((fm.num_classes, fm.block_size))
    np.add.at(mean, data.labels - 1, phi)
    mean = mean.ravel() / data.n
    freq = np.array([np.all(phi == p, axis=1).sum() for p in atoms.patterns]) / data.n
    reg = np.full(fm.dim, 0.25) / np.sqrt(data.n)
    for w in _weights(fm.dim, seed=1):
        offsets, label_weights = loss.active_label_weights(atoms.scores(w))
        value = reg @ np.abs(w) - mean @ w - freq @ offsets
        grad = reg * np.sign(w) - mean + ((label_weights * freq[:, None]).T @ atoms.patterns).ravel()
        got_value, got_grad = objective(w, atoms, 0.25)
        assert abs(got_value - value) <= 1e-12
        assert np.max(np.abs(got_grad - grad)) <= 1e-12


def model_constructions(tree, filename):
    """(file, enclosing function) of every MrcModel(...) call in a module."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from walk(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "MrcModel":
                    yield filename, ".".join(scope), child.lineno
            yield from walk(child, scope)

    return list(walk(tree, []))


def test_models_are_assembled_in_one_place():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += model_constructions(tree, path.name)
    stray = [f"{f}:{line} in {scope or '<module>'}" for f, scope, line in found
             if (f, scope) not in MODEL_BUILDERS]
    assert not stray, "MrcModel built outside the one assembly: " + ", ".join(stray)
    assert {(f, scope) for f, scope, _ in found} == MODEL_BUILDERS


def test_guard_sees_nested_and_attribute_constructions():
    source = (
        "def a():\n    return MrcModel(1)\n"
        "class B:\n    def c(self):\n        return core.MrcModel(2)\n"
        "x = MrcModel(3)\n"
    )
    found = model_constructions(ast.parse(source), "m.py")
    assert [(scope, line) for _, scope, line in found] == [("a", 2), ("B.c", 5), ("", 6)]
