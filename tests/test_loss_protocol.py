"""The loss protocol: per-loss formulas live on the loss classes in core.py.

The guard below keeps it that way: outside core.py no module may branch on
the type of a loss, so adding a loss means adding one class.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import mrckit
from mrckit import solver
from mrckit.core import AlphaLoss, LogLoss, Loss, ZeroOneLoss
from test_solver import enumerate_offset_zero_one

SRC = Path(mrckit.__file__).resolve().parent


def _loss_subclasses():
    classes, todo = [], list(Loss.__subclasses__())
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(classes, key=lambda c: c.__name__)


LOSS_CLASSES = _loss_subclasses()
LOSS_NAMES = {cls.__name__ for cls in [Loss, *LOSS_CLASSES]}


def _mentions_loss_class(node):
    return any(
        (isinstance(n, ast.Name) and n.id in LOSS_NAMES)
        or (isinstance(n, ast.Attribute) and n.attr in LOSS_NAMES)
        for n in ast.walk(node)
    )


def _is_type_call(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "type"
    )


def loss_type_dispatch(tree):
    """Line numbers that test or look up a value's loss class."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "issubclass")
            and len(node.args) == 2
            and _mentions_loss_class(node.args[1])
        ):
            yield node.lineno
        elif isinstance(node, ast.Compare) and _mentions_loss_class(node):
            if any(_is_type_call(n) for n in ast.walk(node)):
                yield node.lineno
        elif isinstance(node, ast.Subscript) and _is_type_call(node.slice):
            yield node.lineno
        elif isinstance(node, ast.Dict) and any(
            k is not None and _mentions_loss_class(k) for k in node.keys
        ):
            yield node.lineno


def test_no_loss_type_dispatch_outside_core():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in loss_type_dispatch(tree)]
    assert not found, "per-loss dispatch outside core.py: " + ", ".join(found)


def test_guard_catches_each_dispatch_form():
    snippets = [
        "isinstance(loss, ZeroOneLoss)",
        "isinstance(loss, (LogLoss, core.AlphaLoss))",
        "type(loss) is AlphaLoss",
        "{ZeroOneLoss: 'a', LogLoss: 'b'}[type(model.loss)]",
    ]
    for text in snippets:
        assert list(loss_type_dispatch(ast.parse(text))), text
    assert not list(loss_type_dispatch(ast.parse("isinstance(x, dict); loss.rule(s, o)")))


@pytest.mark.parametrize(
    "spec, loss",
    [("zero-one", ZeroOneLoss()), ("log", LogLoss()), ("alpha:2", AlphaLoss(2.0)),
     ("alpha:0.5", AlphaLoss(0.5))],
)
def test_spec_and_json_round_trip(spec, loss):
    assert Loss.from_spec(spec) == loss
    assert Loss.from_spec(loss.to_json()) == loss


@pytest.mark.parametrize("spec", ["hinge", "alpha", "alpha:", "alpha:x", "alpha:1", "log:2",
                                  {"loss": "alpha"}, {"loss": "hinge"}])
def test_bad_specs_raise_value_error(spec):
    with pytest.raises(ValueError):
        Loss.from_spec(spec)


@pytest.mark.parametrize("loss", [ZeroOneLoss(), LogLoss(), AlphaLoss(2.0), AlphaLoss(0.5)])
def test_entropy_vectorises_over_leading_axes(loss):
    rng = np.random.default_rng(0)
    p = rng.random((5, 3, 2))
    p /= p.sum(axis=(1, 2), keepdims=True)
    batch = loss.entropy(p)
    assert batch.shape == (5,)
    np.testing.assert_allclose(batch, [loss.entropy(t) for t in p], atol=1e-15)


def reference_offsets(loss, scores):
    """The loss's largest feasible offsets by a route of their own: subset
    enumeration for 0-1, -log sum exp for log, the ``solver`` root search for
    alpha.  Only alpha's is the same computation, so it alone must match to
    the bit."""
    if loss.name == "zero-one":
        return np.array([enumerate_offset_zero_one(v) for v in scores])
    if loss.name == "log":
        return -np.log(np.exp(scores).sum(axis=1))
    return solver.max_offset_alpha(scores, loss.alpha)[0]


@pytest.mark.parametrize("loss", [ZeroOneLoss(), LogLoss(), AlphaLoss(2.0), AlphaLoss(0.5)])
def test_active_label_weights_carry_the_offsets_exactly(loss):
    scores = np.random.default_rng(5).normal(scale=3.0, size=(30, 4))
    offsets, weights = loss.active_label_weights(scores)
    reference = reference_offsets(loss, scores)
    if isinstance(loss, AlphaLoss):
        assert np.array_equal(offsets, reference)
    np.testing.assert_allclose(offsets, reference, rtol=0, atol=1e-12)
    assert np.array_equal(loss.offset(scores), offsets)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
    if isinstance(loss, LogLoss):  # one exponential serves both: the softmax, bit for bit
        assert np.array_equal(weights, loss.rule(scores, None))
    if isinstance(loss, AlphaLoss):  # the offset search's own bases, bit for bit
        t = np.maximum((scores + offsets[:, None]) / loss.beta + 1.0, 0.0)
        with np.errstate(divide="ignore"):
            expected = np.where(t > 0.0, t ** (loss.beta - 1.0), 0.0)
        assert np.array_equal(weights, expected / expected.sum(axis=1, keepdims=True))


EXAMPLE_ARGS = {AlphaLoss: (2.0,)}  # losses whose constructor takes arguments


@pytest.mark.parametrize("cls", LOSS_CLASSES, ids=lambda c: c.__name__)
def test_every_loss_implements_the_whole_protocol(cls):
    """Every concrete loss trains, predicts, certifies and round-trips through
    a model file: none leaves a part of the protocol to the base class."""
    loss = cls(*EXAMPLE_ARGS.get(cls, ()))
    scores = np.random.default_rng(3).normal(size=(3, 4))
    offsets = loss.offset(scores)
    assert offsets.shape == (3,) and np.all(np.isfinite(offsets))
    same, weights = loss.active_label_weights(scores)
    assert np.array_equal(same, offsets)
    assert weights.shape == (3, 4) and np.all(weights >= 0.0)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
    for offset in (None, float(offsets.min())):
        probs = loss.rule(scores, offset)
        assert probs.shape == (3, 4) and np.all(probs >= 0.0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert loss.rule_loss(scores, offset).shape == (3, 4)
    assert loss.residual(scores, float(offsets.min())) <= 1e-12  # feasible up to round-off
    assert loss.residual(scores, float(offsets.max()) + 1.0) > 0.0
    joint = np.random.default_rng(4).random((3, 4))
    entropy = loss.entropy(joint / joint.sum())
    assert np.isfinite(entropy) and entropy >= 0.0
    assert Loss.from_spec(loss.to_json()) == loss
