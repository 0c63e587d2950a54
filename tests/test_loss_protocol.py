"""The loss protocol: per-loss formulas live on the loss classes in core.py.

The guard below keeps it that way: outside core.py no module may branch on
the type of a loss, so adding a loss means adding one class.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import mrckit
from mrckit.core import AlphaLoss, LogLoss, LogRelativeLoss, Loss, ZeroOneLoss

SRC = Path(mrckit.__file__).resolve().parent


def _loss_class_names():
    names, todo = set(), [Loss]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


LOSS_NAMES = _loss_class_names()


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


def test_log_relative_scores_and_entropies_only():
    loss = LogRelativeLoss([0.5, 0.5])
    assert loss.loss_table(np.array([0.25, 0.75]))[0] == pytest.approx(np.log(2.0))
    with pytest.raises(TypeError):
        loss.offset(np.zeros((1, 2)))
    with pytest.raises(TypeError):
        loss.rule(np.zeros((1, 2)), 0.0)
    with pytest.raises(ValueError):
        loss.to_json()


@pytest.mark.parametrize("loss", [ZeroOneLoss(), LogLoss(), AlphaLoss(2.0), AlphaLoss(0.5)])
def test_entropy_vectorises_over_leading_axes(loss):
    rng = np.random.default_rng(0)
    p = rng.random((5, 3, 2))
    p /= p.sum(axis=(1, 2), keepdims=True)
    batch = loss.entropy(p)
    assert batch.shape == (5,)
    np.testing.assert_allclose(batch, [loss.entropy(t) for t in p], atol=1e-15)


@pytest.mark.parametrize("loss", [ZeroOneLoss(), LogLoss(), AlphaLoss(2.0), AlphaLoss(0.5)])
def test_active_label_weights_carry_the_offsets_exactly(loss):
    scores = np.random.default_rng(5).normal(scale=3.0, size=(30, 4))
    offsets, weights = loss.active_label_weights(scores)
    assert np.array_equal(offsets, loss.offset(scores))
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
    if isinstance(loss, LogLoss):  # one exponential serves both: the softmax, bit for bit
        assert np.array_equal(weights, loss.rule(scores, None))
    if isinstance(loss, AlphaLoss):  # the offset search's own bases, bit for bit
        t = np.maximum((scores + offsets[:, None]) / loss.beta + 1.0, 0.0)
        with np.errstate(divide="ignore"):
            expected = np.where(t > 0.0, t ** (loss.beta - 1.0), 0.0)
        assert np.array_equal(weights, expected / expected.sum(axis=1, keepdims=True))
