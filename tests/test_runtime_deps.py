"""The runtime needs numpy alone: scipy and the other test tools stay test-side."""

import ast
import sys
from pathlib import Path

import mrckit

SRC = Path(mrckit.__file__).resolve().parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mrckit"}


def imported_modules(tree):
    """Top-level names of the absolute imports in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_library_imports_only_stdlib_and_numpy():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{line} imports {name}"
            for line, name in imported_modules(tree)
            if name not in ALLOWED
        ]
    assert not found, found


def test_guard_sees_a_third_party_import():
    tree = ast.parse("import numpy as np\nfrom scipy.optimize import linprog\nfrom . import core\n")
    names = [name for _, name in imported_modules(tree)]
    assert names == ["numpy", "scipy"]
