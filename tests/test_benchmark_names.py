"""The benchmark under perfbench/ looks mrckit names up by attribute: it wraps
each traced entry point where its callers read it, and calls the public API.
A change that drops or moves one of those names fails here, in the test
suite, and not only in the benchmark's own smoke run."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    """Import perfbench/<name>.py without adding perfbench to sys.path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_is_defined_by_its_owner():
    tracing = _load("tracing")
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in tracing.ENTRY_POINTS
        if attr not in vars(owner)
    ]
    assert not missing, f"names the benchmark traces are gone: {missing}"


def test_workloads_module_imports():
    workloads = _load("workloads")
    assert workloads.WORKLOADS
