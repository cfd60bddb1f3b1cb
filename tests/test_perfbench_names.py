"""The benchmark under perfbench/ wraps package functions by name and checks
the outputs of its workloads; every name it traces must still exist, and
the outputs of its first inputs must pass its own checks, or the benchmark
breaks."""

import importlib
import importlib.util
import itertools
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(name: str, path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks its module up here
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    assert tracing.TRACED
    for module, names in tracing.TRACED.items():
        mod = importlib.import_module(f"hives.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"hives.{module}.{name}"


@pytest.fixture(scope="module")
def workloads():
    return _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")


# 15 schur-expand inputs are one cycle of its part-count classes, up to 5x5.
@pytest.mark.parametrize("workload, count", [
    ("lr-count", 300), ("schur-expand", 15), ("octahedron-maps", 13)])
def test_workload_checks_pass(workloads, workload, count):
    """The first inputs of seed 1, each run by the workload's operation and
    passed by its check."""
    w = workloads.WORKLOADS[workload]
    for item in itertools.islice(w.inputs(1), count):
        assert w.check(item, w.op(item)) is None, item
