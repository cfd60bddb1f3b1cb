"""The benchmark under perfbench/ wraps package functions by name; every
name it traces must still exist, or the benchmark breaks."""

import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # imports the standard library only
    assert tracing.TRACED
    for module, names in tracing.TRACED.items():
        mod = importlib.import_module(f"hives.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"hives.{module}.{name}"
