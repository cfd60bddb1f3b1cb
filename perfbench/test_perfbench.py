"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/test_perfbench.py -q

From the root of a checkout.  Takes about half a minute.
"""

import dataclasses
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

EXACT = ("calls", "hives_found", "nonempty_ratio", "useful_ratio",
         "points_filled", "rhombi", "bytes")


def _wrong_lr(t, out):
    return out + 1


def _wrong_schur(pair, out):
    lam = max(out)
    return {**out, lam: out[lam] + 1}


def _wrong_octahedron(text, out):
    # The first wall in place of its commutor image: DC, wrong boundary.
    walls_text, back_text, _ = out
    w1 = json.loads(walls_text)["w1"]
    return walls_text, back_text, json.dumps(w1)


def _wrong_selfcheck(argv, out):
    code, text = out
    return code, text.replace("cases=2580", "cases=2579")


@pytest.mark.parametrize("name, corrupt", [
    ("lr-count", _wrong_lr),
    ("schur-expand", _wrong_schur),
    ("octahedron-maps", _wrong_octahedron),
    ("selfcheck", _wrong_selfcheck),
])
def test_one_wrong_result_is_one_failure(name, corrupt):
    wl = workloads.WORKLOADS[name]
    calls = itertools.count()

    def op(inp):
        out = wl.op(inp)
        return corrupt(inp, out) if next(calls) == 1 else out

    inputs = list(itertools.islice(wl.inputs(3), 3))
    latencies, failures, _, refs = run.run_timed(
        dataclasses.replace(wl, op=op), iter(inputs), seconds=1e9)
    assert len(latencies) == 3 and refs
    assert len(failures) == 1, failures


def _trace_run(name: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
         "7", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_exact_work_counts_repeat(name):
    first, second = _trace_run(name), _trace_run(name)
    assert first["correct"] and second["correct"]
    exact = {k: v["value"] for k, v in first["metrics"].items()
             if k.rsplit(".", 1)[-1] in EXACT}
    assert exact == {k: second["metrics"][k]["value"] for k in exact}
    assert any(v for k, v in exact.items() if k.endswith(".calls"))


def test_inputs_do_not_repeat():
    for wl in workloads.WORKLOADS.values():
        if wl.name == "selfcheck":  # the default selfcheck has no input
            continue
        drawn = list(itertools.islice(wl.inputs(5), 200))
        assert len(set(map(repr, drawn))) == len(drawn)
        assert not set(map(repr, drawn)) & set(map(repr, wl.warmup()))
