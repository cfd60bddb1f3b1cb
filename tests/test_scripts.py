"""The scripts under scripts/ run end to end against the package in src/."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

EXPLORE_TABLE = """\
universe: 46 hives

orientation              feas infeas z_inv y_inv z_tgt y_tgt pmu_z pmu_y pcpm_bad
A:O>YZ,Y>XY,X>XZ            6     40     6     6     6     6     6     6        0
B:O>XY,Y>XZ,X>YZ            6     40     6     3     1     1     1     1        0
C:O>XZ,Y>YZ,X>XY            6     40     6     6     1     6     6     1        0
D:O>YZ,Y>XZ,X>XY           36     10    36    36     6    36    36     6        0
E:O>XY,Y>YZ,X>XZ           21     25    20    14     1     1     6     1        0
F:O>XZ,Y>XY,X>YZ            1     45     1     1     1     1     1     1        0
(universe size 46; counts are over hives)
"""


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)


def test_worked_example_walkthrough(tmp_path):
    done = run_script("worked_example_walkthrough.py", tmp_path)
    assert done.returncode == 0, done.stderr
    assert "inverse recovers the pair: OK" in done.stdout
    assert "diagnostics clean: True" in done.stdout
    assert {p.name for p in tmp_path.iterdir()} == {
        "pair.json", "walls.json", "tetra.json", "commuted.json", "hive.svg",
        "ceiling_restriction.svg"}


def test_explore_commutor_geometry_table():
    # Orientation A is the chart the commutor's half-octahedron uses, D the
    # one most often feasible; the whole table is pinned.
    done = run_script("explore_commutor_geometry.py")
    assert done.returncode == 0, done.stderr
    assert done.stdout == EXPLORE_TABLE

