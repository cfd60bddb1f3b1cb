import json
import re

import pytest

from hives import bijections, checks
from hives.bijections import CommutorDiagnostics
from hives.cli import main
from hives.jsonio import dumps, hive_to_obj
from hives.hive import Hive

WORKED = '{"n":2,"values":[[0,2,2],[1,2],[1]]}\n'
PAIR = ('{"f1":{"n":2,"values":[[0,2,2],[1,2],[1]]},'
        '"f2":{"n":2,"values":[[0,1,1],[1,1],[1]]}}\n')


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_lr_both_agree(capsys):
    assert main(["lr", "--mu", "2,1", "--nu", "2,1", "--lambda", "3,2,1",
                 "--method", "both"]) == 0
    assert capsys.readouterr().out.split() == ["2", "2"]


def test_lr_single_methods(capsys):
    assert main(["lr", "--mu", "1", "--nu", "1", "--lambda", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["lr", "--mu", "1", "--nu", "1", "--lambda", "3"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_lr_json_format(capsys):
    assert main(["lr", "--mu", "1", "--nu", "1", "--lambda", "2",
                 "--method", "both", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"hive": 1, "tableaux": 1}


def test_bad_partition_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lr", "--mu", "1,2", "--nu", "1", "--lambda", "2"])
    assert exc.value.code == 2


def test_verify_dc(tmp_path, capsys):
    path = write(tmp_path, "h.json", WORKED)
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("DC;") and "left=(1, 0)" in out


def test_verify_not_dc(tmp_path, capsys):
    path = write(tmp_path, "bad.json",
                 '{"n":2,"values":[[0,2,2],[1,4],[1]]}\n')
    assert main(["verify", path]) == 1
    out = capsys.readouterr().out
    assert "NOT DC" in out and "kind I at (0, 0)" in out


def test_verify_schema_error(tmp_path, capsys):
    path = write(tmp_path, "g.json", "{broken")
    assert main(["verify", path]) == 2


def test_enumerate(tmp_path, capsys):
    out = tmp_path / "hives.json"
    assert main(["enumerate", "--mu", "2,1,0", "--nu", "2,1,0",
                 "--lambda", "3,2,1", "--canonical", "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["count"] == 2 and len(obj["hives"]) == 2


REFERENCE = ["--mu", "6,5,4,3,2,1", "--nu", "6,5,4,3,2,1",
             "--lambda", "9,8,7,6,5,4,2,1"]  # 1624 hives
WIDE_PAIRS = ["--mu", "3,2,1", "--lambda", "6,4,3,2", "--pi", "2,1",
              "--sigma", "3,2,1"]  # 38 pairs on each side


@pytest.mark.parametrize("argv, found", [
    (["enumerate", *REFERENCE], 1624),
    (["pairs", "--side", "glued", *WIDE_PAIRS], 38),
    (["pairs", "--side", "wall", *WIDE_PAIRS], 38),
])
def test_max_count_refuses_a_larger_result(argv, found, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main([*argv, "--max-count", str(found - 1), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    what = "hives" if argv[0] == "enumerate" else "pairs"
    assert f"{found} {what} exceed --max-count {found - 1}" in captured.err
    assert captured.out == "" and not out.exists()
    # at the limit the output is the one without a limit, byte for byte
    assert main([*argv, "--canonical"]) == 0
    unlimited = capsys.readouterr().out
    assert main([*argv, "--canonical", "--max-count", str(found)]) == 0
    assert capsys.readouterr().out == unlimited
    assert json.loads(unlimited)["count"] == found


def test_assoc_roundtrip_byte_identical(tmp_path, capsys):
    pair = write(tmp_path, "pair.json", PAIR)
    fwd = tmp_path / "walls.json"
    assert main(["assoc", "forward", pair, "--canonical", "-o", str(fwd)]) == 0
    walls = json.loads(fwd.read_text())
    assert walls["w1"]["values"] == [[0, 2, 2], [1, 2], [1]]
    assert walls["w2"]["values"] == [[0, 2, 2], [2, 2], [2]]
    back = tmp_path / "back.json"
    assert main(["assoc", "inverse", str(fwd), "--canonical",
                 "-o", str(back)]) == 0
    assert back.read_text() == PAIR


def test_assoc_rejects_invalid_pair(tmp_path, capsys):
    bad = write(tmp_path, "bad.json",
                '{"f1":{"n":2,"values":[[0,2,2],[1,2],[1]]},'
                '"f2":{"n":2,"values":[[0,0,0],[0,0],[0]]}}\n')
    assert main(["assoc", "forward", bad]) == 2


def test_commute_singleton(tmp_path, capsys):
    path = write(tmp_path, "h.json", '{"n":1,"values":[[0,3],[1]]}\n')
    assert main(["commute", path, "--check", "--canonical"]) == 0
    assert capsys.readouterr().out == '{"n":1,"values":[[0,3],[2]]}\n'


def test_propagate_with_pcpm(tmp_path, capsys):
    g = write(tmp_path, "g.json", WORKED)
    c = write(tmp_path, "c.json", '{"n":2,"values":[[0,1,1],[1,1],[1]]}\n')
    assert main(["propagate", "--ground", g, "--ceiling", c,
                 "--check-pcpm", "--canonical"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["values"][1][0][0] == 2  # T(0, 0, 1)


def test_propagate_rejects_mismatch(tmp_path, capsys):
    g = write(tmp_path, "g.json", WORKED)
    c = write(tmp_path, "c.json", '{"n":2,"values":[[0,1,2],[1,1],[1]]}\n')
    assert main(["propagate", "--ground", g, "--ceiling", c]) == 2


def test_render(tmp_path):
    path = write(tmp_path, "h.json", WORKED)
    out = tmp_path / "h.svg"
    assert main(["render", path, "-o", str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and svg.count("<circle") == 6


def test_selfcheck_small(capsys):
    assert main(["selfcheck", "--max-n", "2", "--max-part", "2",
                 "--random-cases", "5"]) == 0
    out = capsys.readouterr().out
    assert "selfcheck: PASS" in out and out.count("cases=") == 4


def test_selfcheck_degenerate(capsys):
    for max_n in ("0", "1"):
        with pytest.raises(SystemExit) as exc:
            main(["selfcheck", "--max-n", max_n, "--random-cases", "0"])
        assert exc.value.code == 2


def test_selfcheck_smallest_ranges_cover_every_suite(capsys):
    assert main(["selfcheck", "--max-n", "2", "--max-part", "0",
                 "--random-cases", "0"]) == 0
    counts = re.findall(r"cases=(\d+)", capsys.readouterr().out)
    assert len(counts) == 4 and "0" not in counts


@pytest.mark.parametrize("run", [
    lambda: checks.lr_equivalence(2, -1),
    lambda: checks.propagation(-1, 0),
    lambda: checks.associativity(-1),
])
def test_suite_with_no_cases_fails(run):
    # an empty universe proves nothing, so it must not read as a pass
    cases, failures = run()
    assert cases == 0 and failures


@pytest.mark.parametrize("argv", [
    ["selfcheck", "--max-part", "-1"],
    ["selfcheck", "--random-cases", "-1"],
    ["selfcheck", "--max-n", "two"],
    ["schur", "--mu", "1", "--nu", "1", "--parts", "-1"],
    # options a subcommand would ignore are not offered
    ["enumerate", "--mu", "1", "--nu", "1", "--lambda", "2",
     "--format", "json"],
    ["render", "h.json", "--canonical"],
    ["enumerate", "--mu", "1", "--nu", "1", "--lambda", "2",
     "--max-count", "-1"],
    ["lr", "--mu", "1", "--nu", "1", "--lambda", "2", "--max-count", "5"],
    ["selfcheck", "--threads", "2"],
])
def test_bad_numbers_and_unoffered_options_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_selfcheck_fault_injection_fails(capsys):
    assert main(["selfcheck", "--max-n", "2", "--max-part", "2",
                 "--random-cases", "0", "--inject-fault"]) == 1
    assert "selfcheck: FAIL" in capsys.readouterr().out


def test_propagation_failures_name_the_octahedron_and_sections(monkeypatch,
                                                               capsys):
    """A propagated function that is not PCPM fails the suite with its
    witnesses: the first octahedron off the rule and each non-DC section."""
    real = checks.propagate
    monkeypatch.setattr(checks, "propagate", lambda f1, f2: checks.bump(
        real(f1, f2), (0, 0, 1), 1))
    assert main(["selfcheck", "--max-n", "2", "--max-part", "0",
                 "--random-cases", "0"]) == 1
    out = capsys.readouterr().out
    assert "propagation: PCPM + sections + roundtrip + perturbation " \
           "cases=1      FAIL" in out
    tag = "glued((0, 0),(0, 0),(0, 0),(0, 0))#1"
    lines = [line.strip() for line in out.splitlines()]
    assert f"{tag}: not polarized at octahedron base (0, 0, 0)" in lines
    assert f"{tag}: section x=0 not DC (kind III at (0, 0))" in lines
    assert f"{tag}: section y=0 not DC (kind II at (0, 0))" in lines
    assert not any("section z=" in line or "section x+y+z=" in line
                   for line in lines)
    assert out.endswith("selfcheck: FAIL\n")


def test_commutor_diagnostics_failures_name_their_witness(monkeypatch,
                                                          capsys):
    """A half-octahedron function off the rule below the top level leaves
    the commutor as it is and fails the suite with the first witness of the
    first failing check: an octahedron base at n = 2, a section rhombus at
    n = 3."""
    real = bijections._half_octahedron_layers

    def bumped(h):
        layers = real(h)
        layers[h.n - 1][h.n - 1][1] += 1  # the point (1, n - 1, n - 1)
        return layers
    monkeypatch.setattr(bijections, "_half_octahedron_layers", bumped)
    assert main(["selfcheck", "--max-n", "2", "--max-part", "0",
                 "--random-cases", "0"]) == 1
    out = capsys.readouterr().out
    assert "commutor bijection + diagnostics" in out and "FAIL (3)" in out
    lines = [line.strip() for line in out.splitlines()]
    assert ("diagnostics failed at ((0, 0),(0, 0),(0, 0)): "
            "not polarized at octahedron base (0, 1, 1)") in lines
    assert ("diagnostics failed at ((2, 1, 0),(2, 1, 0),(3, 2, 1)): "
            "section x=1 not DC (kind II at (0, 2))") in lines
    assert out.endswith("selfcheck: FAIL\n")


@pytest.mark.parametrize("fields, witness", [
    (((), ((0, 1, 1), (1, 1, 1)), ((0, 2, 0),), ()),
     "square base not separable at cell (0, 1, 1)"),
    (((), (), ((1, 2, 0),), ()),
     "y = n face differs from p_mu at (1, 2, 0)"),
    (((), (), (), ((0, 1, 2),)),
     "x = 0 wall differs from p_nu at (0, 1, 2)"),
])
def test_diagnostics_witness_of_the_face_checks(fields, witness, monkeypatch,
                                                 capsys):
    monkeypatch.setattr(checks, "half_octahedron_diagnostics",
                        lambda h: CommutorDiagnostics((), *fields))
    assert main(["selfcheck", "--max-n", "2", "--max-part", "0",
                 "--random-cases", "0"]) == 1
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    assert ("diagnostics failed at ((0, 0),(0, 0),(0, 0)): "
            f"{witness}") in lines


def test_canonical_output_byte_stable(tmp_path):
    path = write(tmp_path, "h.json", WORKED)
    outs = set()
    for k in range(2):
        out = tmp_path / f"o{k}.json"
        assert main(["commute", path, "--canonical", "-o", str(out)]) == 0
        outs.add(out.read_bytes())
    assert len(outs) == 1


def test_dumps_matches_cli_canonical():
    h = Hive(((0, 2, 2), (1, 2), (1,)))
    assert dumps(hive_to_obj(h)) == WORKED
