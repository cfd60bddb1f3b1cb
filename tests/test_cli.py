import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from hives import bijections, checks, cli
from hives.bijections import (CommutorDiagnostics, GluedPair, WallPair,
                              assoc_forward, assoc_inverse, commutor)
from hives.cli import main
from hives.enumeration import (count_hives, enumerate_glued_pairs,
                               enumerate_hives, enumerate_wall_pairs)
from hives.jsonio import (dumps, glued_pair_to_obj, hive_to_obj,
                          tetra_to_obj, wall_pair_to_obj)
from hives.hive import Hive, boundary
from hives.octahedron import propagate
from hives.tableaux import lr_coefficient, schur_product

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


def test_lr_both_disagree(monkeypatch, capsys):
    monkeypatch.setattr(cli, "count_hives", lambda mu, nu, lam: 3)
    assert main(["lr", "--mu", "2,1", "--nu", "2,1", "--lambda", "3,2,1",
                 "--method", "both"]) == 1
    captured = capsys.readouterr()
    assert captured.out.split() == ["3", "2"]
    assert captured.err == "hive and tableaux counts disagree\n"


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
                 "--lambda", "3,2,1", "-o", str(out)]) == 0
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
    assert main(argv) == 0
    unlimited = capsys.readouterr().out
    assert main([*argv, "--max-count", str(found)]) == 0
    assert capsys.readouterr().out == unlimited
    assert json.loads(unlimited)["count"] == found


def test_assoc_roundtrip_byte_identical(tmp_path, capsys):
    pair = write(tmp_path, "pair.json", PAIR)
    fwd = tmp_path / "walls.json"
    assert main(["assoc", "forward", pair, "-o", str(fwd)]) == 0
    walls = json.loads(fwd.read_text())
    assert walls["w1"]["values"] == [[0, 2, 2], [1, 2], [1]]
    assert walls["w2"]["values"] == [[0, 2, 2], [2, 2], [2]]
    back = tmp_path / "back.json"
    assert main(["assoc", "inverse", str(fwd), "-o", str(back)]) == 0
    assert back.read_text() == PAIR


def test_assoc_rejects_invalid_pair(tmp_path, capsys):
    bad = write(tmp_path, "bad.json",
                '{"f1":{"n":2,"values":[[0,2,2],[1,2],[1]]},'
                '"f2":{"n":2,"values":[[0,0,0],[0,0],[0]]}}\n')
    assert main(["assoc", "forward", bad]) == 2


NOT_DC = '{"n":2,"values":[[0,2,2],[1,4],[1]]}'
NOT_PARTITION = '{"n":2,"values":[[0,0,0],[0,0],[-1]]}'  # DC, left (0, -1)
F2 = '{"n":2,"values":[[0,1,1],[1,1],[1]]}'


@pytest.mark.parametrize("argv, text, line", [
    (["commute"], NOT_DC,
     "error: commute input violates kind I at (0, 0)"),
    (["assoc", "forward"], '{"f1":%s,"f2":%s}' % (NOT_DC, F2),
     "error: glued pair: f1 violates kind I at (0, 0)"),
    # the glue agrees, hyp(f1) = base(f2) = (1, 0); only the left edge fails
    (["assoc", "forward"], '{"f1":%s,"f2":%s}' % (NOT_PARTITION, F2),
     "error: glued pair: f1 has left increments (0, -1), not a partition"),
    (["assoc", "inverse"], '{"w1":%s,"w2":%s}' % (WORKED.strip(),
                                                  NOT_PARTITION),
     "error: wall pair: w2 has left increments (0, -1), not a partition"),
], ids=["commute", "forward-not-dc", "forward-not-partition", "inverse"])
def test_rejected_input_names_its_witness(argv, text, line, tmp_path, capsys):
    path = write(tmp_path, "in.json", text + "\n")
    assert main([*argv, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == line + "\n"


def test_commute_singleton(tmp_path, capsys):
    path = write(tmp_path, "h.json", '{"n":1,"values":[[0,3],[1]]}\n')
    assert main(["commute", path, "--check"]) == 0
    assert capsys.readouterr().out == '{"n":1,"values":[[0,3],[2]]}\n'


def test_propagate_with_pcpm(tmp_path, capsys):
    g = write(tmp_path, "g.json", WORKED)
    c = write(tmp_path, "c.json", '{"n":2,"values":[[0,1,1],[1,1],[1]]}\n')
    assert main(["propagate", "--ground", g, "--ceiling", c,
                 "--check-pcpm"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["values"][1][0][0] == 2  # T(0, 0, 1)


def test_propagate_check_pcpm_names_the_non_dc_sections(tmp_path, capsys):
    g = write(tmp_path, "g.json", '{"n":2,"values":[[0,2,2],[1,4],[1]]}\n')
    c = write(tmp_path, "c.json", '{"n":2,"values":[[0,3,1],[0,0],[0]]}\n')
    assert main(["propagate", "--ground", g, "--ceiling", c,
                 "--check-pcpm"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "section x=0 not DC (kind I at (0, 0))",
        "section y=0 not DC (kind III at (0, 0))",
        "section z=0 not DC (kind I at (0, 0))",
        "section x+y+z=2 not DC (kind I at (0, 0))",
    ]
    assert json.loads(captured.out)["n"] == 2  # the function is still written


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


def test_default_selfcheck_prints_the_pinned_report(capsys):
    """Default selfcheck stdout equals, byte for byte, the report that the
    benchmark pins in perfbench/expected_selfcheck.txt."""
    root = pathlib.Path(__file__).resolve().parents[1]
    expected = (root / "perfbench" / "expected_selfcheck.txt").read_text()
    assert main(["selfcheck"]) == 0
    assert capsys.readouterr().out == expected


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


# each subcommand that writes JSON, with arguments it accepts
JSON_WRITERS = [
    ["lr", "--mu", "1", "--nu", "1", "--lambda", "2", "--format", "json"],
    ["schur", "--mu", "1", "--nu", "1", "--format", "json"],
    ["verify", "h.json", "--format", "json"],
    ["enumerate", "--mu", "1", "--nu", "1", "--lambda", "2"],
    ["pairs", *WIDE_PAIRS],
    ["assoc", "forward", "pair.json"],
    ["commute", "h.json"],
    ["propagate", "--ground", "g.json", "--ceiling", "c.json"],
]


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
    # JSON has one form, so no subcommand offers --canonical
    *([*argv, "--canonical"] for argv in JSON_WRITERS),
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


def test_commute_check_names_the_witness_of_the_suite(monkeypatch, tmp_path,
                                                       capsys):
    """commute --check prints on stderr the witness that the commutor suite
    prints for the same bump, writes no hive, and exits 1."""
    real = bijections._half_octahedron_layers

    def bumped(h):
        layers = real(h)
        layers[h.n - 1][h.n - 1][1] += 1  # the point (1, n - 1, n - 1)
        return layers
    monkeypatch.setattr(bijections, "_half_octahedron_layers", bumped)
    _, failures = checks.commutativity(0)
    hives = [Hive.zero(2), *enumerate_hives((2, 1, 0), (2, 1, 0), (3, 2, 1))]
    witnesses = set()
    for h in hives:
        path = write(tmp_path, "h.json", dumps(hive_to_obj(h)))
        assert main(["commute", path, "--check"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        witness = captured.err.removesuffix("\n")
        assert "\n" not in witness
        b = boundary(h)
        assert (f"diagnostics failed at ({b.left},{b.hyp},{b.base}): "
                f"{witness}") in failures
        witnesses.add(witness)
    assert witnesses >= {"not polarized at octahedron base (0, 1, 1)",
                         "section x=1 not DC (kind II at (0, 2))"}


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
        assert main(["commute", path, "-o", str(out)]) == 0
        outs.add(out.read_bytes())
    assert len(outs) == 1


def test_dumps_matches_cli_canonical():
    h = Hive(((0, 2, 2), (1, 2), (1,)))
    assert dumps(hive_to_obj(h)) == WORKED


H = Hive(((0, 2, 2), (1, 2), (1,)))  # WORKED
C = Hive(((0, 1, 1), (1, 1), (1,)))  # F2
WALLS = WallPair(H, Hive(((0, 2, 2), (2, 2), (2,))))  # assoc forward of PAIR
WIDE_CLASS = ((3, 2, 1), (2, 1), (3, 2, 1), (6, 4, 3, 2))  # WIDE_PAIRS


def pairs_obj(pairs, keys):
    return {"count": len(pairs),
            "pairs": [{keys[0]: hive_to_obj(a), keys[1]: hive_to_obj(b)}
                      for a, b in pairs]}


@pytest.mark.parametrize("argv, result", [
    (["lr", "--mu", "2,1", "--nu", "2,1", "--lambda", "3,2,1",
      "--method", "both", "--format", "json"],
     lambda: {"hive": count_hives((2, 1), (2, 1), (3, 2, 1)),
              "tableaux": lr_coefficient((2, 1), (2, 1), (3, 2, 1))}),
    (["schur", "--mu", "2,1", "--nu", "1,1", "--parts", "4",
      "--format", "json"],
     lambda: {",".join(map(str, lam)): c
              for lam, c in schur_product((2, 1), (1, 1), 4).items()}),
    (["verify", "h.json", "--format", "json"],
     lambda: {"dc": True, "left": list(boundary(H).left),
              "hyp": list(boundary(H).hyp), "base": list(boundary(H).base),
              "violations": []}),
    (["enumerate", "--mu", "2,1,0", "--nu", "2,1,0", "--lambda", "3,2,1"],
     lambda: {"count": 2, "hives": [hive_to_obj(h) for h in enumerate_hives(
         (2, 1, 0), (2, 1, 0), (3, 2, 1))]}),
    (["pairs", "--side", "glued", *WIDE_PAIRS],
     lambda: pairs_obj(enumerate_glued_pairs(*WIDE_CLASS), ("f1", "f2"))),
    (["pairs", "--side", "wall", *WIDE_PAIRS],
     lambda: pairs_obj(enumerate_wall_pairs(*WIDE_CLASS), ("w1", "w2"))),
    (["assoc", "forward", "pair.json"],
     lambda: wall_pair_to_obj(assoc_forward(GluedPair(H, C)))),
    (["assoc", "inverse", "walls.json"],
     lambda: glued_pair_to_obj(assoc_inverse(WALLS))),
    (["commute", "h.json", "--check"], lambda: hive_to_obj(commutor(H))),
    (["propagate", "--ground", "h.json", "--ceiling", "c.json",
      "--check-pcpm"], lambda: tetra_to_obj(propagate(H, C))),
], ids=["lr", "schur", "verify", "enumerate", "pairs-glued", "pairs-wall",
        "assoc-forward", "assoc-inverse", "commute", "propagate"])
def test_json_output_is_dumps_of_the_library_result(argv, result, tmp_path,
                                                     monkeypatch, capsys):
    """Every JSON the CLI writes, to stdout or to an -o file, is the one
    form of jsonio.dumps."""
    monkeypatch.chdir(tmp_path)
    for name, text in (("h.json", WORKED), ("pair.json", PAIR),
                       ("walls.json", dumps(wall_pair_to_obj(WALLS))),
                       ("c.json", F2 + "\n")):
        write(tmp_path, name, text)
    expected = dumps(result())
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    if argv[0] not in ("lr", "schur", "verify"):
        assert main([*argv, "-o", "out.json"]) == 0
        assert (tmp_path / "out.json").read_text() == expected


@pytest.mark.parametrize("case", ["missing directory", "directory as -o",
                                  "not UTF-8"])
def test_unwritable_or_unreadable_file_exits_2_naming_it(case, tmp_path,
                                                          capsys):
    hive = write(tmp_path, "h.json", WORKED)
    if case == "missing directory":
        path = str(tmp_path / "missing" / "x.json")
        argv = ["enumerate", "--mu", "1", "--nu=", "--lambda", "1", "-o", path]
        prefix = f"error: cannot write {path}: "
    elif case == "directory as -o":
        path = str(tmp_path)
        argv = ["render", hive, "-o", path]
        prefix = f"error: cannot write {path}: "
    else:
        path = str(tmp_path / "latin1.json")
        (tmp_path / "latin1.json").write_bytes(b'{"n":0,"values":[[0]]}\xff')
        argv = ["verify", path]
        prefix = f"input error: cannot read {path}: "
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "commute"])
def test_deeply_nested_json_exits_2_naming_the_file(command, tmp_path,
                                                     capsys):
    path = write(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == (f"input error: {path}: JSON nested deeper than "
                            f"the parser can follow (recursion limit "
                            f"{sys.getrecursionlimit()})\n")


def _digit_limit() -> int:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python has no int/str digit limit")
    return limit


def test_hive_value_past_the_digit_limit_exits_2_naming_the_file(tmp_path,
                                                                capsys):
    limit = _digit_limit()
    path = write(tmp_path, "big.json",
                 '{"n":0,"values":[[%s]]}' % ("7" * (limit + 700)))
    assert main(["verify", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == (f"input error: {path}: an integer has more than "
                            f"{limit} digits, CPython's limit for converting "
                            f"str to int\n")


def test_partition_part_past_the_digit_limit_names_the_limit(capsys):
    limit = _digit_limit()
    with pytest.raises(SystemExit) as exc:
        main(["lr", "--mu", "9" * (limit + 700), "--nu", "1",
              "--lambda", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (
        f"hives lr: error: argument --mu: a part has {limit + 700} digits, "
        f"more than {limit}, CPython's limit for converting str to int")


def test_python_m_hives_runs_the_command_line():
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "hives", "selfcheck", "--max-n", "2",
         "--max-part", "1", "--random-cases", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("selfcheck: PASS\n")
