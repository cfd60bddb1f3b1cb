"""Acceptance suite: every identity the package promises, at full stated
range, exact integer arithmetic, zero tolerance.

Each test prints one pass line (visible with -s); the test names double as
the criterion labels under pytest -v.
"""

import json

import pytest

from hives.bijections import (GluedPair, WallPair, assoc_forward,
                              assoc_inverse, commutor,
                              half_octahedron_diagnostics,
                              half_octahedron_function)
from hives.checks import (bump, commutor_triples, glued_universe,
                          interior_points, random_glued_pairs,
                          triple_universe)
from hives.cli import main
from hives.enumeration import (count_hives, enumerate_glued_pairs,
                               enumerate_hives, enumerate_wall_pairs)
from hives.grids import FaceChart
from hives.hive import Hive, p_mu, pad, validate_dc
from hives.jsonio import dumps, hive_to_obj
from hives.octahedron import (check_pcpm, check_polarized, extract_face,
                              inverse_propagate, propagate)
from hives.tableaux import lr_coefficient, partitions_in_box

SEED = 31415926


@pytest.fixture(scope="module")
def exhaustive_tetras():
    """Propagations of every glued DC pair at n = 2 with entries <= 2."""
    out = [propagate(f1, f2)
           for mu, pi, sigma, lam in glued_universe(2, 2)
           for f1, f2 in enumerate_glued_pairs(mu, pi, sigma, lam)]
    assert len(out) >= 200
    return out


@pytest.fixture(scope="module")
def random_tetras():
    """At least 200 seeded random glued DC pairs at n = 4, propagated."""
    out = [propagate(f1, f2) for f1, f2 in random_glued_pairs(SEED, 200)]
    assert len(out) >= 200
    return out


def test_criterion_1_hive_counts_equal_lr_coefficients():
    """All triples with <= 3 parts, entries <= 3, at grid size 3."""
    checked = 0
    for mu, nu, lam in triple_universe(3, 3):
        assert count_hives(mu, nu, lam) == lr_coefficient(mu, nu, lam), \
            (mu, nu, lam)
        checked += 1
    assert checked >= 400 * 1  # every (mu, nu) pair contributes
    assert count_hives((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    print(f"criterion 1 (hive count == LR coefficient, {checked} triples): PASS")


def test_criterion_2_propagation_is_pcpm(exhaustive_tetras, random_tetras):
    """Propagation of DC ground and ceiling is always PCPM."""
    for t in exhaustive_tetras + random_tetras:
        report = check_pcpm(t)
        assert report.ok(), report
    print(f"criterion 2 (propagation is PCPM, {len(exhaustive_tetras)} "
          f"exhaustive + {len(random_tetras)} random): PASS")


def test_criterion_3_cutting_plane_sections(exhaustive_tetras, random_tetras):
    """Every z- and sum-section of every propagated function is DC."""
    sections = 0
    for t in exhaustive_tetras + random_tetras:
        n = t.n
        for k in range(n + 1):
            for chart in (FaceChart.section_z(n, k),
                          FaceChart.section_sum(n, k)):
                assert not validate_dc(extract_face(t, chart)), chart.name
                sections += 1
    print(f"criterion 3 (cutting-plane sections DC, {sections} sections): PASS")


def test_criterion_4_associativity_bijection():
    """For all (mu, pi, sigma) <= 2 parts entries <= 2 and each admissible
    lam: coproduct sizes match the oracle products, the forward map is a
    bijection onto the wall coproduct, and both compositions are the
    identity."""
    classes = pairs = 0
    for mu, pi, sigma, lam in glued_universe(2, 2):
        domain = enumerate_glued_pairs(mu, pi, sigma, lam)
        target = enumerate_wall_pairs(mu, pi, sigma, lam)
        glue_total = sum(lam) - sum(mu)
        lhs = sum(lr_coefficient(mu, g, lam) * lr_coefficient(pi, sigma, g)
                  for g in partitions_in_box(glue_total, 2,
                                             max(glue_total, 0)))
        rhs = sum(lr_coefficient(mu, pi, t) * lr_coefficient(t, sigma, lam)
                  for t in partitions_in_box(sum(mu) + sum(pi), 2,
                                             sum(mu) + sum(pi)))
        assert lhs == len(domain) and rhs == len(target)
        assert lhs == rhs
        if not domain:
            continue
        classes += 1
        images = []
        for f1, f2 in domain:
            w = assoc_forward(GluedPair(f1, f2))
            back = assoc_inverse(w)
            assert (back.f1, back.f2) == (f1, f2)
            images.append((w.w1, w.w2))
            pairs += 1
        assert len(set(images)) == len(images)          # injective
        assert set(images) == set(target)               # onto
        for w1, w2 in target:
            w = WallPair(w1, w2)
            assert assoc_forward(assoc_inverse(w)) == w
    print(f"criterion 4 (associativity bijection, {classes} classes, "
          f"{pairs} pairs): PASS")


def test_criterion_5_commutor_bijection():
    """Commutor maps DC(mu,nu;lam) into DC(nu,mu;lam) injectively with equal
    cardinalities; half-octahedron diagnostics are all clean, including the
    exact p_mu face."""
    triples = commutor_triples(2)
    assert count_hives(*triples[-1]) >= 2
    hives_checked = 0
    for mu, nu, lam in triples:
        hs = enumerate_hives(mu, nu, lam)
        target = set(enumerate_hives(nu, mu, lam))
        assert len(target) == len(hs)
        outs = set()
        for h in hs:
            o = commutor(h)
            assert o in target
            outs.add(o)
            diag = half_octahedron_diagnostics(h)
            assert diag.ok(), (mu, nu, lam, diag)
            # exact p_mu face: the y = n slice of the half-octahedron
            n = h.n
            values = half_octahedron_function(h)
            pm = p_mu(pad(mu, n))
            assert all(values[(x, n, z)] == pm[x, 0]
                       for z in range(n + 1) for x in range(n - z + 1))
            hives_checked += 1
        assert len(outs) == len(hs)                          # injective
    print(f"criterion 5 (commutor bijection, {hives_checked} hives): PASS")


def test_criterion_6_worked_example_regression():
    f1 = Hive(((0, 2, 2), (1, 2), (1,)))
    f2 = Hive(((0, 1, 1), (1, 1), (1,)))
    t = propagate(f1, f2)
    assert t[0, 0, 1] == 2
    w = assoc_forward(GluedPair(f1, f2))
    assert w.w1 == Hive(((0, 2, 2), (1, 2), (1,)))
    assert w.w2 == Hive(((0, 2, 2), (2, 2), (2,)))
    print("criterion 6 (worked example regression): PASS")


def test_criterion_7_roundtrip_and_uniqueness(exhaustive_tetras,
                                              random_tetras):
    """Wall roundtrip is the identity, and any single interior perturbation
    breaks polarization (propagation output is rigid)."""
    perturbations = 0
    for t in exhaustive_tetras + random_tetras:
        n = t.n
        w1 = extract_face(t, FaceChart.section_x(n, 0))
        w2 = extract_face(t, FaceChart.section_y(n, 0))
        assert inverse_propagate(w1, w2) == t
        for point in interior_points(n):
            for delta in (1, -1):
                assert check_polarized(bump(t, point, delta)), (point, delta)
                perturbations += 1
    print(f"criterion 7 (roundtrip + uniqueness, {perturbations} "
          f"perturbations): PASS")


def test_criterion_8_tooling(tmp_path, capsys):
    """Selfcheck passes with defaults and reports case counts; canonical
    JSON and SVG outputs are byte-stable across runs."""
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "selfcheck: PASS" in out
    assert out.count("cases=") == 4

    hive_path = tmp_path / "h.json"
    hive_path.write_text('{"n":2,"values":[[0,2,2],[1,2],[1]]}\n')
    blobs = set()
    for run in range(2):
        outp = tmp_path / f"o{run}.json"
        assert main(["enumerate", "--mu", "2,1,0", "--nu", "2,1,0",
                     "--lambda", "3,2,1", "-o", str(outp)]) == 0
        blobs.add(outp.read_bytes())
    assert len(blobs) == 1

    svgs = set()
    for run in range(2):
        outp = tmp_path / f"r{run}.svg"
        assert main(["render", str(hive_path), "-o", str(outp)]) == 0
        svgs.add(outp.read_bytes())
    assert len(svgs) == 1

    h = Hive(((0, 2, 2), (1, 2), (1,)))
    assert dumps(hive_to_obj(h)) == json.dumps(
        {"n": 2, "values": [[0, 2, 2], [1, 2], [1]]},
        sort_keys=True, separators=(",", ":")) + "\n"
    print("criterion 8 (tooling determinism + selfcheck): PASS")
