import random
import re

import pytest

from hives import bijections, octahedron
from hives.bijections import commutor, half_octahedron_diagnostics
from hives.checks import (SELFCHECK_SEED, bump, glued_universe,
                          interior_points, random_glued_pairs)
from hives.enumeration import enumerate_glued_pairs, enumerate_hives
from hives.grids import (FaceChart, cutting_sections, tetra_points,
                         unit_octahedra, unit_rhombi_2d)
from hives.hive import Hive, boundary, p_mu, pad
from hives.octahedron import (TetraFunction, _section_rows, check_pcpm,
                              check_polarized, extract_face, inverse_propagate,
                              propagate)
from hives.tableaux import partitions_in_box

GROUND = Hive(((0, 2, 2), (1, 2), (1,)))
CEILING = Hive(((0, 1, 1), (1, 1), (1,)))


def tetra(n: int, fn) -> TetraFunction:
    """The function (x, y, z) -> fn(x, y, z) on the grid of size n."""
    return TetraFunction(tuple(tuple(tuple(fn(x, y, z)
                                           for x in range(n - z - y + 1))
                                     for y in range(n - z + 1))
                               for z in range(n + 1)))


def shifted(t: TetraFunction, c: int) -> TetraFunction:
    return tetra(t.n, lambda x, y, z: t[x, y, z] + c)


def worked_tetra() -> TetraFunction:
    return propagate(GROUND, CEILING)


def universe_tetras(max_entry=2):
    """Propagations of every glued DC pair over the small partition box."""
    return [propagate(f1, f2)
            for mu, pi, sigma, lam in glued_universe(2, max_entry)
            for f1, f2 in enumerate_glued_pairs(mu, pi, sigma, lam)]


def _raises_exactly(message: str):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def test_tetra_function_shape():
    t = tetra(2, lambda x, y, z: x + 2 * y + 4 * z)
    assert t.n == 2 and t[1, 1, 0] == 3 and t[0, 0, 2] == 8
    with _raises_exactly("layer z=0 has 1 rows, expected 2"):
        TetraFunction((((0, 0),), ((0,),)))
    with _raises_exactly("row y=0 of layer z=0 has 1 entries, expected 2"):
        TetraFunction((((0,), (0,)), ((0,),)))
    with _raises_exactly("row y=0 of layer z=1 has 2 entries, expected 1"):
        TetraFunction((((0, 0), (0,)), ((0, 1),)))


@pytest.mark.parametrize("layers, message", [
    ((), "a tetra function needs at least one layer"),  # no layers: size -1
    ((((0, 0.5), (0,)), ((0,),)),
     "row y=0 of layer z=0 holds 0.5, not an int"),
    ((((0, 0), (False,)), ((0,),)),
     "row y=1 of layer z=0 holds False, not an int"),
], ids=[f"layers{k}" for k in range(3)])
def test_tetra_function_rejects_non_integer_entries_and_empty_layers(
        layers, message):
    with _raises_exactly(message):
        TetraFunction(layers)


def test_octahedron_rule_direct():
    # values OX=2, YZ=1, OY=1, XZ=1, XY=1 give OZ = max(2+1, 1+1) - 1 = 2
    t = TetraFunction((((0, 2, 0), (1, 1), (0,)), ((2, 1), (1,)), ((0,),)))
    ox, oy, oz, xy, xz, yz = unit_octahedra(2)[0].vertices()
    assert t[ox] == 2 and t[oz] == 2
    assert t[oz] + t[xy] == max(t[ox] + t[yz], t[oy] + t[xz])
    assert check_polarized(t) == []
    bumped = TetraFunction((((0, 2, 0), (1, 1), (0,)), ((3, 1), (1,)), ((0,),)))
    assert [o.base for o in check_polarized(bumped)] == [(0, 0, 0)]


def test_propagate_worked_example():
    t = worked_tetra()
    assert t[0, 0, 1] == 2
    assert extract_face(t, FaceChart.section_z(2, 0)) == GROUND
    # the ceiling comes back shifted by c = ground(0, n) - ceiling(0, 0) = 1
    ceil = extract_face(t, FaceChart.ceiling(2))
    assert ceil.normalize() == CEILING and ceil[0, 0] == 1
    wall_x0 = extract_face(t, FaceChart.section_x(2, 0))
    wall_y0 = extract_face(t, FaceChart.section_y(2, 0))
    assert wall_x0.rows == ((0, 2, 2), (1, 2), (1,))
    assert wall_y0.rows == ((0, 2, 2), (2, 2), (2,))


def test_propagate_zero():
    assert propagate(Hive.zero(3), Hive.zero(3)) == tetra(
        3, lambda x, y, z: 0)


def test_propagate_rejects_mismatched_edge():
    with pytest.raises(ValueError):
        propagate(GROUND, Hive(((0, 2, 1), (1, 1), (1,))))
    with pytest.raises(ValueError):
        propagate(GROUND, Hive.zero(3))


def test_inverse_propagate_roundtrip_worked():
    t = worked_tetra()
    w1 = extract_face(t, FaceChart.section_x(2, 0))
    w2 = extract_face(t, FaceChart.section_y(2, 0))
    assert inverse_propagate(w1, w2) == t


def test_inverse_propagate_rejects_mismatch():
    t = worked_tetra()
    w1 = extract_face(t, FaceChart.section_x(2, 0))
    with pytest.raises(ValueError, match=r"wall sizes 2 and 3 differ"):
        inverse_propagate(w1, Hive.zero(3))
    with pytest.raises(ValueError, match=r"walls disagree on the shared "
                       r"edge at \(0, 0, 0\): 0 vs 1"):
        inverse_propagate(w1, Hive(((1, 2, 2), (2, 2), (2,))))


def test_check_pcpm_worked():
    assert check_pcpm(worked_tetra()).ok()
    assert check_pcpm(tetra(2, lambda *p: 0)).ok()


def test_pcpm_reports_non_dc_ground():
    # a polarized function built over a non-DC ground keeps the bad rhombus
    bad_ground = Hive(((0, 2, 2), (1, 4), (1,)))      # kind I at (0,0) broken
    ceiling = Hive(((0, 3, 1), (1, 1), (1,)))         # base glues to 1, 4, 2
    t = propagate(bad_ground, ceiling)
    report = check_pcpm(t)
    assert not report.ok()
    assert not report.polarized_violations
    names = {(chart.name, rh.kind, rh.anchor)
             for chart, rh in report.rhombus_violations}
    assert ("z=0", "I", (0, 0)) in names


def test_equivariance_constant_shift():
    t = worked_tetra()
    assert propagate(GROUND.shift(5), CEILING.shift(5)) == shifted(t, 5)
    # the ceiling is re-anchored along the shared edge, so only the ground's
    # constant matters
    assert propagate(GROUND.shift(5), CEILING.shift(-3)) == shifted(t, 5)


def section_rhombus_reference(t: TetraFunction) -> list:
    """The failed rhombi of every cutting-plane section, one rhombus at a
    time through the chart's point map."""
    bad = []
    for chart in cutting_sections(t.n):
        for rh in unit_rhombi_2d(chart.size):
            (c1, c2), (f1, f2) = rh.cut, rh.free
            if (t[chart.point(*c1)] + t[chart.point(*c2)]
                    < t[chart.point(*f1)] + t[chart.point(*f2)]):
                bad.append((chart, rh))
    return bad


def polarization_reference(t: TetraFunction) -> list:
    """The octahedra off the rule, each read through the six vertices of
    its base (x, y, z)."""
    bad = []
    for oct in unit_octahedra(t.n):
        x, y, z = oct.base
        main = t[x, y, z + 1] + t[x + 1, y + 1, z]          # OZ + XY
        if main != max(t[x + 1, y, z] + t[x, y + 1, z + 1],  # OX + YZ
                       t[x, y + 1, z] + t[x + 1, y, z + 1]):  # OY + XZ
            bad.append(oct)
    return bad


def random_pcpm_function(rng: random.Random, n: int) -> TetraFunction:
    """The propagation of a random DC ground of size n (boundary entries
    <= 2, 2, 4) under the separable ceiling that glues to it."""
    def partition():
        return tuple(sorted((rng.randint(0, 2) for _ in range(n)),
                            reverse=True))
    while True:
        mu, nu = partition(), partition()
        lam = pad(rng.choice(partitions_in_box(sum(mu) + sum(nu), n, 4)), n)
        grounds = enumerate_hives(mu, nu, lam)
        if grounds:
            ground = rng.choice(grounds)
            return propagate(ground, p_mu(boundary(ground).hyp))


def test_check_pcpm_rhombi_match_the_per_rhombus_reference():
    """check_pcpm reads each section as a hive and scans the octahedra on
    rows; it reports exactly the failed rhombi of the per-rhombus scan and
    the octahedra of the per-octahedron scan, in the same order, on every
    function the selfcheck propagation suite builds and on bumped
    functions of sizes 2..5 and 12."""
    pairs = [pair for mu, pi, sigma, lam in glued_universe(2, 2)
             for pair in enumerate_glued_pairs(mu, pi, sigma, lam)]
    pairs += random_glued_pairs(SELFCHECK_SEED, 200)
    assert len(pairs) == 479
    for f1, f2 in pairs:
        t = propagate(f1, f2)
        report = check_pcpm(t)
        assert list(report.rhombus_violations) == \
            section_rhombus_reference(t) == []
        assert list(report.polarized_violations) == \
            polarization_reference(t) == []

    rng = random.Random(20240818)
    bumped = [bump(random_pcpm_function(rng, 2 + k % 4),
                   rng.choice(tetra_points(2 + k % 4)),
                   rng.choice((-2, -1, 1, 2)))
              for k in range(320)]
    staircase = p_mu(tuple(range(12, 0, -1)))
    bumped.append(bump(propagate(staircase, staircase), (3, 4, 2), 1))
    nonempty = nonempty_octahedra = 0
    for t in bumped:
        report = check_pcpm(t)
        got = list(report.rhombus_violations)
        assert got == section_rhombus_reference(t)
        octahedra = list(report.polarized_violations)
        assert octahedra == polarization_reference(t)
        nonempty += bool(got)
        nonempty_octahedra += bool(octahedra)
    assert nonempty >= 100 and got
    assert nonempty_octahedra >= 100 and octahedra


def test_section_z_top_is_single_point():
    t = worked_tetra()
    top = extract_face(t, FaceChart.section_z(2, 2))
    assert top.rows == ((t[0, 0, 2],),)


def test_extract_face_size_mismatch():
    with pytest.raises(ValueError):
        extract_face(worked_tetra(), FaceChart.section_z(3, 0))


def test_propagation_is_pcpm_exhaustive_small():
    tetras = universe_tetras()
    assert len(tetras) > 200
    for t in tetras:
        assert check_pcpm(t).ok()


def test_roundtrip_and_uniqueness_over_universe():
    for t in universe_tetras()[:120]:
        n = t.n
        w1 = extract_face(t, FaceChart.section_x(n, 0))
        w2 = extract_face(t, FaceChart.section_y(n, 0))
        assert inverse_propagate(w1, w2) == t
        g = extract_face(t, FaceChart.section_z(n, 0))
        c = extract_face(t, FaceChart.ceiling(n))
        assert propagate(g, c.normalize()) == t
        for p in interior_points(n):
            for d in (1, -1):
                assert check_polarized(bump(t, p, d)), (p, d)


def test_bump_changes_one_point():
    t = worked_tetra()
    for p in tetra_points(2):
        b = bump(t, p, -3)
        assert all(b[q] == t[q] - 3 * (q == p) for q in tetra_points(2))
    assert t == worked_tetra()


def test_pcpm2_property():
    # in a PCPM function, a ground equality of any size-2 subtetrahedron
    # forces the matching wall equality
    for t in universe_tetras()[:200]:
        n = t.n
        for (bx, by, bz) in tetra_points(n - 2):
            corner_x = t[bx + 2, by, bz]
            ox = t[bx + 1, by, bz]
            oy = t[bx, by + 1, bz]
            xy = t[bx + 1, by + 1, bz]
            oz = t[bx, by, bz + 1]
            xz = t[bx + 1, by, bz + 1]
            if xy + ox == corner_x + oy:
                assert xz + ox == corner_x + oz


def test_integrality_is_structural():
    t = worked_tetra()
    assert all(isinstance(t[p], int) for p in tetra_points(t.n))


def assert_checked_build(x) -> None:
    """x, which the package built unchecked, equals and hashes like the
    checked build of its rows, and holds them as exact tuples."""
    if isinstance(x, Hive):
        checked, layers = Hive(x.rows), (x.rows,)
    else:
        checked, layers = TetraFunction(x.layers), x.layers
        assert type(layers) is tuple
    assert checked == x and hash(checked) == hash(x)
    assert all(type(layer) is tuple and all(type(row) is tuple
                                            for row in layer)
               for layer in layers)


def test_trusted_builds_equal_checked_builds(monkeypatch):
    """Every hive and function the package builds unchecked equals its
    checked build: seeded propagations at n = 2..6 with their bumps,
    walls, faces, wall reconstructions, shifts and commutor images, the
    zero-filled function of the commutor diagnostics, and the members of
    DC((6,5,4,3,2,1), (6,5,4,3,2,1); (9,8,7,6,5,4,2,1))."""
    diagnosed = []
    real_check_pcpm = bijections.check_pcpm
    monkeypatch.setattr(bijections, "check_pcpm",
                        lambda t: diagnosed.append(t) or real_check_pcpm(t))
    rng = random.Random(20241019)
    built = []
    for k in range(40):
        n = 2 + k % 5
        t = random_pcpm_function(rng, n)
        w1 = extract_face(t, FaceChart.section_x(n, 0))
        w2 = extract_face(t, FaceChart.section_y(n, 0))
        ceiling = extract_face(t, FaceChart.ceiling(n))
        built += [t, bump(t, rng.choice(tetra_points(n)), rng.choice((-1, 2))),
                  w1, w2, inverse_propagate(w1, w2), ceiling,
                  ceiling.normalize(), ceiling.shift(-3)]
        built += [extract_face(t, chart) for chart in cutting_sections(n)]
        ground = extract_face(t, FaceChart.section_z(n, 0))
        built.append(commutor(ground))
        assert half_octahedron_diagnostics(ground).ok()
    members = enumerate_hives((6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1),
                              (9, 8, 7, 6, 5, 4, 2, 1))
    assert len(members) == 1624 and len(diagnosed) == 40
    for x in built + diagnosed + list(members):
        assert_checked_build(x)


def test_shift_and_bump_check_a_non_integer_offset():
    with _raises_exactly("row 0 holds 0.5, not an int"):
        GROUND.shift(0.5)
    with _raises_exactly("row y=0 of layer z=0 holds 0.5, not an int"):
        bump(worked_tetra(), (0, 0, 0), 0.5)


def test_sections_read_from_the_layers_are_the_extracted_faces(monkeypatch):
    """The z- and y-sections are read straight from the layers, equal to
    their extracted faces, and check_pcpm gathers only the x- and
    sum-sections, n = 2..7."""
    gathered = []
    real_extract_face = octahedron.extract_face
    monkeypatch.setattr(octahedron, "extract_face", lambda t, chart: (
        gathered.append(chart) or real_extract_face(t, chart)))
    for n in range(2, 8):
        t = tetra(n, lambda x, y, z: x + 10 * y + 100 * z)
        for chart in cutting_sections(n):
            face = real_extract_face(t, chart)
            assert tuple(_section_rows(t, chart)) == face.rows, chart.name
        gathered.clear()
        check_pcpm(t)
        assert gathered == [chart for chart in cutting_sections(n)
                            if chart.name.startswith(("x=", "x+y+z="))]
