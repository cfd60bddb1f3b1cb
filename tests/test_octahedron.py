import pytest

from hives.checks import bump, glued_universe, interior_points
from hives.enumeration import enumerate_glued_pairs
from hives.grids import FaceChart, tetra_points, unit_octahedra
from hives.hive import Hive, validate_dc
from hives.octahedron import (TetraFunction, check_pcpm, check_polarized,
                              extract_face, inverse_propagate,
                              polarization_slack, propagate)

GROUND = Hive(((0, 2, 2), (1, 2), (1,)))
CEILING = Hive(((0, 1, 1), (1, 1), (1,)))


def worked_tetra() -> TetraFunction:
    return propagate(GROUND, CEILING)


def universe_tetras(max_entry=2):
    """Propagations of every glued DC pair over the small partition box."""
    return [propagate(f1, f2)
            for mu, pi, sigma, lam in glued_universe(2, max_entry)
            for f1, f2 in enumerate_glued_pairs(mu, lam, pi, sigma)]


def test_tetra_function_shape():
    t = TetraFunction.build(2, lambda x, y, z: x + 2 * y + 4 * z)
    assert t.n == 2 and t[1, 1, 0] == 3 and t[0, 0, 2] == 8
    with pytest.raises(ValueError):
        TetraFunction((((0, 0),), ((0,),)))  # rows of layer z=0 are too short


@pytest.mark.parametrize("layers", [
    (),                                      # no layers: size -1
    (((0, 0.5), (0,)), ((0,),)),             # a float entry
    (((0, 0), (False,)), ((0,),)),           # a bool entry
])
def test_tetra_function_rejects_non_integer_entries_and_empty_layers(layers):
    with pytest.raises(ValueError):
        TetraFunction(layers)


def test_octahedron_rule_direct():
    # values OX=2, YZ=1, OY=1, XZ=1, XY=1 give OZ = max(2+1, 1+1) - 1 = 2
    t = TetraFunction((((0, 2, 0), (1, 1), (0,)), ((2, 1), (1,)), ((0,),)))
    oct = unit_octahedra(2)[0]
    assert t[oct.ox] == 2 and t[oct.oz] == 2
    assert polarization_slack(t, oct) == 0
    assert check_polarized(t) == []
    bumped = TetraFunction((((0, 2, 0), (1, 1), (0,)), ((3, 1), (1,)), ((0,),)))
    assert [o.base for o in check_polarized(bumped)] == [(0, 0, 0)]


def test_propagate_worked_example():
    t = worked_tetra()
    assert t[0, 0, 1] == 2
    assert extract_face(t, FaceChart.ground(2)) == GROUND
    # the ceiling comes back shifted by c = ground(0, n) - ceiling(0, 0) = 1
    ceil = extract_face(t, FaceChart.ceiling(2))
    assert ceil.normalize() == CEILING and ceil[0, 0] == 1
    assert extract_face(t, FaceChart.wall_x0(2)).rows == ((0, 2, 2), (1, 2), (1,))
    assert extract_face(t, FaceChart.wall_y0(2)).rows == ((0, 2, 2), (2, 2), (2,))


def test_propagate_zero():
    assert propagate(Hive.zero(3), Hive.zero(3)) == TetraFunction.build(
        3, lambda x, y, z: 0)


def test_propagate_rejects_mismatched_edge():
    with pytest.raises(ValueError):
        propagate(GROUND, Hive(((0, 2, 1), (1, 1), (1,))))
    with pytest.raises(ValueError):
        propagate(GROUND, Hive.zero(3))


def test_inverse_propagate_roundtrip_worked():
    t = worked_tetra()
    w1 = extract_face(t, FaceChart.wall_x0(2))
    w2 = extract_face(t, FaceChart.wall_y0(2))
    assert inverse_propagate(w1, w2) == t


def test_inverse_propagate_rejects_mismatch():
    t = worked_tetra()
    w1 = extract_face(t, FaceChart.wall_x0(2))
    with pytest.raises(ValueError):
        inverse_propagate(w1, Hive(((1, 2, 2), (2, 2), (2,))))


def test_check_pcpm_worked():
    assert check_pcpm(worked_tetra()).ok()
    assert check_pcpm(TetraFunction.build(2, lambda *p: 0)).ok()


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
    assert propagate(GROUND.shift(5), CEILING.shift(5)) == t.shift(5)
    # the ceiling is re-anchored along the shared edge, so only the ground's
    # constant matters
    assert propagate(GROUND.shift(5), CEILING.shift(-3)) == t.shift(5)


def test_section_z_top_is_single_point():
    t = worked_tetra()
    top = extract_face(t, FaceChart.section_z(2, 2))
    assert top.rows == ((t[0, 0, 2],),)


def test_extract_face_size_mismatch():
    with pytest.raises(ValueError):
        extract_face(worked_tetra(), FaceChart.ground(3))


def test_propagation_is_pcpm_exhaustive_small():
    tetras = universe_tetras()
    assert len(tetras) > 200
    for t in tetras:
        assert check_pcpm(t).ok()
        n = t.n
        for k in range(n + 1):
            assert not validate_dc(extract_face(t, FaceChart.section_z(n, k)))
            assert not validate_dc(extract_face(t, FaceChart.section_sum(n, k)))


def test_roundtrip_and_uniqueness_over_universe():
    for t in universe_tetras()[:120]:
        n = t.n
        w1 = extract_face(t, FaceChart.wall_x0(n))
        w2 = extract_face(t, FaceChart.wall_y0(n))
        assert inverse_propagate(w1, w2) == t
        g = extract_face(t, FaceChart.ground(n))
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
