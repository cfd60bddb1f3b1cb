import pytest
from hypothesis import given, strategies as st

from hives.grids import (FaceChart, cutting_sections, rhombus, tetra_points,
                         tri_points, unit_octahedra, unit_rhombi_2d)


def chart_points(chart: FaceChart) -> list:
    """The image of the chart's 2D grid, in tri_points order."""
    return [chart.point(i, j) for (i, j) in tri_points(chart.size)]


@pytest.mark.parametrize("n,count", [(0, 1), (2, 6), (4, 15)])
def test_tri_point_counts(n, count):
    pts = tri_points(n)
    assert len(pts) == count == (n + 1) * (n + 2) // 2
    assert pts == sorted(pts, key=lambda p: (p[1], p[0]))
    assert all(i >= 0 and j >= 0 and i + j <= n for (i, j) in pts)


@pytest.mark.parametrize("n,count", [(1, 4), (2, 10), (3, 20)])
def test_tetra_point_counts(n, count):
    pts = tetra_points(n)
    assert len(pts) == count == (n + 1) * (n + 2) * (n + 3) // 6
    assert pts == sorted(pts, key=lambda p: (p[2], p[1], p[0]))


def test_rhombus_counts():
    assert unit_rhombi_2d(1) == ()
    small = unit_rhombi_2d(2)
    assert len(small) == 3
    assert [rh.kind for rh in small] == ["I", "II", "III"]
    assert all(rh.anchor == (0, 0) for rh in small)
    assert len(unit_rhombi_2d(3)) == 9


@pytest.mark.parametrize("n", range(6))
def test_rhombus_vertices_in_grid(n):
    pts = set(tri_points(n))
    for rh in unit_rhombi_2d(n):
        assert all(v in pts for v in rh.vertices())
        assert len(set(rh.vertices())) == 4


def test_rhombus_brute_force_count():
    # every 4-point rhombus of each kind whose vertices fit must be listed
    for n in range(6):
        pts = set(tri_points(n))
        expected = set()
        for i in range(n + 1):
            for j in range(n + 1):
                for kind in ("I", "II", "III"):
                    rh = rhombus(kind, i, j)
                    if all(v in pts for v in rh.vertices()):
                        expected.add((kind, (i, j)))
        got = {(rh.kind, rh.anchor) for rh in unit_rhombi_2d(n)}
        assert got == expected


def test_octahedron_counts_and_structure():
    assert unit_octahedra(1) == []
    octs = unit_octahedra(2)
    assert len(octs) == 1 and octs[0].base == (0, 0, 0)
    assert len(unit_octahedra(3)) == 4
    for oct in unit_octahedra(4):
        verts = oct.vertices()
        assert len(set(verts)) == 6
        # the main diagonal, OZ to XY, is parallel to (1, 1, -1)
        _, _, oz, xy, _, _ = verts
        assert tuple(b - a for a, b in zip(oz, xy)) == (1, 1, -1)
        assert all(sum(v) <= 4 and min(v) >= 0 for v in verts)


def test_section_rhombi_counts():
    assert cutting_sections(1, min_size=2) == []
    charts = cutting_sections(2, min_size=2)
    assert sum(len(unit_rhombi_2d(c.size)) for c in charts) == 12
    assert sorted(c.name for c in charts) == ["x+y+z=2", "x=0", "y=0", "z=0"]
    by_chart = {c.name: len(unit_rhombi_2d(c.size))
                for c in cutting_sections(3, min_size=2)}
    assert len(by_chart) == 8  # two sections of size >= 2 per family
    assert set(by_chart.values()) == {3, 9}


@pytest.mark.parametrize("n", range(1, 5))
def test_chart_consistency(n):
    grid = set(tetra_points(n))
    charts = [FaceChart.ground(n), FaceChart.ceiling(n),
              FaceChart.wall_x0(n), FaceChart.wall_y0(n)]
    charts += cutting_sections(n)
    for chart in charts:
        image = chart_points(chart)
        assert all(p in grid for p in image), chart.name
        assert len(set(image)) == len(image), chart.name


@pytest.mark.parametrize("n", range(1, 5))
def test_shared_edges(n):
    ground = FaceChart.ground(n)
    ceiling = FaceChart.ceiling(n)
    wx = FaceChart.wall_x0(n)
    wy = FaceChart.wall_y0(n)
    for i in range(n + 1):
        # ground hypotenuse = ceiling base
        assert ground.point(i, n - i) == ceiling.point(i, 0)
        # the two walls share the O-Z edge
        assert wx.point(i, 0) == wy.point(0, i) == (0, 0, i)
        # wall x=0 left edge lies on the ground's left edge
        assert wx.point(0, i) == ground.point(0, i)
        # wall y=0 base lies on the ground's base
        assert wy.point(i, 0) == ground.point(i, 0)


def test_chart_corners():
    n = 3
    assert FaceChart.ceiling(n).point(0, 0) == (0, n, 0)      # Y
    assert FaceChart.ceiling(n).point(n, 0) == (n, 0, 0)      # X
    assert FaceChart.ceiling(n).point(0, n) == (0, 0, n)      # Z
    assert FaceChart.wall_x0(n).point(n, 0) == (0, 0, n)      # Z
    assert FaceChart.wall_x0(n).point(0, n) == (0, n, 0)      # Y
    assert FaceChart.wall_y0(n).point(0, n) == (0, 0, n)      # Z
    assert chart_points(FaceChart.section_z(4, 4)) == [(0, 0, 4)]


def test_section_bounds_checked():
    with pytest.raises(ValueError):
        FaceChart.section_z(3, 4)
    with pytest.raises(ValueError):
        FaceChart.section_x(3, -1)


@given(st.integers(min_value=0, max_value=7))
def test_sections_partition_the_grid(n):
    # the z-sections cover every point exactly once; likewise the sums
    grid = tetra_points(n)
    by_z = [p for k in range(n + 1)
            for p in chart_points(FaceChart.section_z(n, k))]
    assert sorted(by_z) == sorted(grid)
    by_sum = [p for l in range(n + 1)
              for p in chart_points(FaceChart.section_sum(n, l))]
    assert sorted(by_sum) == sorted(grid)
