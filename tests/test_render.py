import re

from hives.grids import rhombus
from hives.hive import Hive
from hives.render import _pos, render_hive_svg


def test_zero_hive_has_six_nodes():
    svg = render_hive_svg(Hive.zero(2))
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == 6
    assert svg.count("<text") == 6
    assert "<polygon" not in svg


def test_worked_hive_labels():
    svg = render_hive_svg(Hive(((0, 2, 2), (1, 2), (1,))))
    for label in ("0", "1", "2"):
        assert f">{label}</text>" in svg
    assert svg.count(">2</text>") == 3
    assert svg.count(">1</text>") == 2


def test_violation_highlight():
    svg = render_hive_svg(Hive(((0, 2, 2), (1, 4), (1,))))
    assert svg.count('<polygon class="bad"') == 1
    assert "kind I at (0, 0)" in svg


def test_violation_polygons_are_the_rhombi():
    """Each highlight has the four vertices of its rhombus, in cyclic order:
    consecutive corners are joined by unit edges, never by a diagonal."""
    h = Hive(((0, 0, 1), (0, 0), (1,)))  # kinds II and III at (0, 0)
    svg = render_hive_svg(h)
    polygons = re.findall(r'points="([^"]*)"><title>kind (\w+) at '
                          r'\((\d+), (\d+)\)</title>', svg)
    assert [kind for _, kind, _, _ in polygons] == ["II", "III"]
    for points, kind, i, j in polygons:
        rh = rhombus(kind, int(i), int(j))
        where = {_pos(*v, h.n): v for v in rh.vertices()}
        corners = [where[tuple(map(int, p.split(",")))] for p in points.split()]
        assert sorted(corners) == sorted(rh.vertices())
        for (a, b), (c, d) in zip(corners, corners[1:] + corners[:1]):
            assert {(c - a, d - b), (a - c, b - d)} & {(1, 0), (0, 1), (1, -1)}


def test_byte_determinism():
    h = Hive(((0, 2, 2), (1, 4), (1,)))
    assert render_hive_svg(h) == render_hive_svg(h)
    assert render_hive_svg(h).encode() == render_hive_svg(h).encode()
