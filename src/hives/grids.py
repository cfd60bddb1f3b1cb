"""Triangular and tetrahedral lattice geometry.

The 2D grid of size n is the set of integer points (i, j) with i, j >= 0 and
i + j <= n; its corners are O = (0, 0), X = (n, 0), Y = (0, n).  The 3D grid
of size n is the simplex of integer points (x, y, z) with x, y, z >= 0 and
x + y + z <= n; corners O, X, Y, Z.

The cutting lines x = const, y = const, x + y = const triangulate the 2D
grid; every unit rhombus of that triangulation has one diagonal on a cutting
line (the "cut" diagonal) and one off it (the "free" diagonal).  The 3D grid
is cut by the four plane families x, y, z, x + y + z = const into unit
simplices and unit octahedra.  Face charts identify 2D grids with triangular
slices of the 3D grid: the restriction of a 3D function along a chart is a
hive, so faces and cutting-plane sections are checked for concavity by the
2D rhombus scan of :func:`hives.hive.validate_dc`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

TriPoint = tuple[int, int]
TetraPoint = tuple[int, int, int]

RHOMBUS_KINDS = ("I", "II", "III")


@dataclass(frozen=True)
class UnitRhombus2D:
    """A unit rhombus of the triangulated 2D grid.

    ``cut`` is the diagonal lying on a cutting line, ``free`` the other one;
    discrete concavity demands sum over cut >= sum over free.  The anchor
    (i, j) follows the usual indexing of the three inequality families:

        kind I   at (i, j): f(i+1,j) + f(i,j+1)   >= f(i,j)   + f(i+1,j+1)
        kind II  at (i, j): f(i+1,j) + f(i+1,j+1) >= f(i,j+1) + f(i+2,j)
        kind III at (i, j): f(i,j+1) + f(i+1,j+1) >= f(i,j+2) + f(i+1,j)

    ``str`` gives "kind K at (i, j)", the text every report of a failed
    rhombus uses.
    """

    kind: str
    anchor: TriPoint
    cut: tuple[TriPoint, TriPoint]
    free: tuple[TriPoint, TriPoint]

    def vertices(self) -> tuple[TriPoint, TriPoint, TriPoint, TriPoint]:
        return self.cut + self.free

    def __str__(self) -> str:
        return f"kind {self.kind} at {self.anchor}"


def rhombus(kind: str, i: int, j: int) -> UnitRhombus2D:
    """The unit rhombus of the given kind anchored at (i, j)."""
    if kind == "I":
        return UnitRhombus2D("I", (i, j), ((i + 1, j), (i, j + 1)),
                             ((i, j), (i + 1, j + 1)))
    if kind == "II":
        return UnitRhombus2D("II", (i, j), ((i + 1, j), (i + 1, j + 1)),
                             ((i, j + 1), (i + 2, j)))
    if kind == "III":
        return UnitRhombus2D("III", (i, j), ((i, j + 1), (i + 1, j + 1)),
                             ((i, j + 2), (i + 1, j)))
    raise ValueError(f"unknown rhombus kind {kind!r}")


@dataclass(frozen=True)
class UnitOctahedron:
    """The unit octahedron whose lowest corner-adjacent vertex is ``base``.

    For base t the six vertices are t + e where e runs over the six 0/1
    vectors with exactly one or exactly two ones; each is named by the
    tetrahedron edge it is parallel to.  Antipodal pairs are (OX, YZ),
    (OY, XZ), (OZ, XY); the (OZ, XY) diagonal, parallel to (1, 1, -1), is
    the main diagonal.
    """

    base: TetraPoint

    def vertices(self) -> tuple[TetraPoint, ...]:
        """The six vertices in the order OX, OY, OZ, XY, XZ, YZ."""
        x, y, z = self.base
        return ((x + 1, y, z), (x, y + 1, z), (x, y, z + 1),
                (x + 1, y + 1, z), (x + 1, y, z + 1), (x, y + 1, z + 1))


@dataclass(frozen=True)
class FaceChart:
    """Affine embedding (i, j) -> origin + i*e1 + j*e2 of a 2D grid of the
    given size into the 3D grid of size n."""

    name: str
    n: int
    size: int
    origin: TetraPoint
    e1: TetraPoint
    e2: TetraPoint

    def point(self, i: int, j: int) -> TetraPoint:
        ox, oy, oz = self.origin
        ax, ay, az = self.e1
        bx, by, bz = self.e2
        return (ox + i * ax + j * bx, oy + i * ay + j * by, oz + i * az + j * bz)

    @classmethod
    def ceiling(cls, n: int) -> "FaceChart":
        return cls("ceiling", n, n, (0, n, 0), (1, -1, 0), (0, -1, 1))

    @classmethod
    def section_x(cls, n: int, a: int) -> "FaceChart":
        if not 0 <= a <= n:
            raise ValueError(f"section x={a} misses the grid of size {n}")
        return cls(f"x={a}", n, n - a, (a, 0, 0), (0, 0, 1), (0, 1, 0))

    @classmethod
    def section_y(cls, n: int, b: int) -> "FaceChart":
        if not 0 <= b <= n:
            raise ValueError(f"section y={b} misses the grid of size {n}")
        return cls(f"y={b}", n, n - b, (0, b, 0), (1, 0, 0), (0, 0, 1))

    @classmethod
    def section_z(cls, n: int, k: int) -> "FaceChart":
        if not 0 <= k <= n:
            raise ValueError(f"section z={k} misses the grid of size {n}")
        return cls(f"z={k}", n, n - k, (0, 0, k), (1, 0, 0), (0, 1, 0))

    @classmethod
    def section_sum(cls, n: int, l: int) -> "FaceChart":
        if not 0 <= l <= n:
            raise ValueError(f"section x+y+z={l} misses the grid of size {n}")
        return cls(f"x+y+z={l}", n, l, (0, 0, l), (1, 0, -1), (0, 1, -1))


def tri_points(n: int) -> list[TriPoint]:
    """All 2D grid points of size n, ordered lexicographically by (j, i)."""
    return [(i, j) for j in range(n + 1) for i in range(n - j + 1)]


def tetra_points(n: int) -> list[TetraPoint]:
    """All 3D grid points of size n, ordered lexicographically by (z, y, x)."""
    return [(x, y, z)
            for z in range(n + 1)
            for y in range(n - z + 1)
            for x in range(n - z - y + 1)]


@lru_cache(maxsize=None)
def unit_rhombi_2d(n: int) -> tuple[UnitRhombus2D, ...]:
    """Every unit rhombus with all four vertices in the grid of size n.

    Each kind admits exactly the anchors (i, j) with i + j <= n - 2, so the
    list is ordered anchor-major with kinds I, II, III at each anchor.
    """
    return tuple(rhombus(kind, i, j)
                 for (i, j) in tri_points(n - 2)
                 for kind in RHOMBUS_KINDS)


def unit_octahedra(n: int) -> list[UnitOctahedron]:
    """Every unit octahedron contained in the 3D grid of size n (bases t
    with t >= 0 and x + y + z <= n - 2)."""
    return [UnitOctahedron(t) for t in tetra_points(n - 2)]


def cutting_sections(n: int) -> list[FaceChart]:
    """Charts for the cutting-plane sections of the size-n tetrahedron that
    hold a unit rhombus (triangle size >= 2), in family order x, y, z,
    x+y+z."""
    return ([FaceChart.section_x(n, a) for a in range(n - 1)]
            + [FaceChart.section_y(n, b) for b in range(n - 1)]
            + [FaceChart.section_z(n, k) for k in range(n - 1)]
            + [FaceChart.section_sum(n, l) for l in range(2, n + 1)])
