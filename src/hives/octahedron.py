"""Propagation of integer functions through the tetrahedral grid.

In every unit octahedron the propagation rule ties the main-diagonal sum to
the other two diagonal sums:

    T(OZ) + T(XY) = max(T(OX) + T(YZ), T(OY) + T(XZ)).

A function satisfying this at every unit octahedron is *polarized*.  Given
values on the ground face (z = 0) and the ceiling face (x + y + z = n) there
is exactly one polarized completion, obtained by solving for OZ level by
level; given the two walls x = 0 and y = 0 the same rule solved for XY
reconstructs the function, which is the inverse map.

A polarized function whose restriction to every cutting-plane section is
discretely concave is called PCPM here; propagation from DC ground and
ceiling always lands in this class, which is the engine behind both
bijections in :mod:`hives.bijections`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Container

from .grids import (FaceChart, TetraPoint, UnitOctahedron, UnitRhombus2D,
                    section_rhombi_3d, tri_points, unit_octahedra)
from .hive import Hive

Values3D = dict[TetraPoint, int]


@dataclass(frozen=True)
class TetraFunction:
    """A total integer function on the 3D grid; layers[z][y][x] = T(x, y, z)."""

    layers: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        layers = tuple(tuple(map(tuple, layer)) for layer in self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise ValueError("a tetra function needs at least one layer")
        n = len(layers) - 1
        for z, layer in enumerate(layers):
            if len(layer) != n - z + 1:
                raise ValueError(f"layer z={z} has {len(layer)} rows, "
                                 f"expected {n - z + 1}")
            for y, row in enumerate(layer):
                if len(row) != n - z - y + 1:
                    raise ValueError(f"row y={y} of layer z={z} has "
                                     f"{len(row)} entries, expected {n - z - y + 1}")
                for v in row:
                    if type(v) is not int:
                        raise ValueError(f"row y={y} of layer z={z} holds "
                                         f"{v!r}, not an int")

    @property
    def n(self) -> int:
        return len(self.layers) - 1

    def __getitem__(self, point: TetraPoint) -> int:
        x, y, z = point
        return self.layers[z][y][x]

    @classmethod
    def build(cls, n: int, fn) -> "TetraFunction":
        return cls(tuple(tuple(tuple(fn(x, y, z)
                                     for x in range(n - z - y + 1))
                               for y in range(n - z + 1))
                         for z in range(n + 1)))

    @classmethod
    def from_values(cls, n: int, values: Values3D) -> "TetraFunction":
        return cls.build(n, lambda x, y, z: values[(x, y, z)])

    def shift(self, c: int) -> "TetraFunction":
        return TetraFunction.build(self.n, lambda x, y, z: self[x, y, z] + c)


def extract_face(t: TetraFunction, chart: FaceChart) -> Hive:
    """The restriction of t along a face chart, as a hive of the chart's
    size.  Not normalized; callers normalize when they need to."""
    if chart.n != t.n:
        raise ValueError(f"chart for grid size {chart.n} applied to a "
                         f"function of size {t.n}")
    return Hive.build(chart.size, lambda i, j: t[chart.point(i, j)])


def _install_ground_ceiling(ground: Hive, ceiling: Hive) -> tuple[Values3D, int]:
    n = ground.n
    if ceiling.n != n:
        raise ValueError(f"ground size {n} and ceiling size {ceiling.n} differ")
    c = ground[0, n] - ceiling[0, 0]
    for i in range(n + 1):
        if ground[i, n - i] != ceiling[i, 0] + c:
            raise ValueError(
                "ground hypotenuse and ceiling base disagree: "
                f"ground({i},{n - i}) = {ground[i, n - i]} but "
                f"ceiling({i},0) + {c} = {ceiling[i, 0] + c}")
    values: Values3D = {}
    for (i, j) in ((i, j) for j in range(n + 1) for i in range(n - j + 1)):
        values[(i, j, 0)] = ground[i, j]
        values[(i, n - i - j, j)] = ceiling[i, j] + c
    return values, c


def propagate(ground: Hive, ceiling: Hive) -> TetraFunction:
    """The unique polarized function with the given ground and ceiling.

    The ceiling is installed shifted by c = ground(0, n) - ceiling(0, 0), so
    only the increments along the shared edge have to agree.  Interior
    points are solved level by level (z ascending, x + y + z descending
    within a level), at which moment all five other octahedron vertices are
    known.
    """
    n = ground.n
    values, _ = _install_ground_ceiling(ground, ceiling)
    for z in range(1, n + 1):
        for s in range(n - 1, z - 1, -1):
            for x in range(s - z + 1):
                y = s - z - x
                values[(x, y, z)] = max(
                    values[(x + 1, y, z - 1)] + values[(x, y + 1, z)],
                    values[(x, y + 1, z - 1)] + values[(x + 1, y, z)],
                ) - values[(x + 1, y + 1, z - 1)]
    return TetraFunction.from_values(n, values)


def inverse_propagate(wall_x0: Hive, wall_y0: Hive) -> TetraFunction:
    """Reconstruction of a polarized function from its two walls.

    wall_x0 holds T(0, j, i) at (i, j) and wall_y0 holds T(i, 0, j); they
    must agree on the shared edge x = y = 0.  Points with x, y >= 1 are
    solved with x + y ascending by the propagation rule read backwards.
    """
    n = wall_x0.n
    if wall_y0.n != n:
        raise ValueError(f"wall sizes {n} and {wall_y0.n} differ")
    for k in range(n + 1):
        if wall_x0[k, 0] != wall_y0[0, k]:
            raise ValueError(
                f"walls disagree on the shared edge at (0, 0, {k}): "
                f"{wall_x0[k, 0]} vs {wall_y0[0, k]}")
    values: Values3D = {}
    for (i, j) in ((i, j) for j in range(n + 1) for i in range(n - j + 1)):
        values[(0, j, i)] = wall_x0[i, j]
        values[(i, 0, j)] = wall_y0[i, j]
    for s in range(2, n + 1):
        for x in range(1, s):
            y = s - x
            if y < 1:
                continue
            for z in range(n - s + 1):
                values[(x, y, z)] = max(
                    values[(x, y - 1, z)] + values[(x - 1, y, z + 1)],
                    values[(x - 1, y, z)] + values[(x, y - 1, z + 1)],
                ) - values[(x - 1, y - 1, z + 1)]
    return TetraFunction.from_values(n, values)


def polarization_slack(t: TetraFunction | Values3D,
                       oct: UnitOctahedron) -> int:
    """Main-diagonal sum minus the max of the other two; zero iff polarized
    at this octahedron.  t may be any point -> value mapping."""
    main = t[oct.oz] + t[oct.xy]
    return main - max(t[oct.ox] + t[oct.yz], t[oct.oy] + t[oct.xz])


def check_polarized(t: TetraFunction) -> list[UnitOctahedron]:
    """All unit octahedra where the propagation rule fails."""
    return [oct for oct in unit_octahedra(t.n) if polarization_slack(t, oct) != 0]


@dataclass(frozen=True)
class PcpmReport:
    """Evidence for membership in the polarized discretely concave class."""

    polarized_violations: tuple[UnitOctahedron, ...]
    rhombus_violations: tuple[tuple[FaceChart, UnitRhombus2D], ...]

    def ok(self) -> bool:
        return not self.polarized_violations and not self.rhombus_violations


def section_rhombus_violations(
        n: int, value: Callable[[TetraPoint], int],
        domain: Container[TetraPoint] | None = None,
) -> list[tuple[FaceChart, UnitRhombus2D]]:
    """The failed rhombus inequalities of all cutting-plane sections of the
    size-n tetrahedron, in :func:`section_rhombi_3d` order.  Each section
    point is looked up once with ``value``; given a ``domain``, points
    outside it are not, and rhombi touching them are skipped."""
    bad = []
    current = None
    for chart, rh in section_rhombi_3d(n):
        if chart is not current:  # the pairs come grouped by chart
            current = chart
            points = ((ij, chart.point(*ij)) for ij in tri_points(chart.size))
            s = {ij: value(p) for ij, p in points
                 if domain is None or p in domain}
        (c1, c2), (f1, f2) = rh.cut, rh.free
        if domain is None or (c1 in s and c2 in s and f1 in s and f2 in s):
            if s[c1] + s[c2] < s[f1] + s[f2]:
                bad.append((chart, rh))
    return bad


def check_pcpm(t: TetraFunction) -> PcpmReport:
    """Check polarization plus every rhombus inequality in every cutting
    plane (all four section families)."""
    return PcpmReport(tuple(check_polarized(t)),
                      tuple(section_rhombus_violations(t.n, t.__getitem__)))
