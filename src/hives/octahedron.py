"""Propagation of integer functions through the tetrahedral grid.

In every unit octahedron the propagation rule ties the main-diagonal sum to
the other two diagonal sums:

    T(OZ) + T(XY) = max(T(OX) + T(YZ), T(OY) + T(XZ)).

A function satisfying this at every unit octahedron is *polarized*.  Given
values on the ground face (z = 0) and the ceiling face (x + y + z = n) there
is exactly one polarized completion, obtained by solving for OZ; given the
two walls x = 0 and y = 0 the same rule solved for XY reconstructs the
function, which is the inverse map.

Both solves run in place on row lists ``layers[z][y][x]``, a fixed local
schedule (Speyer, "Perfect matchings and the octahedron recurrence").  Each
new value row[x] is read from rows that are already complete, or from the
part of its own row already filled:

- forward (:func:`propagate`): z ascending, y descending, x descending;
  T(x, y, z) is the OZ vertex of the octahedron based at (x, y, z - 1);
- inverse (:func:`inverse_propagate`): y ascending, z descending, x
  ascending; T(x, y, z) is the XY vertex of the octahedron based at
  (x - 1, y - 1, z);
- half-octahedron (:func:`hives.bijections.half_octahedron_function`): the
  forward order on the top half of the octahedron inscribed in the size-2n
  tetrahedron, with the degenerate rule on the square base y + z = n.

A polarized function whose restriction to every cutting-plane section is
discretely concave is called PCPM here; propagation from DC ground and
ceiling always lands in this class, which is the engine behind both
bijections in :mod:`hives.bijections`.  Each section is a hive of its face
chart, so :func:`check_pcpm` checks it as one: :func:`extract_face`, then
:func:`hives.hive.validate_dc`.  :func:`check_polarized` scans the rows for
the rule.  A failure names its witness, an octahedron base or a section
chart with its rhombus, in the words of :meth:`PcpmReport.witnesses`.
The commutor diagnostics run :func:`check_pcpm` on the half-octahedron
rows zero-filled to the size-2n tetrahedron and keep the witnesses inside
the half-octahedron.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .grids import (FaceChart, TetraPoint, UnitOctahedron, UnitRhombus2D,
                    cutting_sections)
from .hive import Hive, validate_dc

Rows = list[list[int]]


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
        entries = chain.from_iterable(chain.from_iterable(layers))
        if set(map(type, entries)) != {int}:
            for z, layer in enumerate(layers):
                for y, row in enumerate(layer):
                    for v in row:
                        if type(v) is not int:
                            raise ValueError(f"row y={y} of layer z={z} "
                                             f"holds {v!r}, not an int")

    @property
    def n(self) -> int:
        return len(self.layers) - 1

    def __getitem__(self, point: TetraPoint) -> int:
        x, y, z = point
        return self.layers[z][y][x]


def extract_face(t: TetraFunction, chart: FaceChart) -> Hive:
    """The restriction of t along a face chart, as a hive of the chart's
    size.  Not normalized; callers normalize when they need to."""
    if chart.n != t.n:
        raise ValueError(f"chart for grid size {chart.n} applied to a "
                         f"function of size {t.n}")
    layers, size = t.layers, chart.size
    ox, oy, oz = chart.origin
    ax, ay, az = chart.e1
    bx, by, bz = chart.e2
    rows = []
    for j in range(size + 1):  # row j starts at origin + j * e2
        x, y, z = ox + j * bx, oy + j * by, oz + j * bz
        rows.append([layers[z + i * az][y + i * ay][x + i * ax]
                     for i in range(size - j + 1)])
    return Hive(rows)


def _solve_row_forward(row: list[int], below: Sequence[int],
                       below_next: Sequence[int],
                       beside: Sequence[int]) -> None:
    """Fill row[x] for x descending from len(row) - 2, row[-1] being given,
    as the OZ vertex of the octahedron based one level down:

        row[x] = max(below[x + 1] + beside[x],
                     below_next[x] + row[x + 1]) - below_next[x + 1],

    where row is T(., y, z), below is T(., y, z - 1), below_next is
    T(., y + 1, z - 1) and beside is T(., y + 1, z)."""
    for x in range(len(row) - 2, -1, -1):
        east = below[x + 1] + beside[x]
        south = below_next[x] + row[x + 1]
        row[x] = (east if east > south else south) - below_next[x + 1]


def propagate(ground: Hive, ceiling: Hive) -> TetraFunction:
    """The unique polarized function with the given ground and ceiling.

    The ceiling is installed shifted by c = ground(0, n) - ceiling(0, 0), so
    only the increments along the shared edge have to agree; ceiling(i, j)
    lands at (i, n - i - j, j), the last entry of row y = n - i - j of
    layer z = j.  Interior points are solved in place, z ascending, y
    descending, x descending, at which moment all five other octahedron
    vertices are known.
    """
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
    layers: list[Rows] = [[list(row) for row in ground.rows]]
    for z in range(1, n + 1):
        below, top = layers[-1], ceiling.rows[z]
        layer: Rows = [[]] * (n - z + 1)
        layer[n - z] = [top[0] + c]
        for y in range(n - z - 1, -1, -1):
            row = [0] * (n - z - y) + [top[n - z - y] + c]
            _solve_row_forward(row, below[y], below[y + 1], layer[y + 1])
            layer[y] = row
        layers.append(layer)
    return TetraFunction(layers)


def inverse_propagate(wall_x0: Hive, wall_y0: Hive) -> TetraFunction:
    """Reconstruction of a polarized function from its two walls.

    wall_x0 holds T(0, j, i) at (i, j) and wall_y0 holds T(i, 0, j); they
    must agree on the shared edge x = y = 0.  Row y = 0 of every layer is
    a row of wall_y0 and each row starts with a value of wall_x0; the rest
    is solved in place by the propagation rule read backwards, y ascending,
    z descending, x ascending.
    """
    n = wall_x0.n
    if wall_y0.n != n:
        raise ValueError(f"wall sizes {n} and {wall_y0.n} differ")
    for k in range(n + 1):
        if wall_x0[k, 0] != wall_y0[0, k]:
            raise ValueError(
                f"walls disagree on the shared edge at (0, 0, {k}): "
                f"{wall_x0[k, 0]} vs {wall_y0[0, k]}")
    layers: list[Rows] = [[list(wall_y0.rows[z])] + [[]] * (n - z)
                          for z in range(n + 1)]
    for y in range(1, n + 1):
        wall = wall_x0.rows[y]
        layers[n - y][y] = [wall[n - y]]
        for z in range(n - y - 1, -1, -1):
            # T(x, y, z) = max(T(x, y-1, z) + T(x-1, y, z+1),
            #                  T(x-1, y, z) + T(x, y-1, z+1)) - T(x-1, y-1, z+1)
            front, above, above_front = (layers[z][y - 1], layers[z + 1][y],
                                         layers[z + 1][y - 1])
            row = [wall[z]]
            prev = row[0]
            for x in range(1, n - z - y + 1):
                a = front[x] + above[x - 1]
                b = prev + above_front[x]
                prev = (a if a > b else b) - above_front[x - 1]
                row.append(prev)
            layers[z][y] = row
    return TetraFunction(layers)


def check_polarized(t: TetraFunction) -> list[UnitOctahedron]:
    """All unit octahedra where the propagation rule fails, in
    unit_octahedra order, each read off rows y and y + 1 of levels z and
    z + 1 for its base (x, y, z)."""
    layers = t.layers
    bad = []
    for z in range(len(layers) - 1):
        level, above = layers[z], layers[z + 1]
        for y in range(len(above) - 1):
            row = level[y]
            north, up, up_north = level[y + 1], above[y], above[y + 1]
            for x in range(len(up_north)):
                ox_yz = row[x + 1] + up_north[x]
                oy_xz = north[x] + up[x + 1]
                if up[x] + north[x + 1] != (ox_yz if ox_yz > oy_xz else oy_xz):
                    bad.append(UnitOctahedron((x, y, z)))
    return bad


def _octahedron_witness(o: UnitOctahedron) -> str:
    return f"not polarized at octahedron base {o.base}"


def _section_witness(chart: FaceChart, rh: UnitRhombus2D) -> str:
    return f"section {chart.name} not DC ({rh})"


@dataclass(frozen=True)
class PcpmReport:
    """Evidence for membership in the polarized discretely concave class."""

    polarized_violations: tuple[UnitOctahedron, ...]
    rhombus_violations: tuple[tuple[FaceChart, UnitRhombus2D], ...]

    def ok(self) -> bool:
        return not self.polarized_violations and not self.rhombus_violations

    def witnesses(self) -> list[str]:
        """One line per witness: the first octahedron off the rule, then the
        first failed rhombus of each non-DC section, in section order."""
        lines = [_octahedron_witness(o) for o in self.polarized_violations[:1]]
        first = {}  # the first failed rhombus of each section, in order
        for chart, rh in self.rhombus_violations:
            first.setdefault(chart, rh)
        return lines + [_section_witness(*item) for item in first.items()]


def check_pcpm(t: TetraFunction) -> PcpmReport:
    """Check polarization, and discrete concavity of every cutting-plane
    section (all four families) as a hive of its chart.  Rhombus violations
    come in :func:`cutting_sections` order, then :func:`validate_dc` order
    within a section."""
    return PcpmReport(tuple(check_polarized(t)),
                      tuple((chart, rh)
                            for chart in cutting_sections(t.n)
                            for rh in validate_dc(extract_face(t, chart))))
