"""Propagation of integer functions through the tetrahedral grid.

In every unit octahedron the propagation rule ties the main-diagonal sum to
the other two diagonal sums:

    T(OZ) + T(XY) = max(T(OX) + T(YZ), T(OY) + T(XZ)).

A function satisfying this at every unit octahedron is *polarized*.  Given
values on the ground face (z = 0) and the ceiling face (x + y + z = n) there
is exactly one polarized completion, obtained by solving for OZ.

One solver, :func:`_solve_row_forward`, solves the rule, in one order on
row lists ``layers[z][y][x]`` (Speyer, "Perfect matchings and the
octahedron recurrence"): z ascending, y descending, x descending.  T(x, y,
z) is the OZ vertex of the octahedron based at (x, y, z - 1), and every
other vertex lies in a row already complete or in the part of its own row
already built.  Each of the three uses of the rule runs it:

- forward (:func:`propagate`): ground and ceiling are the two prescribed
  adjoint faces, sharing edge XY;
- inverse (:func:`inverse_propagate`): the walls x = 0 and y = 0, sharing
  edge OZ, are the other pair.  The map (x, y, z) -> (n - x - y - z, z, y)
  swaps the corners O <-> X and Y <-> Z and keeps the rule, since it maps
  the OZ/XY diagonal pair to itself and swaps the other two; it takes wall
  y = 0 to the ground and wall x = 0 to the ceiling, each row reversed, so
  the inverse is the forward order read through the map;
- half-octahedron (:func:`hives.bijections.half_octahedron_function`): the
  forward order on the top half of the octahedron inscribed in the size-2n
  tetrahedron.  On its square base y + z = n the rule degenerates to
  equal increments in x, so the base is in closed form: T(x, y, n - y) =
  S^mu_x + S^nu_{n-y} up to a constant.

A polarized function whose restriction to every cutting-plane section is
discretely concave is called PCPM here; propagation from DC ground and
ceiling always lands in this class, which is the engine behind both
bijections in :mod:`hives.bijections`.  Each section is a hive of its face
chart, so :func:`check_pcpm` checks it as one with the row scan of
:func:`hives.hive.validate_dc`.  The sections z = k and y = b are read
straight from the layers (layer k, and row b of each layer); the x- and
sum-sections are gathered by :func:`extract_face`.  :func:`check_polarized`
scans the rows for the rule.  A failure names its witness, an octahedron
base or a section chart with its rhombus, in the words of
:meth:`PcpmReport.witnesses`.
The commutor diagnostics run :func:`check_pcpm` on the half-octahedron
rows zero-filled to the size-2n tetrahedron and keep the witnesses inside
the half-octahedron.

``TetraFunction(layers)`` checks its layers, as ``Hive(rows)`` checks its
rows (see :mod:`hives.hive`); it is how library and JSON input come in.
The functions and hives built here from checked ones (propagations,
sections) are wrapped unchecked by the private ``_trusted`` constructors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .grids import (FaceChart, TetraPoint, UnitOctahedron, UnitRhombus2D,
                    cutting_sections)
from .hive import Hive, _dc_violations, _triangle_rows

Rows = Sequence[Sequence[int]]


@dataclass(frozen=True)
class TetraFunction:
    """A total integer function on the 3D grid; layers[z][y][x] = T(x, y, z)."""

    layers: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        layers = tuple(map(tuple, self.layers))
        if not layers:
            raise ValueError("a tetra function needs at least one layer")
        n, checked = len(layers) - 1, []
        for z, layer in enumerate(layers):
            if len(layer) != n - z + 1:
                raise ValueError(f"layer z={z} has {len(layer)} rows, "
                                 f"expected {n - z + 1}")
            checked.append(_triangle_rows(layer, f"row y={{}} of layer z={z}"))
        object.__setattr__(self, "layers", tuple(checked))

    @classmethod
    def _trusted(cls, layers: tuple[tuple[tuple[int, ...], ...], ...]
                 ) -> "TetraFunction":
        """The function of layers the package computed, taken unchecked:
        layer z a tuple of n - z + 1 int tuples of lengths n - z + 1, ...,
        1."""
        t = object.__new__(cls)
        object.__setattr__(t, "layers", layers)
        return t

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
        rows.append(tuple([layers[z + i * az][y + i * ay][x + i * ax]
                           for i in range(size - j + 1)]))
    return Hive._trusted(tuple(rows))


def _solve_row_forward(last: int, below: Sequence[int],
                       below_next: Sequence[int],
                       beside: Sequence[int]) -> list[int]:
    """The row T(., y, z) ending in ``last``, each earlier value row[x] the
    OZ vertex of the octahedron based one level down:

        row[x] = max(below[x + 1] + beside[x],
                     below_next[x] + row[x + 1]) - below_next[x + 1],

    where below is T(., y, z - 1), below_next is T(., y + 1, z - 1) and
    beside is T(., y + 1, z).  The row is built from its end, x
    descending, and reversed."""
    row = [last]
    prev, corner = last, below_next[-1]
    for x in range(len(below_next) - 2, -1, -1):
        east = below[x + 1] + beside[x]
        here = below_next[x]
        south = here + prev
        prev = (east if east > south else south) - corner
        corner = here
        row.append(prev)
    row.reverse()
    return row


def _propagate_rows(ground_rows: Rows, ceiling_rows: Rows,
                    c: int) -> list[Rows]:
    """The rows layers[z][y] of the polarized function with ground rows
    ``ground_rows`` and ceiling rows ``ceiling_rows`` shifted by c: z
    ascending, y descending, each row solved by :func:`_solve_row_forward`
    from its ceiling value."""
    n = len(ground_rows) - 1
    layers: list[Rows] = [ground_rows]
    for z in range(1, n + 1):
        below, top = layers[-1], ceiling_rows[z]
        layer: list[Sequence[int]] = [()] * (n - z + 1)
        layer[n - z] = [top[0] + c]
        for y in range(n - z - 1, -1, -1):
            layer[y] = _solve_row_forward(top[n - z - y] + c, below[y],
                                          below[y + 1], layer[y + 1])
        layers.append(layer)
    return layers


def propagate(ground: Hive, ceiling: Hive) -> TetraFunction:
    """The unique polarized function with the given ground and ceiling.

    The ceiling is installed shifted by c = ground(0, n) - ceiling(0, 0), so
    only the increments along the shared edge have to agree; ceiling(i, j)
    lands at (i, n - i - j, j), the last entry of row y = n - i - j of
    layer z = j.  The rest is solved z ascending, y descending, x
    descending, at which moment all five other octahedron vertices are
    known.
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
    return TetraFunction._trusted(tuple(
        tuple(map(tuple, layer))
        for layer in _propagate_rows(ground.rows, ceiling.rows, c)))


def inverse_propagate(wall_x0: Hive, wall_y0: Hive) -> TetraFunction:
    """Reconstruction of a polarized function from its two walls.

    wall_x0 holds T(0, j, i) at (i, j) and wall_y0 holds T(i, 0, j); they
    must agree on the shared edge x = y = 0.  The map (x, y, z) ->
    (n - x - y - z, z, y) keeps the octahedron rule and takes wall y = 0 to
    the ground and wall x = 0 to the ceiling, each row reversed; so T read
    through the map is the forward propagation of the reversed wall rows,
    with no shift, and T is read back through the map.
    """
    n = wall_x0.n
    if wall_y0.n != n:
        raise ValueError(f"wall sizes {n} and {wall_y0.n} differ")
    for k in range(n + 1):
        if wall_x0[k, 0] != wall_y0[0, k]:
            raise ValueError(
                f"walls disagree on the shared edge at (0, 0, {k}): "
                f"{wall_x0[k, 0]} vs {wall_y0[0, k]}")
    swapped = _propagate_rows([r[::-1] for r in wall_y0.rows],
                              [r[::-1] for r in wall_x0.rows], 0)
    return TetraFunction._trusted(tuple(
        tuple([tuple(swapped[y][z][::-1]) for y in range(n - z + 1)])
        for z in range(n + 1)))


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


def _section_rows(t: TetraFunction, chart: FaceChart) -> Rows:
    """The rows of ``extract_face(t, chart)``.  A section z = k is layer k
    and a section y = b is row b of each layer, both read verbatim; any
    other chart is gathered by :func:`extract_face`."""
    layers, (ox, oy, oz) = t.layers, chart.origin
    if chart.e1 == (1, 0, 0) and not ox and chart.size == t.n - oy - oz:
        if chart.e2 == (0, 1, 0) and not oy:
            return layers[oz]
        if chart.e2 == (0, 0, 1) and not oz:
            return [layer[oy] for layer in layers[:chart.size + 1]]
    return extract_face(t, chart).rows


def check_pcpm(t: TetraFunction) -> PcpmReport:
    """Check polarization, and discrete concavity of every cutting-plane
    section (all four families) as a hive of its chart.  Rhombus violations
    come in :func:`cutting_sections` order, then
    :func:`hives.hive.validate_dc` order within a section."""
    return PcpmReport(tuple(check_polarized(t)),
                      tuple((chart, rh)
                            for chart in cutting_sections(t.n)
                            for rh in _dc_violations(_section_rows(t, chart))))
