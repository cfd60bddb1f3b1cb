"""The two piecewise-linear bijections built on octahedron propagation.

Associativity: a pair of hives glued along a common edge (one in the ground
role, one in the ceiling role) propagates to a polarized function on the
tetrahedron whose two wall restrictions form the image pair.  The recursion
is invertible, so this is a bijection between the two coproducts

    U_g DC(mu, g; lam) x DC(pi, sigma; g)
      <->  U_t DC(mu, pi; t) x DC(t, sigma; lam),

whose cardinality identity is the associativity of Littlewood-Richardson
multiplication.

Commutativity: a hive h in DC(mu, nu; lam) of size n determines a polarized
discretely concave function on the top half of the octahedron inscribed in
the tetrahedron of size 2n (the square pyramid with vertices XY, OY, OZ, XZ
and apex YZ, i.e. the lattice points with y <= n, z <= n, y + z >= n,
x + y + z <= 2n).  Two faces are prescribed: the ceiling face carries h and
the y = n face carries the separable hive of mu.  The octahedron rule fills
the rest; octahedra cut by the square base y + z = n lose their OX vertex,
which degenerates the rule to the equality of the two surviving diagonal
sums.  The z = n face, read from the apex, is a hive in DC(nu, mu; lam),
and h -> commutor(h) is injective with equal counts on both sides: the
commutativity bijection.

The half-octahedron is filled as rows layers[z][y][x]; the commutor and its
diagnostics read these rows, and :func:`half_octahedron_function` is their
point -> value view.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grids import (FaceChart, TetraPoint, UnitOctahedron, UnitRhombus2D,
                    cutting_sections, tri_points, unit_rhombi_2d)
from .hive import (Hive, boundary, prefix_sums,
                   require_dc_partition_boundary, validate_dc)
from .octahedron import (_solve_row_forward, _unpolarized, extract_face,
                         inverse_propagate, propagate)


@dataclass(frozen=True)
class GluedPair:
    """Ground/ceiling input of the associativity map: hyp(f1) == base(f2)."""

    f1: Hive
    f2: Hive

    def validate(self) -> None:
        if self.f1.n != self.f2.n:
            raise ValueError("glued pair: sizes differ")
        for name, h in (("f1", self.f1), ("f2", self.f2)):
            if not h.is_normalized():
                raise ValueError(f"glued pair: {name} is not normalized")
            if validate_dc(h):
                raise ValueError(f"glued pair: {name} is not discretely concave")
        if boundary(self.f1).hyp != boundary(self.f2).base:
            raise ValueError(
                "glued pair: hypotenuse of f1 and base of f2 disagree: "
                f"{boundary(self.f1).hyp} vs {boundary(self.f2).base}")


@dataclass(frozen=True)
class WallPair:
    """Wall output of the associativity map: base(w1) == left(w2), and the
    two walls share the edge w1(i, 0) == w2(0, i)."""

    w1: Hive
    w2: Hive

    def validate(self) -> None:
        if self.w1.n != self.w2.n:
            raise ValueError("wall pair: sizes differ")
        for name, h in (("w1", self.w1), ("w2", self.w2)):
            if not h.is_normalized():
                raise ValueError(f"wall pair: {name} is not normalized")
            if validate_dc(h):
                raise ValueError(f"wall pair: {name} is not discretely concave")
        if boundary(self.w1).base != boundary(self.w2).left:
            raise ValueError(
                "wall pair: base of w1 and left edge of w2 disagree: "
                f"{boundary(self.w1).base} vs {boundary(self.w2).left}")


def assoc_forward(pair: GluedPair) -> WallPair:
    """Propagate f1 (ground) and f2 (ceiling) and read the two walls.

    Boundary bookkeeping, writing (l, h, b) for (left, hyp, base):
    w1 gets (l(f1), l(f2), t) and w2 gets (t, h(f2), b(f1)) where t is the
    new glue along the O-Z edge.  Both walls are discretely concave because
    the propagated function is polarized discretely concave.
    """
    pair.validate()
    t = propagate(pair.f1, pair.f2)
    n = t.n
    w1 = extract_face(t, FaceChart.wall_x0(n))
    w2 = extract_face(t, FaceChart.wall_y0(n))
    return WallPair(w1, w2)


def assoc_inverse(pair: WallPair) -> GluedPair:
    """Rebuild the polarized function from the walls and read ground and
    ceiling back; inverse of :func:`assoc_forward`."""
    pair.validate()
    t = inverse_propagate(pair.w1, pair.w2)
    n = t.n
    f1 = extract_face(t, FaceChart.ground(n))
    f2 = extract_face(t, FaceChart.ceiling(n)).normalize()
    return GluedPair(f1, f2)


def _half_octahedron_layers(h: Hive) -> list[list[list[int] | None]]:
    """The function of :func:`half_octahedron_function` as rows:
    layers[z][y][x] is its value at (x, y, z) for n - z <= y <= n (lower y
    are None).  The ceiling face is the last entry of every row, the
    y = n face is row n of every layer, and the rest is solved in place in
    the forward order of :func:`hives.octahedron.propagate`: z ascending,
    y descending, x descending.
    """
    require_dc_partition_boundary(h, "half_octahedron_function")
    n = h.n
    smu = prefix_sums(boundary(h).left)
    layers: list[list[list[int] | None]] = []
    for z in range(n + 1):
        layer: list[list[int] | None] = [None] * (n + 1)
        layer[n] = list(smu[:n - z + 1])
        ceiling = h.rows[n - z]
        for y in range(n - 1, n - z - 1, -1):
            row = [0] * (2 * n - y - z) + [ceiling[n - y]]
            below_next = layers[z - 1][y + 1]
            if y + z == n:
                for x in range(len(row) - 2, -1, -1):
                    row[x] = below_next[x] + row[x + 1] - below_next[x + 1]
            else:
                _solve_row_forward(row, layers[z - 1][y], below_next,
                                   layer[y + 1])
            layer[y] = row
        layers.append(layer)
    return layers


def half_octahedron_function(h: Hive) -> dict[TetraPoint, int]:
    """The polarized discretely concave function on the half-octahedron
    determined by h, keyed by its lattice points (y <= n, z <= n,
    y + z >= n, x + y + z <= 2n).

    The ceiling face (x + y + z = 2n) carries h via (x, y, z) ->
    h(n - y, n - z), so the apex YZ = (0, n, n) takes h's origin value and
    the corners XY, XZ take the values at h's corners Y, X.  The y = n face
    carries the separable hive of mu = left(h).  It is filled as rows by
    :func:`_half_octahedron_layers`.
    """
    n = h.n
    return {(x, y, z): v
            for z, layer in enumerate(_half_octahedron_layers(h))
            for y in range(n - z, n + 1)
            for x, v in enumerate(layer[y])}


def commutor(h: Hive) -> Hive:
    """The commutativity bijection DC(mu, nu; lam) -> DC(nu, mu; lam).

    Reads the z = n face of the half-octahedron function off with corners
    O -> YZ = (0, n, n), X -> XZ = (n, 0, n), Y -> OZ = (0, 0, n), then
    normalizes.  Injective with |DC(mu, nu; lam)| = |DC(nu, mu; lam)|.
    """
    n = h.n
    top = _half_octahedron_layers(h)[n]
    apex = top[n][0]
    return Hive(tuple(tuple(top[n - i - j][i] - apex for i in range(n - j + 1))
                      for j in range(n + 1)))


@dataclass(frozen=True)
class CommutorDiagnostics:
    """Test evidence for the half-octahedron construction, read off its rows
    in the coordinates of the size-2n tetrahedron.

    rhombus_violations: failed rhombus inequalities among the cutting-plane
    rhombi whose four vertices lie in the half-octahedron (this is the
    discrete-concavity content of the construction).
    polarization_violations: octahedra fully inside the half-octahedron
    where the propagation rule fails, in unit_octahedra(2n) order.
    square_violations: base cells of the square face y + z = n whose two
    antipodal vertex sums differ (separability of the base), named by their
    corner (x, y, n - y).
    pmu_face_mismatch / pnu_wall_mismatch: points where the y = n face
    differs from the separable hive of mu, and where the x = 0 wall face
    differs from the separable profile of nu (values S^nu_{n-y} up to a
    constant).
    """

    rhombus_violations: tuple[tuple[FaceChart, UnitRhombus2D], ...]
    polarization_violations: tuple[UnitOctahedron, ...]
    square_violations: tuple[TetraPoint, ...]
    pmu_face_mismatch: tuple[TetraPoint, ...]
    pnu_wall_mismatch: tuple[TetraPoint, ...]

    def ok(self) -> bool:
        return not (self.rhombus_violations or self.polarization_violations
                    or self.square_violations or self.pmu_face_mismatch
                    or self.pnu_wall_mismatch)


def _section_rhombus_violations(layers: list[list[list[int] | None]]
                                ) -> list[tuple[FaceChart, UnitRhombus2D]]:
    """The failed rhombus inequalities of the cutting-plane sections of the
    size-2n tetrahedron among the rhombi with all four vertices in the
    half-octahedron of :func:`_half_octahedron_layers`, in
    :func:`cutting_sections` order, then :func:`unit_rhombi_2d` order."""
    n = len(layers) - 1
    bad = []
    for chart in cutting_sections(2 * n, min_size=2):
        s = {}
        for i, j in tri_points(chart.size):
            x, y, z = chart.point(i, j)
            if z <= n and y <= n and y + z >= n:
                s[i, j] = layers[z][y][x]
        for rh in unit_rhombi_2d(chart.size):
            (c1, c2), (f1, f2) = rh.cut, rh.free
            if (c1 in s and c2 in s and f1 in s and f2 in s
                    and s[c1] + s[c2] < s[f1] + s[f2]):
                bad.append((chart, rh))
    return bad


def half_octahedron_diagnostics(h: Hive) -> CommutorDiagnostics:
    """Check every structural claim behind :func:`commutor` on one input."""
    n = h.n
    b = boundary(h)
    layers = _half_octahedron_layers(h)

    square_bad = []
    for y in range(n):
        low, high = layers[n - y][y], layers[n - y - 1][y + 1]
        square_bad += [(x, y, n - y) for x in range(n)
                       if low[x] + high[x + 1] != low[x + 1] + high[x]]

    smu = prefix_sums(b.left)
    pmu_bad = [(x, n, z)
               for z in range(n + 1) for x in range(n - z + 1)
               if layers[z][n][x] != smu[x]]

    snu = prefix_sums(b.hyp)
    shift = layers[n][n][0] - snu[0]
    pnu_bad = [(0, y, z)
               for y in range(n + 1) for z in range(n - y, n + 1)
               if layers[z][y][0] != snu[n - y] + shift]

    return CommutorDiagnostics(tuple(_section_rhombus_violations(layers)),
                               tuple(_unpolarized(layers)),
                               tuple(square_bad), tuple(pmu_bad),
                               tuple(pnu_bad))
