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
the y = n face carries the separable hive of mu.  Octahedra cut by the
square base y + z = n lose their OX vertex, which degenerates the rule to
the equality of the two surviving diagonal sums: the base is separable,
S^mu_x + S^nu_{n-y} up to a constant, and is written in that closed form.
The octahedron rule fills the rest.  The z = n face, read from the apex,
is a hive in DC(nu, mu; lam), and h -> commutor(h) is injective with equal
counts on both sides: the commutativity bijection.

The half-octahedron is filled as rows layers[z][y][x], by the one solver
of the rule in :mod:`hives.octahedron`; the commutor and its diagnostics
read these rows, and :func:`half_octahedron_function` is their
point -> value view.  The diagnostics run
:func:`hives.octahedron.check_pcpm` on the size-2n function that holds these
rows and zero elsewhere, and keep the section rhombi and octahedra with
every vertex in the half-octahedron.  A failed diagnostics names its first
witness; a section rhombus or an octahedron base is worded as in
:meth:`hives.octahedron.PcpmReport.witnesses`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grids import FaceChart, TetraPoint, UnitOctahedron, UnitRhombus2D
from .hive import BoundaryTriple, Hive, boundary, prefix_sums, require_dc
from .octahedron import (TetraFunction, _octahedron_witness,
                         _section_witness, _solve_row_forward, check_pcpm,
                         extract_face, inverse_propagate, propagate)


def _validate_pair(what: str, names: tuple[str, str], a: Hive, b: Hive
                   ) -> tuple[BoundaryTriple, BoundaryTriple]:
    """The boundaries of two hives of equal size, each checked by
    :func:`hives.hive.require_dc`."""
    if a.n != b.n:
        raise ValueError(f"{what}: sizes differ")
    return (require_dc(a, f"{what}: {names[0]}"),
            require_dc(b, f"{what}: {names[1]}"))


@dataclass(frozen=True)
class GluedPair:
    """Ground/ceiling input of the associativity map: hyp(f1) == base(f2)."""

    f1: Hive
    f2: Hive

    def validate(self) -> None:
        b1, b2 = _validate_pair("glued pair", ("f1", "f2"), self.f1, self.f2)
        if b1.hyp != b2.base:
            raise ValueError("glued pair: hypotenuse of f1 and base of f2 "
                             f"disagree: {b1.hyp} vs {b2.base}")


@dataclass(frozen=True)
class WallPair:
    """Wall output of the associativity map: base(w1) == left(w2), and the
    two walls share the edge w1(i, 0) == w2(0, i)."""

    w1: Hive
    w2: Hive

    def validate(self) -> None:
        b1, b2 = _validate_pair("wall pair", ("w1", "w2"), self.w1, self.w2)
        if b1.base != b2.left:
            raise ValueError("wall pair: base of w1 and left edge of w2 "
                             f"disagree: {b1.base} vs {b2.left}")


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
    w1 = extract_face(t, FaceChart.section_x(n, 0))
    w2 = extract_face(t, FaceChart.section_y(n, 0))
    return WallPair(w1, w2)


def assoc_inverse(pair: WallPair) -> GluedPair:
    """Rebuild the polarized function from the walls and read ground and
    ceiling back; inverse of :func:`assoc_forward`."""
    pair.validate()
    t = inverse_propagate(pair.w1, pair.w2)
    n = t.n
    f1 = extract_face(t, FaceChart.section_z(n, 0))
    f2 = extract_face(t, FaceChart.ceiling(n)).normalize()
    return GluedPair(f1, f2)


def _half_octahedron_layers(h: Hive) -> list[list[list[int] | None]]:
    """The function of :func:`half_octahedron_function` as rows:
    layers[z][y][x] is its value at (x, y, z) for n - z <= y <= n (lower y
    are None).  The y = n face is row n of every layer.  The square base
    y + z = n is in closed form: the degenerate rule makes its x-increments
    those of row n, so T(x, y, n - y) = S^mu_x + S^nu_{n-y} up to a
    constant, pinned by the ceiling value at x = n.  Every other row ends in
    its ceiling value and is solved by the forward kernel of
    :func:`hives.octahedron.propagate`: z ascending, y descending, x
    descending.
    """
    n = h.n
    smu = prefix_sums(require_dc(h, "commute input").left)
    layers: list[list[list[int] | None]] = []
    for z in range(n + 1):
        layer: list[list[int] | None] = [None] * (n + 1)
        layer[n] = list(smu[:n - z + 1])
        ceiling = h.rows[n - z]
        for y in range(n - 1, n - z, -1):
            layer[y] = _solve_row_forward(ceiling[n - y], layers[z - 1][y],
                                          layers[z - 1][y + 1], layer[y + 1])
        if z:
            layer[n - z] = [s + ceiling[z] - smu[n] for s in smu]
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
    return Hive._trusted(tuple(tuple([top[n - i - j][i] - apex
                                      for i in range(n - j + 1)])
                               for j in range(n + 1)))


@dataclass(frozen=True)
class CommutorDiagnostics:
    """Test evidence for the half-octahedron construction, read off its rows
    in the coordinates of the size-2n tetrahedron.

    rhombus_violations / polarization_violations: the witnesses of
    :func:`hives.octahedron.check_pcpm` on the half-octahedron rows
    zero-filled to the size-2n tetrahedron, kept when every vertex lies in
    the half-octahedron: the failed cutting-plane section rhombi (the
    discrete-concavity content of the construction), in cutting_sections
    order, and the octahedra off the propagation rule, in
    unit_octahedra(2n) order.
    square_violations: base cells of the square face y + z = n whose two
    antipodal vertex sums differ (separability of the base), named by their
    corner (x, y, n - y).
    pmu_face_mismatch / pnu_wall_mismatch: points where the y = n face
    differs from the separable hive of mu, and where the x = 0 wall face
    differs from the separable profile of nu (values S^nu_{n-y} up to a
    constant).
    A failure is named by :meth:`witness`.
    """

    rhombus_violations: tuple[tuple[FaceChart, UnitRhombus2D], ...]
    polarization_violations: tuple[UnitOctahedron, ...]
    square_violations: tuple[TetraPoint, ...]
    pmu_face_mismatch: tuple[TetraPoint, ...]
    pnu_wall_mismatch: tuple[TetraPoint, ...]

    def ok(self) -> bool:
        return self.witness() is None

    def witness(self) -> str | None:
        """The first witness of the first failing check, in field order, or
        None when every check holds."""
        if self.rhombus_violations:
            return _section_witness(*self.rhombus_violations[0])
        if self.polarization_violations:
            return _octahedron_witness(self.polarization_violations[0])
        if self.square_violations:
            return ("square base not separable at cell "
                    f"{self.square_violations[0]}")
        if self.pmu_face_mismatch:
            return f"y = n face differs from p_mu at {self.pmu_face_mismatch[0]}"
        if self.pnu_wall_mismatch:
            return f"x = 0 wall differs from p_nu at {self.pnu_wall_mismatch[0]}"
        return None


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

    report = check_pcpm(TetraFunction._trusted(tuple(
        tuple([tuple(layers[z][y]) if z <= n and n - z <= y <= n
               else (0,) * (2 * n - z - y + 1) for y in range(2 * n - z + 1)])
        for z in range(2 * n + 1))))

    def inside(points) -> bool:
        return all(z <= n and y <= n and y + z >= n for _, y, z in points)

    return CommutorDiagnostics(
        tuple((chart, rh) for chart, rh in report.rhombus_violations
              if inside(chart.point(*v) for v in rh.vertices())),
        tuple(o for o in report.polarized_violations if inside(o.vertices())),
        tuple(square_bad), tuple(pmu_bad), tuple(pnu_bad))
