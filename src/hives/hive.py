"""Integer functions on the triangular grid and their concavity structure.

A hive is a total integer-valued function on the 2D grid of size n, stored
row by row: ``rows[j][i]`` is the value at (i, j).  A hive is discretely
concave (DC) when every unit rhombus satisfies cut-sum >= free-sum; the
boundary increments of a DC hive along the left edge, the hypotenuse and the
base are then non-increasing tuples.  ``DC(mu, nu; lam)`` below always means
the set of normalized DC hives with left increments mu, hypotenuse
increments nu and base increments lam.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grids import UnitRhombus2D, tri_points, unit_rhombi_2d

Partition = tuple[int, ...]
IncrementTuple = tuple[int, ...]


def is_partition(t: tuple[int, ...]) -> bool:
    """True when t is non-increasing with non-negative entries."""
    return all(a >= b for a, b in zip(t, t[1:])) and (not t or t[-1] >= 0)


def op_tuple(t: IncrementTuple) -> IncrementTuple:
    """The reversed tuple (t_n, ..., t_1); an involution."""
    return tuple(reversed(t))


def pad(t: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Zero-pad t to length n."""
    if len(t) > n:
        raise ValueError(f"tuple {t} longer than target length {n}")
    return tuple(t) + (0,) * (n - len(t))


def prefix_sums(t: tuple[int, ...]) -> tuple[int, ...]:
    """(0, t_1, t_1 + t_2, ...); length len(t) + 1."""
    out = [0]
    for a in t:
        out.append(out[-1] + a)
    return tuple(out)


@dataclass(frozen=True)
class Hive:
    """An integer function on the 2D grid; immutable and hashable."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("a hive needs at least one row")
        n = len(rows) - 1
        for j, row in enumerate(rows):
            if len(row) != n - j + 1:
                raise ValueError(
                    f"row {j} has {len(row)} entries, expected {n - j + 1}")
            for v in row:
                if type(v) is not int:
                    raise ValueError(f"row {j} holds {v!r}, not an int")

    @property
    def n(self) -> int:
        return len(self.rows) - 1

    def __getitem__(self, point: tuple[int, int]) -> int:
        i, j = point
        return self.rows[j][i]

    @classmethod
    def build(cls, n: int, fn) -> "Hive":
        return cls(tuple(tuple(fn(i, j) for i in range(n - j + 1))
                         for j in range(n + 1)))

    @classmethod
    def zero(cls, n: int) -> "Hive":
        return cls.build(n, lambda i, j: 0)

    def shift(self, c: int) -> "Hive":
        return Hive.build(self.n, lambda i, j: self[i, j] + c)

    def normalize(self) -> "Hive":
        """The translate vanishing at the origin."""
        return self.shift(-self[0, 0])

    def is_normalized(self) -> bool:
        return self[0, 0] == 0

    def values_in_order(self) -> tuple[int, ...]:
        """Values listed in canonical point order; the sort key for hive sets."""
        return tuple(self[p] for p in tri_points(self.n))


@dataclass(frozen=True)
class BoundaryTriple:
    """Boundary increments (left edge O->Y, hypotenuse Y->X, base O->X)."""

    left: IncrementTuple
    hyp: IncrementTuple
    base: IncrementTuple

    def is_partition_triple(self) -> bool:
        return all(is_partition(t) for t in (self.left, self.hyp, self.base))

    def weights_balance(self) -> bool:
        return sum(self.left) + sum(self.hyp) == sum(self.base)


def rhombus_slack(h: Hive, rh: UnitRhombus2D) -> int:
    """cut-sum minus free-sum; non-negative iff the inequality holds."""
    (c1, c2), (f1, f2) = rh.cut, rh.free
    return h[c1] + h[c2] - h[f1] - h[f2]


def validate_dc(h: Hive) -> list[UnitRhombus2D]:
    """All violated unit rhombi; an empty list means h is discretely concave."""
    return [rh for rh in unit_rhombi_2d(h.n) if rhombus_slack(h, rh) < 0]


def is_dc(h: Hive) -> bool:
    return not validate_dc(h)


def boundary(h: Hive) -> BoundaryTriple:
    """Boundary increments of h.  For a DC hive all three are non-increasing
    and sum(left) + sum(hyp) == sum(base)."""
    n = h.n
    left = tuple(h[0, j] - h[0, j - 1] for j in range(1, n + 1))
    hyp = tuple(h[i, n - i] - h[i - 1, n - i + 1] for i in range(1, n + 1))
    base = tuple(h[i, 0] - h[i - 1, 0] for i in range(1, n + 1))
    return BoundaryTriple(left, hyp, base)


def p_mu(mu: Partition) -> Hive:
    """The separable hive (i, j) -> mu_1 + ... + mu_i, the unique member of
    DC(0, mu; mu)."""
    s = prefix_sums(mu)
    return Hive.build(len(mu), lambda i, j: s[i])


def require_dc_partition_boundary(h: Hive, where: str) -> BoundaryTriple:
    """Reject hives that are not normalized DC with partition boundary."""
    if not h.is_normalized():
        raise ValueError(f"{where}: hive is not normalized at the origin")
    bad = validate_dc(h)
    if bad:
        raise ValueError(f"{where}: hive is not discretely concave "
                         f"({len(bad)} rhombus violations)")
    b = boundary(h)
    if not b.is_partition_triple():
        raise ValueError(f"{where}: boundary increments {b} are not partitions")
    return b


def ceiling_extension(h: Hive) -> Hive:
    """The piecewise extension of a DC hive with partition boundary
    (mu, nu, lam) from the central triangle of the doubled grid.

    On the size-2n grid with corner roles Y = (0,0), X = (2n,0), Z = (0,2n),
    the central triangle {a+b >= n, a <= n, b <= n} carries h via
    (a, b) -> h(a+b-n, n-b), and the three corner triangles extend it:
    constant along b below the central triangle (F = h(0, a)), constant
    along a beyond it (F = h(b, n-b)), and linear in b above it
    (F = h(a+b-n, 0) - lam_1 * (b - n)).

    The result is normalized, restricts to h on the central triangle, and
    its edges carry, in order along each side: base (mu, 0^n), left edge
    (0^n, lam - lam_1 * 1_n), hypotenuse from Z (lam_1 * 1_n, -nu^op).
    Each corner triangle is separable, hence discretely concave on its own,
    but the inequalities may fail on the seams of the central triangle
    (validate_dc reports exactly where), so this extension is a boundary
    gadget rather than an input to propagation; the commutativity bijection
    is built on the half-octahedron instead (see hives.bijections).
    """
    b = require_dc_partition_boundary(h, "ceiling_extension")
    n = h.n
    lam1 = b.base[0] if b.base else 0

    def f(a: int, bb: int) -> int:
        if a + bb <= n:
            return h[0, a]
        if a >= n:
            return h[bb, n - bb]
        if bb >= n:
            return h[a + bb - n, 0] - lam1 * (bb - n)
        return h[a + bb - n, n - bb]

    return Hive.build(2 * n, f)


def ground_function(mu: Partition) -> Hive:
    """The canonical DC function of size 2n determined by mu on the ground
    face of the doubled grid.

    With S the prefix sums of mu it is S_x where y >= n, S_{x+y-n} where
    y <= n <= x+y, and -mu_1 * (n - x - y) on x + y <= n; equivalently
    min(Sbar(x), Sbar(x+y-n)) for the concave extension Sbar of S with slope
    mu_1 to the left and 0 to the right.  Its hypotenuse increments are
    (mu, 0^n), matching the ceiling extension's base; it is deliberately not
    normalized (the origin sits at -n * mu_1).
    """
    if not is_partition(mu):
        raise ValueError(f"ground_function: {mu} is not a partition")
    n = len(mu)
    s = prefix_sums(mu)
    mu1 = mu[0] if mu else 0

    def g(x: int, y: int) -> int:
        if y >= n:
            return s[x]
        if x + y >= n:
            return s[x + y - n]
        return -mu1 * (n - x - y)

    return Hive.build(2 * n, g)
