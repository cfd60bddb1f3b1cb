"""Integer functions on the triangular grid and their concavity structure.

A hive is a total integer-valued function on the 2D grid of size n, stored
row by row: ``rows[j][i]`` is the value at (i, j).  A hive is discretely
concave (DC) when every unit rhombus satisfies cut-sum >= free-sum; the
boundary increments of a DC hive along the left edge, the hypotenuse and the
base are then non-increasing tuples.  ``DC(mu, nu; lam)`` below always means
the set of normalized DC hives with left increments mu, hypotenuse
increments nu and base increments lam.

Rows are checked once, where they enter the package: ``Hive(rows)``,
:meth:`Hive.build` and :mod:`hives.jsonio` (so CLI input too) check row
lengths and entry types.  Rows the package computed itself from checked
hives (searches, propagations, sections, shifts) are wrapped unchecked by
the private ``Hive._trusted``, which takes exact tuples of int tuples, so
such a hive equals and hashes like a checked build of the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grids import UnitRhombus2D, rhombus

Partition = tuple[int, ...]


def is_partition(t: tuple[int, ...]) -> bool:
    """True when t is non-increasing with non-negative entries."""
    return all(a >= b for a, b in zip(t, t[1:])) and (not t or t[-1] >= 0)


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


def _triangle_rows(rows, label: str) -> tuple[tuple[int, ...], ...]:
    """rows as a tuple of int tuples of lengths n + 1, n, ..., 1, where n =
    len(rows) - 1; otherwise a ValueError naming the first row that has
    the wrong length or, failing that, the first entry that is not an int,
    the row j being called label.format(j)."""
    rows = tuple(map(tuple, rows))
    if not rows:
        raise ValueError("a hive needs at least one row")
    n = len(rows) - 1
    for j, row in enumerate(rows):
        if len(row) != n - j + 1:
            raise ValueError(f"{label.format(j)} has {len(row)} entries, "
                             f"expected {n - j + 1}")
    for j, row in enumerate(rows):
        for v in row:
            if type(v) is not int:
                raise ValueError(f"{label.format(j)} holds {v!r}, not an int")
    return rows


@dataclass(frozen=True)
class Hive:
    """An integer function on the 2D grid; immutable and hashable."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", _triangle_rows(self.rows, "row {}"))

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "Hive":
        """The hive of rows the package computed, taken unchecked: a tuple
        of int tuples of lengths n + 1, n, ..., 1."""
        h = object.__new__(cls)
        object.__setattr__(h, "rows", rows)
        return h

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
        rows = tuple(tuple(v + c for v in row) for row in self.rows)
        return Hive._trusted(rows) if type(c) is int else Hive(rows)

    def normalize(self) -> "Hive":
        """The translate vanishing at the origin."""
        return self.shift(-self[0, 0])

    def is_normalized(self) -> bool:
        return self[0, 0] == 0


@dataclass(frozen=True)
class BoundaryTriple:
    """Boundary increments (left edge O->Y, hypotenuse Y->X, base O->X)."""

    left: tuple[int, ...]
    hyp: tuple[int, ...]
    base: tuple[int, ...]


def rhombus_slack(h: Hive, rh: UnitRhombus2D) -> int:
    """cut-sum minus free-sum; non-negative iff the inequality holds."""
    (c1, c2), (f1, f2) = rh.cut, rh.free
    return h[c1] + h[c2] - h[f1] - h[f2]


def validate_dc(h: Hive) -> list[UnitRhombus2D]:
    """All violated unit rhombi; an empty list means h is discretely concave.

    Listed in :func:`unit_rhombi_2d` order: anchors (i, j) by j, then i,
    kinds I, II, III at each."""
    return _dc_violations(h.rows)


def _dc_violations(rows) -> list[UnitRhombus2D]:
    """The violated unit rhombi of the hive with these rows, in
    :func:`validate_dc` order; the rows are scanned directly and a rhombus
    object is made only for a violation."""
    bad = []
    for j in range(len(rows) - 2):
        r0, r1, r2 = rows[j], rows[j + 1], rows[j + 2]
        for i in range(len(r2)):
            if r0[i + 1] + r1[i] < r0[i] + r1[i + 1]:
                bad.append(rhombus("I", i, j))
            if r0[i + 1] + r1[i + 1] < r1[i] + r0[i + 2]:
                bad.append(rhombus("II", i, j))
            if r1[i] + r1[i + 1] < r2[i] + r0[i + 1]:
                bad.append(rhombus("III", i, j))
    return bad


def boundary(h: Hive) -> BoundaryTriple:
    """Boundary increments of h.  For a DC hive all three are non-increasing
    and sum(left) + sum(hyp) == sum(base)."""
    n, rows = h.n, h.rows
    left = tuple(rows[j][0] - rows[j - 1][0] for j in range(1, n + 1))
    hyp = tuple(rows[n - i][i] - rows[n - i + 1][i - 1]
                for i in range(1, n + 1))
    base = tuple(rows[0][i] - rows[0][i - 1] for i in range(1, n + 1))
    return BoundaryTriple(left, hyp, base)


def p_mu(mu: Partition) -> Hive:
    """The separable hive (i, j) -> mu_1 + ... + mu_i, the unique member of
    DC(0, mu; mu)."""
    s = prefix_sums(mu)
    return Hive.build(len(mu), lambda i, j: s[i])


def require_dc(h: Hive, role: str) -> BoundaryTriple:
    """The boundary of h, a normalized DC hive with partition boundary
    increments; otherwise a ValueError naming the role the caller gives h
    and the first witness: a failed rhombus or a non-partition side."""
    if not h.is_normalized():
        raise ValueError(f"{role} is not normalized")
    bad = validate_dc(h)
    if bad:
        raise ValueError(f"{role} violates {bad[0]}")
    b = boundary(h)
    for side in ("left", "hyp", "base"):
        increments = getattr(b, side)
        if not is_partition(increments):
            raise ValueError(f"{role} has {side} increments {increments}, "
                             "not a partition")
    return b
