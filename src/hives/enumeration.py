"""Exhaustive enumeration of integer hives with prescribed boundary.

The boundary increments pin every edge value of a normalized hive; interior
values are searched depth-first in canonical point order, with the feasible
integer interval at each point computed from the rhombus inequalities whose
other three vertices are already fixed.  Kind-I rhombi below-left of a point
always give an upper bound and kind-II rhombi a lower bound, so the interval
is finite and the search terminates.

The number of hives found equals the Littlewood-Richardson coefficient of
the boundary triple, which the test suite checks against the independent
tableau oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Callable

from .grids import TriPoint, tri_points, unit_rhombi_2d
from .hive import (BoundaryTriple, Hive, Partition, is_partition, pad,
                   prefix_sums)
from .tableaux import partitions_in_box


@lru_cache(maxsize=None)
def _completion_plan(n: int):
    """Fill order and bound recipes for the interior of a size-n hive.

    Returns (edge_rhombi, steps): edge_rhombi are the rhombi whose four
    vertices all lie on the boundary (they must be checked once up front),
    and steps lists, for each interior point in fill order, constraints
    (role, other, (q1, q2)) over already-known points: role "cut" gives
    value >= f(q1)+f(q2)-f(other), role "free" gives value <= the same.
    """
    interior = [(i, j) for (i, j) in tri_points(n)
                if i >= 1 and j >= 1 and i + j <= n - 1]
    known = {p for p in tri_points(n)
             if p[0] == 0 or p[1] == 0 or p[0] + p[1] == n}
    edge_rhombi = tuple(rh for rh in unit_rhombi_2d(n)
                        if all(q in known for q in rh.vertices()))
    steps = []
    for p in interior:
        constraints = []
        for rh in unit_rhombi_2d(n):
            verts = rh.vertices()
            if p not in verts:
                continue
            others = [q for q in verts if q != p]
            if not all(q in known for q in others):
                continue
            if p in rh.cut:
                other = rh.cut[0] if rh.cut[1] == p else rh.cut[1]
                constraints.append(("cut", other, rh.free))
            else:
                other = rh.free[0] if rh.free[1] == p else rh.free[1]
                constraints.append(("free", other, rh.cut))
        steps.append((p, tuple(constraints)))
        known.add(p)
    return edge_rhombi, tuple(steps)


def _boundary_values(mu: Partition, nu: Partition, lam: Partition,
                     n: int) -> dict[TriPoint, int]:
    smu, snu, slam = prefix_sums(pad(mu, n)), prefix_sums(pad(nu, n)), \
        prefix_sums(pad(lam, n))
    values: dict[TriPoint, int] = {}
    for j in range(n + 1):
        values[(0, j)] = smu[j]
    for i in range(n + 1):
        values[(i, n - i)] = smu[n] + snu[i]
        values[(i, 0)] = slam[i]
    return values


def enumerate_hives(mu: Partition, nu: Partition,
                    lam: Partition) -> tuple[Hive, ...]:
    """All normalized DC hives with left mu, hypotenuse nu, base lam, in
    canonical order (lexicographic by value vector over canonical point
    order).

    Arguments are zero-padded to a common length; the result is empty when
    any argument is not a partition or the weights do not balance.
    """
    n = max(len(mu), len(nu), len(lam), 1)
    mu, nu, lam = pad(mu, n), pad(nu, n), pad(lam, n)
    bt = BoundaryTriple(mu, nu, lam)
    if not bt.is_partition_triple() or not bt.weights_balance():
        return ()

    values = _boundary_values(mu, nu, lam, n)
    edge_rhombi, steps = _completion_plan(n)
    for rh in edge_rhombi:
        (c1, c2), (f1, f2) = rh.cut, rh.free
        if values[c1] + values[c2] < values[f1] + values[f2]:
            return ()

    members: list[Hive] = []

    def record() -> None:
        members.append(Hive.build(n, lambda i, j: values[(i, j)]))

    def extend(k: int) -> None:
        if k == len(steps):
            record()
            return
        p, constraints = steps[k]
        lo, hi = None, None
        for role, other, (q1, q2) in constraints:
            bound = values[q1] + values[q2] - values[other]
            if role == "cut":
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None or hi is None:
            raise RuntimeError(f"unbounded interior point {p}")  # unreachable
        for v in range(lo, hi + 1):
            values[p] = v
            extend(k + 1)
            del values[p]

    extend(0)
    return tuple(members)


def count_hives(mu: Partition, nu: Partition, lam: Partition) -> int:
    """|DC(mu, nu; lam)|; equals the LR coefficient c(mu, nu; lam)."""
    return len(enumerate_hives(mu, nu, lam))


def brute_force_count(mu: Partition, nu: Partition, lam: Partition,
                      flip_kind: str | None = None) -> int:
    """Reference count by unpruned search: every interior point ranges over
    the window spanned by the boundary values and all rhombi are validated
    only at the end.  Slow but structurally independent of the search-order
    logic in enumerate_hives, so agreement is a real cross-check.

    flip_kind reverses the inequality of one rhombus kind ("I", "II" or
    "III"); this deliberately breaks the count and exists so that the
    self-check harness can prove it would catch such a fault.
    """
    n = max(len(mu), len(nu), len(lam), 1)
    mu, nu, lam = pad(mu, n), pad(nu, n), pad(lam, n)
    bt = BoundaryTriple(mu, nu, lam)
    if not bt.is_partition_triple() or not bt.weights_balance():
        return 0
    values = _boundary_values(mu, nu, lam, n)
    lo = min(values.values())
    # A DC value is at least the boundary minimum and at most
    # f(0, j) + f(i, 0) - f(0, 0), so this window loses nothing.
    hi = 2 * max(values.values()) - lo
    interior = [(i, j) for (i, j) in tri_points(n)
                if i >= 1 and j >= 1 and i + j <= n - 1]
    rhombi = unit_rhombi_2d(n)

    def holds(rh) -> bool:
        (c1, c2), (f1, f2) = rh.cut, rh.free
        slack = values[c1] + values[c2] - values[f1] - values[f2]
        return slack <= 0 if rh.kind == flip_kind else slack >= 0

    count = 0

    def fill(k: int) -> None:
        nonlocal count
        if k == len(interior):
            if all(holds(rh) for rh in rhombi):
                count += 1
            return
        p = interior[k]
        for v in range(lo, hi + 1):
            values[p] = v
            fill(k + 1)
            del values[p]

    fill(0)
    return count


def _coproduct(parts: tuple[Partition, ...], inner: slice,
               factors: Callable[..., tuple]) -> list[tuple[Hive, Hive]]:
    """The pairs of DC(*first) x DC(*second) over every glue partition g,
    where (first, second) = factors(mu, pi, sigma, lam, g).

    parts is (mu, pi, sigma, lam), zero-padded here to a common length n;
    the glue is the product of the pair parts[inner], so g runs over the
    partitions of that pair's weight with at most n parts, each at most
    lam_1 and the sum of the pair's first parts, in descending lex order.
    Pairs come by g, then by member order.  The result is empty when any
    argument is not a partition or sum(mu) + sum(pi) + sum(sigma) differs
    from sum(lam).
    """
    n = max(*map(len, parts), 1)
    parts = tuple(pad(t, n) for t in parts)
    mu, pi, sigma, lam = parts
    if (not all(is_partition(t) for t in parts)
            or sum(mu) + sum(pi) + sum(sigma) != sum(lam)):
        return []
    a, b = parts[inner]
    pairs: list[tuple[Hive, Hive]] = []
    for g in partitions_in_box(sum(a) + sum(b), n, min(lam[0], a[0] + b[0])):
        first, second = factors(*parts, pad(g, n))
        lefts = enumerate_hives(*first)
        if lefts:
            pairs.extend(product(lefts, enumerate_hives(*second)))
    return pairs


def enumerate_glued_pairs(mu: Partition, lam: Partition, pi: Partition,
                          sigma: Partition) -> list[tuple[Hive, Hive]]:
    """All pairs (f1, f2) with f1 in DC(mu, g; lam) and f2 in DC(pi, sigma; g),
    the union running over every partition g that balances both weights.

    This is the ground/ceiling-side coproduct of the associativity identity;
    pairs are ordered by g (descending lex) then by member order.
    """
    return _coproduct((mu, pi, sigma, lam), slice(1, 3),
                      lambda mu, pi, sigma, lam, g: ((mu, g, lam),
                                                     (pi, sigma, g)))


def enumerate_wall_pairs(mu: Partition, pi: Partition, sigma: Partition,
                         lam: Partition) -> list[tuple[Hive, Hive]]:
    """All pairs (w1, w2) with w1 in DC(mu, pi; t) and w2 in DC(t, sigma; lam),
    the union running over every partition t that balances both weights.

    This is the wall-side coproduct targeted by the associativity bijection;
    pairs are ordered by t (descending lex) then by member order.
    """
    return _coproduct((mu, pi, sigma, lam), slice(0, 2),
                      lambda mu, pi, sigma, lam, t: ((mu, pi, t),
                                                     (t, sigma, lam)))
