"""Exhaustive enumeration and counting of integer hives with prescribed
boundary.

The boundary increments pin every edge value of a normalized hive; interior
values are searched depth-first in canonical point order, with the feasible
integer interval at each point computed from the rhombus inequalities whose
other three vertices are already fixed.  Kind-I rhombi below-left of a point
always give an upper bound and kind-II rhombi a lower bound, so the interval
is finite and the search terminates.

The search runs on a plan compiled once per size n over flat indices into
the canonical point order: each bound is a term v[a] + v[b] - v[c], and a
hive's rows are slices of the flat value list.  Counting adds a memo at the
first interior point of each row j.  Every unit rhombus spans at most three
consecutive rows (kind III spans rows j-2..j), so once rows below j are
filled, the inequalities left to check touch only rows j-2 and up.  The
boundary is fixed for the whole search, so the number of completions from
row j on depends on the interior values of rows j-2 and j-1 alone: a
transfer over pairs of rows, as for Gelfand-Tsetlin patterns.

Every search, the reference count and each coproduct term start from one
gate, _padded_triple: the three arguments, zero-padded to a common length,
must be partitions whose weights balance.  Before any search the triple
must also pass the Weyl and dual Weyl inequalities, the cheapest of the
Horn inequalities.  These are sound: a triple with a nonzero LR coefficient
satisfies every Horn inequality (Knutson-Tao, "The honeycomb model of
GL_n(C) tensor products I"; Fulton, "Eigenvalues, invariant factors,
highest weights, and Schubert calculus"), so a triple failing them has no
hive and is rejected unsearched; most zero triples fail them.  At n = 2
they are the whole Horn list, and they replace the check of the rhombi that
lie on the boundary, which exist only there.  brute_force_count shares the
gate but not this filter, and the tableau oracle applies neither.

The number of hives found equals the Littlewood-Richardson coefficient of
the boundary triple, which the test suite checks against the independent
tableau oracle and against the unpruned brute_force_count.  Both
coproducts take one class (mu, pi, sigma, lam): its glued and wall pairs
are the two sides of assoc_forward.  Each term is its two boundary
triples, one per glue partition from _glues, the one home of the glue rule.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import add

from .grids import RHOMBUS_KINDS, tri_points, unit_rhombi_2d
from .hive import Hive, Partition, is_partition, pad, prefix_sums
from .tableaux import partitions_in_box

Triple = tuple[Partition, Partition, Partition]


@lru_cache(maxsize=None)
def _completion_plan(n: int):
    """The search plan for the interior of a size-n hive, over flat indices
    into canonical point order (tri_points(n)).

    Returns (steps, row_slices, memo_keys):
    - steps: (p, lower, upper) for each interior point in canonical order,
      p being its flat index and lower and upper terms (a, b, c) meaning
      v[a] + v[b] - v[c] over points fixed earlier, the value being at
      least every lower term and at most every upper term;
    - row_slices: row j of the hive is v[row_slices[j]];
    - memo_keys: aligned with steps; at the first interior point of row j
      the interior points of rows j-2 and j-1, elsewhere None.

    Raises RuntimeError if some interior point lacks a lower or an upper
    term, which would make its interval unbounded.
    """
    points = tri_points(n)
    index = {p: k for k, p in enumerate(points)}
    row_slices = tuple(slice(index[(0, j)], index[(0, j)] + n - j + 1)
                       for j in range(n + 1))
    interior = [(i, j) for (i, j) in points
                if i >= 1 and j >= 1 and i + j <= n - 1]
    known = set(points) - set(interior)
    rhombi = unit_rhombi_2d(n)
    steps, memo_keys = [], []
    for p in interior:
        lower, upper = [], []
        for rh in rhombi:
            verts = rh.vertices()
            if p not in verts or not all(q in known for q in verts
                                         if q != p):
                continue
            if p in rh.cut:  # p + other >= a + b
                bounds, (a, b), pair = lower, rh.free, rh.cut
            else:  # a + b >= p + other
                bounds, (a, b), pair = upper, rh.cut, rh.free
            other = pair[0] if pair[1] == p else pair[1]
            bounds.append((index[a], index[b], index[other]))
        if not lower or not upper:
            raise RuntimeError(f"interior point {p} of a size-{n} hive has "
                               f"no {'lower' if not lower else 'upper'} bound")
        i, j = p
        steps.append((index[p], tuple(lower), tuple(upper)))
        memo_keys.append(tuple(index[q] for q in interior
                               if j - 2 <= q[1] < j) if i == 1 else None)
        known.add(p)
    return tuple(steps), row_slices, tuple(memo_keys)


def _padded_triple(mu: Partition, nu: Partition,
                   lam: Partition) -> Triple | None:
    """(mu, nu, lam) zero-padded to a common length n >= 1, or None when
    some argument is not a partition or sum(mu) + sum(nu) != sum(lam): the
    boundary triples for which DC(mu, nu; lam) may be nonempty."""
    n = max(len(mu), len(nu), len(lam), 1)
    mu, nu, lam = pad(mu, n), pad(nu, n), pad(lam, n)
    if (is_partition(mu) and is_partition(nu) and is_partition(lam)
            and sum(mu) + sum(nu) == sum(lam)):
        return mu, nu, lam
    return None


def _boundary_values(mu: Partition, nu: Partition,
                     lam: Partition) -> list[int]:
    """The values of a normalized hive with boundary increments mu, nu,
    lam, all of one length n, in canonical point order (tri_points(n)),
    with 0 at interior points."""
    n = len(lam)
    smu, snu = prefix_sums(mu), prefix_sums(nu)
    values = list(prefix_sums(lam))
    for j in range(1, n + 1):
        values.append(smu[j])
        if j < n:
            values.extend([0] * (n - j - 1))
            values.append(smu[n] + snu[n - j])
    return values


def _weyl_feasible(mu: Partition, nu: Partition, lam: Partition) -> bool:
    """Whether partitions of one length n, 0-indexed, satisfy the Weyl
    inequalities lam[i + j] <= mu[i] + nu[j] and the dual Weyl
    inequalities lam[i + j - n + 1] >= mu[i] + nu[j], the two cheapest
    families of Horn inequalities.  False proves c(mu, nu; lam) = 0 (see
    the module docstring); True proves nothing for n >= 3.
    """
    for k, x in enumerate(lam):
        if (x > min(map(add, mu[:k + 1], nu[k::-1]))
                or x < max(map(add, mu[k:], nu[k:][::-1]))):
            return False
    return True


def _search_start(mu: Partition, nu: Partition, lam: Partition):
    """(values, plan) for the search over DC(mu, nu; lam), or None when that
    set is empty for a reason visible on the boundary.

    values is _boundary_values of the triple zero-padded to a common length
    n.  None means the triple fails _padded_triple, or it fails the Weyl or
    dual Weyl inequalities (_weyl_feasible), as no triple with a nonzero LR
    coefficient does.  At n = 2 these are the whole Horn list and decide
    emptiness; they replace a check of the rhombi whose four vertices lie
    on the boundary, which exist only at n = 2.
    """
    triple = _padded_triple(mu, nu, lam)
    if triple is None or not _weyl_feasible(*triple):
        return None
    return _boundary_values(*triple), _completion_plan(len(triple[2]))


def enumerate_hives(mu: Partition, nu: Partition,
                    lam: Partition) -> tuple[Hive, ...]:
    """All normalized DC hives with left mu, hypotenuse nu, base lam, in
    canonical order (lexicographic by value vector over canonical point
    order).

    Arguments are zero-padded to a common length; the result is empty when
    any argument is not a partition or the weights do not balance.
    """
    start = _search_start(mu, nu, lam)
    if start is None:
        return ()
    values, (steps, row_slices, _) = start
    members: list[Hive] = []

    def extend(k: int) -> None:
        if k == len(steps):
            members.append(Hive(tuple(values[s] for s in row_slices)))
            return
        p, lower, upper = steps[k]
        lo = max([values[a] + values[b] - values[c] for a, b, c in lower])
        hi = min([values[a] + values[b] - values[c] for a, b, c in upper])
        for v in range(lo, hi + 1):
            values[p] = v
            extend(k + 1)

    extend(0)
    return tuple(members)


def count_hives(mu: Partition, nu: Partition, lam: Partition) -> int:
    """|DC(mu, nu; lam)|; equals the LR coefficient c(mu, nu; lam).

    Runs the search of enumerate_hives without building any hive.  The
    number of completions from the first interior point of each row is
    memoized on (that step, the interior values of the two rows below it);
    see the module docstring.  The memo lives for one call only.
    """
    start = _search_start(mu, nu, lam)
    if start is None:
        return 0
    values, (steps, _, memo_keys) = start
    if not steps:
        return 1
    last = len(steps) - 1
    memo: dict[tuple[int, ...], int] = {}

    def fill(k: int) -> int:
        p, lower, upper = steps[k]
        lo = max([values[a] + values[b] - values[c] for a, b, c in lower])
        hi = min([values[a] + values[b] - values[c] for a, b, c in upper])
        if k == last:
            return max(hi - lo + 1, 0)
        key_points = memo_keys[k + 1]
        total = 0
        for v in range(lo, hi + 1):
            values[p] = v
            if key_points is None:
                total += fill(k + 1)
                continue
            key = (k + 1, *[values[q] for q in key_points])
            found = memo.get(key)
            if found is None:
                found = memo[key] = fill(k + 1)
            total += found
        return total

    return fill(0)


def brute_force_count(mu: Partition, nu: Partition, lam: Partition,
                      flip_kind: str | None = None) -> int:
    """Reference count by unpruned search: every interior point ranges over
    the window spanned by the boundary values and all rhombi are validated
    only at the end.  Slow but structurally independent of the search-order
    logic in enumerate_hives, so agreement is a real cross-check.

    flip_kind, one of "I", "II", "III" (else ValueError), reverses the
    inequality of that rhombus kind; this deliberately breaks the count so
    that the self-check harness can prove it would catch such a fault.
    """
    if flip_kind is not None and flip_kind not in RHOMBUS_KINDS:
        raise ValueError(f"flip_kind must be None or one of {RHOMBUS_KINDS}, "
                         f"not {flip_kind!r}")
    triple = _padded_triple(mu, nu, lam)
    if triple is None:
        return 0
    n = len(triple[2])
    values = dict(zip(tri_points(n), _boundary_values(*triple)))
    lo = min(values.values())
    # A DC value is at least the boundary minimum and at most
    # f(0, j) + f(i, 0) - f(0, 0), so this window loses nothing; the
    # interior zeros move neither end, as f(0, 0) = 0 is on the boundary.
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

    fill(0)
    return count


def _coproduct(terms: list[tuple[Triple, Triple]]) -> list[tuple[Hive, Hive]]:
    """The pairs of every term, by term, then by member order."""
    pairs: list[tuple[Hive, Hive]] = []
    for first, second in terms:
        lefts = enumerate_hives(*first)
        if lefts:
            pairs.extend(product(lefts, enumerate_hives(*second)))
    return pairs


def _coproduct_size(terms: list[tuple[Triple, Triple]]) -> int:
    """len(_coproduct(terms)), counted without building a hive."""
    total = 0
    for first, second in terms:
        left = count_hives(*first)
        if left:
            total += left * count_hives(*second)
    return total


def _glues(a: Partition, b: Partition, lam: Partition) -> list[Partition]:
    """The glues of a product a * b inside lam, all three of one length n:
    the partitions of sum(a) + sum(b) with at most n parts, each at most
    min(lam_1, a_1 + b_1), zero-padded to n, in descending lex order."""
    n = len(lam)
    return [pad(g, n) for g in partitions_in_box(sum(a) + sum(b), n,
                                                 min(lam[0], a[0] + b[0]))]


def _glued_terms(mu: Partition, pi: Partition, sigma: Partition,
                 lam: Partition) -> list[tuple[Triple, Triple]]:
    """((mu, g, lam), (pi, sigma, g)) for each glue g of pi * sigma, on the
    arguments zero-padded to a common length.

    Every argument lies in one of the two triples, and both balance exactly
    when sum(mu) + sum(pi) + sum(sigma) == sum(lam).  So when an argument
    is not a partition or the weights do not balance, every term fails
    _padded_triple and the coproduct is empty with no check here.  The
    same holds for _wall_terms.
    """
    n = max(len(mu), len(pi), len(sigma), len(lam), 1)
    mu, pi, sigma, lam = pad(mu, n), pad(pi, n), pad(sigma, n), pad(lam, n)
    return [((mu, g, lam), (pi, sigma, g)) for g in _glues(pi, sigma, lam)]


def _wall_terms(mu: Partition, pi: Partition, sigma: Partition,
                lam: Partition) -> list[tuple[Triple, Triple]]:
    """((mu, pi, t), (t, sigma, lam)) for each glue t of mu * pi, on the
    arguments zero-padded to a common length (see _glued_terms)."""
    n = max(len(mu), len(pi), len(sigma), len(lam), 1)
    mu, pi, sigma, lam = pad(mu, n), pad(pi, n), pad(sigma, n), pad(lam, n)
    return [((mu, pi, t), (t, sigma, lam)) for t in _glues(mu, pi, lam)]


def enumerate_glued_pairs(mu: Partition, pi: Partition, sigma: Partition,
                          lam: Partition) -> list[tuple[Hive, Hive]]:
    """All pairs (f1, f2) with f1 in DC(mu, g; lam) and f2 in DC(pi, sigma; g),
    the union running over every partition g that balances both weights.

    The domain of assoc_forward on the class (mu, pi, sigma, lam), whose
    image is enumerate_wall_pairs of the same class; ordered by g
    (descending lex), then by member order; empty when any argument is
    not a partition or the weights do not balance.
    """
    return _coproduct(_glued_terms(mu, pi, sigma, lam))


def count_glued_pairs(mu: Partition, pi: Partition, sigma: Partition,
                      lam: Partition) -> int:
    """len(enumerate_glued_pairs(mu, pi, sigma, lam)), from hive counts."""
    return _coproduct_size(_glued_terms(mu, pi, sigma, lam))


def enumerate_wall_pairs(mu: Partition, pi: Partition, sigma: Partition,
                         lam: Partition) -> list[tuple[Hive, Hive]]:
    """All pairs (w1, w2) with w1 in DC(mu, pi; t) and w2 in DC(t, sigma; lam),
    the union running over every partition t that balances both weights.

    The image of assoc_forward on enumerate_glued_pairs of the same class
    (mu, pi, sigma, lam); ordered by t (descending lex), then by member
    order; empty when any argument is not a partition or the weights do
    not balance.
    """
    return _coproduct(_wall_terms(mu, pi, sigma, lam))


def count_wall_pairs(mu: Partition, pi: Partition, sigma: Partition,
                     lam: Partition) -> int:
    """len(enumerate_wall_pairs(mu, pi, sigma, lam)), from hive counts."""
    return _coproduct_size(_wall_terms(mu, pi, sigma, lam))
