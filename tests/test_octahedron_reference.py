"""The row-wise octahedron solvers against the dict-based ones they replaced.

The reference functions below are the earlier implementations, kept
verbatim apart from returning their point -> value dicts: they solve the
same rule point by point through a dict keyed by 3-tuples, in a different
order (forward: z ascending, x + y + z descending; inverse: x + y
ascending).  Every solved value must agree point for point, on small
universes, on one DC glued pair per size n = 5..24 from a generator of
this file, and on seeded integer faces and walls that are neither DC nor
normalized.
"""

import random

import pytest

from hives.bijections import (GluedPair, commutor,
                              half_octahedron_diagnostics,
                              half_octahedron_function)
from hives.checks import glued_universe, random_glued_pairs
from hives.enumeration import enumerate_glued_pairs
from hives.grids import FaceChart, TetraPoint, tetra_points
from hives.hive import Hive, boundary, prefix_sums, require_dc, validate_dc
from hives.octahedron import (TetraFunction, check_pcpm, check_polarized,
                              extract_face, inverse_propagate, propagate)

Values3D = dict[TetraPoint, int]

SEED = 31415926


# ---------------------------------------------------------------- references

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


def reference_propagate(ground: Hive, ceiling: Hive) -> Values3D:
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
    return values


def reference_inverse_propagate(wall_x0: Hive, wall_y0: Hive) -> Values3D:
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
    return values


def reference_half_octahedron_function(h: Hive) -> Values3D:
    require_dc(h, "commute input")
    n = h.n
    smu = prefix_sums(boundary(h).left)
    values: dict[TetraPoint, int] = {}
    for z in range(n + 1):
        for y in range(n - z, n + 1):
            x = 2 * n - y - z
            values[(x, y, z)] = h[n - y, n - z]
    for z in range(n + 1):
        for x in range(n - z + 1):
            values[(x, n, z)] = smu[x]
    for z in range(1, n + 1):
        for y in range(n - 1, n - z - 1, -1):
            for x in range(2 * n - y - z - 1, -1, -1):
                across = values[(x + 1, y + 1, z - 1)]
                south = values[(x, y + 1, z - 1)] + values[(x + 1, y, z)]
                if y + z == n:
                    values[(x, y, z)] = south - across
                else:
                    east = values[(x + 1, y, z - 1)] + values[(x, y + 1, z)]
                    values[(x, y, z)] = max(east, south) - across
    return values


# ---------------------------------------------------------------- inputs

def _decreasing(rng: random.Random, n: int, last: int, lo: int,
                hi: int) -> list[int]:
    """d[1..n] (d[0] unused) ending at ``last``, each drop d[k] - d[k+1]
    drawn from [lo, hi]."""
    d = [0] * (n + 1)
    d[n] = last
    for k in range(n - 1, 0, -1):
        d[k] = d[k + 1] + rng.randint(lo, hi)
    return d


def _concave_hive(rng: random.Random, n: int, a, b, c) -> Hive:
    """f(i, j) = A(i) + B(j) + C(i + j) + e(i, j), where A, B, C start at 0
    with increments a, b, c and e in {-1, 0, 1} sits on interior points.

    A kind I, II or III rhombus has slack equal to a drop of c, a or b
    respectively, and e moves any slack by at most 4; so with every drop
    >= 4 the hive is DC.  Its boundary increments are left b[j] + c[j],
    base a[i] + c[i] and hypotenuse a[i] - b[n + 1 - i]."""
    def cumulative(d):
        out = [0]
        for k in range(1, n + 1):
            out.append(out[-1] + d[k])
        return out

    ca, cb, cc = cumulative(a), cumulative(b), cumulative(c)
    return Hive(tuple(
        tuple(ca[i] + cb[j] + cc[i + j]
              + (rng.randint(-1, 1) if i and j and i + j < n else 0)
              for i in range(n - j + 1))
        for j in range(n + 1)))


def random_dc_glued_pair(rng: random.Random, n: int) -> GluedPair:
    """A glued pair (ground f1, ceiling f2) of normalized DC hives of size
    n with partition boundaries and hyp(f1) == base(f2)."""
    b2 = _decreasing(rng, n, rng.randint(0, 2), 4, 6)
    a2 = _decreasing(rng, n, b2[1] + rng.randint(0, 2), 5, 8)
    c2 = _decreasing(rng, n, rng.randint(0, 2), 4, 6)
    f2 = _concave_hive(rng, n, a2, b2, c2)
    glue = [0] + [a2[k] + c2[k] for k in range(1, n + 1)]  # base of f2
    # hyp(f1)[k] = a1[k] - b1[n + 1 - k] must equal glue[k]; the drops of
    # glue are >= 9 and those of b1 <= 5, so a1 keeps drops >= 4.
    b1 = _decreasing(rng, n, rng.randint(0, 2), 4, 5)
    c1 = _decreasing(rng, n, rng.randint(0, 2), 4, 6)
    a1 = [0] + [glue[k] + b1[n + 1 - k] for k in range(1, n + 1)]
    pair = GluedPair(_concave_hive(rng, n, a1, b1, c1), f2)
    pair.validate()
    return pair


def small_pairs() -> list[tuple[Hive, Hive]]:
    """Every glued pair of glued_universe(2, 2) and 200 seeded n = 4
    pairs."""
    glued = [pair for mu, pi, sigma, lam in glued_universe(2, 2)
             for pair in enumerate_glued_pairs(mu, pi, sigma, lam)]
    randoms = random_glued_pairs(SEED, 200)
    assert len(glued) >= 279 and len(randoms) == 200
    return glued + randoms


def _arbitrary_hive(rng: random.Random, n: int) -> list[list[int]]:
    return [[rng.randint(-9, 9) for _ in range(n - j + 1)]
            for j in range(n + 1)]


def arbitrary_faces() -> list[tuple[Hive, Hive]]:
    """Seeded ground/ceiling pairs of size n = 1..8 with entries in
    [-9, 9], neither DC nor normalized, agreeing along the shared edge up
    to an offset c != 0."""
    rng = random.Random(f"{SEED}:faces")
    pairs = []
    for n in range(1, 9):
        for _ in range(10):
            ground = Hive(_arbitrary_hive(rng, n))
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            ceiling = _arbitrary_hive(rng, n)
            ceiling[0] = [ground[i, n - i] - c for i in range(n + 1)]
            pairs.append((ground, Hive(ceiling)))
    return pairs


def arbitrary_walls() -> list[tuple[Hive, Hive]]:
    """Seeded wall pairs of size n = 1..8 with entries in [-9, 9], neither
    DC nor normalized, agreeing on the shared edge x = y = 0."""
    rng = random.Random(f"{SEED}:walls")
    pairs = []
    for n in range(1, 9):
        for _ in range(10):
            wall_x0 = Hive(_arbitrary_hive(rng, n))
            wall_y0 = _arbitrary_hive(rng, n)
            for k in range(n + 1):
                wall_y0[k][0] = wall_x0[k, 0]
            pairs.append((wall_x0, Hive(wall_y0)))
    return pairs


LARGE = [random_dc_glued_pair(random.Random(f"octahedron-reference:{n}"), n)
         for n in range(5, 25)]


# ---------------------------------------------------------------- tests

def assert_same_function(t, values: Values3D) -> None:
    points = tetra_points(t.n)
    assert len(values) == len(points)
    for p in points:
        assert t[p] == values[p], p


def walls(t):
    return (extract_face(t, FaceChart.section_x(t.n, 0)),
            extract_face(t, FaceChart.section_y(t.n, 0)))


def through_map(t: TetraFunction) -> TetraFunction:
    """t read through (x, y, z) -> (n - x - y - z, z, y), which swaps the
    corners O <-> X and Y <-> Z and keeps the octahedron rule."""
    n = t.n
    return TetraFunction([[[t[n - x - y - z, z, y]
                            for x in range(n - z - y + 1)]
                           for y in range(n - z + 1)]
                          for z in range(n + 1)])


def test_row_solvers_match_references_on_small_pairs():
    hives = set()
    for f1, f2 in small_pairs():
        t = propagate(f1, f2)
        assert_same_function(t, reference_propagate(f1, f2))
        assert check_pcpm(through_map(t)).ok()
        w1, w2 = walls(t)
        assert_same_function(inverse_propagate(w1, w2),
                             reference_inverse_propagate(w1, w2))
        hives.update((f1, f2, w1, w2))
    for h in hives:
        assert (half_octahedron_function(h)
                == reference_half_octahedron_function(h)), h.rows
    for ground, ceiling in arbitrary_faces():
        t = propagate(ground, ceiling)
        assert_same_function(t, reference_propagate(ground, ceiling))
        assert check_polarized(through_map(t)) == []
    for w1, w2 in arbitrary_walls():
        assert_same_function(inverse_propagate(w1, w2),
                             reference_inverse_propagate(w1, w2))


@pytest.mark.parametrize("pair", LARGE, ids=lambda p: f"n{p.f1.n}")
def test_row_solvers_match_references_up_to_n24(pair):
    f1, f2 = pair.f1, pair.f2
    t = propagate(f1, f2)
    assert_same_function(t, reference_propagate(f1, f2))
    w1, w2 = walls(t)
    assert_same_function(inverse_propagate(w1, w2),
                         reference_inverse_propagate(w1, w2))
    for h in (f1, f2, w1, w2):
        assert (half_octahedron_function(h)
                == reference_half_octahedron_function(h))


@pytest.mark.parametrize("pair", LARGE, ids=lambda p: f"n{p.f1.n}")
def test_propagation_promises_up_to_n24(pair):
    """Polarized, faces equal to the inputs, walls invert, commutor lands in
    the swapped set: checked without any reference."""
    f1, f2 = pair.f1, pair.f2
    n = f1.n
    t = propagate(f1, f2)
    assert check_polarized(t) == []
    assert extract_face(t, FaceChart.section_z(n, 0)) == f1
    shift = f1[0, n] - f2[0, 0]
    assert extract_face(t, FaceChart.ceiling(n)) == f2.shift(shift)
    w1, w2 = walls(t)
    assert not validate_dc(w1) and not validate_dc(w2)
    assert inverse_propagate(w1, w2) == t
    assert half_octahedron_diagnostics(f1).ok()
    o, b = commutor(f1), boundary(f1)
    assert not validate_dc(o)
    assert boundary(o) == type(b)(b.hyp, b.left, b.base)

