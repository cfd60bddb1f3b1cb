"""M-concavity as an independent check of the cutting sections.

In barycentric coordinates a = (x, y, z, n - x - y - z) a function f on the
tetrahedron grid is M-concave when, for all points a, b and each i with
a_i > b_i, some j with b_j > a_j gives

    f(a) + f(b) <= f(a - e_i + e_j) + f(b + e_i - e_j).

By the local exchange theorem (Murota, "Discrete Convex Analysis";
Murota-Shioura) this is the octahedron exchange axiom plus discrete
concavity of every cutting-plane section.  A polarized function meets the
first, so on it M-concavity and "every section is DC" must agree.  The
checker below reads only barycentric 4-tuples and a dict: it shares no
chart, rhombus or section code with check_pcpm.
"""

import random
from functools import lru_cache
from itertools import product

from hives.checks import bump, glued_universe, interior_points
from hives.enumeration import enumerate_glued_pairs
from hives.hive import Hive, pad
from hives.octahedron import TetraFunction, check_pcpm, propagate
from hives.tableaux import partitions_in_box


def barycentric(t: TetraFunction) -> dict[tuple[int, ...], int]:
    """t as a dict on the points (x, y, z, n - x - y - z)."""
    n = len(t.layers) - 1
    return {(x, y, z, n - x - y - z): v
            for z, layer in enumerate(t.layers)
            for y, row in enumerate(layer)
            for x, v in enumerate(row)}


def moved(a: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    """a - e_i + e_j."""
    out = list(a)
    out[i] -= 1
    out[j] += 1
    return tuple(out)


@lru_cache(maxsize=None)
def exchanges(n: int):
    """Every exchange to test at size n, as (a, b, i, options), options
    holding the pair (a - e_i + e_j, b + e_i - e_j) for each j with
    b_j > a_j; nearest pairs first, so a failure tends to show early.

    Pairs with a - b = e_i - e_j are left out: their one exchange swaps a
    and b, so it always holds."""
    points = [(x, y, z, n - x - y - z) for z in range(n + 1)
              for y in range(n - z + 1) for x in range(n - z - y + 1)]
    out = []
    for a, b in product(points, repeat=2):
        for i in range(4):
            if a[i] <= b[i]:
                continue
            options = tuple((moved(a, i, j), moved(b, j, i))
                            for j in range(4) if b[j] > a[j])
            if options != ((b, a),):
                out.append((a, b, i, options))
    out.sort(key=lambda e: sum(abs(p - q) for p, q in zip(e[0], e[1])))
    return out


def exchange_violation(f: dict[tuple[int, ...], int]):
    """The first (a, b, i) of exchanges(n) for which no j gives the
    exchange, or None."""
    n = sum(next(iter(f)))
    for a, b, i, options in exchanges(n):
        total = f[a] + f[b]
        if all(total > f[c] + f[d] for c, d in options):
            return a, b, i
    return None


def random_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(sorted((rng.randint(0, 2) for _ in range(n)), reverse=True))


def seeded_dc_pairs(seed: int, n: int, count: int) -> list[tuple[Hive, Hive]]:
    """count seeded glued DC pairs at size n: mu, pi, sigma with parts at
    most 2 and a random lam, one pair drawn from each nonempty class."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        mu, pi, sigma = (random_partition(rng, n) for _ in range(3))
        lams = partitions_in_box(sum(mu) + sum(pi) + sum(sigma), n, 6)
        lam = pad(lams[rng.randrange(len(lams))], n)
        pairs = enumerate_glued_pairs(mu, pi, sigma, lam)
        if pairs:
            out.append(pairs[rng.randrange(len(pairs))])
    return out


def noisy(rng: random.Random, h: Hive, keep) -> Hive:
    """h with +-1 added at one or two random points (i, j) off the points
    where keep(i, j) holds."""
    rows = [list(row) for row in h.rows]
    free = [(i, j) for j, row in enumerate(rows) for i in range(len(row))
            if not keep(i, j)]
    for i, j in rng.sample(free, rng.randint(1, 2)):
        rows[j][i] += rng.choice((1, -1))
    return Hive(rows)


def test_exchange_holds_on_propagations():
    pairs = [pair for mu, pi, sigma, lam in glued_universe(2, 2)
             for pair in enumerate_glued_pairs(mu, pi, sigma, lam)]
    pairs += seeded_dc_pairs(3, 3, 40) + seeded_dc_pairs(4, 4, 20)
    assert len(pairs) == 279 + 60
    for f1, f2 in pairs:
        assert exchange_violation(barycentric(propagate(f1, f2))) is None


def test_exchange_agrees_with_the_section_check():
    """On polarized functions from DC faces, one of them with +-1 noise
    off the shared edge, exchange holds exactly when check_pcpm finds no
    section rhombus violation."""
    rng = random.Random(20)
    pools = {2: [pair for mu, pi, sigma, lam in glued_universe(2, 2)
                 for pair in enumerate_glued_pairs(mu, pi, sigma, lam)],
             3: seeded_dc_pairs(5, 3, 60), 4: seeded_dc_pairs(6, 4, 60)}
    pcpm = {2: 0, 3: 0, 4: 0}
    for n in [2] * 1400 + [3] * 1100 + [4] * 500:
        ground, ceiling = rng.choice(pools[n])
        if rng.random() < 0.5:
            ground = noisy(rng, ground, lambda i, j: i + j == n)
        else:
            ceiling = noisy(rng, ceiling, lambda i, j: j == 0)
        t = propagate(ground, ceiling)
        dc = not check_pcpm(t).rhombus_violations
        pcpm[n] += dc
        assert (exchange_violation(barycentric(t)) is None) == dc, t.layers
    assert sum(pcpm.values()) >= 300 and min(pcpm.values()) >= 30, pcpm


def test_a_single_bump_breaks_exchange():
    f1, f2 = seeded_dc_pairs(8, 4, 1)[0]
    t = propagate(f1, f2)
    assert exchange_violation(barycentric(t)) is None
    points = interior_points(4)
    assert len(points) == 10
    for x, y, z in points:
        for delta in (1, -1):
            bumped = barycentric(bump(t, (x, y, z), delta))
            assert exchange_violation(bumped) is not None, ((x, y, z), delta)
