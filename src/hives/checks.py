"""The identity suites behind ``hives selfcheck`` and their case generators.

Each suite re-checks one promise exactly over a fixed universe of cases and
returns (cases covered, failure messages); a suite that covers no case
fails.  The test suite draws its cases
from the same generators but keeps its own assertions, so a bug in a check
cannot pass both.
"""

from __future__ import annotations

import random
from functools import partial, wraps
from itertools import product
from typing import Callable, Iterator

from .bijections import (GluedPair, WallPair, assoc_forward, assoc_inverse,
                         commutor, half_octahedron_diagnostics)
from .enumeration import (brute_force_count, count_hives,
                          enumerate_glued_pairs, enumerate_hives,
                          enumerate_wall_pairs)
from .grids import FaceChart, TetraPoint
from .hive import Hive, Partition, pad
from .octahedron import (TetraFunction, check_pcpm, check_polarized,
                         extract_face, inverse_propagate, propagate)
from .tableaux import lr_coefficient, partitions_in_box

SELFCHECK_SEED = 20240400

Triple = tuple[Partition, Partition, Partition]
SuiteResult = tuple[int, list[str]]


# ---------------------------------------------------------------- generators

def partitions_upto(parts: int, max_part: int) -> list[Partition]:
    """All partitions with at most ``parts`` parts bounded by max_part,
    zero-padded to the full length."""
    return [pad(p, parts)
            for total in range(parts * max_part + 1)
            for p in partitions_in_box(total, parts, max_part)]


def triple_universe(n: int, max_part: int) -> list[Triple]:
    """Every balanced (mu, nu, lam) at size n with mu, nu entries <=
    max_part (so lam entries <= 2 * max_part)."""
    return [(mu, nu, pad(lam, n))
            for mu, nu in product(partitions_upto(n, max_part), repeat=2)
            for lam in partitions_in_box(sum(mu) + sum(nu), n, 2 * max_part)]


def glued_universe(n: int, max_part: int) -> Iterator[tuple[Partition, ...]]:
    """Every class (mu, pi, sigma, lam) at size n with mu, pi, sigma entries
    <= max_part and lam entries <= n * max_part, in the argument order of
    both coproducts, whose pairs are the two sides of assoc_forward."""
    ps = partitions_upto(n, max_part)
    for mu, pi, sigma in product(ps, repeat=3):
        for lam in partitions_in_box(sum(mu) + sum(pi) + sum(sigma), n,
                                     n * max_part):
            yield mu, pi, sigma, pad(lam, n)


def random_glued_pairs(seed: int, count: int) -> list[tuple[Hive, Hive]]:
    """Up to ``count`` seeded random glued DC pairs (ground, ceiling) at
    n = 4, drawn in at most 100 * count attempts; fewer come back only if
    the attempts run out."""
    rng = random.Random(seed)

    def pick(seq):
        return seq[rng.randrange(len(seq))]

    def partition() -> Partition:
        return tuple(sorted((rng.randint(0, 2) for _ in range(4)),
                            reverse=True))

    out: list[tuple[Hive, Hive]] = []
    for _ in range(100 * count):
        if len(out) == count:
            break
        # Every box below holds at least one partition of its total.
        mu, g = partition(), partition()
        lam = pad(pick(partitions_in_box(sum(mu) + sum(g), 4, 4)), 4)
        grounds = enumerate_hives(mu, g, lam)
        if not grounds:
            continue
        pi = pad(pick(partitions_in_box(rng.randint(0, sum(g)), 4, 2)), 4)
        sigma = pad(pick(partitions_in_box(sum(g) - sum(pi), 4, 4)), 4)
        ceilings = enumerate_hives(pi, sigma, g)
        if ceilings:
            out.append((pick(grounds), pick(ceilings)))
    return out


def commutor_triples(max_part: int) -> list[Triple]:
    """The n = 2 triple universe plus the n = 3 multiplicity-2 case
    ((2,1,0), (2,1,0); (3,2,1))."""
    return triple_universe(2, max_part) + [((2, 1, 0), (2, 1, 0), (3, 2, 1))]


def interior_points(n: int) -> list[TetraPoint]:
    """The points propagation solves for (z >= 1, x + y + z <= n - 1), in
    (z, y, x) order: a single bump at any of them must break polarization."""
    return [(x, y, z) for z in range(1, n) for y in range(n - z)
            for x in range(n - z - y)]


def bump(t: TetraFunction, point: TetraPoint, delta: int) -> TetraFunction:
    """t with ``delta`` added at one point."""
    x, y, z = point
    layers = [list(layer) for layer in t.layers]
    row = list(layers[z][y])
    row[x] += delta
    layers[z][y] = tuple(row)
    layers = tuple(map(tuple, layers))
    return (TetraFunction._trusted(layers) if type(delta) is int
            else TetraFunction(layers))


# ---------------------------------------------------------------- suites

def _suite(run: Callable[..., SuiteResult]) -> Callable[..., SuiteResult]:
    """Make a suite that covers no case fail: an empty universe proves
    nothing, so it must not read as a pass."""
    @wraps(run)
    def checked(*args, **kwargs) -> SuiteResult:
        cases, failures = run(*args, **kwargs)
        if not cases:
            failures = failures + [f"{run.__name__}: no cases covered"]
        return cases, failures
    return checked


@_suite
def lr_equivalence(max_n: int, max_part: int,
                   inject_fault: bool = False) -> SuiteResult:
    """count_hives == lr_coefficient over the whole box.  inject_fault
    swaps in a counter with one rhombus kind flipped, which must fail."""
    counter = (partial(brute_force_count, flip_kind="II") if inject_fault
               else count_hives)
    triples = triple_universe(max_n, max_part)
    failures = []
    for mu, nu, lam in triples:
        a, b = counter(mu, nu, lam), lr_coefficient(mu, nu, lam)
        if a != b:
            failures.append(f"count mismatch at {mu},{nu},{lam}: {a} != {b}")
    return len(triples), failures


@_suite
def propagation(max_part: int, random_cases: int) -> SuiteResult:
    """Propagate every glued pair at n = 2 plus ``random_cases`` seeded
    pairs at n = 4; check PCPM membership, the wall roundtrip, and that
    single-point perturbations break polarization.  A PCPM failure names
    its first non-polarized octahedron and each non-DC section."""
    failures: list[str] = []
    glued = [(f"glued({mu},{pi},{sigma},{lam})", pair)
             for mu, pi, sigma, lam in glued_universe(2, min(2, max_part))
             for pair in enumerate_glued_pairs(mu, pi, sigma, lam)]
    randoms = random_glued_pairs(SELFCHECK_SEED, random_cases)
    tagged = ([(f"{at}#{k}", pair) for k, (at, pair) in enumerate(glued, 1)]
              + [(f"random#{k}", pair) for k, pair in enumerate(randoms, 1)])

    for tag, (f1, f2) in tagged:
        t = propagate(f1, f2)
        n = t.n
        failures += [f"{tag}: {line}" for line in check_pcpm(t).witnesses()]
        w1 = extract_face(t, FaceChart.section_x(n, 0))
        w2 = extract_face(t, FaceChart.section_y(n, 0))
        if inverse_propagate(w1, w2) != t:
            failures.append(f"{tag}: wall roundtrip failed")
        for p in interior_points(n):
            for d in (1, -1):
                if not check_polarized(bump(t, p, d)):
                    failures.append(f"{tag}: perturbation at {p} undetected")
    if len(randoms) < random_cases:
        failures.append(f"could only generate {len(randoms)} random pairs")
    return len(tagged), failures


@_suite
def associativity(max_part: int) -> SuiteResult:
    """Bijectivity of assoc_forward between the two coproducts at n = 2,
    with both coproduct cardinalities cross-checked against sums of
    products of tableau-oracle coefficients."""
    failures: list[str] = []
    cases = 0
    for mu, pi, sigma, lam in glued_universe(2, min(2, max_part)):
        at = f"({mu},{pi},{sigma},{lam})"
        domain = enumerate_glued_pairs(mu, pi, sigma, lam)
        target = enumerate_wall_pairs(mu, pi, sigma, lam)
        glue_total = sum(lam) - sum(mu)
        lhs = sum(lr_coefficient(mu, g, lam) * lr_coefficient(pi, sigma, g)
                  for g in partitions_in_box(glue_total, 2, glue_total))
        rhs = sum(lr_coefficient(mu, pi, t) * lr_coefficient(t, sigma, lam)
                  for t in partitions_in_box(sum(mu) + sum(pi), 2,
                                             sum(mu) + sum(pi)))
        if not lhs == len(domain) == len(target) == rhs:
            failures.append(f"coproduct sizes at {at}: glued {len(domain)}, "
                            f"wall {len(target)}, oracle {lhs} and {rhs}")
        if not domain:
            continue
        cases += 1
        images = []
        for f1, f2 in domain:
            w = assoc_forward(GluedPair(f1, f2))
            images.append((w.w1, w.w2))
            if assoc_inverse(w) != GluedPair(f1, f2):
                failures.append(f"inverse(forward) != id at {at}")
        if len(set(images)) != len(images):
            failures.append(f"forward not injective at {at}")
        if set(images) != set(target):
            failures.append(f"image differs from wall coproduct at {at}")
        for w1, w2 in target:
            w = WallPair(w1, w2)
            if assoc_forward(assoc_inverse(w)) != w:
                failures.append(f"forward(inverse) != id at {at}")
    return cases, failures


@_suite
def commutativity(max_part: int) -> SuiteResult:
    """Commutor bijectivity and half-octahedron diagnostics over
    commutor_triples.  A diagnostics failure names the first witness of
    its first failing check."""
    failures: list[str] = []
    cases = 0
    for mu, nu, lam in commutor_triples(min(2, max_part)):
        hs = enumerate_hives(mu, nu, lam)
        if not hs:
            continue
        cases += 1
        target = set(enumerate_hives(nu, mu, lam))
        if len(target) != len(hs):
            failures.append(f"|DC({mu},{nu};{lam})| != |DC({nu},{mu};{lam})|")
        outs = set()
        for h in hs:
            o = commutor(h)
            outs.add(o)
            if o not in target:
                failures.append(f"commutor output leaves DC({nu},{mu};{lam})")
            witness = half_octahedron_diagnostics(h).witness()
            if witness is not None:
                failures.append(f"diagnostics failed at ({mu},{nu},{lam}): "
                                f"{witness}")
        if len(outs) != len(hs):
            failures.append(f"commutor not injective at ({mu},{nu},{lam})")
    return cases, failures


def selfcheck_suites(max_n: int, max_part: int, random_cases: int,
                     inject_fault: bool = False
                     ) -> list[tuple[str, Callable[[], SuiteResult]]]:
    """The selfcheck suites in report order, as (title, run) pairs."""
    return [
        ("hive-count == tableau-count",
         partial(lr_equivalence, max_n, max_part, inject_fault)),
        ("propagation: PCPM + sections + roundtrip + perturbation",
         partial(propagation, max_part, random_cases)),
        ("associativity bijection", partial(associativity, max_part)),
        ("commutor bijection + diagnostics", partial(commutativity, max_part)),
    ]
