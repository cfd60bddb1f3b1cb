import random
from itertools import product

import pytest

from hives import enumeration
from hives.checks import glued_universe, partitions_upto, triple_universe
from hives.enumeration import (brute_force_count, count_glued_pairs,
                               count_hives, count_wall_pairs,
                               enumerate_glued_pairs, enumerate_hives,
                               enumerate_wall_pairs)
from hives.grids import tri_points
from hives.hive import Hive, boundary, pad, validate_dc
from hives.tableaux import lr_coefficient, partitions_in_box


def values_in_order(h: Hive) -> tuple[int, ...]:
    """The values of h in tri_points order, the canonical sort key."""
    return tuple(h[p] for p in tri_points(h.n))


def test_worked_singleton():
    hs = enumerate_hives((1, 0), (1, 0), (2, 0))
    assert hs == (Hive(((0, 2, 2), (1, 2), (1,))),)
    assert count_hives((1, 0), (1, 0), (1, 1)) == 1
    assert count_hives((2, 1, 0), (2, 1, 0), (3, 2, 1)) == 2


def test_unbalanced_weights_empty():
    assert count_hives((1,), (1,), (3,)) == 0
    assert enumerate_hives((2, 1), (1, 0), (1, 1)) == ()


def test_members_revalidate():
    for mu, nu, lam in [((2, 1), (2, 1), (3, 2, 1)), ((2, 2), (2, 0), (3, 3))]:
        hs = enumerate_hives(mu, nu, lam)
        n = len(lam)
        for h in hs:
            assert h.is_normalized()
            assert not validate_dc(h)
            b = boundary(h)
            assert b.left == pad(mu, n)
            assert b.hyp == pad(nu, n)
            assert b.base == pad(lam, n)
        assert len(set(hs)) == len(hs)


def test_canonical_order():
    hs = enumerate_hives((2, 1, 0), (2, 1, 0), (3, 2, 1))
    vectors = [values_in_order(h) for h in hs]
    assert vectors == sorted(vectors)


REFERENCE = ((6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1),
             (9, 8, 7, 6, 5, 4, 2, 1))


def test_canonical_order_reference_n8():
    mu, nu, lam = REFERENCE
    hs = enumerate_hives(mu, nu, lam)
    assert len(set(hs)) == len(hs) == 1624
    vectors = [values_in_order(h) for h in hs]
    assert all(a < b for a, b in zip(vectors, vectors[1:]))
    for h in hs:
        assert h.is_normalized()
        assert not validate_dc(h)
        b = boundary(h)
        assert (b.left, b.hyp, b.base) == (pad(mu, 8), pad(nu, 8), lam)
    assert count_hives(mu, nu, lam) == len(hs)


def test_count_equals_enumeration_n6():
    cases = {((3, 2, 1), (3, 2, 1), (5, 4, 2, 1, 0, 0)): 4,
             ((4, 3, 2, 1), (2, 2, 1), (5, 4, 3, 2, 1, 0)): 5,
             ((3, 2, 2, 1, 1, 1), (3, 2, 1), (5, 4, 3, 2, 1, 1)): 3,
             ((4, 3, 2, 1), (4, 3, 2, 1), (6, 5, 4, 3, 1, 1)): 18,
             ((3, 2, 1), (3, 2, 1), (6, 6, 0, 0, 0, 0)): 0}
    for (mu, nu, lam), c in cases.items():
        assert count_hives(mu, nu, lam) == len(enumerate_hives(mu, nu, lam))
        assert count_hives(mu, nu, lam) == c == lr_coefficient(mu, nu, lam)


def test_count_matches_oracle_n4_n5():
    # From n = 4 the row-pair memo of count_hives has nonempty keys, and
    # from n = 5 its keys hold two rows; a key missing either row
    # miscounts some triple of this box.
    cases = triple_universe(4, 2) + triple_universe(5, 2) + [REFERENCE]
    assert len(cases) == 5275
    for mu, nu, lam in cases:
        assert count_hives(mu, nu, lam) == lr_coefficient(mu, nu, lam), \
            (mu, nu, lam)


def test_plan_rejects_an_unbounded_point(monkeypatch):
    # Without kind-I rhombi no interior point has an upper bound.
    only_ii_iii = tuple(rh for rh in enumeration.unit_rhombi_2d(4)
                        if rh.kind != "I")
    monkeypatch.setattr(enumeration, "unit_rhombi_2d",
                        lambda n: only_ii_iii)
    with pytest.raises(RuntimeError, match="no upper bound"):
        enumeration._completion_plan.__wrapped__(4)


def _weyl_rejected(cases):
    return [t for t in cases if not enumeration._weyl_feasible(*t)]


def test_boundary_filter_decides_n2():
    # At n = 2 the Weyl and dual Weyl inequalities are the whole Horn list,
    # and the search has no interior point, so the filter alone decides.
    # lam_1 runs up to 12 = mu_1 + nu_1, beyond which Weyl rejects at once.
    ps = partitions_upto(2, 6)
    cases = [(mu, nu, pad(lam, 2)) for mu, nu in product(ps, repeat=2)
             for lam in partitions_in_box(sum(mu) + sum(nu), 2, 12)]
    assert len(cases) == 3956
    for mu, nu, lam in cases:
        assert ((enumeration._search_start(mu, nu, lam) is None)
                == (lr_coefficient(mu, nu, lam) == 0)), (mu, nu, lam)


def _random_triple(rng: random.Random, n: int):
    """mu and nu with n parts in [0, n - 2], and lam a partition of their
    total weight into n parts cut at n - 1 random points."""
    mu, nu = (tuple(sorted((rng.randint(0, n - 2) for _ in range(n)),
                           reverse=True)) for _ in range(2))
    weight = sum(mu) + sum(nu)
    cuts = sorted(rng.randint(0, weight) for _ in range(n - 1))
    lam = sorted((b - a for a, b in zip([0, *cuts], [*cuts, weight])),
                 reverse=True)
    return mu, nu, tuple(lam)


def test_boundary_filter_rejects_only_zero_coefficients():
    rng = random.Random(13)
    cases = [_random_triple(rng, 6 + k % 3) for k in range(3000)]
    rejected = _weyl_rejected(cases)
    assert len(rejected) > 2000
    for t in rejected:
        assert lr_coefficient(*t) == 0, t
    rejected = _weyl_rejected(triple_universe(3, 2))
    assert len(rejected) == 190
    for t in rejected:
        assert brute_force_count(*t) == 0, t


def test_search_finds_no_hive_where_the_filter_rejects(monkeypatch):
    rejected = _weyl_rejected(triple_universe(4, 2))
    assert rejected
    monkeypatch.setattr(enumeration, "_weyl_feasible", lambda *t: True)
    for t in rejected:
        assert count_hives(*t) == 0, t


@pytest.mark.parametrize("n, max_part, zeros, rejected", [
    (3, 3, 1640, 1640), (4, 2, 803, 798), (5, 2, 2579, 2546)])
def test_boundary_filter_reach(n, max_part, zeros, rejected):
    # Pinned so that a weaker filter, which would give back the speed of
    # rejecting zero triples unsearched, fails here.
    cases = triple_universe(n, max_part)
    assert sum(lr_coefficient(*t) == 0 for t in cases) == zeros
    assert len(_weyl_rejected(cases)) == rejected


def test_oracle_equivalence_small_box():
    for mu, nu, lam in triple_universe(2, 2):
        assert count_hives(mu, nu, lam) == lr_coefficient(mu, nu, lam)


def test_padding_stability():
    cases = [((2, 1), (2, 1), (3, 2, 1)), ((1,), (1,), (2,)),
             ((2, 2), (1, 1), (3, 3))]
    for mu, nu, lam in cases:
        base = count_hives(mu, nu, lam)
        assert count_hives(mu + (0, 0), nu + (0, 0), lam + (0, 0)) == base
        assert count_hives(pad(mu, 5), pad(nu, 5), pad(lam, 5)) == base


def test_brute_force_agreement():
    cases = [((1, 0), (1, 0), (2, 0)), ((1, 1), (1, 1), (4, 0)),
             ((2, 1, 0), (2, 1, 0), (3, 2, 1)), ((2, 2), (2, 1), (3, 3, 1)),
             ((3, 1), (2, 1), (3, 2, 2))]
    for mu, nu, lam in cases:
        assert brute_force_count(mu, nu, lam) == count_hives(mu, nu, lam)


def test_brute_force_fault_flips_are_detected():
    # flipping any rhombus kind must disturb at least one count in the box
    for kind in ("I", "II", "III"):
        assert any(
            brute_force_count(mu, nu, lam, flip_kind=kind)
            != count_hives(mu, nu, lam)
            for mu, nu, lam in triple_universe(2, 2))


def test_glued_pairs_definitional_count():
    mu, lam, pi, sigma = (1, 0), (2, 1), (1, 0), (1, 0)
    pairs = enumerate_glued_pairs(mu, lam, pi, sigma)
    glue_total = sum(lam) - sum(mu)
    expected = sum(count_hives(mu, g, lam) * count_hives(pi, sigma, g)
                   for g in partitions_in_box(glue_total, 2, glue_total))
    assert len(pairs) == expected > 0
    for f1, f2 in pairs:
        assert boundary(f1).hyp == boundary(f2).base


@pytest.mark.parametrize("mu, nu, lam", [
    ((1, 2), (1, 0), (2, 2)),   # mu not a partition
    ((1, 0), (0, 1), (1, 1)),   # nu not a partition
    ((1, 0), (1, 0), (0, 2)),   # lam not a partition
    ((2, -1), (1, 0), (2, 0)),  # a negative part in mu
    ((1, 0), (2, -1), (2, 0)),  # a negative part in nu
    ((1, 0), (1, 0), (3, 0)),   # unbalanced weights
    ((1, 0), (1, 0), (1, 0)),   # unbalanced, yet Weyl-feasible
])
def test_malformed_triples_have_no_hive(mu, nu, lam):
    assert count_hives(mu, nu, lam) == 0
    assert enumerate_hives(mu, nu, lam) == ()
    assert brute_force_count(mu, nu, lam) == 0


@pytest.mark.parametrize("bad", [(1, 2), (0, 1), (2, -1)])
@pytest.mark.parametrize("position", range(4))
def test_coproducts_of_a_non_partition_are_empty(bad, position):
    """bad at each place of (mu, pi, sigma, lam), the other three being
    partitions chosen so that the weights balance."""
    parts = [(1, 0)] * 3
    if position == 3:
        parts = [(1, 0) if k < sum(bad) else (0, 0) for k in range(3)]
        parts.append(bad)
    else:
        parts[position] = bad
        w = sum(bad) + 2
        parts.append(((w + 1) // 2, w // 2))
    mu, pi, sigma, lam = parts
    assert enumerate_glued_pairs(mu, lam, pi, sigma) == []
    assert count_glued_pairs(mu, lam, pi, sigma) == 0
    assert enumerate_wall_pairs(mu, pi, sigma, lam) == []
    assert count_wall_pairs(mu, pi, sigma, lam) == 0


def test_glued_pairs_weight_mismatch_empty():
    assert enumerate_glued_pairs((1, 0), (1, 0), (1, 0), (1, 0)) == []
    assert enumerate_wall_pairs((1, 0), (1, 0), (1, 0), (1, 0)) == []
    assert count_glued_pairs((1, 0), (1, 0), (1, 0), (1, 0)) == 0
    assert count_wall_pairs((1, 0), (1, 0), (1, 0), (1, 0)) == 0
    # a term of each passes the Weyl inequalities: only the balance test
    # empties these
    assert enumerate_glued_pairs((1, 0), (2, 0), (1, 0), (1, 0)) == []
    assert enumerate_wall_pairs((1, 0), (1, 0), (1, 0), (2, 0)) == []
    assert count_glued_pairs((1, 0), (2, 0), (1, 0), (1, 0)) == 0
    assert count_wall_pairs((1, 0), (1, 0), (1, 0), (2, 0)) == 0


def test_coproduct_cardinalities_agree():
    # sum_g c(mu,g;lam) c(pi,sigma;g) == sum_t c(mu,pi;t) c(t,sigma;lam)
    ps = [pad(p, 2) for t in range(0, 5) for p in partitions_in_box(t, 2, 2)]
    for mu, pi, sigma in product(ps, repeat=3):
        for lam in partitions_in_box(sum(mu) + sum(pi) + sum(sigma), 2, 6):
            lam = pad(lam, 2)
            glued = enumerate_glued_pairs(mu, lam, pi, sigma)
            walls = enumerate_wall_pairs(mu, pi, sigma, lam)
            assert (count_glued_pairs(mu, lam, pi, sigma) == len(glued)
                    == len(walls) == count_wall_pairs(mu, pi, sigma, lam)), \
                (mu, pi, sigma, lam)


def _pairs_in_documented_order(mu, pi, sigma, lam):
    """Both coproducts built by their docstrings' order: by glue in
    descending lex order over every partition of the glue weight, then
    the left factor's members, then the right factor's."""
    n = len(lam)

    def glues(weight):
        return [pad(g, n) for g in partitions_in_box(weight, n, weight)]

    glued = [(f1, f2) for g in glues(sum(pi) + sum(sigma))
             for f1 in enumerate_hives(mu, g, lam)
             for f2 in enumerate_hives(pi, sigma, g)]
    walls = [(w1, w2) for t in glues(sum(mu) + sum(pi))
             for w1 in enumerate_hives(mu, pi, t)
             for w2 in enumerate_hives(t, sigma, lam)]
    return glued, walls


def _random_classes(seed: int, n: int, count: int):
    """count seeded classes (mu, pi, sigma, lam) at size n with parts of
    mu, pi, sigma at most 2 and a nonempty glued coproduct."""
    rng = random.Random(seed)
    classes = []
    while len(classes) < count:
        mu, pi, sigma = (tuple(sorted((rng.randint(0, 2) for _ in range(n)),
                                      reverse=True)) for _ in range(3))
        lams = partitions_in_box(sum(mu) + sum(pi) + sum(sigma), n, 6)
        lam = pad(lams[rng.randrange(len(lams))], n)
        if count_glued_pairs(mu, lam, pi, sigma):
            classes.append((mu, pi, sigma, lam))
    return classes


def test_coproduct_pairs_come_in_the_documented_order():
    classes = [*glued_universe(2, 2), *_random_classes(17, 3, 60)]
    for mu, pi, sigma, lam in classes:
        glued, walls = _pairs_in_documented_order(mu, pi, sigma, lam)
        assert enumerate_glued_pairs(mu, lam, pi, sigma) == glued, \
            (mu, pi, sigma, lam)
        assert enumerate_wall_pairs(mu, pi, sigma, lam) == walls, \
            (mu, pi, sigma, lam)
