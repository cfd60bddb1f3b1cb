
import pytest
from hypothesis import given, strategies as st

from hives.tableaux import (SkewShape, SkewTableau, _lr_fillings,
                            is_lr_filling, lr_coefficient, partitions_in_box,
                            schur_product)

partitions = st.lists(st.integers(0, 4), max_size=3).map(
    lambda xs: tuple(sorted(xs, reverse=True)))


def test_pieri_singletons():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((1,), (1,), (3,)) == 0
    assert lr_coefficient((), (), ()) == 1


def test_weight_mismatch_and_containment():
    assert lr_coefficient((2,), (1,), (2,)) == 0
    assert lr_coefficient((3,), (1,), (2, 2)) == 0  # mu not contained in lam


def test_rejects_non_partition():
    with pytest.raises(ValueError):
        lr_coefficient((1, 2), (1,), (2, 2))


@given(partitions, partitions)
def test_symmetry(mu, nu):
    total = sum(mu) + sum(nu)
    for lam in partitions_in_box(total, 3, 8):
        assert lr_coefficient(mu, nu, lam) == lr_coefficient(nu, mu, lam)


@given(partitions, partitions)
def test_zero_padding_stability(mu, nu):
    lam = tuple(a + b for a, b in zip(sorted(mu + (0,) * 3, reverse=True),
                                      sorted(nu + (0,) * 3, reverse=True)))
    base = lr_coefficient(mu, nu, lam)
    assert lr_coefficient(mu + (0, 0), nu, lam + (0,)) == base
    assert lr_coefficient(mu, nu + (0,), lam + (0, 0)) == base


def test_pieri_rule_single_row():
    # multiplying by a one-row shape gives 1 exactly on horizontal strips
    mu = (3, 1)
    k = 2
    for lam in partitions_in_box(sum(mu) + k, 3, 6):
        lam_p = lam + (0,) * (3 - len(lam))
        mu_p = mu + (0,) * (3 - len(mu))
        horizontal = (all(lam_p[r] >= mu_p[r] for r in range(3))
                      and all(mu_p[r] >= lam_p[r + 1] for r in range(2)))
        assert lr_coefficient(mu, (k,), lam) == (1 if horizontal else 0), lam


def test_every_counted_filling_revalidates():
    cases = [((2, 1), (2, 1), (3, 2, 1)), ((2, 2), (2, 1), (3, 3, 1)),
             ((1,), (1,), (1, 1))]
    for mu, nu, lam in cases:
        count = 0
        for filling in _lr_fillings(mu, nu, lam):
            count += 1
            assert is_lr_filling(SkewShape(lam, mu), filling, nu)
        assert count == lr_coefficient(mu, nu, lam)


def test_filling_checker_rejects_bad_fillings():
    shape = SkewShape((2, 1), (0,))
    # column (0,0)/(1,0) must strictly increase; 1 over 1 is invalid
    bad = {(0, 1): 1, (0, 0): 1, (1, 0): 1}
    assert not is_lr_filling(shape, bad, (2, 1))
    good = {(0, 1): 1, (0, 0): 1, (1, 0): 2}
    assert is_lr_filling(shape, good, (2, 1))
    # reverse word 1,2,1 is lattice; 2,... is not
    not_lattice = {(0, 1): 2, (0, 0): 1, (1, 0): 2}
    assert not is_lr_filling(shape, not_lattice, (1, 2))


def test_skew_shape_validation():
    with pytest.raises(ValueError):
        SkewShape((2, 1), (3,))
    s = SkewShape((3, 2), (1,))
    assert s.cells() == [(0, 2), (0, 1), (1, 1), (1, 0)]
    assert s.size() == 4


def test_skew_tableau_type():
    shape = SkewShape((2, 1), ())
    t = SkewTableau(shape, {(0, 0): 1, (0, 1): 1, (1, 0): 2})
    assert t.reverse_word() == [1, 1, 2]
    assert t.weight() == (2, 1)
    assert t.is_semistandard() and t.is_lattice()
    with pytest.raises(ValueError):
        SkewTableau(shape, {(0, 0): 1})  # missing cells
    bad_col = SkewTableau(shape, {(0, 0): 1, (0, 1): 1, (1, 0): 1})
    assert not bad_col.is_semistandard()
    not_lattice = SkewTableau(shape, {(0, 0): 1, (0, 1): 2, (1, 0): 2})
    assert not not_lattice.is_lattice()


def test_schur_product_examples():
    assert schur_product((1,), (1,), 2) == {(2,): 1, (1, 1): 1}
    exp = schur_product((2, 1), (2, 1), 3)
    assert exp[(3, 2, 1)] == 2
    assert exp[(4, 2)] == 1 and exp[(2, 2, 2)] == 1
    assert schur_product((0,), (2, 1), 3) == {(2, 1): 1}
    # identity: coefficients sum-check against dimension count of products
    assert all(c > 0 for c in exp.values())


def test_schur_product_counts_match_lr():
    mu, nu = (2, 1), (1, 1)
    exp = schur_product(mu, nu, 4)
    for lam, c in exp.items():
        assert lr_coefficient(mu, nu, lam) == c
    for lam in partitions_in_box(sum(mu) + sum(nu), 4, 3):
        if lam not in exp:
            assert lr_coefficient(mu, nu, lam) == 0


def test_partitions_in_box():
    assert partitions_in_box(0, 3, 3) == [()]
    assert partitions_in_box(3, 2, 3) == [(3,), (2, 1)]
    assert partitions_in_box(4, 2, 2) == [(2, 2)]
    assert partitions_in_box(7, 2, 3) == []
    assert len(partitions_in_box(3, 3, 3)) == 3  # (3), (2,1), (1,1,1)
