import pytest
from hypothesis import given, strategies as st

from hives.enumeration import enumerate_hives
from hives.grids import unit_rhombi_2d
from hives.hive import (Hive, boundary, ceiling_extension, ground_function,
                        is_dc, op_tuple, p_mu, prefix_sums, rhombus_slack,
                        validate_dc)

WORKED = Hive(((0, 2, 2), (1, 2), (1,)))


def test_hive_shape_validation():
    with pytest.raises(ValueError):
        Hive(((0, 1), (2, 3)))
    h = Hive.build(2, lambda i, j: i + j)
    assert h[2, 0] == 2 and h[0, 2] == 2
    assert h.values_in_order() == (0, 1, 2, 1, 2, 2)


@pytest.mark.parametrize("rows", [
    (),                          # no rows: size -1
    ((0, 1.7), (1,)),            # a float entry
    ((True, 1), (1,)),           # a bool entry
    ((0, "1"), (1,)),            # a string entry
])
def test_hive_rejects_non_integer_entries_and_empty_rows(rows):
    with pytest.raises(ValueError):
        Hive(rows)


def test_validate_dc_examples():
    assert not validate_dc(Hive.zero(3))
    assert not validate_dc(WORKED)
    bad = Hive(((0, 2, 2), (1, 4), (1,)))
    violations = validate_dc(bad)
    assert [(rh.kind, rh.anchor) for rh in violations] == [("I", (0, 0))]


def test_validate_dc_reports_all_violations():
    spike = Hive.build(3, lambda i, j: 5 if (i, j) == (1, 1) else 0)
    kinds = {(rh.kind, rh.anchor) for rh in validate_dc(spike)}
    # the spike breaks every rhombus whose free diagonal contains (1, 1)
    assert ("I", (0, 0)) in kinds and len(kinds) >= 3


def test_boundary_examples():
    b = boundary(WORKED)
    assert (b.left, b.hyp, b.base) == ((1, 0), (1, 0), (2, 0))
    assert b.weights_balance() and b.is_partition_triple()
    z = boundary(Hive.zero(3))
    assert z.left == z.hyp == z.base == (0, 0, 0)


def test_boundary_nonincreasing_for_dc():
    for mu, nu, lam in [((2, 1), (2, 1), (3, 2, 1)), ((2, 2), (1, 1), (3, 3))]:
        for h in enumerate_hives(mu, nu, lam):
            b = boundary(h)
            assert b.is_partition_triple()
            assert sum(b.left) + sum(b.hyp) == sum(b.base)


def test_p_mu():
    pm = p_mu((2, 1))
    assert pm.rows == ((0, 2, 3), (0, 2), (0,))
    b = boundary(pm)
    assert (b.left, b.hyp, b.base) == ((0, 0), (2, 1), (2, 1))
    assert p_mu((0, 0)) == Hive.zero(2)
    # uniqueness: the enumeration of DC(0, mu; mu) returns exactly p_mu
    hs = enumerate_hives((0, 0), (2, 1), (2, 1))
    assert hs.members == (pm,)


def test_p_mu_rhombus_slacks():
    mu = (3, 2, 2, 0)
    pm = p_mu(mu)
    for rh in unit_rhombi_2d(4):
        slack = rhombus_slack(pm, rh)
        if rh.kind in ("I", "III"):
            assert slack == 0
        else:
            i = rh.anchor[0]  # kind II slack is mu_{i+1} - mu_{i+2}, 1-based
            assert slack == mu[i] - (mu[i + 1] if i + 1 < 4 else 0)


def test_op_tuple():
    assert op_tuple((2, 1, 0)) == (0, 1, 2)
    assert op_tuple(()) == ()


@given(st.lists(st.integers(-5, 5), max_size=6).map(tuple))
def test_op_tuple_involution(t):
    assert op_tuple(op_tuple(t)) == t


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_affine_invariance(c, a, b):
    # adding c + a*i + b*j never changes any rhombus slack
    for h in (WORKED, Hive(((0, 2, 2), (1, 4), (1,)))):
        shifted = Hive.build(h.n, lambda i, j: h[i, j] + c + a * i + b * j)
        for rh in unit_rhombi_2d(h.n):
            assert rhombus_slack(h, rh) == rhombus_slack(shifted, rh)
        bh, bs = boundary(h), boundary(shifted)
        assert bs.left == tuple(x + b for x in bh.left)
        assert bs.base == tuple(x + a for x in bh.base)
        assert bs.hyp == tuple(x + a - b for x in bh.hyp)


def test_ground_function_values():
    g = ground_function((1, 0))
    assert g[0, 0] == -2 and g[2, 2] == 1 and g[0, 4] == 0 and g[4, 0] == 1
    assert ground_function((0, 0, 0)) == Hive.build(6, lambda i, j: 0)


@pytest.mark.parametrize("mu", [(1, 0), (2, 1), (3, 1, 0), (2, 2, 2)])
def test_ground_function_dc_and_labels(mu):
    n = len(mu)
    g = ground_function(mu)
    assert is_dc(g)
    b = boundary(g)
    mu1 = mu[0]
    assert b.hyp == mu + (0,) * n                            # Y->XY then XY->X
    assert b.base == tuple(mu1 for _ in range(n)) + mu       # O->OX then OX->X
    assert b.left == tuple(mu1 for _ in range(n)) + (0,) * n  # O->OY then OY->Y
    # inner edges: constant along OY->OX, mu-increments along OY->XY at y=n
    assert all(g[x, n] - g[x - 1, n] == mu[x - 1] for x in range(1, n + 1))
    assert len({g[x, n - x] for x in range(n + 1)}) == 1


def test_ground_agrees_with_ceiling_on_shared_edge():
    h = WORKED
    n = h.n
    f = ceiling_extension(h)
    g = ground_function(boundary(h).left)
    for k in range(2 * n + 1):
        assert g[k, 2 * n - k] == f[k, 0]


def test_ceiling_extension_values_and_labels():
    h = WORKED
    f = ceiling_extension(h)
    assert f.n == 4 and f.is_normalized()
    assert f[0, 4] == -2 and f[4, 0] == 1 and f[1, 1] == 1
    # central restriction: (a, b) -> h(a+b-n, n-b) on the middle triangle
    n = h.n
    for a in range(n + 1):
        for b in range(n + 1):
            if a + b >= n:
                assert f[a, b] == h[a + b - n, n - b]
    bt = boundary(f)
    lam, nu = boundary(h).base, boundary(h).hyp
    assert bt.base == boundary(h).left + (0,) * n
    assert bt.left == (0,) * n + tuple(x - lam[0] for x in lam)
    assert bt.hyp == tuple(lam[0] for _ in range(n)) + tuple(-x for x in op_tuple(nu))


def test_ceiling_extension_zero():
    assert ceiling_extension(Hive.zero(1)) == Hive.zero(2)
    assert ceiling_extension(Hive.zero(3)) == Hive.zero(6)


def test_ceiling_extension_separable_input_is_dc():
    # for a flat-diagonal input (hypotenuse increments zero) the extension
    # stays discretely concave ...
    flat = Hive.build(3, lambda i, j: prefix_sums((2, 1, 0))[i + j])
    assert is_dc(ceiling_extension(flat))


def test_ceiling_extension_seams_can_fail():
    # ... but in general the seams of the central triangle can break it,
    # which is why the commutor is built on the half-octahedron instead.
    f = ceiling_extension(WORKED)
    bad = validate_dc(f)
    assert ("I", (1, 0)) in {(rh.kind, rh.anchor) for rh in bad}


def test_ceiling_extension_rejects_bad_input():
    with pytest.raises(ValueError):
        ceiling_extension(Hive(((0, 2, 2), (1, 4), (1,))))   # not DC
    with pytest.raises(ValueError):
        ceiling_extension(Hive(((1, 3), (2,))))              # not normalized
    with pytest.raises(ValueError):
        ceiling_extension(Hive(((0, 0), (2,))))              # boundary not partitions


def test_prefix_sums():
    assert prefix_sums((2, 1, 0)) == (0, 2, 3, 3)
    assert prefix_sums(()) == (0,)
