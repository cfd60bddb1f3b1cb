import pathlib
import random
import re
import runpy

import pytest
from hypothesis import given, strategies as st

from hives.checks import triple_universe
from hives.enumeration import enumerate_hives
from hives.grids import tri_points, unit_rhombi_2d
from hives.hive import (Hive, boundary, is_partition, p_mu, prefix_sums,
                        rhombus_slack, validate_dc)

WORKED = Hive(((0, 2, 2), (1, 2), (1,)))

# ground_function lives in the exploration script, its only caller.
ground_function = runpy.run_path(
    str(pathlib.Path(__file__).resolve().parents[1] / "scripts"
        / "explore_commutor_geometry.py"))["ground_function"]


def _raises_exactly(message: str):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def test_hive_shape_validation():
    with _raises_exactly("row 1 has 2 entries, expected 1"):
        Hive(((0, 1), (2, 3)))
    h = Hive.build(2, lambda i, j: i + j)
    assert h[2, 0] == 2 and h[0, 2] == 2
    assert tuple(h[p] for p in tri_points(2)) == (0, 1, 2, 1, 2, 2)


@pytest.mark.parametrize("rows, message", [
    ((), "a hive needs at least one row"),  # no rows: size -1
    (((0, 1.7), (1,)), "row 0 holds 1.7, not an int"),
    (((True, 1), (1,)), "row 0 holds True, not an int"),
    (((0, "1"), (1,)), "row 0 holds '1', not an int"),
], ids=[f"rows{k}" for k in range(4)])
def test_hive_rejects_non_integer_entries_and_empty_rows(rows, message):
    with _raises_exactly(message):
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


def test_validate_dc_matches_the_rhombus_list():
    """The row scan reports exactly the rhombi of unit_rhombi_2d with
    negative slack, in that order: n = 0, 1, 2 and 300 bumped hives."""
    def by_rhombus(h):
        return [rh for rh in unit_rhombi_2d(h.n) if rhombus_slack(h, rh) < 0]

    small = [Hive(((0,),)), Hive(((0, 3), (1,))), Hive(((5, -2), (7,))),
             WORKED, Hive(((0, 2, 2), (1, 4), (1,))),
             Hive(((0, 0, 0), (0, 9), (0,)))]
    rng = random.Random(20240611)
    bumped = []
    triples = [t for n in (3, 4, 5) for t in triple_universe(n, 2)
               if sum(t[2]) >= 4]
    while len(bumped) < 300:
        hs = enumerate_hives(*rng.choice(triples))
        if not hs:
            continue
        h = rng.choice(hs)
        rows = [list(row) for row in h.rows]
        j = rng.randrange(h.n + 1)
        rows[j][rng.randrange(h.n - j + 1)] += rng.choice((-2, -1, 1, 2))
        bumped.append(Hive(rows))
    for h in small + bumped:
        assert validate_dc(h) == by_rhombus(h), h.rows
    assert sum(len(validate_dc(h)) >= 2 for h in bumped) >= 150


def test_boundary_examples():
    b = boundary(WORKED)
    assert (b.left, b.hyp, b.base) == ((1, 0), (1, 0), (2, 0))
    assert all(map(is_partition, (b.left, b.hyp, b.base)))
    assert sum(b.left) + sum(b.hyp) == sum(b.base)
    z = boundary(Hive.zero(3))
    assert z.left == z.hyp == z.base == (0, 0, 0)


def test_boundary_nonincreasing_for_dc():
    for mu, nu, lam in [((2, 1), (2, 1), (3, 2, 1)), ((2, 2), (1, 1), (3, 3))]:
        for h in enumerate_hives(mu, nu, lam):
            b = boundary(h)
            assert all(map(is_partition, (b.left, b.hyp, b.base)))
            assert sum(b.left) + sum(b.hyp) == sum(b.base)


def test_p_mu():
    pm = p_mu((2, 1))
    assert pm.rows == ((0, 2, 3), (0, 2), (0,))
    b = boundary(pm)
    assert (b.left, b.hyp, b.base) == ((0, 0), (2, 1), (2, 1))
    assert p_mu((0, 0)) == Hive.zero(2)
    # uniqueness: the enumeration of DC(0, mu; mu) returns exactly p_mu
    hs = enumerate_hives((0, 0), (2, 1), (2, 1))
    assert hs == (pm,)


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
    assert not validate_dc(g)
    b = boundary(g)
    mu1 = mu[0]
    assert b.hyp == mu + (0,) * n                            # Y->XY then XY->X
    assert b.base == tuple(mu1 for _ in range(n)) + mu       # O->OX then OX->X
    assert b.left == tuple(mu1 for _ in range(n)) + (0,) * n  # O->OY then OY->Y
    # inner edges: constant along OY->OX, mu-increments along OY->XY at y=n
    assert all(g[x, n] - g[x - 1, n] == mu[x - 1] for x in range(1, n + 1))
    assert len({g[x, n - x] for x in range(n + 1)}) == 1


def test_prefix_sums():
    assert prefix_sums((2, 1, 0)) == (0, 2, 3, 3)
    assert prefix_sums(()) == (0,)
