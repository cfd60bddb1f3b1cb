import pytest
from hypothesis import assume, given, settings, strategies as st

from hives import bijections
from hives.bijections import (GluedPair, WallPair, assoc_forward,
                              assoc_inverse, commutor,
                              half_octahedron_diagnostics,
                              half_octahedron_function,
                              half_octahedron_points)
from hives.checks import glued_universe, partitions_upto, triple_universe
from hives.enumeration import (enumerate_glued_pairs, enumerate_hives,
                               enumerate_wall_pairs)
from hives.hive import Hive, boundary, pad
from hives.tableaux import partitions_in_box


@st.composite
def dc_hives(draw, parts=3, max_entry=2):
    """A random normalized DC hive, sampled via a random boundary triple."""
    ps = partitions_upto(parts, max_entry)
    mu = draw(st.sampled_from(ps))
    nu = draw(st.sampled_from(ps))
    lams = partitions_in_box(sum(mu) + sum(nu), parts, 2 * max_entry)
    assume(lams)
    lam = pad(draw(st.sampled_from(lams)), parts)
    members = enumerate_hives(mu, nu, lam).members
    assume(members)
    return draw(st.sampled_from(members))

F1 = Hive(((0, 2, 2), (1, 2), (1,)))
F2 = Hive(((0, 1, 1), (1, 1), (1,)))


def test_assoc_forward_worked_example():
    w = assoc_forward(GluedPair(F1, F2))
    assert w.w1.rows == ((0, 2, 2), (1, 2), (1,))
    assert w.w2.rows == ((0, 2, 2), (2, 2), (2,))
    b1, b2 = boundary(w.w1), boundary(w.w2)
    assert (b1.left, b1.hyp, b1.base) == ((1, 0), (1, 0), (2, 0))
    assert (b2.left, b2.hyp, b2.base) == ((2, 0), (0, 0), (2, 0))
    assert w.glue == (2, 0)


def test_assoc_zero():
    z = Hive.zero(2)
    w = assoc_forward(GluedPair(z, z))
    assert w.w1 == z and w.w2 == z
    assert assoc_inverse(w) == GluedPair(z, z)


def test_assoc_inverse_worked_example():
    pair = GluedPair(F1, F2)
    assert assoc_inverse(assoc_forward(pair)) == pair


def test_glued_pair_validation():
    with pytest.raises(ValueError):
        GluedPair(F1, Hive.zero(2)).validate()      # glue mismatch
    with pytest.raises(ValueError):
        GluedPair(F1.shift(1), F2).validate()        # not normalized
    with pytest.raises(ValueError):
        GluedPair(Hive(((0, 2, 2), (1, 4), (1,))), F2).validate()  # not DC
    with pytest.raises(ValueError):
        assoc_forward(GluedPair(F1, Hive.zero(3)))   # size mismatch


def test_wall_pair_validation():
    w = assoc_forward(GluedPair(F1, F2))
    with pytest.raises(ValueError):
        WallPair(w.w1, Hive.zero(2)).validate()
    shared_ok = WallPair(w.w1, w.w2)
    shared_ok.validate()
    assert all(w.w1[i, 0] == w.w2[0, i] for i in range(3))


def test_assoc_bijection_exhaustive_small():
    for mu, pi, sigma, lam in glued_universe(2, 2):
        domain = enumerate_glued_pairs(mu, lam, pi, sigma)
        target = enumerate_wall_pairs(mu, pi, sigma, lam)
        assert len(domain) == len(target)
        images = set()
        for f1, f2 in domain:
            w = assoc_forward(GluedPair(f1, f2))
            back = assoc_inverse(w)
            assert (back.f1, back.f2) == (f1, f2)
            images.add((w.w1, w.w2))
            b1, b2 = boundary(w.w1), boundary(w.w2)
            assert b1.left == boundary(f1).left
            assert b1.hyp == boundary(f2).left
            assert b2.hyp == boundary(f2).hyp
            assert b2.base == boundary(f1).base
            assert b1.base == b2.left
        assert len(images) == len(domain)
        assert images == set(target)
        for w1, w2 in target:
            w = WallPair(w1, w2)
            assert assoc_forward(assoc_inverse(w)) == w


def test_commutor_singleton_n1():
    o = commutor(Hive(((0, 3), (1,))))
    assert o.rows == ((0, 3), (2,))


def test_commutor_worked_n2():
    h = Hive(((0, 2, 2), (1, 2), (1,)))
    assert commutor(h) == h  # DC((1,0),(1,0);(2,0)) is a singleton


def test_commutor_zero():
    assert commutor(Hive.zero(3)) == Hive.zero(3)


def test_commutor_rejects_bad_input():
    with pytest.raises(ValueError):
        commutor(Hive(((0, 2, 2), (1, 4), (1,))))
    with pytest.raises(ValueError):
        commutor(Hive(((1, 3), (2,))))


def test_half_octahedron_points():
    pts = half_octahedron_points(1)
    assert sorted(pts) == sorted([(0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1),
                                  (0, 1, 1)])
    assert len(half_octahedron_points(2)) == 14


def test_half_octahedron_function_faces():
    h = Hive(((0, 2, 2), (1, 2), (1,)))
    values = half_octahedron_function(h)
    n = h.n
    # ceiling face carries h itself
    for y in range(n + 1):
        for z in range(n - y, n + 1):
            assert values[(2 * n - y - z, y, z)] == h[n - y, n - z]
    # apex equals h's origin
    assert values[(0, n, n)] == 0


def test_commutor_bijection_exhaustive_small():
    for mu, nu, lam in triple_universe(2, 2):
        hs = enumerate_hives(mu, nu, lam)
        target = set(enumerate_hives(nu, mu, lam).members)
        assert len(target) == len(hs)
        outs = set()
        for h in hs:
            o = commutor(h)
            assert o in target
            b = boundary(o)
            assert (b.left, b.hyp, b.base) == (nu, mu, lam)
            outs.add(o)
        assert len(outs) == len(hs)


def test_commutor_multiplicity_two_case():
    mu = nu = (2, 1, 0)
    lam = (3, 2, 1)
    hs = enumerate_hives(mu, nu, lam)
    assert len(hs) == 2
    outs = {commutor(h) for h in hs}
    assert outs == set(hs.members)  # mu == nu: the set maps onto itself
    assert len(outs) == 2


def test_diagnostics_clean_on_universe():
    for mu, nu, lam in triple_universe(2, 2):
        for h in enumerate_hives(mu, nu, lam):
            diag = half_octahedron_diagnostics(h)
            assert diag.ok(), (mu, nu, lam, h.rows, diag)


def test_diagnostics_report_a_bumped_point(monkeypatch):
    """Raising one value off every checked face breaks concavity and
    polarization, and nothing else."""
    h = enumerate_hives((2, 1, 0), (2, 1, 0), (3, 2, 1))[0]
    values = dict(half_octahedron_function(h))
    values[(1, 2, 2)] += 1
    monkeypatch.setattr(bijections, "half_octahedron_function",
                        lambda _: values)
    d = half_octahedron_diagnostics(h)
    assert d.rhombus_violations and d.polarization_violations
    assert all((1, 2, 2) in oct.vertices() for oct in d.polarization_violations)
    assert not (d.square_violations or d.pmu_face_mismatch
                or d.pnu_wall_mismatch)


def test_commutor_is_an_involution():
    """commutor(commutor(h)) == h on every hive with at most 3 parts and
    entries <= 2 (Henriques-Kamnitzer, "The octahedron recurrence and
    gl(n) crystals")."""
    hives = [h for t in triple_universe(3, 2) for h in enumerate_hives(*t)]
    assert len(hives) == 173
    for h in hives:
        assert commutor(commutor(h)) == h, h.rows


def test_diagnostics_clean_n3_spot():
    for h in enumerate_hives((2, 1, 0), (2, 1, 0), (3, 2, 1)):
        d = half_octahedron_diagnostics(h)
        assert d.ok()
        assert not d.rhombus_violations and not d.square_violations


def test_commutor_bijection_exhaustive_n3():
    for mu, nu, lam in triple_universe(3, 2):
        hs = enumerate_hives(mu, nu, lam)
        if not len(hs):
            continue
        target = set(enumerate_hives(nu, mu, lam).members)
        outs = {commutor(h) for h in hs}
        assert len(outs) == len(hs) == len(target)
        assert outs <= target
        for h in hs:
            assert half_octahedron_diagnostics(h).ok()


@settings(max_examples=40, deadline=None)
@given(dc_hives())
def test_commutor_membership_random(h):
    b = boundary(h)
    o = commutor(h)
    bo = boundary(o)
    assert (bo.left, bo.hyp, bo.base) == (b.hyp, b.left, b.base)
    assert o in set(enumerate_hives(b.hyp, b.left, b.base).members)
    assert half_octahedron_diagnostics(h).ok()


def test_commutor_integrality():
    for h in enumerate_hives((2, 1), (2, 1), (3, 2, 1)):
        o = commutor(h)
        assert all(isinstance(v, int) for row in o.rows for v in row)
