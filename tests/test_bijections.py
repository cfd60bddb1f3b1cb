import random
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from hives import bijections
from hives.bijections import (GluedPair, WallPair, assoc_forward,
                              assoc_inverse, commutor,
                              half_octahedron_diagnostics,
                              half_octahedron_function)
from hives.checks import glued_universe, partitions_upto, triple_universe
from hives.enumeration import (enumerate_glued_pairs, enumerate_hives,
                               enumerate_wall_pairs)
from hives.grids import cutting_sections, unit_octahedra, unit_rhombi_2d
from hives.hive import (BoundaryTriple, Hive, boundary, p_mu, pad,
                        prefix_sums)
from hives.tableaux import lr_coefficient, partitions_in_box, schur_product


@st.composite
def dc_hives(draw, parts=3, max_entry=2):
    """A random normalized DC hive, sampled via a random boundary triple."""
    ps = partitions_upto(parts, max_entry)
    mu = draw(st.sampled_from(ps))
    nu = draw(st.sampled_from(ps))
    lams = partitions_in_box(sum(mu) + sum(nu), parts, 2 * max_entry)
    assume(lams)
    lam = pad(draw(st.sampled_from(lams)), parts)
    members = enumerate_hives(mu, nu, lam)
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


NOT_DC = Hive(((0, 2, 2), (1, 4), (1,)))
NOT_PARTITION = Hive(((0, 0, 0), (0, 0), (-1,)))  # DC; left edge (0, -1)
W1 = Hive(((0, 2, 2), (1, 2), (1,)))  # the walls of GluedPair(F1, F2)
W2 = Hive(((0, 2, 2), (2, 2), (2,)))


@pytest.mark.parametrize("pair, message", [
    (GluedPair(F1, Hive.zero(3)), "glued pair: sizes differ"),
    (GluedPair(F1.shift(1), F2), "glued pair: f1 is not normalized"),
    (GluedPair(F1, F2.shift(1)), "glued pair: f2 is not normalized"),
    (GluedPair(NOT_DC, F2), "glued pair: f1 violates kind I at (0, 0)"),
    (GluedPair(F1, NOT_DC), "glued pair: f2 violates kind I at (0, 0)"),
    (GluedPair(F1, Hive.zero(2)), "glued pair: hypotenuse of f1 and base of "
                                  "f2 disagree: (1, 0) vs (0, 0)"),
    (WallPair(W1, Hive.zero(3)), "wall pair: sizes differ"),
    (WallPair(W1.shift(1), W2), "wall pair: w1 is not normalized"),
    (WallPair(W1, W2.shift(1)), "wall pair: w2 is not normalized"),
    (WallPair(NOT_DC, W2), "wall pair: w1 violates kind I at (0, 0)"),
    (WallPair(W1, NOT_DC), "wall pair: w2 violates kind I at (0, 0)"),
    (WallPair(W1, Hive.zero(2)), "wall pair: base of w1 and left edge of w2 "
                                 "disagree: (2, 0) vs (0, 0)"),
    (GluedPair(NOT_PARTITION, F2), "glued pair: f1 has left increments "
                                   "(0, -1), not a partition"),
    (WallPair(W1, NOT_PARTITION), "wall pair: w2 has left increments "
                                  "(0, -1), not a partition"),
])
def test_pair_validation_messages(pair, message):
    with pytest.raises(ValueError) as exc:
        pair.validate()
    assert str(exc.value) == message


def draw_member(draw, left, hyp, n, max_count=24):
    """(lam, a hive of DC(left, hyp; lam)), lam drawn among the partitions
    of at most n parts whose coefficient is positive and at most max_count,
    so the enumeration stays small."""
    lams = [lam for lam, c in schur_product(left, hyp, n).items()
            if c <= max_count]  # never empty: c(left, hyp; left + hyp) = 1
    lam = pad(draw(st.sampled_from(lams)), n)
    return lam, draw(st.sampled_from(enumerate_hives(left, hyp, lam)))


@st.composite
def assoc_pairs(draw, side, max_n=6, max_part=2):
    """A glued pair f1 in DC(mu, g; lam), f2 in DC(pi, sigma; g), or a wall
    pair w1 in DC(mu, pi; t), w2 in DC(t, sigma; lam), of size <= max_n."""
    n = draw(st.integers(1, max_n))
    ps = partitions_upto(n, max_part)
    mu, pi, sigma = draw(st.sampled_from(ps)), draw(st.sampled_from(ps)), \
        draw(st.sampled_from(ps))
    if side == "glued":
        g, f2 = draw_member(draw, pi, sigma, n)
        _, f1 = draw_member(draw, mu, g, n)
        return GluedPair(f1, f2)
    t, w1 = draw_member(draw, mu, pi, n)
    _, w2 = draw_member(draw, t, sigma, n)
    return WallPair(w1, w2)


@settings(max_examples=100, deadline=None)
@given(assoc_pairs("glued"))
def test_assoc_forward_roundtrip_and_wall_boundaries(pair):
    w = assoc_forward(pair)
    assert assoc_inverse(w) == pair
    b1, b2 = boundary(pair.f1), boundary(pair.f2)
    t = boundary(w.w1).base
    assert boundary(w.w1) == BoundaryTriple(b1.left, b2.left, t)
    assert boundary(w.w2) == BoundaryTriple(t, b2.hyp, b1.base)


@settings(max_examples=100, deadline=None)
@given(assoc_pairs("wall"))
def test_assoc_inverse_roundtrip(pair):
    assert assoc_forward(assoc_inverse(pair)) == pair


def test_assoc_bijection_exhaustive_small():
    for mu, pi, sigma, lam in glued_universe(2, 2):
        domain = enumerate_glued_pairs(mu, pi, sigma, lam)
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


def test_assoc_bijection_n2_wide_lambda():
    """The n = 2 classes that glued_universe(2, 2) leaves out: mu, pi,
    sigma entries <= 2 and 4 < lam_1 <= 6."""
    classes = pairs = 0
    for mu, pi, sigma in product(partitions_upto(2, 2), repeat=3):
        weight = sum(mu) + sum(pi) + sum(sigma)
        for lam in partitions_in_box(weight, 2, 6):
            lam = pad(lam, 2)
            if lam[0] <= 4:
                continue
            domain = enumerate_glued_pairs(mu, pi, sigma, lam)
            target = enumerate_wall_pairs(mu, pi, sigma, lam)
            glue, t_total = sum(pi) + sum(sigma), sum(mu) + sum(pi)
            lhs = sum(lr_coefficient(mu, g, lam) * lr_coefficient(pi, sigma, g)
                      for g in partitions_in_box(glue, 2, glue))
            rhs = sum(lr_coefficient(mu, pi, t) * lr_coefficient(t, sigma, lam)
                      for t in partitions_in_box(t_total, 2, t_total))
            assert len(domain) == len(target) == lhs == rhs, (mu, pi, sigma,
                                                             lam)
            if not domain:
                continue
            classes += 1
            pairs += len(domain)
            images = set()
            for f1, f2 in domain:
                w = assoc_forward(GluedPair(f1, f2))
                assert assoc_inverse(w) == GluedPair(f1, f2)
                images.add((w.w1, w.w2))
            assert images == set(target)
            for w1, w2 in target:
                w = WallPair(w1, w2)
                assert assoc_forward(assoc_inverse(w)) == w
    assert (classes, pairs) == (101, 109)


def test_assoc_bijection_exhaustive_n3():
    """Every class of glued_universe(3, 2), whose lam cap 6 = 3 * max_part
    is the largest lam_1 can reach: the forward map is a bijection onto the
    wall pairs, and both round trips hold."""
    classes = pairs = 0
    for mu, pi, sigma, lam in glued_universe(3, 2):
        domain = enumerate_glued_pairs(mu, pi, sigma, lam)
        target = enumerate_wall_pairs(mu, pi, sigma, lam)
        assert len(domain) == len(target), (mu, pi, sigma, lam)
        if not domain:
            continue
        classes += 1
        pairs += len(domain)
        images = []
        for f1, f2 in domain:
            w = assoc_forward(GluedPair(f1, f2))
            assert assoc_inverse(w) == GluedPair(f1, f2)
            images.append((w.w1, w.w2))
        assert len(set(images)) == len(images)
        assert set(images) == set(target)
        for w1, w2 in target:
            w = WallPair(w1, w2)
            assert assoc_forward(assoc_inverse(w)) == w
    assert (classes, pairs) == (2899, 3793)


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


def test_half_octahedron_function_domain():
    """The keys are the half-octahedron: y <= n, z <= n, y + z >= n,
    x + y + z <= 2n."""
    pts = half_octahedron_function(Hive(((0, 3), (1,))))
    assert sorted(pts) == sorted([(0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1),
                                  (0, 1, 1)])
    assert len(half_octahedron_function(F1)) == 14


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
        target = set(enumerate_hives(nu, mu, lam))
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
    assert outs == set(hs)  # mu == nu: the set maps onto itself
    assert len(outs) == 2


def test_diagnostics_clean_on_universe():
    for mu, nu, lam in triple_universe(2, 2):
        for h in enumerate_hives(mu, nu, lam):
            diag = half_octahedron_diagnostics(h)
            assert diag.ok(), (mu, nu, lam, h.rows, diag)


def polarization_slack(values: dict, oct) -> int:
    """Main-diagonal sum minus the max of the other two at oct."""
    ox, oy, oz, xy, xz, yz = (values[v] for v in oct.vertices())
    return oz + xy - max(ox + yz, oy + xz)


def test_diagnostics_report_a_bumped_point(monkeypatch):
    """Raising one value off every checked face breaks concavity and
    polarization, and nothing else."""
    h = enumerate_hives((2, 1, 0), (2, 1, 0), (3, 2, 1))[0]
    layers = bijections._half_octahedron_layers(h)
    layers[2][2][1] += 1  # the point (1, 2, 2)
    monkeypatch.setattr(bijections, "_half_octahedron_layers",
                        lambda _: layers)
    d = half_octahedron_diagnostics(h)
    assert d.rhombus_violations and d.polarization_violations
    assert all((1, 2, 2) in oct.vertices() for oct in d.polarization_violations)
    assert not (d.square_violations or d.pmu_face_mismatch
                or d.pnu_wall_mismatch)


def test_diagnostics_octahedra_match_the_filtered_grid(monkeypatch):
    """The diagnostics read the half-octahedron rows; on 300 bumped
    functions they report what the point -> value dict reports.  The
    octahedra are those of unit_octahedra(2n) with all six vertices in the
    domain, in the same order; the section rhombi are those of a
    per-rhombus scan of every section of the size-2n tetrahedron, kept when
    all four vertices are in the domain; the square cells and the p_mu face
    and p_nu wall points are read point by point."""
    rng = random.Random(20240612)
    pools = ([h for t in triple_universe(3, 2) for h in enumerate_hives(*t)],
             enumerate_hives((3, 2, 1, 0), (3, 2, 1, 0), (4, 3, 3, 2)),
             [p_mu((5, 4, 3, 2, 1))])  # n = 3, 4 and 5, drawn evenly
    checked = nonempty = nonempty_rhombi = nonempty_faces = 0
    while checked < 300:
        h = rng.choice(rng.choice(pools))
        values = dict(half_octahedron_function(h))
        point = rng.choice(sorted(values))
        values[point] += rng.choice((-1, 1))
        layers = bijections._half_octahedron_layers(h)
        x, y, z = point
        layers[z][y][x] = values[point]
        with monkeypatch.context() as m:
            m.setattr(bijections, "_half_octahedron_layers", lambda _: layers)
            assert half_octahedron_function(h) == values
            diag = half_octahedron_diagnostics(h)
        want = tuple(oct for oct in unit_octahedra(2 * h.n)
                     if all(v in values for v in oct.vertices())
                     and polarization_slack(values, oct) != 0)
        want_rhombi = []
        for chart in cutting_sections(2 * h.n):
            for rh in unit_rhombi_2d(chart.size):
                c1, c2, f1, f2 = (chart.point(*v) for v in rh.vertices())
                if (all(v in values for v in (c1, c2, f1, f2))
                        and values[c1] + values[c2]
                        < values[f1] + values[f2]):
                    want_rhombi.append((chart, rh))
        n, b = h.n, boundary(h)
        smu, snu = prefix_sums(b.left), prefix_sums(b.hyp)
        shift = values[0, n, n] - snu[0]
        want_square = tuple((x, y, n - y) for y in range(n) for x in range(n)
                            if values[x, y, n - y] + values[x + 1, y + 1, n - y - 1]
                            != values[x + 1, y, n - y] + values[x, y + 1, n - y - 1])
        want_pmu = tuple((x, n, z) for z in range(n + 1)
                         for x in range(n - z + 1) if values[x, n, z] != smu[x])
        want_pnu = tuple((0, y, z) for y in range(n + 1)
                         for z in range(n - y, n + 1)
                         if values[0, y, z] != snu[n - y] + shift)
        assert diag.polarization_violations == want, (h.rows, point)
        assert list(diag.rhombus_violations) == want_rhombi, (h.rows, point)
        assert diag.square_violations == want_square, (h.rows, point)
        assert diag.pmu_face_mismatch == want_pmu, (h.rows, point)
        assert diag.pnu_wall_mismatch == want_pnu, (h.rows, point)
        checked += 1
        nonempty += bool(want)
        nonempty_rhombi += bool(want_rhombi)
        nonempty_faces += bool(want_square or want_pmu or want_pnu)
    assert nonempty >= 100 and nonempty_rhombi >= 100 and nonempty_faces >= 100


def test_commutor_is_an_involution():
    """commutor(commutor(h)) == h on every hive of the 3x3x3 box
    (Henriques-Kamnitzer, "The octahedron recurrence and gl(n) crystals")."""
    hives = [h for t in triple_universe(3, 3) for h in enumerate_hives(*t)]
    assert len(hives) == 960
    for h in hives:
        assert commutor(commutor(h)) == h, h.rows


def test_diagnostics_clean_n3_spot():
    for h in enumerate_hives((2, 1, 0), (2, 1, 0), (3, 2, 1)):
        d = half_octahedron_diagnostics(h)
        assert d.ok()
        assert not d.rhombus_violations and not d.square_violations


def test_commutor_bijection_exhaustive_n3():
    """Every triple of the 3x3x3 box: 940 nonempty triples, 960 hives."""
    triples = hives = 0
    for mu, nu, lam in triple_universe(3, 3):
        hs = enumerate_hives(mu, nu, lam)
        if not hs:
            continue
        triples += 1
        hives += len(hs)
        target = set(enumerate_hives(nu, mu, lam))
        outs = {commutor(h) for h in hs}
        assert len(outs) == len(hs) == len(target)
        assert outs <= target
        for h in hs:
            assert half_octahedron_diagnostics(h).ok()
    assert (triples, hives) == (940, 960)


@settings(max_examples=40, deadline=None)
@given(dc_hives())
def test_commutor_membership_random(h):
    b = boundary(h)
    o = commutor(h)
    bo = boundary(o)
    assert (bo.left, bo.hyp, bo.base) == (b.hyp, b.left, b.base)
    assert o in set(enumerate_hives(b.hyp, b.left, b.base))
    assert half_octahedron_diagnostics(h).ok()


def test_commutor_integrality():
    for h in enumerate_hives((2, 1), (2, 1), (3, 2, 1)):
        o = commutor(h)
        assert all(isinstance(v, int) for row in o.rows for v in row)
