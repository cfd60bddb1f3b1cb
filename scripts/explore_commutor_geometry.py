"""Experiment: can the commutor be realized by full-simplex propagation?

A tempting way to build the commutativity bijection is to extend a hive h
in DC(mu, nu; lam) of size n to a DC ceiling of the doubled grid, lay a
canonical ground function under it, and propagate on the whole size-2n
tetrahedron.  There are six affine ways to put h onto the central triangle
of the doubled ceiling.  This script measures, over every hive in a small
universe, for each orientation:

  * whether any DC ceiling extends the forced values (central + base glue),
  * whether the z = n and y = n sections of the propagated function depend
    on the free extension values,
  * whether those sections land in DC(nu, mu; lam),
  * whether the opposite face matches the separable hive of mu.

Findings (reproduced by running this script):

  * No orientation admits a DC ceiling for every h.  Orientation D
    (O -> YZ, Y -> XZ, X -> XY) is feasible most often, but forced value
    chains give contradictions like lam_2 - mu_2 <= lam_1 - mu_1, so
    feasibility provably cannot be universal for any orientation.
  * Whenever some DC ceiling exists, the half-octahedron part of the
    propagated function (and hence the output section) is independent of
    the free choices and the bijection properties hold.

Together these justify the design in hives.bijections: the commutor is
computed by octahedron recursion on the half-octahedron alone, where no
extension to the rest of the tetrahedron is required and the construction
is total.

Run:  python scripts/explore_commutor_geometry.py
"""

import sys
from itertools import product

from hives.grids import tri_points, unit_rhombi_2d
from hives.hive import Hive, boundary, is_partition, p_mu, pad, prefix_sums
from hives.enumeration import enumerate_hives
from hives.octahedron import propagate, check_pcpm
from hives.tableaux import partitions_in_box

ORIENTATIONS = {
    # name: central chart (a, b) -> h-point, as a function of n
    "A:O>YZ,Y>XY,X>XZ": lambda n: (lambda a, b: (a + b - n, n - b)),
    "B:O>XY,Y>XZ,X>YZ": lambda n: (lambda a, b: (n - a, a + b - n)),
    "C:O>XZ,Y>YZ,X>XY": lambda n: (lambda a, b: (n - b, n - a)),
    "D:O>YZ,Y>XZ,X>XY": lambda n: (lambda a, b: (n - b, a + b - n)),
    "E:O>XY,Y>YZ,X>XZ": lambda n: (lambda a, b: (a + b - n, n - a)),
    "F:O>XZ,Y>XY,X>YZ": lambda n: (lambda a, b: (n - a, n - b)),
}


def ground_function(mu):
    """The canonical DC function of size 2n determined by mu on the ground
    face of the doubled grid.

    With S the prefix sums of mu it is S_x where y >= n, S_{x+y-n} where
    y <= n <= x+y, and -mu_1 * (n - x - y) on x + y <= n; equivalently
    min(Sbar(x), Sbar(x+y-n)) for the concave extension Sbar of S with slope
    mu_1 to the left and 0 to the right.  Its hypotenuse increments are
    (mu, 0^n), matching the base glue that forced_values puts on the
    ceiling; it is deliberately not normalized (the origin sits at
    -n * mu_1).
    """
    if not is_partition(mu):
        raise ValueError(f"ground_function: {mu} is not a partition")
    n = len(mu)
    s = prefix_sums(mu)
    mu1 = mu[0] if mu else 0

    def g(x, y):
        if y >= n:
            return s[x]
        if x + y >= n:
            return s[x + y - n]
        return -mu1 * (n - x - y)

    return Hive.build(2 * n, g)


def forced_values(h, chart, n):
    """Central + base values of the ceiling for one orientation; None if
    already inconsistent."""
    smu = prefix_sums(boundary(h).left)
    fixed = {}
    for a in range(2 * n + 1):
        fixed[(a, 0)] = smu[min(a, n)]
    kappa = fixed[(n, 0)] - h[chart(n, 0)]
    for (a, b) in tri_points(2 * n):
        if a + b >= n and a <= n and b <= n:
            v = h[chart(a, b)] + kappa
            if (a, b) in fixed and fixed[(a, b)] != v:
                return None
            fixed[(a, b)] = v
    return fixed


def dc_completions(n, fixed, slack, cap):
    """Up to cap DC completions of a partial hive, free values within
    [min(fixed) - slack, max(fixed) + slack]."""
    lo_w = min(fixed.values()) - slack
    hi_w = max(fixed.values()) + slack
    rhombi = unit_rhombi_2d(n)
    for rh in rhombi:
        if all(q in fixed for q in rh.vertices()):
            (c1, c2), (f1, f2) = rh.cut, rh.free
            if fixed[c1] + fixed[c2] < fixed[f1] + fixed[f2]:
                return
    free = [p for p in tri_points(n) if p not in fixed]
    known = set(fixed)
    plans = []
    for p in free:
        cons = []
        for rh in rhombi:
            vs = rh.vertices()
            if p not in vs or not all(q in known for q in vs if q != p):
                continue
            if p in rh.cut:
                other = rh.cut[0] if rh.cut[1] == p else rh.cut[1]
                cons.append(("cut", other, rh.free))
            else:
                other = rh.free[0] if rh.free[1] == p else rh.free[1]
                cons.append(("free", other, rh.cut))
        plans.append((p, cons))
        known.add(p)
    values = dict(fixed)
    out = []

    def extend(k):
        if len(out) >= cap:
            return
        if k == len(plans):
            out.append(Hive.build(n, lambda i, j: values[(i, j)]))
            return
        p, cons = plans[k]
        lo, hi = lo_w, hi_w
        for role, other, (q1, q2) in cons:
            bound = values[q1] + values[q2] - values[other]
            lo, hi = (max(lo, bound), hi) if role == "cut" else (lo, min(hi, bound))
        for v in range(lo, hi + 1):
            values[p] = v
            extend(k + 1)
            del values[p]

    extend(0)
    yield from out


def in_target(section, nu, mu, lam, n):
    from hives.hive import validate_dc
    s = section.normalize()
    b = boundary(s)
    return (not validate_dc(s) and b.left == pad(nu, n)
            and b.hyp == pad(mu, n) and b.base == pad(lam, n))


def main():
    n = 2
    max_part = 2
    parts = [pad(p, n) for t in range(0, 2 * max_part * n + 1)
             for p in partitions_in_box(t, n, max_part)]
    universe = []
    for mu, nu in product(parts, repeat=2):
        for lam in partitions_in_box(sum(mu) + sum(nu), n, 2 * max_part):
            for h in enumerate_hives(mu, nu, lam):
                universe.append((mu, nu, pad(lam, n), h))
    print(f"universe: {len(universe)} hives")

    stats = {name: {"feasible": 0, "infeasible": 0, "z_inv": 0, "y_inv": 0,
                    "z_tgt": 0, "y_tgt": 0, "pmu_z": 0, "pmu_y": 0,
                    "pcpm_bad": 0}
             for name in ORIENTATIONS}

    for (mu, nu, lam, h) in universe:
        ground = ground_function(boundary(h).left)
        pm = p_mu(boundary(h).left)
        for name, mk in ORIENTATIONS.items():
            chart = mk(n)
            fixed = forced_values(h, chart, n)
            st = stats[name]
            if fixed is None:
                st["infeasible"] += 1
                continue
            outs_z, outs_y = set(), set()
            pmu_z = pmu_y = True
            count = 0
            for ceiling in dc_completions(2 * n, fixed, slack=6, cap=400):
                count += 1
                t = propagate(ground, ceiling)
                if not check_pcpm(t).ok():
                    st["pcpm_bad"] += 1
                outs_z.add(Hive.build(n, lambda i, j:
                                      t[i, n - i - j, n]).normalize())
                outs_y.add(Hive.build(n, lambda i, j:
                                      t[i, n, n - i - j]).normalize())
                if Hive.build(n, lambda u, v: t[u, n, v]).normalize() != pm:
                    pmu_y = False
                if Hive.build(n, lambda u, v: t[u, v, n]).normalize() != pm:
                    pmu_z = False
            if count == 0:
                st["infeasible"] += 1
                continue
            st["feasible"] += 1
            st["z_inv"] += len(outs_z) == 1
            st["y_inv"] += len(outs_y) == 1
            st["z_tgt"] += all(in_target(o, nu, mu, lam, n) for o in outs_z)
            st["y_tgt"] += all(in_target(o, nu, mu, lam, n) for o in outs_y)
            st["pmu_z"] += pmu_z
            st["pmu_y"] += pmu_y

    print(f"\n{'orientation':24s} feas infeas z_inv y_inv z_tgt y_tgt "
          f"pmu_z pmu_y pcpm_bad")
    for name, st in stats.items():
        print(f"{name:24s} {st['feasible']:4d} {st['infeasible']:6d} "
              f"{st['z_inv']:5d} {st['y_inv']:5d} {st['z_tgt']:5d} "
              f"{st['y_tgt']:5d} {st['pmu_z']:5d} {st['pmu_y']:5d} "
              f"{st['pcpm_bad']:8d}")
    print(f"(universe size {len(universe)}; counts are over hives)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
