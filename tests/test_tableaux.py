
import ast
import random
from dataclasses import dataclass
from math import comb, factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import hives.tableaux
from hives.tableaux import (_dead, _lr_fillings, _trim, lr_coefficient,
                            partitions_in_box, schur_product)

partitions = st.lists(st.integers(0, 4), max_size=3).map(
    lambda xs: tuple(sorted(xs, reverse=True)))

Filling = dict[tuple[int, int], int]


@dataclass(frozen=True)
class SkewShape:
    """The cells of outer/inner, for partitions inner contained in outer."""

    outer: tuple[int, ...]
    inner: tuple[int, ...]

    def cells(self) -> list[tuple[int, int]]:
        """Skew cells in reading order: rows top down, right to left."""
        outer = _trim(self.outer)
        inner = _trim(self.inner) + (0,) * len(outer)
        return [(r, c) for r in range(len(outer))
                for c in range(outer[r] - 1, inner[r] - 1, -1)]


@dataclass(frozen=True)
class SkewTableau:
    """A filling of a skew shape, entries keyed by (row, column)."""

    shape: SkewShape
    entries: Filling

    def __post_init__(self) -> None:
        if set(self.entries) != set(self.shape.cells()):
            raise ValueError("entries do not cover the skew cells exactly")

    def reverse_word(self) -> list[int]:
        """Entries right-to-left within rows, top row first."""
        return [self.entries[c] for c in self.shape.cells()]

    def weight(self) -> tuple[int, ...]:
        word = self.reverse_word()
        top = max(word, default=0)
        return tuple(word.count(v) for v in range(1, top + 1))

    def is_semistandard(self) -> bool:
        for (r, c), v in self.entries.items():
            if (r, c + 1) in self.entries and v > self.entries[(r, c + 1)]:
                return False
            if (r - 1, c) in self.entries and v <= self.entries[(r - 1, c)]:
                return False
        return True

    def is_lattice(self) -> bool:
        counts: dict[int, int] = {}
        for v in self.reverse_word():
            counts[v] = counts.get(v, 0) + 1
            if v > 1 and counts[v] > counts.get(v - 1, 0):
                return False
        return True


def is_lr_filling(shape: SkewShape, entries: Filling, weight) -> bool:
    """Re-check one filling against all three defining predicates: rows
    weakly increase, columns strictly increase, reverse word is lattice."""
    if set(entries) != set(shape.cells()):
        return False
    if any(v < 1 for v in entries.values()):
        return False
    t = SkewTableau(shape, entries)
    return (t.is_semistandard() and t.is_lattice()
            and t.weight() == _trim(weight))


def per_lambda_product(mu, nu, n):
    """The Schur expansion one candidate lam at a time, by the oracle."""
    mu, nu = _trim(mu), _trim(nu)
    max_part = (mu[0] if mu else 0) + (nu[0] if nu else 0)
    out = {}
    for lam in partitions_in_box(sum(mu) + sum(nu), n, max_part):
        c = lr_coefficient(mu, nu, lam)
        if c:
            out[lam] = c
    return out


def hook_product(lam) -> int:
    lam = _trim(lam)
    cols = [sum(1 for p in lam if p > c) for c in range(lam[0] if lam else 0)]
    return prod((p - c - 1) + (cols[c] - r - 1) + 1
                for r, p in enumerate(lam) for c in range(p))


def standard_tableaux(lam) -> int:
    """f^lam by the hook length formula."""
    return factorial(sum(lam)) // hook_product(lam)


def gl_dimension(lam, n: int) -> int:
    """s_lam(1, ..., 1) with n ones, by the hook content formula."""
    contents = prod(n + c - r for r, p in enumerate(lam) for c in range(p))
    return contents // hook_product(lam)


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
    # schur_product rejects bad input whether or not any lam would fit
    for mu, nu, n in [((1, 2), (), 2), ((1, 2), (1,), 3), ((), (1, 2), 0),
                      ((2,), (1, -1), 4), ((1,), (1,), -1), ((), (), -1)]:
        with pytest.raises(ValueError):
            schur_product(mu, nu, n)


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


STAIRCASE_4 = [p for t in range(11) for p in partitions_in_box(t, 4, 4)
               if all(a <= b for a, b in zip(p, (4, 3, 2, 1)))]


def test_schur_product_equals_per_lambda_sum_on_staircase_box():
    assert len(STAIRCASE_4) == 42
    cases = 0
    for mu in STAIRCASE_4:
        for nu in STAIRCASE_4:
            for n in sorted({len(mu) + len(nu), 3}):
                got = schur_product(mu, nu, n)
                want = per_lambda_product(mu, nu, n)
                assert got == want, (mu, nu, n)
                assert list(got) == list(want), (mu, nu, n)  # same key order
                cases += 1
    assert cases == 3428


@given(partitions, partitions, st.integers(0, 6), st.integers(0, 2),
       st.integers(0, 2))
def test_schur_product_commutes(mu, nu, n, pad_mu, pad_nu):
    got = schur_product(mu + (0,) * pad_mu, nu + (0,) * pad_nu, n)
    assert got == schur_product(nu, mu, n)
    assert list(got) == list(schur_product(nu, mu, n))
    if n < len(_trim(mu)) or n < len(_trim(nu)):
        assert got == {}
    else:
        assert got == per_lambda_product(mu, nu, n)


def test_schur_product_truncated_and_empty():
    assert schur_product((2, 1), (1, 1), 1) == {}
    assert schur_product((1,), (3, 2, 1), 2) == {}
    assert schur_product((), (), 0) == {(): 1}
    assert schur_product((2, 1), (), 2) == {(2, 1): 1}
    assert schur_product((1, 1), (1,), 2) == {(2, 1): 1}


def test_schur_product_hook_length_identity():
    # untruncated: sum_lam c f^lam = C(|mu| + |nu|, |mu|) f^mu f^nu
    for mu, nu in [((4, 3, 2, 1), (4, 3, 2, 1)), ((3, 3), (2, 1, 1, 1)),
                   ((5,), (2, 2, 1))]:
        exp = schur_product(mu, nu, len(mu) + len(nu))
        lhs = sum(c * standard_tableaux(lam) for lam, c in exp.items())
        assert lhs == (comb(sum(mu) + sum(nu), sum(mu))
                       * standard_tableaux(mu) * standard_tableaux(nu))


def test_schur_product_staircase_square_in_eight_parts():
    mu = nu = (6, 5, 4, 3, 2, 1)
    exp = schur_product(mu, nu, 8)
    assert len(exp) == 2701
    assert all(len(lam) <= 8 and c > 0 for lam, c in exp.items())
    assert list(exp) == sorted(exp, reverse=True)
    assert exp[(9, 8, 7, 6, 5, 4, 2, 1)] == 1624
    # truncated to 8 parts, the product holds in 8 variables: evaluate at 1^8
    lhs = sum(c * gl_dimension(lam, 8) for lam, c in exp.items())
    assert lhs == gl_dimension(mu, 8) * gl_dimension(nu, 8)


def unpruned_rows(r, ends, used, nu, shape, memo):
    """The row recursion of schur_product before dead states were ruled
    out, kept as the reference; memo maps each state (r, ends, used) it
    reaches to {lam suffix: count}."""
    key = (r, ends, used)
    out = memo.get(key)
    if out is not None:
        return out
    out = {}
    if used == nu:
        out[shape[r:]] = 1
    elif r < len(shape):
        letters = len(nu)
        partial = [(shape[r], (shape[r],), used)]
        for k in range(min(letters, r + 1)):
            room = nu[k] - used[k]
            if k:
                room = min(room, used[k - 1] - used[k])
            grown = []
            for col, row_ends, now in partial:
                for a in range(min(room, ends[k] - col) + 1):
                    grown.append((col + a, row_ends + (col + a,),
                                  now[:k] + (used[k] + a,) + now[k + 1:]))
            partial = grown
        for col, row_ends, now in partial:
            for suffix, c in unpruned_rows(r + 1, row_ends[:letters], now,
                                           nu, shape, memo).items():
                lam = (col,) + suffix
                out[lam] = out.get(lam, 0) + c
    memo[key] = out
    return out


def test_dead_state_rule_never_rejects_a_filling():
    """Every state that the unpruned recursion reaches, with either factor
    as the content, at the full and at a truncated number of parts: _dead
    rejects none that has a filling, and rejects many that have none."""
    rng = random.Random(2021)
    rejected = 0
    for _ in range(20):
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        mu = tuple(sorted((rng.randint(1, 6) for _ in range(a)), reverse=True))
        nu = tuple(sorted((rng.randint(1, 6) for _ in range(b)), reverse=True))
        for n in (a + b, rng.randint(max(a, b), a + b - 1)):
            for shape, content in ((mu, nu), (nu, mu)):
                memo = {}
                found = unpruned_rows(0, (sum(mu) + sum(nu),),
                                      (0,) * len(content), content,
                                      shape + (0,) * (n - len(shape)), memo)
                got = {_trim(lam): c for lam, c in found.items()}
                assert got == schur_product(mu, nu, n), (mu, nu, n)
                for (r, ends, used), out in memo.items():
                    if used == content or r == n:
                        continue
                    dead = _dead(r, used, content, len(shape))
                    assert not (dead and out), (shape, content, n, r, used)
                    rejected += dead
    assert rejected > 20000


def test_oracle_imports_no_hive_code():
    tree = ast.parse(Path(hives.tableaux.__file__).read_text())
    relative = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("hives") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("hives")
            if node.level:
                relative.setdefault(node.module, set()).update(
                    a.name for a in node.names)
    assert relative == {"hive": {"Partition", "is_partition"}}
