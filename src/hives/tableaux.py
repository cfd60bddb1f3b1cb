"""Littlewood-Richardson coefficients by the classical tableau rule.

This is the independent oracle: c(mu, nu; lam) is the number of skew
semistandard tableaux of shape lam/mu and weight nu whose reverse reading
word (right to left within each row, top row first) is a lattice word.  It
never touches the hive machinery, so agreement between the two counts is a
real cross-check rather than a tautology.

Two searches count those tableaux.

``lr_coefficient`` fixes lam and fills the cells of lam/mu one at a time in
reading order, pruning on both semistandard conditions and on the lattice
prefix.

``schur_product`` does not fix lam.  It fills whole rows: row r gets
a[r][k] copies of letter k, and lam_r = mu_r + sum_k a[r][k] falls out.
Each a[r][k] is at most
  - the content left, nu_k - sum_{s<r} a[s][k];
  - the lattice room, sum_{s<r} a[s][k-1] - sum_{s<r} a[s][k] (row r reads
    its k before its k - 1);
  - the column room, so that the last k of row r sits under a letter
    < k: mu_r + sum_{i<=k} a[r][i] <= mu_{r-1} + sum_{i<k} a[r-1][i].
So the rows below r depend only on r, on where the letter prefixes of row
r - 1 end, and on the content used so far.  One depth-first pass memoizes
on that state, in a dict local to the call, and returns {lam suffix:
count}.

A column argument rules out a state that has no completion before its
row is built: below mu's last row, the skew cells of a column hold
strictly increasing letters that start at 1, so row len(mu) + j holds no
letter <= j, and letter k sits in rows < len(mu) + k.  Every such dead
state shares one empty result, ``_DEAD``, which callers must never
mutate.  This is the LR-tableau picture of Pak and Vallejo,
"Combinatorics and geometry of Littlewood-Richardson cones"; A. Buch's
lrcalc expands products the same way.

The product is commutative, s_mu s_nu = s_nu s_mu, so either factor may
serve as the content without changing a coefficient.  ``schur_product``
fills with the factor of fewer parts (then smaller weight): fewer letters
mean fewer row choices and fewer memo states.
"""

from __future__ import annotations

from typing import Iterator

from .hive import Partition, is_partition


def _trim(p: Partition) -> tuple[int, ...]:
    """Drop trailing zeros."""
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _lr_fillings(mu: Partition, nu: Partition, lam: Partition
                 ) -> Iterator[dict[tuple[int, int], int]]:
    """Depth-first generation of LR fillings of lam/mu with weight nu, each
    a dict (row, column) -> entry.

    Cells are filled in reading order (rows top down, right to left), so the
    lattice-word prefix condition and both semistandardness conditions
    prune the search as it goes.
    """
    mu, nu, lam = _trim(mu), _trim(nu), _trim(lam)
    if sum(mu) + sum(nu) != sum(lam):
        return
    if len(mu) > len(lam) or any(mu[r] > lam[r] for r in range(len(mu))):
        return
    inner = mu + (0,) * (len(lam) - len(mu))
    cells = [(r, c) for r in range(len(lam))
             for c in range(lam[r] - 1, inner[r] - 1, -1)]
    k = len(nu)
    entries: dict[tuple[int, int], int] = {}
    remaining = list(nu)
    counts = [0] * (k + 1)

    def fill(pos: int) -> Iterator[dict[tuple[int, int], int]]:
        if pos == len(cells):
            yield dict(entries)
            return
        r, c = cells[pos]
        lo, hi = 1, k
        if (r, c + 1) in entries:
            hi = min(hi, entries[(r, c + 1)])
        if (r - 1, c) in entries:
            lo = max(lo, entries[(r - 1, c)] + 1)
        for v in range(lo, hi + 1):
            if remaining[v - 1] == 0:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            entries[(r, c)] = v
            remaining[v - 1] -= 1
            counts[v] += 1
            yield from fill(pos + 1)
            del entries[(r, c)]
            remaining[v - 1] += 1
            counts[v] -= 1

    yield from fill(0)


def lr_coefficient(mu: Partition, nu: Partition, lam: Partition) -> int:
    """The Littlewood-Richardson coefficient c(mu, nu; lam)."""
    for p in (mu, nu, lam):
        if not is_partition(tuple(p)):
            raise ValueError(f"{p} is not a partition")
    return sum(1 for _ in _lr_fillings(tuple(mu), tuple(nu), tuple(lam)))


def partitions_in_box(total: int, max_parts: int, max_part: int) -> list[Partition]:
    """All partitions of ``total`` with at most max_parts parts, each at most
    max_part, in descending lexicographic order."""
    out: list[Partition] = []

    def rec(prefix: list[int], left: int, bound: int, slots: int) -> None:
        if left == 0:
            out.append(tuple(prefix))
            return
        if slots == 0 or bound * slots < left:
            return
        for part in range(min(bound, left), 0, -1):
            prefix.append(part)
            rec(prefix, left - part, part, slots - 1)
            prefix.pop()

    rec([], total, max_part, max_parts)
    return out


_DEAD: dict[tuple[int, ...], int] = {}  # shared by every dead state; read-only


def _dead(r: int, used: tuple[int, ...], nu: Partition, depth: int) -> bool:
    """True when rows r, r+1, ... cannot take the letters left: letter k + 1
    sits in rows <= depth + k, where depth is the number of rows of the
    inner shape, and the first letter with copies left bounds them all."""
    for k in range(len(nu)):
        if used[k] < nu[k]:
            return r > depth + k
    return False


def _lr_rows(r: int, ends: tuple[int, ...], used: tuple[int, ...],
             nu: Partition, shape: Partition, depth: int,
             memo: dict) -> dict[tuple[int, ...], int]:
    """{(lam_r, ..., lam_{n-1}): count} over the LR fillings of rows r, r+1,
    ... of lam/shape with content nu, where ends[k] is where letters <= k
    end in row r - 1 and used[k] counts the letters k + 1 in rows above r.
    The row ends and content after row r are the state for row r + 1.  A
    state with no filling, past the last row or ruled out by ``_dead``,
    gets the shared ``_DEAD``.

    This is a module function, not a closure: a recursive closure is a
    reference cycle, which keeps each call's memo alive until the cyclic
    collector runs and so raises the peak memory of many calls."""
    key = (r,) + ends + used
    out = memo.get(key)
    if out is not None:
        return out
    if used == nu:
        out = {shape[r:]: 1}
    elif r == len(shape) or _dead(r, used, nu, depth):
        out = _DEAD
    else:
        out = {}
        letters = len(nu)
        # Row r, letter by letter: (end so far, ends of the letter prefixes,
        # content used).  The lattice rule keeps letters > r + 1 out of it.
        partial = [(shape[r], (shape[r],), used)]
        for k in range(min(letters, r + 1)):
            room = nu[k] - used[k]  # content left
            if k:  # lattice: row r reads its letters k + 1 before its k
                room = min(room, used[k - 1] - used[k])
            grown = []
            for col, row_ends, now in partial:
                # column strictness: end under the letters <= k of row r - 1
                for a in range(min(room, ends[k] - col) + 1):
                    grown.append((col + a, row_ends + (col + a,),
                                  now[:k] + (used[k] + a,) + now[k + 1:]))
            partial = grown
        for col, row_ends, now in partial:
            for suffix, c in _lr_rows(r + 1, row_ends[:letters], now, nu,
                                      shape, depth, memo).items():
                lam = (col,) + suffix
                out[lam] = out.get(lam, 0) + c
    memo[key] = out
    return out


def schur_product(mu: Partition, nu: Partition, n: int) -> dict[Partition, int]:
    """Expansion of the product of the Schur functions of mu and nu: all lam
    with at most n parts and positive coefficient, mapped to c(mu, nu; lam),
    in descending lexicographic order of lam."""
    for p in (mu, nu):
        if not is_partition(tuple(p)):
            raise ValueError(f"{p} is not a partition")
    if n < 0:
        raise ValueError(f"number of parts {n} is negative")
    mu, nu = _trim(tuple(mu)), _trim(tuple(nu))
    if len(mu) > n or len(nu) > n:
        return {}
    # s_mu s_nu = s_nu s_mu: fill with the content that has fewer letters.
    if (len(nu), sum(nu)) > (len(mu), sum(mu)):
        mu, nu = nu, mu
    found = _lr_rows(0, (sum(mu) + sum(nu),), (0,) * len(nu), nu,
                     mu + (0,) * (n - len(mu)), len(mu), {})
    return {_trim(lam): found[lam] for lam in sorted(found, reverse=True)}
