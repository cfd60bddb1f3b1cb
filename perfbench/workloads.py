"""The four benchmark workloads: seeded inputs, one operation, its check.

Every workload draws its inputs from a generator seeded only by the
benchmark seed, and never yields the same input twice in one run (inputs
that the program must answer identically, such as the swapped pairs of a
symmetric coefficient, count as the same input).  The program sees only the
generated inputs.  Each check runs outside the timed region and returns
None when the output is right, else a one-line reason.

Inputs are built and checked with this file's own code (partitions, hook
lengths, rhombus inequalities), so a bug shared by the program and its check
cannot hide.  The checks call the program only for its independent
oracles: the tableau rule for counts, the hive count for Schur terms.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
import zlib
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path
from typing import Any, Callable, Iterator

from hives import bijections, cli, enumeration, jsonio, tableaux

HERE = Path(__file__).resolve().parent

Partition = tuple[int, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], Iterator[Any]]  # seed -> endless distinct inputs
    warmup: Callable[[], tuple[Any, ...]]   # not drawn by any seed's stream
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None]
    trace_ops: int                          # fixed input count of a traced pass


class _Seen:
    """A fixed-size bit set of key hashes (a one-probe Bloom filter).

    It never forgets a key, and its memory does not grow with the number of
    operations, so peak RSS does not rise when the program gets faster.  A
    false hit only skips a fresh input, the same way for the same seed.
    """

    BITS = 1 << 20

    def __init__(self, keys=()) -> None:
        self._bits = bytearray(self.BITS // 8)
        for key in keys:
            self.add(key)

    def _slot(self, key) -> tuple[int, int]:
        h = zlib.crc32(repr(key).encode()) % self.BITS
        return h >> 3, 1 << (h & 7)

    def add(self, key) -> bool:
        """Record key; False when it (or a colliding key) was seen."""
        byte, bit = self._slot(key)
        if self._bits[byte] & bit:
            return False
        self._bits[byte] |= bit
        return True


def _distinct(keyed: Iterator[tuple[Any, Any]], taken=()) -> Iterator[Any]:
    """Yield each (key, input) input whose key was not yielded or taken."""
    seen = _Seen(taken)
    for key, item in keyed:
        if seen.add(key):
            yield item


def _random_partition(rng: random.Random, parts: int, max_part: int,
                      min_part: int = 0) -> Partition:
    return tuple(sorted((rng.randint(min_part, max_part)
                         for _ in range(parts)), reverse=True))


# ---------------------------------------------------------------- lr-count

REFERENCE_TRIPLE = ((6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1),
                    (9, 8, 7, 6, 5, 4, 2, 1))  # c = 1624
LR_WARMUP = tuple(((0,) * n, (0,) * n, (0,) * n) for n in (6, 7, 8))


def _grow(rng: random.Random, mu: Partition, boxes: int) -> Partition:
    """mu with ``boxes`` cells added one at a time at random addable
    corners, keeping len(mu) rows."""
    lam = list(mu)
    for _ in range(boxes):
        rows = [r for r in range(len(lam)) if r == 0 or lam[r - 1] > lam[r]]
        lam[rng.choice(rows)] += 1
    return tuple(lam)


def _lr_key(t: tuple[Partition, Partition, Partition]):
    mu, nu, lam = t
    return (min(mu, nu), max(mu, nu), lam)


def lr_inputs(seed: int) -> Iterator[tuple[Partition, Partition, Partition]]:
    """The reference triple, then triples with n = 6, 7, 8 parts in turn:
    mu and nu with parts in [0, n-2], lam grown from mu by |nu| random
    cells.  About 45% have coefficient 0; the rest reach into the
    hundreds."""
    rng = random.Random(f"lr-count:{seed}")

    def keyed():
        yield _lr_key(REFERENCE_TRIPLE), REFERENCE_TRIPLE
        k = 0
        while True:
            n = 6 + k % 3
            k += 1
            mu = _random_partition(rng, n, n - 2)
            nu = _random_partition(rng, n, n - 2)
            t = (mu, nu, _grow(rng, mu, sum(nu)))
            yield _lr_key(t), t

    return _distinct(keyed(), map(_lr_key, LR_WARMUP))


def lr_op(t):
    return enumeration.count_hives(*t)


def lr_check(t, out) -> str | None:
    want = tableaux.lr_coefficient(*t)
    if out != want:
        return f"count_hives{t} = {out!r}, tableau rule gives {want}"
    return None


# ---------------------------------------------------------------- schur-expand

SCHUR_MAX_PART = 4
SCHUR_WARMUP = (((1,), (1,)),)


SCHUR_LENGTHS = tuple((a, b) for a in range(1, 6) for b in range(a, 6))


def schur_inputs(seed: int) -> Iterator[tuple[Partition, Partition]]:
    """Pairs of partitions with 1 to 5 parts, each part 1 to 4.  The part
    counts run through SCHUR_LENGTHS in turn, so that every run holds the
    same mix of small and large expansions."""
    rng = random.Random(f"schur-expand:{seed}")

    def keyed():
        for a, b in itertools.cycle(SCHUR_LENGTHS):
            mu = _random_partition(rng, a, SCHUR_MAX_PART, 1)
            nu = _random_partition(rng, b, SCHUR_MAX_PART, 1)
            yield (min(mu, nu), max(mu, nu)), (mu, nu)

    return _distinct(keyed(), [(min(p), max(p)) for p in SCHUR_WARMUP])


def schur_op(pair):
    mu, nu = pair
    return tableaux.schur_product(mu, nu, len(mu) + len(nu))


def standard_tableaux(lam: Partition) -> int:
    """f^lam by the hook length formula."""
    lam = tuple(p for p in lam if p)
    cols = [sum(1 for p in lam if p > c) for c in range(lam[0] if lam else 0)]
    hooks = 1
    for r, p in enumerate(lam):
        for c in range(p):
            hooks *= (p - c - 1) + (cols[c] - r - 1) + 1
    return factorial(sum(lam)) // hooks


def _is_partition(t) -> bool:
    return (isinstance(t, tuple) and all(isinstance(v, int) for v in t)
            and all(a >= b for a, b in zip(t, t[1:])) and all(v >= 0 for v in t))


def schur_check(pair, out) -> str | None:
    """Hook-length identity over the whole expansion, plus one seeded term
    against the hive count."""
    mu, nu = pair
    n = len(mu) + len(nu)
    if not isinstance(out, dict) or not out:
        return f"schur_product{pair}: empty or not a dict"
    for lam, c in out.items():
        if not (_is_partition(lam) and len(lam) <= n and sum(lam) == sum(mu)
                + sum(nu) and isinstance(c, int) and c > 0):
            return f"schur_product{pair}: bad term {lam!r}: {c!r}"
    lhs = sum(c * standard_tableaux(lam) for lam, c in out.items())
    rhs = (comb(sum(mu) + sum(nu), sum(mu)) * standard_tableaux(mu)
           * standard_tableaux(nu))
    if lhs != rhs:
        return f"schur_product{pair}: sum c*f^lam = {lhs}, expected {rhs}"
    lam = random.Random(repr(pair)).choice(sorted(out))
    hive_count = enumeration.count_hives(mu, nu, lam)
    if hive_count != out[lam]:
        return (f"schur_product{pair}[{lam}] = {out[lam]}, "
                f"count_hives gives {hive_count}")
    return None


# ---------------------------------------------------------------- octahedron-maps

OCT_SIZES = tuple(range(12, 25))


def _concave_increments(rng: random.Random, n: int, last: int, min_drop: int,
                        spread: int) -> list[int]:
    """Non-increasing increments d[1..n] (index 0 unused) ending at
    ``last``, each drop d[i] - d[i+1] in [min_drop, min_drop + spread]."""
    d = [0] * (n + 2)
    d[n] = last
    for i in range(n - 1, 0, -1):
        d[i] = d[i + 1] + min_drop + rng.randint(0, spread)
    return d


def _directional_hive(rng: random.Random, n: int, d1, d2, d3,
                      noise: int) -> list[list[int]]:
    """rows[j][i] = G1(i) + G2(j) + G3(i + j) + noise at interior points,
    where G_k has increments d_k.  Kind II, III and I rhombi have slack
    equal to the drops of d1, d2 and d3, so with every drop >= 4 * noise the
    interior noise keeps the function discretely concave."""
    def g(d):
        out = [0]
        for i in range(1, n + 1):
            out.append(out[-1] + d[i])
        return out

    g1, g2, g3 = g(d1), g(d2), g(d3)
    rows = []
    for j in range(n + 1):
        row = []
        for i in range(n - j + 1):
            v = g1[i] + g2[j] + g3[i + j]
            if i >= 1 and j >= 1 and i + j <= n - 1:
                v += rng.randint(-noise, noise)
            row.append(v)
        rows.append(row)
    return rows


def glued_pair_text(rng: random.Random, n: int) -> str:
    """Canonical JSON of a random glued pair (f1 ground, f2 ceiling) of
    normalized DC hives of size n with partition boundaries and
    hyp(f1) == base(f2)."""
    noise, drop, spread = 1, 4, 3
    # Ceiling f2: base increments b = h1 + h3; hyp needs h1[n] >= h2[1].
    h2 = _concave_increments(rng, n, rng.randint(0, spread), drop, spread)
    h1 = _concave_increments(rng, n, h2[1] + rng.randint(0, spread),
                             drop + spread, spread)
    h3 = _concave_increments(rng, n, rng.randint(0, spread), drop + spread,
                             spread)
    f2 = _directional_hive(rng, n, h1, h2, h3, noise)
    b = [0] + [h1[i] + h3[i] for i in range(1, n + 1)]
    # Ground f1: hyp increments g1[i] - g2[n-i+1] must equal b[i].  The
    # drops of b exceed those of g2 by at least ``drop``, so g1 stays
    # concave with slack >= drop.
    g2 = _concave_increments(rng, n, rng.randint(0, spread), drop, spread)
    g3 = _concave_increments(rng, n, rng.randint(0, spread), drop, spread)
    g1 = [0] + [b[i] + g2[n - i + 1] for i in range(1, n + 1)]
    f1 = _directional_hive(rng, n, g1, g2, g3, noise)
    return json.dumps({"f1": {"n": n, "values": f1},
                       "f2": {"n": n, "values": f2}},
                      sort_keys=True, separators=(",", ":")) + "\n"


def octahedron_inputs(seed: int) -> Iterator[str]:
    """Glued pairs with n = 12 .. 24 in turn, starting at a seeded size."""
    rng = random.Random(f"octahedron-maps:{seed}")
    start = rng.randrange(len(OCT_SIZES))

    def keyed():
        k = start
        while True:
            text = glued_pair_text(rng, OCT_SIZES[k % len(OCT_SIZES)])
            k += 1
            yield text, text

    return _distinct(keyed(), octahedron_warmup())


@functools.cache
def octahedron_warmup() -> tuple[str, ...]:
    """One pair of each size, so that per-size caches are built."""
    return tuple(glued_pair_text(random.Random(f"warmup:{n}"), n)
                 for n in OCT_SIZES)


def octahedron_op(text: str) -> tuple[str, str, str]:
    """The `hives assoc forward`, `assoc inverse` and `commute` CLI paths,
    chained through their JSON files: returns the walls, the glued pair
    read back from the walls, and the commutor image of the first wall."""
    pair = jsonio.glued_pair_from_obj(jsonio.loads(text))
    walls_text = jsonio.dumps(
        jsonio.wall_pair_to_obj(bijections.assoc_forward(pair)))
    walls = jsonio.wall_pair_from_obj(jsonio.loads(walls_text))
    back_text = jsonio.dumps(
        jsonio.glued_pair_to_obj(bijections.assoc_inverse(walls)))
    image_text = jsonio.dumps(jsonio.hive_to_obj(bijections.commutor(walls.w1)))
    return walls_text, back_text, image_text


def dc_violations(rows: list[list[int]]) -> int:
    """Number of unit rhombi with cut-sum < free-sum; rows[j][i] = f(i, j)."""
    n = len(rows) - 1

    def f(i, j):
        return rows[j][i]

    bad = 0
    for j in range(n - 1):
        for i in range(n - 1 - j):
            bad += f(i + 1, j) + f(i, j + 1) < f(i, j) + f(i + 1, j + 1)
            bad += f(i + 1, j) + f(i + 1, j + 1) < f(i, j + 1) + f(i + 2, j)
            bad += f(i, j + 1) + f(i + 1, j + 1) < f(i, j + 2) + f(i + 1, j)
    return bad


def boundary(rows: list[list[int]]):
    """(left, hyp, base) increments; rows[j][i] = f(i, j)."""
    n = len(rows) - 1
    left = tuple(rows[j][0] - rows[j - 1][0] for j in range(1, n + 1))
    hyp = tuple(rows[n - i][i] - rows[n - i + 1][i - 1] for i in range(1, n + 1))
    base = tuple(rows[0][i] - rows[0][i - 1] for i in range(1, n + 1))
    return left, hyp, base


def _hive_problem(name: str, obj, n: int, want) -> str | None:
    """None when obj is a normalized DC size-n hive whose boundary is
    ``want`` (entries None match anything and must be partitions)."""
    rows = obj["values"]
    if obj["n"] != n or rows[0][0] != 0:
        return f"{name}: wrong size or not normalized"
    if dc_violations(rows):
        return f"{name}: not discretely concave"
    got = boundary(rows)
    for side, g, w in zip(("left", "hyp", "base"), got, want):
        if not _is_partition(g) or (w is not None and g != w):
            return f"{name}: {side} increments {g}, expected {w}"
    return None


def octahedron_check(text: str, out) -> str | None:
    walls_text, back_text, image_text = out
    if back_text != text:
        return "assoc_inverse(assoc_forward(pair)) != pair"
    pair, walls = json.loads(text), json.loads(walls_text)
    image = json.loads(image_text)
    f1, f2 = pair["f1"]["values"], pair["f2"]["values"]
    n = pair["f1"]["n"]
    l1, _, b1 = boundary(f1)
    l2, h2, _ = boundary(f2)
    t = boundary(walls["w1"]["values"])[2]
    if sum(t) != sum(l1) + sum(l2):
        return f"wall glue {t} has the wrong weight"
    return (_hive_problem("w1", walls["w1"], n, (l1, l2, t))
            or _hive_problem("w2", walls["w2"], n, (t, h2, b1))
            or _hive_problem("commutor(w1)", image, n, (l2, l1, t)))


# ---------------------------------------------------------------- selfcheck

SELFCHECK_WARMUP = (("selfcheck", "--max-n", "2", "--max-part", "1",
                     "--random-cases", "1"),)


@functools.cache
def expected_selfcheck() -> str:
    """Standard output of the default selfcheck at the seed commit."""
    return (HERE / "expected_selfcheck.txt").read_text()


def selfcheck_inputs(seed: int) -> Iterator[tuple[str, ...]]:
    """The default selfcheck has no input; every operation is the same
    command."""
    while True:
        yield ("selfcheck",)


def run_cli(argv) -> tuple[int, str]:
    """cli.main(argv) in-process, with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def selfcheck_check(argv, out) -> str | None:
    code, text = out
    if code != 0:
        return f"selfcheck exited {code}"
    if text != expected_selfcheck():
        return "selfcheck output differs from expected_selfcheck.txt"
    return None


WORKLOADS = {w.name: w for w in (
    Workload("lr-count", lr_inputs, lambda: LR_WARMUP, lr_op, lr_check, 300),
    Workload("schur-expand", schur_inputs, lambda: SCHUR_WARMUP, schur_op,
             schur_check, 40),
    Workload("octahedron-maps", octahedron_inputs, octahedron_warmup,
             octahedron_op, octahedron_check, 2 * len(OCT_SIZES)),
    Workload("selfcheck", selfcheck_inputs, lambda: SELFCHECK_WARMUP,
             run_cli, selfcheck_check, 1),
)}
