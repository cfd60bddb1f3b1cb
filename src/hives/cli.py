"""Command-line interface.

Subcommands: lr, schur, enumerate, pairs, verify, assoc, commute, propagate,
selfcheck, render.  Exit codes: 0 success, 1 a mathematical identity or
concavity check failed, 2 usage or input-schema error.  A failed check
names its witnesses: verify each violated rhombus, commute --check and
propagate --check-pcpm on stderr.  All outputs are deterministic, and
all JSON output, on stdout or in an -o file, is the canonical form of
jsonio.dumps.  --format json (lr, schur, verify) prints JSON instead of a
table.  A file that cannot be read or written exits 2 naming its path;
so does JSON nested too deeply to parse, and an integer past CPython's
str/int digit limit exits 2 naming its file or option and the limit.
--max-count (enumerate, pairs) counts the result first and exits 2 if it
is larger, so a runaway listing is refused before it is built.
selfcheck runs the suites of hives.checks; --max-n >= 2, --max-part >= 0
and --random-cases >= 0 make every suite cover at least one case.
"""

from __future__ import annotations

import argparse
import sys

from . import checks
from .bijections import (assoc_forward, assoc_inverse, commutor,
                         half_octahedron_diagnostics)
from .enumeration import (count_glued_pairs, count_hives, count_wall_pairs,
                          enumerate_glued_pairs, enumerate_hives,
                          enumerate_wall_pairs)
from .hive import boundary, is_partition, validate_dc
from .jsonio import (SchemaError, dumps, glued_pair_from_obj,
                     glued_pair_to_obj, hive_from_obj, hive_to_obj, loads,
                     tetra_to_obj, wall_pair_from_obj, wall_pair_to_obj)
from .octahedron import check_pcpm, propagate
from .render import render_hive_svg
from .tableaux import lr_coefficient, schur_product

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


def _part(text: str) -> int:
    """int(text); a well-formed part past CPython's str/int digit limit
    gets an error that names the limit."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip().replace("_", "")
        if digits[:1] in ("+", "-"):
            digits = digits[1:]
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if len(digits) > limit > 0 and digits.isdecimal():
            raise argparse.ArgumentTypeError(
                f"a part has {len(digits)} digits, more than {limit}, "
                f"CPython's limit for converting str to int") from None
        raise


def parse_partition(text: str) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    try:
        parts = tuple(map(_part, text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer "
                                         f"list: {text!r}")
    if not is_partition(parts):
        raise argparse.ArgumentTypeError(
            f"not a partition (non-increasing, non-negative): {text!r}")
    return parts


def int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its errors
    return parse


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        return loads(text)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from exc


# ---------------------------------------------------------------- commands

def cmd_lr(args) -> int:
    mu, nu, lam = args.mu, args.nu, args.lam
    results: dict[str, int] = {}
    if args.method in ("hive", "both"):
        results["hive"] = count_hives(mu, nu, lam)
    if args.method in ("tableaux", "both"):
        results["tableaux"] = lr_coefficient(mu, nu, lam)
    if args.format == "json":
        sys.stdout.write(dumps(results))
    else:
        for v in results.values():
            print(v)
    if len(results) == 2 and results["hive"] != results["tableaux"]:
        print("hive and tableaux counts disagree", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


def cmd_schur(args) -> int:
    exp = schur_product(args.mu, args.nu, args.parts)
    if args.format == "json":
        obj = {",".join(map(str, lam)): c for lam, c in sorted(exp.items())}
        sys.stdout.write(dumps(obj))
    else:
        for lam, c in sorted(exp.items(), reverse=True):
            print(f"{c}  {','.join(map(str, lam)) or '0'}")
    return EXIT_OK


def _check_max_count(found: int, what: str, limit: int) -> None:
    """Refuse, before anything is built, to list more than --max-count."""
    if found > limit:
        raise ValueError(f"{found} {what} exceed --max-count {limit}; "
                         f"nothing was written")


def cmd_enumerate(args) -> int:
    if args.max_count is not None:
        _check_max_count(count_hives(args.mu, args.nu, args.lam), "hives",
                         args.max_count)
    hs = enumerate_hives(args.mu, args.nu, args.lam)
    obj = {"count": len(hs), "hives": [hive_to_obj(h) for h in hs]}
    _emit(dumps(obj), args.output)
    return EXIT_OK


def cmd_pairs(args) -> int:
    parts = (args.mu, args.pi, args.sigma, args.lam)
    if args.side == "glued":
        count, enumerate_pairs = count_glued_pairs, enumerate_glued_pairs
        keys = ("f1", "f2")
    else:
        count, enumerate_pairs = count_wall_pairs, enumerate_wall_pairs
        keys = ("w1", "w2")
    if args.max_count is not None:
        _check_max_count(count(*parts), "pairs", args.max_count)
    pairs = enumerate_pairs(*parts)
    obj = {"count": len(pairs),
           "pairs": [{keys[0]: hive_to_obj(a), keys[1]: hive_to_obj(b)}
                     for a, b in pairs]}
    _emit(dumps(obj), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    h = hive_from_obj(_read_json(args.hive))
    b = boundary(h)
    bad = validate_dc(h)
    if args.format == "json":
        obj = {"dc": not bad, "left": list(b.left), "hyp": list(b.hyp),
               "base": list(b.base),
               "violations": [{"kind": rh.kind, "anchor": list(rh.anchor)}
                              for rh in bad]}
        sys.stdout.write(dumps(obj))
    else:
        verdict = "DC" if not bad else "NOT DC"
        print(f"{verdict}; left={b.left} hyp={b.hyp} base={b.base}")
        for rh in bad:
            print(f"violated: {rh}")
    return EXIT_OK if not bad else EXIT_MATH


def cmd_assoc(args) -> int:
    obj = _read_json(args.pair)
    if args.direction == "forward":
        out = wall_pair_to_obj(assoc_forward(glued_pair_from_obj(obj)))
    else:
        out = glued_pair_to_obj(assoc_inverse(wall_pair_from_obj(obj)))
    _emit(dumps(out), args.output)
    return EXIT_OK


def cmd_commute(args) -> int:
    h = hive_from_obj(_read_json(args.hive))
    out = commutor(h)
    if args.check:
        witness = half_octahedron_diagnostics(h).witness()
        if witness is not None:
            print(witness, file=sys.stderr)
            return EXIT_MATH
    _emit(dumps(hive_to_obj(out)), args.output)
    return EXIT_OK


def cmd_propagate(args) -> int:
    ground = hive_from_obj(_read_json(args.ground))
    ceiling = hive_from_obj(_read_json(args.ceiling))
    t = propagate(ground, ceiling)
    _emit(dumps(tetra_to_obj(t)), args.output)
    if args.check_pcpm:
        witnesses = check_pcpm(t).witnesses()
        if witnesses:
            print("\n".join(witnesses), file=sys.stderr)
            return EXIT_MATH
    return EXIT_OK


def cmd_render(args) -> int:
    h = hive_from_obj(_read_json(args.hive))
    _emit(render_hive_svg(h), args.output)
    return EXIT_OK


def cmd_selfcheck(args) -> int:
    ok = True
    for name, run in checks.selfcheck_suites(args.max_n, args.max_part,
                                             args.random_cases,
                                             args.inject_fault):
        cases, fails = run()
        status = "pass" if not fails else f"FAIL ({len(fails)})"
        print(f"{name:55s} cases={cases:<6d} {status}")
        for msg in fails[:10]:
            print(f"    {msg}")
        ok = ok and not fails
    print("selfcheck:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_MATH


# ---------------------------------------------------------------- plumbing

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hives",
        description="Exact Littlewood-Richardson combinatorics on the hive "
                    "model: counting, enumeration, octahedron propagation, "
                    "and the associativity/commutativity bijections.")
    sub = ap.add_subparsers(dest="command", required=True)

    def max_count_option(p, what: str):
        p.add_argument("--max-count", type=int_at_least(0),
                       help=f"exit 2 without output when there are more "
                            f"than this many {what} (counted first)")

    p = sub.add_parser("lr", help="one Littlewood-Richardson coefficient")
    p.add_argument("--mu", type=parse_partition, required=True)
    p.add_argument("--nu", type=parse_partition, required=True)
    p.add_argument("--lambda", dest="lam", type=parse_partition, required=True)
    p.add_argument("--method", choices=("hive", "tableaux", "both"),
                   default="hive")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=cmd_lr)

    p = sub.add_parser("schur", help="expand a product of two Schur functions")
    p.add_argument("--mu", type=parse_partition, required=True)
    p.add_argument("--nu", type=parse_partition, required=True)
    p.add_argument("--parts", type=int_at_least(0), default=6,
                   help="maximum number of parts in the expansion terms")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=cmd_schur)

    p = sub.add_parser("enumerate", help="list all hives with a boundary")
    p.add_argument("--mu", type=parse_partition, required=True)
    p.add_argument("--nu", type=parse_partition, required=True)
    p.add_argument("--lambda", dest="lam", type=parse_partition, required=True)
    max_count_option(p, "hives")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("pairs", help="list a glued- or wall-pair coproduct")
    p.add_argument("--side", choices=("glued", "wall"), default="glued")
    p.add_argument("--mu", type=parse_partition, required=True)
    p.add_argument("--pi", type=parse_partition, required=True)
    p.add_argument("--sigma", type=parse_partition, required=True)
    p.add_argument("--lambda", dest="lam", type=parse_partition, required=True)
    max_count_option(p, "pairs")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_pairs)

    p = sub.add_parser("verify", help="check a hive file for concavity")
    p.add_argument("hive")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("assoc", help="associativity bijection on a pair file")
    p.add_argument("direction", choices=("forward", "inverse"))
    p.add_argument("pair")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_assoc)

    p = sub.add_parser("commute", help="commutor: DC(mu,nu;lam) -> DC(nu,mu;lam)")
    p.add_argument("hive")
    p.add_argument("--check", action="store_true",
                   help="also run the half-octahedron diagnostics")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_commute)

    p = sub.add_parser("propagate", help="octahedron propagation of two hives")
    p.add_argument("--ground", required=True)
    p.add_argument("--ceiling", required=True)
    p.add_argument("--check-pcpm", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_propagate)

    p = sub.add_parser("selfcheck", help="run the full identity test suites")
    p.add_argument("--max-n", type=int_at_least(2), default=3)
    p.add_argument("--max-part", type=int_at_least(0), default=3)
    p.add_argument("--random-cases", type=int_at_least(0), default=200,
                   help="randomized size-4 propagation cases")
    p.add_argument("--inject-fault", action="store_true",
                   help="flip one rhombus kind in the counting suite; the "
                        "run must then fail (harness mutation check)")
    p.set_defaults(fn=cmd_selfcheck)

    p = sub.add_parser("render", help="render a hive file as SVG")
    p.add_argument("hive")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_render)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
