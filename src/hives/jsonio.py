"""Canonical JSON formats for hives, tetra functions, and pairs.

Hive: {"n": 2, "values": [[0, 2, 2], [1, 2], [1]]} with row j holding the
values f(0, j) ... f(n-j, j), rows ascending in j.  Tetra function: the same
idea one level deeper, "values" indexed by z, then y, then x.  Pairs wrap
two hives under fixed keys.  All JSON the package writes is the canonical
form of dumps: sorted keys and no whitespace, so equal objects produce
byte-identical files.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from .bijections import GluedPair, WallPair
from .hive import Hive
from .octahedron import TetraFunction


class SchemaError(ValueError):
    """Raised when a JSON document does not match the expected format."""


def _rows(rows: Any, what: str) -> tuple[tuple[Any, ...], ...]:
    """The rows of a 'values' list; the constructors check the entries."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise SchemaError(f"{what}: 'values' must be a list of lists")
    return tuple(map(tuple, rows))


def hive_to_obj(h: Hive) -> dict:
    return {"n": h.n, "values": [list(row) for row in h.rows]}


def hive_from_obj(obj: Any) -> Hive:
    if not isinstance(obj, dict) or set(obj) != {"n", "values"}:
        raise SchemaError("hive: expected an object with keys 'n' and 'values'")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise SchemaError(f"hive: 'n' must be a non-negative integer, got {n!r}")
    rows = _rows(obj["values"], "hive")
    if len(rows) != n + 1:
        raise SchemaError("hive: 'values' must hold n+1 rows")
    try:
        return Hive(rows)
    except ValueError as exc:
        raise SchemaError(f"hive: {exc}") from exc


def tetra_to_obj(t: TetraFunction) -> dict:
    return {"n": t.n,
            "values": [[list(row) for row in layer] for layer in t.layers]}


def glued_pair_to_obj(p: GluedPair) -> dict:
    return {"f1": hive_to_obj(p.f1), "f2": hive_to_obj(p.f2)}


def glued_pair_from_obj(obj: Any) -> GluedPair:
    if not isinstance(obj, dict) or set(obj) != {"f1", "f2"}:
        raise SchemaError("glued pair: expected an object with keys 'f1' and 'f2'")
    return GluedPair(hive_from_obj(obj["f1"]), hive_from_obj(obj["f2"]))


def wall_pair_to_obj(p: WallPair) -> dict:
    return {"w1": hive_to_obj(p.w1), "w2": hive_to_obj(p.w2)}


def wall_pair_from_obj(obj: Any) -> WallPair:
    if not isinstance(obj, dict) or set(obj) != {"w1", "w2"}:
        raise SchemaError("wall pair: expected an object with keys 'w1' and 'w2'")
    return WallPair(hive_from_obj(obj["w1"]), hive_from_obj(obj["w2"]))


def dumps(obj: Any) -> str:
    """The canonical form: sorted keys, no whitespace, a closing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"JSON nested deeper than the parser can follow "
                          f"(recursion limit {sys.getrecursionlimit()})"
                          ) from None
    except ValueError as exc:  # only an integer past CPython's digit limit
        raise SchemaError(f"an integer has more than "
                          f"{sys.get_int_max_str_digits()} digits, CPython's "
                          f"limit for converting str to int") from exc
