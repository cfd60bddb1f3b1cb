"""Spans around the calls into each layer of the hives package.

``Tracer.install`` replaces every binding of each function in TRACED across
the loaded ``hives.*`` modules (including names that ``cli``,
``bijections``, ``octahedron`` and the package itself import) with a wrapper
that records a span: (span id, parent span id, operation id, name, start ns,
end ns).  Spans stay in memory until the benchmark writes them out.  Per-
point helpers such as ``rhombus_slack`` or ``Hive.__getitem__`` are left
alone, since a span per grid point would swamp what it measures.

The wrappers also add up exact work counts, computed from each call's
arguments and result, never from timing.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Any, Callable

TRACED = {
    "enumeration": ("enumerate_hives", "count_hives", "enumerate_glued_pairs",
                    "enumerate_wall_pairs"),
    "tableaux": ("lr_coefficient", "schur_product", "partitions_in_box"),
    "octahedron": ("propagate", "inverse_propagate", "extract_face",
                   "check_pcpm", "check_polarized"),
    "bijections": ("assoc_forward", "assoc_inverse", "commutor",
                   "half_octahedron_function", "half_octahedron_diagnostics"),
    "hive": ("validate_dc", "boundary"),
    "grids": ("cutting_sections", "unit_octahedra"),
    "jsonio": ("dumps", "loads"),
    "cli": ("main",),
}

SEARCHES = ("enumeration.count_hives", "enumeration.enumerate_hives")


@functools.lru_cache(maxsize=None)
def box_partitions(total: int, parts: int, max_part: int) -> int:
    """Number of partitions of ``total`` with at most ``parts`` parts, each
    at most ``max_part``: the candidate lam of a Schur expansion."""
    if total == 0:
        return 1
    if parts == 0 or max_part == 0 or total > parts * max_part:
        return 0
    # Largest part is exactly max_part, or at most max_part - 1.
    return (box_partitions(total - max_part, parts - 1, max_part)
            + box_partitions(total, parts, max_part - 1))


def _rhombi(n: int) -> int:
    return 3 * (n - 1) * n // 2 if n >= 2 else 0


def _propagate_points(n: int) -> int:
    """Points propagate solves by the octahedron rule: z >= 1 and
    x + y + z <= n - 1."""
    return sum(s - z + 1 for z in range(1, n + 1) for s in range(z, n))


def _inverse_points(n: int) -> int:
    """Points inverse_propagate solves: x, y >= 1."""
    return sum((s - 1) * (n - s + 1) for s in range(2, n + 1))


def _trim(p) -> tuple[int, ...]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _count(name: str, counts: Counter, ancestors: list[str], args,
           result) -> None:
    """Exact work counts for one finished call."""
    if name in SEARCHES and not any(a in SEARCHES for a in ancestors):
        found = result if name == "enumeration.count_hives" else len(result)
        counts["searches"] += 1
        counts["hives_found"] += found
        counts["nonempty"] += found > 0
    elif name == "tableaux.schur_product":
        mu, nu = _trim(args[0]), _trim(args[1])
        counts["schur_terms"] += len(result)
        counts["schur_candidates"] += box_partitions(
            sum(mu) + sum(nu), args[2],
            (mu[0] if mu else 0) + (nu[0] if nu else 0))
    elif name == "octahedron.propagate":
        counts["points_filled"] += _propagate_points(args[0].n)
    elif name == "octahedron.inverse_propagate":
        counts["points_filled"] += _inverse_points(args[0].n)
    elif name == "hive.validate_dc":
        counts["rhombi"] += _rhombi(args[0].n)
    elif name == "jsonio.dumps":
        counts["json_bytes"] += len(result)
    elif name == "jsonio.loads":
        counts["json_bytes"] += len(args[0])


class Tracer:
    """Records spans and work counts while ``active``; between operations
    the wrappers pass calls straight through."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.active = False
        self.op_id = 0
        self._stack: list[tuple[int, str]] = []
        self._next_id = 1
        self._patched: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else 0
            stack.append((sid, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((sid, parent, tracer.op_id, name, start,
                                     end))
            _count(name, tracer.counts, [n for _, n in stack], args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of every TRACED function in hives.*."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "hives" or k.startswith("hives."))]
        for short, names in TRACED.items():
            home = sys.modules[f"hives.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def layer_times(spans) -> dict[str, dict[str, float]]:
    """calls, busy seconds and self seconds per traced function.

    Busy time counts a call only when no enclosing call has the same name,
    so recursion is not counted twice; self time is a span's duration minus
    the durations of its direct children.
    """
    by_id = {s[0]: s for s in spans}
    child_ns: Counter = Counter()
    for sid, parent, _, _, start, end in spans:
        if parent:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for sid, parent, _, name, start, end in spans:
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start - child_ns[sid]) / 1e9
        p = parent
        while p and by_id[p][3] != name:
            p = by_id[p][1]
        if not p:
            row["busy_s"] += (end - start) / 1e9
    return out
