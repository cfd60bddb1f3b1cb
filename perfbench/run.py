"""Benchmark of the hives package: one workload per run.

    python3 perfbench/run.py --workload lr-count --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the run times operations on fresh seeded inputs until
``--seconds`` of operation time have passed and reports the end-to-end
metrics (the tail latency and failed-operation ratio only on the lines
above the result).  With ``--trace 1`` it runs a fixed list of inputs
repeatedly, alternating traced and untraced passes for ``--seconds``, and
reports the per-layer metrics; spans go to
``perfbench/out/trace-<workload>.jsonl``.  Every output is checked outside
the timed region.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.

One process, one thread: the package is pure Python and GIL-bound, so the
benchmark has no worker pool.  ``setup_s`` is the median of this process's
set-up and that of SETUP_PROBES child processes, started one after another
at even steps through the timed operations.

The speed of a shared host drifts by tens of percent over tens of seconds,
for every pure-Python program alike.  So a fixed piece of pure-Python
reference work, part of this file and never of the package, runs between
the operations after every REF_EVERY_NS of operation time, and the
operation and set-up times are scaled by REF_NOMINAL_NS over its mean
time: they are reported as at a host that runs the reference work in
REF_NOMINAL_NS.  The unscaled figures are printed above the result.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import array  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

SETUP_PROBES = 8
FIRST_INPUTS = 32   # inputs drawn during set-up; the rest are drawn lazily
TAIL_BEYOND = 10    # samples beyond the reported tail percentile
TAIL_FLOOR = 90.0   # the tail percentile when too few samples reach past it
REF_EVERY_NS = 250_000_000  # operation time between two runs of the reference
REF_NOMINAL_NS = 15_000_000  # reference_work() on a quiet 2-vCPU VM, py3.11


def _search(k: int, prev: int, rem: int) -> int:
    if k == 0:
        return rem == 0
    return sum(_search(k - 1, v, rem - v) for v in range(min(prev, rem) + 1))


def reference_work() -> int:
    """Fixed pure-Python work like the package's: tuples, sorting, dict
    updates and a recursive partition count, in well under a megabyte."""
    acc = 0
    for r in range(12):
        xs = [((i * 7919 + r) % 1009, (i, r)) for i in range(1500)]
        xs.sort()
        d = {}
        for x, t in xs:
            d[x] = d.get(x, 0) + t[0]
        acc += sum(d.values()) & 0xFFFF
    return acc + _search(8, 7, 16)


REF_RESULT = 121776


def time_reference() -> int:
    t0 = time.perf_counter_ns()
    out = reference_work()
    ns = time.perf_counter_ns() - t0
    if out != REF_RESULT:
        sys.exit(f"reference work returned {out}, not {REF_RESULT}")
    return ns


def set_up(name: str, seed: int):
    """Import the package, draw the first inputs and warm its caches."""
    import hives
    if Path(hives.__file__).resolve().parent != SRC / "hives":
        sys.exit(f"hives imported from {hives.__file__}, not from {SRC}")
    from workloads import WORKLOADS
    wl = WORKLOADS[name]
    stream = wl.inputs(seed)
    first = list(itertools.islice(stream, FIRST_INPUTS))
    for inp in wl.warmup():
        wl.op(inp)
    time_reference()
    return wl, itertools.chain(first, stream)


def run_op(wl, inp, tracer=None):
    """(latency ns, failure reason or None) for one operation; the check
    runs after the clock stops and, when tracing, untraced."""
    if tracer:
        tracer.active = True
    t0 = time.perf_counter_ns()
    try:
        out = wl.op(inp)
    except Exception as exc:  # a raising operation is a failed operation
        return time.perf_counter_ns() - t0, f"raised {exc!r}"
    finally:
        if tracer:
            tracer.active = False
    latency = time.perf_counter_ns() - t0
    try:
        return latency, wl.check(inp, out)
    except Exception as exc:
        return latency, f"check raised on this output: {exc!r}"


def tail(latencies_ns: list[int]) -> tuple[float, int, int]:
    """(percentile, value ns, samples beyond): the highest percentile with
    TAIL_BEYOND samples beyond it, but never below TAIL_FLOOR, where fewer
    samples lie beyond it (nearest rank)."""
    s = sorted(latencies_ns)
    k = max(len(s) - TAIL_BEYOND, math.ceil(len(s) * TAIL_FLOOR / 100)) - 1
    return 100.0 * (k + 1) / len(s), s[k], len(s) - k - 1


def setup_probe(args) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_timed(wl, stream, seconds: float):
    """Operations on successive inputs until their latencies add up to
    ``seconds``, with the reference work after every REF_EVERY_NS of them:
    (latencies ns, failure reasons, total ns, reference times ns)."""
    latencies = array.array("q")  # 8 bytes an operation, for a flat peak RSS
    refs = array.array("q")
    failures: list[str] = []
    budget, spent, since_ref = seconds * 1e9, 0, 0
    for inp in stream:
        latency, failure = run_op(wl, inp)
        latencies.append(latency)
        spent += latency
        since_ref += latency
        if failure:
            failures.append(failure)
        if since_ref >= REF_EVERY_NS:
            refs.append(time_reference())
            since_ref = 0
        if spent >= budget:
            break
    if not refs:
        refs.append(time_reference())
    return latencies, failures, spent, refs


def measure(args, wl, stream, setup_main: float):
    # A set-up probe after each of SETUP_PROBES equal stretches of the
    # timed operations, so that set-up and operations see the same drift.
    setup = [setup_main]
    latencies, refs = array.array("q"), array.array("q")
    failures: list[str] = []
    spent = 0
    for k in range(1, SETUP_PROBES + 1):
        lat, fail, ns, ref = run_timed(
            wl, stream, args.seconds * k / SETUP_PROBES - spent / 1e9)
        latencies += lat
        failures += fail
        spent += ns
        refs += ref
        setup.append(setup_probe(args))
    attempted = len(latencies)
    ok = attempted - len(failures)
    pct, tail_ns, beyond = tail(latencies)
    # Mean over mean: the host's drift is slow, and both sums span the run.
    scale = REF_NOMINAL_NS / statistics.fmean(refs)
    p50_ns = statistics.median(latencies)
    print(f"setup_s samples, unscaled: {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"reference work: mean {statistics.fmean(refs) / 1e6:.3f} ms over "
          f"{len(refs)} runs, nominal {REF_NOMINAL_NS / 1e6:g} ms; "
          f"operation times scaled by {scale:.4f}")
    print(f"unscaled: ops_per_s {ok / (spent / 1e9)}, "
          f"latency_p50_ms {p50_ns / 1e6}")
    # Printed, not in the result: on a shared host the few slowest
    # operations mostly time the host's stalls (see README.md).
    print(f"latency_tail_ms: {tail_ns * scale / 1e6} ms, p{pct:.2f} of "
          f"{attempted} samples with {beyond} beyond")
    metrics = {
        "setup_s": (statistics.median(setup) * scale, "s"),
        "ops_per_s": (ok / (spent * scale / 1e9), "1/s"),
        "latency_p50_ms": (p50_ns * scale / 1e6, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    return attempted, failures, metrics


def trace(args, wl, stream):
    from tracing import TRACED, Tracer, layer_times
    ops = list(itertools.islice(stream, wl.trace_ops))
    failures: list[str] = []
    attempted = 0
    traced, plain = [], []  # (op ns, layer times, counts) / op ns per pass
    spans = []  # of the first traced pass, which the counts come from
    deadline = time.perf_counter() + args.seconds
    for p in itertools.count():
        if traced and plain and time.perf_counter() >= deadline:
            break
        # Traced, untraced, untraced, traced, ...: the first pass is traced,
        # so no earlier pass over the same inputs can have warmed anything
        # the counts depend on, and a steady drift of the host's speed
        # favours neither side of the overhead ratio.
        tracer = Tracer() if p % 4 in (0, 3) else None
        if tracer:
            tracer.install()
        spent = 0
        for k, inp in enumerate(ops):
            if tracer:
                tracer.op_id = k
            latency, failure = run_op(wl, inp, tracer)
            spent += latency
            attempted += 1
            if failure:
                failures.append(failure)
        if tracer:
            tracer.uninstall()
            traced.append((spent, layer_times(tracer.spans), tracer.counts))
            spans = spans or tracer.spans
        else:
            plain.append(spent)

    counts = traced[0][2]
    if any(c != counts for _, _, c in traced):
        print("warning: work counts differ between traced passes",
              file=sys.stderr)
    metrics = {}
    for module, names in TRACED.items():
        for fname in names:
            key = f"{module}.{fname}"
            rows = [lt.get(key, {}) for _, lt, _ in traced]
            metrics[f"{key}.calls"] = (rows[0].get("calls", 0), "count")
            for field in ("busy_s", "self_s"):
                metrics[f"{key}.{field}"] = (
                    statistics.median(r.get(field, 0.0) for r in rows), "s")

    def ratio(a, b):
        return a / b if b else 0.0

    octa_busy = [sum(lt.get(k, {}).get("busy_s", 0.0)
                     for k in ("octahedron.propagate",
                               "octahedron.inverse_propagate"))
                 for _, lt, _ in traced]
    metrics.update({
        "enumeration.hives_found": (counts["hives_found"], "count"),
        "enumeration.nonempty_ratio": (
            ratio(counts["nonempty"], counts["searches"]), "ratio"),
        "tableaux.schur_product.useful_ratio": (
            ratio(counts["schur_terms"], counts["schur_candidates"]), "ratio"),
        "octahedron.points_filled": (counts["points_filled"], "count"),
        "octahedron.points_per_s": (statistics.median(
            ratio(counts["points_filled"], s) for s in octa_busy), "1/s"),
        "hive.validate_dc.rhombi": (counts["rhombi"], "count"),
        "jsonio.bytes": (counts["json_bytes"], "bytes"),
        "trace.overhead_ratio": (
            statistics.median(t for t, _, _ in traced)
            / statistics.median(plain), "ratio"),
    })
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{args.workload}.jsonl", "w") as fh:
        fh.write('["id", "parent", "op", "name", "start_ns", "end_ns"]\n')
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    print(f"trace: {len(traced)} traced and {len(plain)} untraced passes "
          f"over {len(ops)} inputs; {len(spans)} spans of the first traced "
          f"pass written")
    return attempted, failures, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("lr-count", "schur-expand", "octahedron-maps",
                             "selfcheck"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up seconds and exit")
    args = ap.parse_args(argv)

    wl, stream = set_up(args.workload, args.seed)
    setup_main = time.perf_counter() - _START
    if args.setup_only:
        print(setup_main)
        return 0

    print(f"context: nproc={os.cpu_count()} python={platform.python_version()} "
          f"processes=1 threads=1 workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        attempted, failures, metrics = trace(args, wl, stream)
    else:
        attempted, failures, metrics = measure(args, wl, stream, setup_main)
    print(f"failed_ops_ratio: {len(failures) / attempted} "
          f"({len(failures)} of {attempted})")
    for reason in failures[:5]:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
