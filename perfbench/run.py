"""Benchmark of the sarrus library: four workloads, end-to-end and per-layer metrics.

One workload, one run:

    python3 perfbench/run.py --workload det-files --seed 1 --seconds 20 --trace 0

All four workloads, each untraced and then traced (exit status 1 if any
output was wrong):

    python3 perfbench/run.py --seed 1

The library is imported from ``src/`` next to this directory; nothing is
installed. A run prints every metric by name with its unit, and as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
``--trace 0`` the metrics are the end-to-end ones, measured with tracing off.
With ``--trace 1`` the metrics are the per-layer ones: the loop runs in
alternating untraced and traced segments (the gap between them is the tracing
overhead), then the per-layer pass (layers.py) and the exact operation counts
run, and the spans and the self-time table are written to ``perfbench/out/``.
Exit status is 0 when every output was correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("det-files", "det-large", "scheme-build", "oracle-check")

# Cold set-up is repeated at least this many times, and until this much time
# has gone, and setup_s is the median.
SETUP_REPS = 5
SETUP_BUDGET_S = 0.5
SETUP_REPS_MAX = 200
TRACE_SEGMENTS = 4
WINDOW_NS = 200_000_000  # operation time between two host probes

PER_LAYER_TIMES = (
    ("io.parse_us", "us"),
    ("io.scheme_json_ms", "ms"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("generate.classes_ms", "ms"),
    ("generate.search_ms", "ms"),
    ("scheme.validate_ms", "ms"),
    ("scheme.validate_defective_ms", "ms"),
    ("scheme.evaluate_cold_ms", "ms"),
    ("scheme.evaluate_warm_us", "us"),
    ("scheme.sums_warm_us", "us"),
    ("render.svg_ms", "ms"),
    ("oracle.leibniz_ms", "ms"),
    ("oracle.cofactor_ms", "ms"),
    ("oracle.bareiss_ms", "ms"),
)
COUNTS = (
    "scheme.terms",
    "scheme.mul_chained",
    "scheme.adds",
    "scheme.windows",
    "oracle.leibniz.terms",
    "oracle.leibniz.mul_chained",
    "oracle.cofactor.mul_chained",
    "oracle.bareiss.mul_chained",
    "oracle.bareiss.divs",
    "generate.classes",
    "render.svg_bytes",
)


class Tally:
    """Checked outputs: every mismatch or unexpected exception counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, oks, what: str) -> None:
        oks = list(oks)
        self.attempted += len(oks)
        bad = oks.count(False)
        if bad:
            self.failed += bad
            print(f"MISMATCH: {bad} wrong output(s) in {what}", file=sys.stderr)

    def error(self, what: str, exc: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"ERROR in {what}: {type(exc).__name__}: {exc}", file=sys.stderr)


def quiet_heap() -> None:
    """Collect, then move every live object out of the cyclic collector's view.

    The benchmark's own inputs and results would otherwise be rescanned by
    each full collection the library's garbage triggers, which adds time that
    depends on the harness, not on the library.
    """
    gc.collect()
    gc.freeze()


class Loop(NamedTuple):
    lat: array  # ns per completed operation, scaled to the reference host speed
    raw_ns: int  # their sum as measured
    samples: list  # (scale, sample) for each check that returned a sample


def run_loop(wl, st, tr, seconds: float, tally: Tally, start: int = 0) -> Loop:
    """Closed loop, one caller, for ``seconds``; only ``wl.op`` is inside the
    clock. A host probe runs after every WINDOW_NS of operation time and
    scales that window (host.Meter). Latencies sit in a flat array so that
    the run's memory grows by only 8 bytes per operation."""
    quiet_heap()
    lat, raw_ns, samples = array("q"), 0, []
    meter = host.Meter()
    windows, first, busy = [], 0, 0  # windows: (first op, end op, interval)
    i = start
    end = time.perf_counter_ns() + int(seconds * 1e9)
    while True:
        t0 = time.perf_counter_ns()
        try:
            result = tr.op(wl.op, st, i, tr)
            t1 = time.perf_counter_ns()
            oks, sample = wl.check(st, i, result)
        except Exception as exc:  # counted, and the loop goes on
            t1 = time.perf_counter_ns()
            tally.error(f"{wl.name} operation {i}", exc)
        else:
            tally.add(oks, f"{wl.name} operation {i}")
            lat.append(t1 - t0)
            busy += t1 - t0
            if sample is not None:
                samples.append((len(windows), sample))
        i += 1
        if busy >= WINDOW_NS or t1 >= end:
            windows.append((first, len(lat), meter.mark()))
            raw_ns += busy
            first, busy = len(lat), 0
        if t1 >= end:
            break
    scales = [meter.scale(k) for _, _, k in windows]
    for (a, b, _), scale in zip(windows, scales):
        for j in range(a, b):
            lat[j] = round(lat[j] * scale)
    return Loop(lat, raw_ns, [(scales[w], x) for w, x in samples])


def cold_setups(wl, seed: int) -> tuple[object, list[float], list[float]]:
    """State from the last of the cold set-ups, and their scaled and raw times in s."""
    raw, intervals = [], []
    meter = host.Meter()
    spent = time.perf_counter()
    while len(raw) < SETUP_REPS or (
        time.perf_counter() - spent < SETUP_BUDGET_S and len(raw) < SETUP_REPS_MAX
    ):
        workloads.clear_caches()
        quiet_heap()
        meter.mark()  # a probe right before the set-up
        t0 = time.perf_counter()
        st = wl.setup(seed)
        raw.append(time.perf_counter() - t0)
        intervals.append(meter.mark())
    return st, [t * meter.scale(k) for t, k in zip(raw, intervals)], raw


def extras(wl, st, tr, tally: Tally) -> dict:
    if not hasattr(wl, "extras"):
        return {}
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        found, oks = wl.extras(st, tr, workdir, host.Meter())
    except Exception as exc:
        tally.error(f"{wl.name} extras", exc)
        return {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally.add(oks, f"{wl.name} extras")
    return found


def loop_metrics(lat: array) -> dict:
    if not lat:
        return {}
    return {
        "ops_per_s": (len(lat) / (sum(lat) / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(lat) / 1e6, "ms"),
    }


def p90_ms(lat: array) -> float:
    """Nearest-rank 90th percentile. Printed, not bounded: with the 20 to 40
    rounds of scheme-build and oracle-check in a run it spread by up to 16 %
    across seeds."""
    return sorted(lat)[max(0, -(-9 * len(lat) // 10) - 1)] / 1e6


def untraced(wl, args, tally: Tally) -> tuple[dict, dict, dict]:
    """End-to-end metrics, the workload's own metrics, and the raw values."""
    st, setups, raw_setups = cold_setups(wl, args.seed)
    loop = run_loop(wl, st, spans.NullTracer(), args.seconds, tally)
    # Taken before the latencies are sorted, which is the harness's own work.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": (statistics.median(setups), "s"), **loop_metrics(loop.lat)}
    metrics["peak_rss_mb"] = (peak_mb, "MB")
    raw = {"setup_s": statistics.median(raw_setups)}
    if loop.lat:
        raw["ops_per_s"] = len(loop.lat) / (loop.raw_ns / 1e9)
    found = {}
    if loop.lat:
        found["op_p90_ms"] = (p90_ms(loop.lat), "ms")
        found.update(wl.metrics(loop.lat, loop.samples))
    found.update(extras(wl, st, spans.NullTracer(), tally))
    print(f"  {len(loop.lat)} operations in the loop, {len(setups)} cold set-ups")
    return metrics, found, raw


def traced(wl, args, tally: Tally) -> tuple[dict, dict, dict]:
    workloads.clear_caches()
    st = wl.setup(args.seed)
    # Untraced and traced segments alternate, so drift during the run falls
    # on both sides of the overhead comparison.
    segment = args.seconds / (2 * TRACE_SEGMENTS)
    plain, with_spans, tr = array("q"), array("q"), spans.Tracer()
    for _ in range(TRACE_SEGMENTS):
        for tracer, lat in ((spans.NullTracer(), plain), (tr, with_spans)):
            lat += run_loop(wl, st, tracer, segment, tally, len(plain) + len(with_spans)).lat
    extras(wl, st, tr, tally)
    overhead = 0.0
    if plain and with_spans:
        overhead = (sum(with_spans) / len(with_spans) / (sum(plain) / len(plain)) - 1) * 100

    layer_values, oks, layer_tr = layers.layer_pass(args.seed)
    tally.add(oks, "layer pass")

    counts = [wl.count(st) for _ in range(2)]
    for _, oks, _ in counts:
        tally.add(oks, f"{wl.name} op counts")
    tally.add([counts[0][0] == counts[1][0]], f"{wl.name} op counts repeat")
    for line in counts[0][2]:
        print(f"  {line}")

    selfs = tr.self_times()
    total = sum(selfs.values()) or 1
    metrics = {name: (layer_values[name], unit) for name, unit in PER_LAYER_TIMES}
    metrics.update({name: (counts[0][0].get(name, 0), "count") for name in COUNTS})
    metrics.update({f"self_pct.{layer}": (100 * ns / total, "%") for layer, ns in selfs.items()})
    metrics["trace.overhead_pct"] = (overhead, "%")

    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"{wl.name}.spans.jsonl.gz")
    layer_tr.write(OUT / f"{wl.name}.layers.spans.jsonl.gz")
    calls = {}
    for name, *_ in tr.spans:
        layer = name.split(".", 1)[0]
        calls[layer] = calls.get(layer, 0) + 1
    table = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds_traced": args.seconds / 2,
        "operations_untraced": len(plain),
        "operations_traced": len(with_spans),
        "tracing_overhead_pct": overhead,
        "layers": {
            layer: {"calls": calls.get(layer, 0), "self_ms": ns / 1e6,
                    "self_pct": 100 * ns / total}
            for layer, ns in selfs.items()
        },
    }
    (OUT / f"{wl.name}.selftime.json").write_text(json.dumps(table, indent=2) + "\n")
    print(f"  {len(plain)} operations untraced, {len(with_spans)} traced; self time per layer:")
    for layer, row in table["layers"].items():
        print(f"    {layer:<9} {row['calls']:>8} calls {row['self_ms']:>12.3f} ms "
              f"{row['self_pct']:>7.2f} %")
    return metrics, {}, {}


def show(name: str, value, unit: str, raw=None) -> None:
    text = f"{value:>16.6g}" if isinstance(value, float) else f"{value:>16}"
    print(f"  {name:<30} {text} {unit}" + ("" if raw is None else f"   (raw {raw:.6g})"))


def run_one(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    interpreter = statistics.median(workloads.python_wall_ms("pass", 3))
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"  machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"`python -c pass` {interpreter:.1f} ms")
    tally = Tally()
    try:
        metrics, found, raw = (traced if args.trace else untraced)(wl, args, tally)
    except Exception as exc:  # the run still ends with a result that says it failed
        traceback.print_exc()
        tally.error(f"{wl.name} run", exc)
        metrics, found, raw = {}, {}, {}
    ratio = tally.failed / max(1, tally.attempted)
    for name, (value, unit) in {**metrics, **found}.items():
        show(name, value, unit, raw.get(name))
    show("failed_ratio", ratio, f"({tally.failed} of {tally.attempted} checked outputs)")
    OUT.mkdir(exist_ok=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        **result,
        "workload_metrics": {n: {"value": v, "unit": u} for n, (v, u) in found.items()},
        "raw_metrics": raw,
        "host_probe_ref_ns": host.REF_NS,
        "failed_ratio": ratio,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "interpreter_ms": interpreter,
    }
    (OUT / f"{wl.name}.trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    status = 0
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            status |= subprocess.run(cmd, cwd=ROOT).returncode
    return 1 if status else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "sarrus" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    global host, layers, spans, workloads
    import host
    import layers
    import spans
    import workloads

    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
