"""Per-layer timings: each library layer timed apart from the others.

Every call runs under a span and every output is checked. Calls are warmed
unless the metric is the cold cost, and each metric is the median over its
repeats, scaled by the host probes around its group of calls (host.py), so
the numbers mean the same in every workload's traced run:

- the scheme, render and io.scheme_json layers work on a searched n = 7 scheme;
- io.parse_us is the mean of the CSV and JSON medians for 5x5 integer texts;
- leibniz and cofactor take 8x8 integer matrices, bareiss 32x32 rational ones;
- cli.* are wall times of ``python -c pass`` and ``python -c "import sarrus"``.

generate.search_ms contains a class enumeration and a validate of its own:
generate.classes_ms and scheme.validate_ms overlap it.
"""

from __future__ import annotations

import random
import statistics

from sarrus import (
    Matrix,
    RenderSpec,
    SearchConfig,
    bareiss_det,
    cofactor_det,
    evaluate,
    leibniz_det,
    matrix_from_csv,
    matrix_from_json,
    necklace_classes,
    positive_negative_sums,
    render,
    scheme_from_json,
    scheme_to_json,
    search_scheme,
    validate,
)

from host import Meter
from spans import Tracer
from workloads import clear_caches, csv_text, json_text, mutate, python_wall_ms, random_rows

N = 7
REPS = 3


def layer_pass(seed: int) -> tuple[dict, list[bool], Tracer]:
    """Returns {metric: value}, one bool per checked output, and the spans."""
    rng = random.Random(f"layers:{seed}")
    tr = Tracer()
    oks: list[bool] = []
    raw: dict[str, tuple[float, int]] = {}
    meter, mark = Meter(), 0

    def measure(metric: str, unit_ns: float, *names: str, mean: bool = False) -> None:
        """Median of each named span since the last measure(); summed, or
        averaged when ``mean``. Closes a host-probe interval."""
        nonlocal mark
        recent = tr.spans[mark:]
        mark = len(tr.spans)
        meds = [statistics.median(e - b for n, b, e, *_ in recent if n == name) for name in names]
        raw[metric] = (sum(meds) / (len(meds) if mean else 1) / unit_ns, meter.mark())

    texts = [Matrix.from_rows(random_rows(rng, 5)) for _ in range(20)]
    for M in texts:
        oks.append(tr.call("io.matrix_from_csv", matrix_from_csv, csv_text(M)) == M)
        oks.append(tr.call("io.matrix_from_json", matrix_from_json, json_text(M)) == M)
    measure("io.parse_us", 1e3, "io.matrix_from_csv", "io.matrix_from_json", mean=True)

    cfg = SearchConfig(n=N, random_seed=rng.randrange(1 << 30))
    found = [tr.call("generate.search_scheme", search_scheme, cfg) for _ in range(REPS)]
    sch = found[0]
    oks.append(all(s == sch for s in found))
    measure("generate.search_ms", 1e6, "generate.search_scheme")
    oks += [len(tr.call("generate.necklace_classes", necklace_classes, N)) > 0 for _ in range(REPS)]
    measure("generate.classes_ms", 1e6, "generate.necklace_classes")
    oks += [tr.call("scheme.validate", validate, sch).is_valid for _ in range(REPS)]
    measure("scheme.validate_ms", 1e6, "scheme.validate")
    bad = mutate(sch, rng.random(), rng.randint(1, N - 1))
    oks += [not tr.call("scheme.validate", validate, bad).is_valid for _ in range(REPS)]
    measure("scheme.validate_defective_ms", 1e6, "scheme.validate")

    mats = [Matrix.from_rows(random_rows(rng, N)) for _ in range(15)]
    refs = [bareiss_det(M) for M in mats]
    for M, ref in zip(mats[:REPS], refs):
        clear_caches()
        oks.append(tr.call("scheme.evaluate", evaluate, sch, M) == ref)
    measure("scheme.evaluate_cold_ms", 1e6, "scheme.evaluate")
    for M, ref in zip(mats, refs):
        oks.append(tr.call("scheme.evaluate", evaluate, sch, M) == ref)
    measure("scheme.evaluate_warm_us", 1e3, "scheme.evaluate")
    for M, ref in zip(mats, refs):
        s_plus, s_minus = tr.call("scheme.positive_negative_sums", positive_negative_sums, sch, M)
        oks.append(s_plus - s_minus == ref)
    measure("scheme.sums_warm_us", 1e3, "scheme.positive_negative_sums")

    svgs = [tr.call("render.render", render, RenderSpec(scheme=sch)) for _ in range(REPS)]
    oks.append(len(set(svgs)) == 1)
    measure("render.svg_ms", 1e6, "render.render")
    for _ in range(5):
        text = tr.call("io.scheme_to_json", scheme_to_json, sch)
        oks.append(tr.call("io.scheme_from_json", scheme_from_json, text) == sch)
    measure("io.scheme_json_ms", 1e6, "io.scheme_to_json", "io.scheme_from_json")

    ints = [Matrix.from_rows(random_rows(rng, 8)) for _ in range(REPS)]
    leibniz_det(Matrix.identity(8))  # sign table, so leibniz is timed warm
    wants = [bareiss_det(M) for M in ints]
    oks += [tr.call("oracle.leibniz_det", leibniz_det, M) == w for M, w in zip(ints, wants)]
    measure("oracle.leibniz_ms", 1e6, "oracle.leibniz_det")
    oks += [tr.call("oracle.cofactor_det", cofactor_det, M) == w for M, w in zip(ints, wants)]
    measure("oracle.cofactor_ms", 1e6, "oracle.cofactor_det")
    rationals = [Matrix.from_rows(random_rows(rng, 32, 1.0)) for _ in range(5)]
    wants = [bareiss_det(M.transpose()) for M in rationals]
    oks += [tr.call("oracle.bareiss_det", bareiss_det, M) == w for M, w in zip(rationals, wants)]
    measure("oracle.bareiss_ms", 1e6, "oracle.bareiss_det")

    python_wall_ms("pass", 5, tr)
    measure("cli.interpreter_ms", 1e6, "cli.python")
    python_wall_ms("import sarrus", 5, tr)
    measure("cli.import_ms", 1e6, "cli.python")
    return {metric: value * meter.scale(k) for metric, (value, k) in raw.items()}, oks, tr
