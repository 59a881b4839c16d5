"""The four workloads: seeded inputs, cold set-up, one operation, its checks,
its exact operation counts, and the metrics only it can report.

Each workload is a closed loop with one caller: the next operation starts when
the previous one has returned. Inputs come from ``random.Random`` seeded with
the workload name and the ``--seed`` argument; reference determinants are
computed with ``bareiss_det`` while the inputs are made, outside every timed
operation. A workload object holds no run state: ``setup`` returns it.

Interface used by run.py:
  setup(seed)          -> state         cold set-up, timed as setup_s
  op(state, i, tr)     -> result        operation number i, every library call through tr
  check(state, i, r)   -> (oks, sample) one bool per checked output, and the
                                        small record the workload's metrics need
  metrics(lat, samples) -> {name: (value, unit)}, from the loop's scaled
                                        latencies in ns and (scale, sample) pairs
  extras(state, tr, d, meter) -> (metrics, oks) work after the loop, files
                                        in d, times scaled by meter (det-files)
  count(state)         -> (counts, oks, lines) exact OpCounter counts on a fixed
                                        slice, and the term-count statements
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from sarrus import (
    InvalidScheme,
    Matrix,
    OpCounter,
    RenderSpec,
    Scheme,
    SchemeStrip,
    SearchConfig,
    bareiss_det,
    builtin_scheme,
    cofactor_det,
    evaluate,
    format_scalar,
    leibniz_det,
    matrix_from_csv,
    matrix_from_json,
    necklace_classes,
    parity_partition_sums,
    positive_negative_sums,
    render,
    scheme_from_json,
    scheme_to_json,
    search_scheme,
    validate,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def clear_caches() -> None:
    """Drop every functools cache in the package, so the next call is cold."""
    for name, module in list(sys.modules.items()):
        if name == "sarrus" or name.startswith("sarrus."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def random_rows(rng: random.Random, n: int, rational_share: float = 0.0) -> list[list]:
    """Integers in [-9, 9]; with probability rational_share an entry is instead
    a p/q in lowest terms with q in 2..9, never an integer, so that the share
    of Fraction arithmetic is what the share says."""
    return [
        [_fraction(rng) if rng.random() < rational_share else rng.randint(-9, 9) for _ in range(n)]
        for _ in range(n)
    ]


def _fraction(rng: random.Random) -> Fraction:
    while True:
        x = Fraction(rng.randint(-9, 9), rng.randint(2, 9))
        if x.denominator != 1:
            return x


def csv_text(M: Matrix) -> str:
    return "\n".join(",".join(str(x) for x in row) for row in M.rows) + "\n"


def json_text(M: Matrix) -> str:
    return json.dumps([[x if isinstance(x, int) else str(x) for x in row] for row in M.rows])


def mutate(sch: Scheme, u: float, delta: int) -> Scheme:
    """The scheme with one column entry changed.

    The entry sits at fraction u of all strip columns; its value moves by
    delta (1..n-1) modulo n. Every entry lies in some window, and that window
    now repeats a column, so the result is always defective.
    """
    pos = int(u * sum(len(s.columns) for s in sch.strips))
    for si, strip in enumerate(sch.strips):
        if pos < len(strip.columns):
            break
        pos -= len(strip.columns)
    columns = list(strip.columns)
    columns[pos] = (columns[pos] - 1 + delta) % sch.n + 1
    strips = list(sch.strips)
    strips[si] = SchemeStrip(n=sch.n, columns=tuple(columns), starts=strip.starts)
    return Scheme(n=sch.n, strips=tuple(strips))


def python_wall_ms(code: str, reps: int, tr=None) -> list[float]:
    """Wall times of ``python -c code`` with the library on the path, one at a time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        if tr is None:
            proc = _python(["-c", code], env)
        else:
            proc = tr.call("cli.python", _python, ["-c", code], env)
        out.append((time.perf_counter_ns() - t0) / 1e6)
        if proc.returncode != 0:
            raise RuntimeError(f"python -c {code!r} exited {proc.returncode}: {proc.stderr}")
    return out


def _python(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def term_statement(sch: Scheme, M: Matrix) -> tuple[bool, str]:
    """Scheme evaluation and the permutation expansion count the same n! terms."""
    s, l = OpCounter(), OpCounter()
    evaluate(sch, M, ops=s)
    leibniz_det(M, ops=l)
    same = s.terms == l.terms == math.factorial(sch.n)
    verdict = "identical to" if same else "DIFFERENT from"
    return same, (
        f"n={sch.n}: scheme evaluation expands exactly {s.terms} signed products, "
        f"{verdict} the {l.terms}-term permutation expansion; the strip arrangement "
        f"reorganizes the n!-term sum, it does not shrink it."
    )


def _median_ms(ns: list[int]) -> float:
    return statistics.median(ns) / 1e6


def _det_metrics(lat) -> dict:
    lat = sorted(lat)
    return {
        "det_per_s": (len(lat) / (sum(lat) / 1e9), "1/s"),
        "det_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "det_p99_ms": (lat[max(0, math.ceil(0.99 * len(lat)) - 1)] / 1e6, "ms"),
    }


class DetFiles:
    """Desk and CLI use: parse a small matrix text, evaluate with the built-in scheme."""

    name = "det-files"
    POOL = 2400
    SIZES = (2, 3, 4, 5)
    CLI_CALLS = 9  # timed; one more call before them fills the bytecode cache

    def setup(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        items = []
        # Fixed shares, so every seed gives the same mix: n cycles 2..5, a third
        # of the matrices carry p/q entries, formats alternate in runs of 12,
        # and every fifth request also asks for the two diagonal sums.
        for i in range(self.POOL):
            n = self.SIZES[i % 4]
            M = Matrix.from_rows(random_rows(rng, n, 0.25 if (i // 4) % 3 == 0 else 0.0))
            fmt = "json" if (i // 12) % 2 else "csv"
            sums = parity_partition_sums(M) if i % 5 == 0 else None
            text = json_text(M) if fmt == "json" else csv_text(M)
            items.append((fmt, text, bareiss_det(M), sums))
        schemes = {}
        for n in self.SIZES:
            schemes[n] = builtin_scheme(n)
            evaluate(schemes[n], Matrix.identity(n))  # validates and compiles
        return SimpleNamespace(items=items, schemes=schemes)

    def op(self, st, i, tr):
        fmt, text, _, sums = st.items[i % self.POOL]
        if fmt == "csv":
            M = tr.call("io.matrix_from_csv", matrix_from_csv, text)
        else:
            M = tr.call("io.matrix_from_json", matrix_from_json, text)
        sch = st.schemes[M.n]
        det = tr.call("scheme.evaluate", evaluate, sch, M)
        if sums is None:
            return det, None
        return det, tr.call("scheme.positive_negative_sums", positive_negative_sums, sch, M)

    def check(self, st, i, result):
        _, _, ref, sums = st.items[i % self.POOL]
        det, pair = result
        return [det == ref] + ([pair == sums] if sums is not None else []), None

    def metrics(self, lat, samples):
        return _det_metrics(lat)

    def extras(self, st, tr, workdir: Path, meter):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        times, oks = [], []
        for k in range(self.CLI_CALLS + 1):
            fmt, text, ref, _ = st.items[k]
            path = workdir / f"m{k}.{fmt}"
            path.write_text(text, encoding="utf-8")
            args = ["-m", "sarrus", "det", "--matrix", str(path)]
            meter.mark()
            t0 = time.perf_counter_ns()
            proc = tr.op(tr.call, "cli.det", _python, args, env)
            ns = time.perf_counter_ns() - t0
            if k:
                times.append((ns, meter.mark()))
            oks.append(proc.returncode == 0 and proc.stdout.strip() == format_scalar(ref))
        return {"cli_det_ms": (_median_ms([ns * meter.scale(k) for ns, k in times]), "ms")}, oks

    def count(self, st):
        ops, oks = OpCounter(), []
        for i in range(120):  # one period of the size, format, rational and sums pattern
            fmt, text, ref, sums = st.items[i]
            M = (matrix_from_json if fmt == "json" else matrix_from_csv)(text)
            oks.append(evaluate(st.schemes[M.n], M, ops=ops) == ref)
            if sums is not None:
                oks.append(positive_negative_sums(st.schemes[M.n], M, ops=ops) == sums)
        counts = _scheme_counts(ops, st.schemes.values())
        return counts, oks, _statements(st.schemes, oks)


class DetLarge:
    """Evaluation-bound: n = 6 and 7 determinants with searched schemes held warm."""

    name = "det-large"
    POOL = 300
    SIZES = (6, 6, 7)  # 2:1, so the median lies inside the n = 6 times and p99 inside n = 7
    SCHEME_SEED = 11

    def setup(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        mats = []
        for i in range(self.POOL):
            M = Matrix.from_rows(random_rows(rng, self.SIZES[i % len(self.SIZES)]))
            mats.append((M, bareiss_det(M)))
        schemes = {}
        for n in sorted(set(self.SIZES)):
            schemes[n] = search_scheme(SearchConfig(n=n, random_seed=self.SCHEME_SEED))
            evaluate(schemes[n], Matrix.identity(n))  # validates and compiles
        return SimpleNamespace(mats=mats, schemes=schemes)

    def op(self, st, i, tr):
        M = st.mats[i % self.POOL][0]
        return tr.call("scheme.evaluate", evaluate, st.schemes[M.n], M)

    def check(self, st, i, result):
        return [result == st.mats[i % self.POOL][1]], None

    def metrics(self, lat, samples):
        return _det_metrics(lat)

    def count(self, st):
        ops, oks = OpCounter(), []
        for M, ref in st.mats[: len(self.SIZES)]:
            oks.append(evaluate(st.schemes[M.n], M, ops=ops) == ref)
        counts = _scheme_counts(ops, st.schemes.values())
        counts["generate.classes"] = sum(len(necklace_classes(n)) for n in st.schemes)
        return counts, oks, _statements(st.schemes, oks)


class Build(NamedTuple):
    n: int
    k: int
    scheme: Scheme
    valid: bool
    values: list
    back: Scheme
    svg: str
    audits: list  # (reported valid, refused by evaluate, ns)
    ns: int


class SchemeBuild:
    """Authoring: search, validate, compile, save, render and audit a scheme, all cold."""

    name = "scheme-build"
    SIZES = (6, 7)
    SEEDS = 4  # cycled, so every SVG and scheme is compared with an earlier build
    EVALS = 3
    MUTANTS = 3

    def setup(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        seeds = [rng.randrange(1 << 30) for _ in range(self.SEEDS)]
        plans = {}
        for k in range(self.SEEDS):
            for n in self.SIZES:
                mats = [Matrix.from_rows(random_rows(rng, n)) for _ in range(self.EVALS)]
                mutants = [(rng.random(), rng.randint(1, n - 1)) for _ in range(self.MUTANTS)]
                plans[n, k] = (mats, [bareiss_det(M) for M in mats], mutants)
        return SimpleNamespace(seeds=seeds, plans=plans, digests={})

    def op(self, st, r, tr):
        k = r % self.SEEDS
        return [self._build(st, n, k, tr) for n in self.SIZES]

    def _build(self, st, n, k, tr):
        mats, _, mutants = st.plans[n, k]
        clear_caches()
        t0 = time.perf_counter_ns()
        cfg = SearchConfig(n=n, random_seed=st.seeds[k])
        sch = tr.call("generate.search_scheme", search_scheme, cfg)
        valid = tr.call("scheme.validate", validate, sch).is_valid
        values = [tr.call("scheme.evaluate", evaluate, sch, mats[0])]  # cold: compiles
        back = tr.call("io.scheme_from_json", scheme_from_json,
                       tr.call("io.scheme_to_json", scheme_to_json, sch))
        svg = tr.call("render.render", render, RenderSpec(scheme=sch))
        values += [tr.call("scheme.evaluate", evaluate, sch, M) for M in mats[1:]]
        audits = []
        for u, delta in mutants:
            bad = mutate(sch, u, delta)
            a0 = time.perf_counter_ns()
            reported = tr.call("scheme.validate", validate, bad).is_valid
            try:
                tr.call("scheme.evaluate", evaluate, bad, mats[0])
                refused = False
            except InvalidScheme:
                refused = True
            audits.append((reported, refused, time.perf_counter_ns() - a0))
        return Build(n, k, sch, valid, values, back, svg, audits, time.perf_counter_ns() - t0)

    def check(self, st, r, builds):
        oks, sample = [], []
        for b in builds:
            refs = st.plans[b.n, b.k][1]
            oks.append(b.valid)
            oks += [v == ref for v, ref in zip(b.values, refs)]
            oks.append(b.back == b.scheme)
            digest = hashlib.sha256(b.svg.encode()).hexdigest()
            oks.append(st.digests.setdefault((b.n, b.k), digest) == digest)
            oks += [not reported and refused for reported, refused, _ in b.audits]
            sample.append((b.n, b.ns, [ns for _, _, ns in b.audits]))
        return oks, sample

    def metrics(self, lat, samples):
        out = {}
        for n in self.SIZES:
            builds = [ns * c for c, s in samples for m, ns, _ in s if m == n]
            out[f"build_s.n{n}"] = (statistics.median(builds) / 1e9, "s")
        top = max(self.SIZES)
        out["audit_ms"] = (
            _median_ms([a * c for c, s in samples for m, _, au in s if m == top for a in au]), "ms")
        return out

    def count(self, st):
        ops, oks, schemes = OpCounter(), [], {}
        counts = {"generate.classes": 0, "render.svg_bytes": 0}
        for n in self.SIZES:
            mats, refs, _ = st.plans[n, 0]
            sch = schemes[n] = search_scheme(SearchConfig(n=n, random_seed=st.seeds[0]))
            oks += [evaluate(sch, M, ops=ops) == ref for M, ref in zip(mats, refs)]
            counts["generate.classes"] += len(necklace_classes(n))
            counts["render.svg_bytes"] += len(render(RenderSpec(scheme=sch)).encode())
        counts.update(_scheme_counts(ops, schemes.values()))
        return counts, oks, _statements(schemes, oks)


class OracleCheck:
    """The three scheme-free routes must agree; bareiss alone at n = 16 and 32."""

    name = "oracle-check"
    KINDS = ((6, False), (7, False), (8, False),
             (6, True), (7, True), (8, True), (16, True), (32, True))  # (n, rational)
    POOL = 12
    ROUTES = (
        ("oracle.leibniz_det", leibniz_det),
        ("oracle.cofactor_det", cofactor_det),
        ("oracle.bareiss_det", bareiss_det),
    )

    def setup(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        pool = {kind: [] for kind in self.KINDS}
        for _ in range(self.POOL):
            for n, rational in self.KINDS:
                M = Matrix.from_rows(random_rows(rng, n, 1.0 if rational else 0.0))
                pool[n, rational].append((M, bareiss_det(M)))
        for n in sorted({n for n, _ in self.KINDS if n <= 8}):
            leibniz_det(Matrix.identity(n))  # builds the cached sign table
        return SimpleNamespace(pool=pool)

    def _routes(self, n):
        return self.ROUTES if n <= 8 else self.ROUTES[2:]

    def op(self, st, r, tr):
        out = []
        for kind in self.KINDS:
            M = st.pool[kind][r % self.POOL][0]
            for name, fn in self._routes(kind[0]):
                t0 = time.perf_counter_ns()
                value = tr.call(name, fn, M)
                out.append((kind, name, value, time.perf_counter_ns() - t0))
        return out

    def check(self, st, r, out):
        oks = [value == st.pool[kind][r % self.POOL][1] for kind, _, value, _ in out]
        return oks, [(kind, name, ns) for kind, name, _, ns in out]

    def metrics(self, lat, samples):
        def at(kind, route):
            ns = [n * c for c, s in samples for k, r, n in s if k == kind and r == route]
            return (_median_ms(ns), "ms")

        return {
            "leibniz_ms": at((8, False), "oracle.leibniz_det"),
            "cofactor_ms": at((8, False), "oracle.cofactor_det"),
            "bareiss_ms": at((32, True), "oracle.bareiss_det"),
        }

    def count(self, st):
        counters = {name: OpCounter() for name, _ in self.ROUTES}
        oks = []
        for kind in self.KINDS:
            M, ref = st.pool[kind][0]
            for name, fn in self._routes(kind[0]):
                oks.append(fn(M, ops=counters[name]) == ref)
        lz, cf, bz = (counters[name] for name, _ in self.ROUTES)
        counts = {
            "oracle.leibniz.terms": lz.terms,
            "oracle.leibniz.mul_chained": lz.mul_chained,
            "oracle.cofactor.mul_chained": cf.mul_chained,
            "oracle.bareiss.mul_chained": bz.mul_chained,
            "oracle.bareiss.divs": bz.divs,
        }
        return counts, oks, []


def _scheme_counts(ops: OpCounter, schemes) -> dict:
    return {
        "scheme.terms": ops.terms,
        "scheme.mul_chained": ops.mul_chained,
        "scheme.adds": ops.adds,
        "scheme.windows": sum(validate(s).window_count for s in schemes),
    }


def _statements(schemes: dict, oks: list) -> list[str]:
    lines = []
    for n, sch in sorted(schemes.items()):
        same, line = term_statement(sch, Matrix.identity(n))
        oks.append(same)
        lines.append(line)
    return lines


WORKLOADS = {w.name: w for w in (DetFiles(), DetLarge(), SchemeBuild(), OracleCheck())}
