"""Benchmark harness: operation counts and wall times per method and size.

Counts come from an OpCounter threaded through the real evaluation code, so
the reported numbers are measurements, not formulas. Multiplications are
reported under both conventions (n factors per diagonal vs n-1 chained
multiplications); for elimination-style methods the two coincide. Matrices
are generated deterministically from the seed. The counted run goes first, so
one-time work (the compiled Leibniz expansion, a scheme's signed-window pass
and its run kernels) is done before the timed runs start.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import asdict, dataclass
from functools import partial

from .builtin import builtin_scheme
from .counting import OpCounter
from .errors import SizeLimitExceeded, UnsupportedSize, _guard
from .generate import SearchConfig, search_scheme
from .matrix import Matrix
from .oracle import bareiss_det, cofactor_det, leibniz_det
from .scheme import Scheme, evaluate

ORACLES = {"leibniz": leibniz_det, "cofactor": cofactor_det, "bareiss": bareiss_det}
METHODS = ("scheme", *ORACLES)
_RUNS_LIMIT = 1000
_SIZE_LIMIT = 64
# The cost of one run of each expansion method: n! terms for the scheme and
# Leibniz, n * 2**(n-1) products for cofactor. Bareiss is cubic, and the size
# and runs limits bound it alone (~30 ms a run at n = 64 on a 2-vCPU host).
_RUN_COST = {"scheme": math.factorial, "leibniz": math.factorial, "cofactor": lambda n: n << (n - 1)}
# runs x the summed run costs of one call: 2-3 s of Leibniz at n = 9, which
# takes 0.18-0.22 us a term on integers and 0.26-0.32 us on p/q entries on a
# 2-vCPU host
_COST_BUDGET = 10**7


@dataclass(frozen=True, slots=True)
class BenchReport:
    method: str
    n: int
    runs: int
    term_count: int
    multiplications_n_factors: int
    multiplications_chained: int
    additions: int
    divisions: int
    wall_times: tuple[float, ...]
    median_s: float

    def to_json_obj(self) -> dict:
        return {**asdict(self), "wall_times": list(self.wall_times)}


def _scheme_for(n: int, seed: int) -> Scheme:
    try:
        return builtin_scheme(n)
    except UnsupportedSize:
        return search_scheme(SearchConfig(n=n, random_seed=seed))


def random_matrix(n: int, rng: random.Random) -> Matrix:
    return Matrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])


def bench(
    methods: list[str],
    sizes: list[int],
    runs: int = 3,
    seed: int = 0,
) -> list[BenchReport]:
    """One report per method and size; times exclude matrix and scheme setup.

    A call whose runs times summed per-run costs exceed the budget is refused
    with SizeLimitExceeded before anything is built.
    """
    if not 1 <= runs <= _RUNS_LIMIT:
        raise ValueError(f"runs must be in 1..{_RUNS_LIMIT}")
    for n in sizes:
        _guard(n, "bench", "builds n x n matrices", _SIZE_LIMIT)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
    # a size below 1 costs nothing here: the matrix refuses it
    cost = runs * sum(_RUN_COST[m](n) for m in methods if m in _RUN_COST for n in sizes if n > 0)
    if cost > _COST_BUDGET:
        raise SizeLimitExceeded(
            f"bench would cost {cost} terms and products over its runs; "
            f"the budget is {_COST_BUDGET}"
        )

    reports = []
    for n in sizes:
        rng = random.Random(seed * 1_000_003 + n)
        mats = [random_matrix(n, rng) for _ in range(runs)]
        for method in methods:
            runner = ORACLES.get(method) or partial(evaluate, _scheme_for(n, seed))
            ops = OpCounter()
            runner(mats[0], ops=ops)
            times = []
            for M in mats:
                t0 = time.perf_counter()
                runner(M)
                times.append(time.perf_counter() - t0)
            ordered = sorted(times)  # the median, without importing statistics on every CLI start
            reports.append(
                BenchReport(
                    method=method,
                    n=n,
                    runs=runs,
                    term_count=ops.terms,
                    multiplications_n_factors=ops.mul_factors,
                    multiplications_chained=ops.mul_chained,
                    additions=ops.adds,
                    divisions=ops.divs,
                    wall_times=tuple(times),
                    median_s=(ordered[(runs - 1) // 2] + ordered[runs // 2]) / 2,
                )
            )
    return reports


def term_count_statement(reports: list[BenchReport]) -> str:
    """The explicit takeaway on term counts, per size where both expansion
    methods were measured."""
    by_key = {(r.method, r.n): r for r in reports}
    lines = []
    for n in sorted({r.n for r in reports}):
        s = by_key.get(("scheme", n))
        l = by_key.get(("leibniz", n))
        if s is None or l is None:
            continue
        verdict = "identical to" if s.term_count == l.term_count else "DIFFERENT from"
        lines.append(
            f"n={n}: scheme evaluation expands exactly {s.term_count} signed products, "
            f"{verdict} the {l.term_count}-term permutation expansion; the strip "
            f"arrangement reorganizes the n!-term sum, it does not shrink it."
        )
    return "\n".join(lines)


def reports_to_jsonl(reports: list[BenchReport]) -> str:
    """One JSON object per report, plus a trailing summary object when both
    expansion methods are present."""
    lines = [json.dumps(r.to_json_obj()) for r in reports]
    if note := term_count_statement(reports):
        lines.append(json.dumps({"summary": "term counts", "statement": note}))
    return "\n".join(lines) + "\n"
