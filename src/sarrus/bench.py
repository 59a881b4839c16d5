"""Benchmark harness: operation counts and wall times per method and size.

Counts come from an OpCounter threaded through the real evaluation code, so
the reported numbers are measurements, not formulas. Multiplications are
reported under both conventions (n factors per diagonal vs the chained
multiplications that run: n-1 a diagonal, and fewer from n = 5, where one
product of 2x2 minors, by Laplace's expansion by complementary minors,
stands for the words of a full run and its partner, the class with the
labels 3 and 4 swapped, and from n = 6 for those of two such pairs); the
oracles multiply shared products, not diagonals, so for them the two
coincide. Matrices are generated deterministically from the seed.
The counted run goes first, so one-time work (the compiled Leibniz
expansion, a scheme's signed-window pass and its run kernels) is done
before the timed runs start.
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
from .errors import SizeLimitExceeded, UnsupportedSize, _guard, _quoted
from .generate import SearchConfig, random_matrix, search_scheme
from .oracle import bareiss_det, cofactor_det, leibniz_det
from .scheme import Scheme, _quads, _swaps, evaluate

ORACLES = {"leibniz": leibniz_det, "cofactor": cofactor_det, "bareiss": bareiss_det}
METHODS = ("scheme", *ORACLES)
_RUNS_LIMIT = 1000
_SIZE_LIMIT = 64
# The cost of one run of each method: n! terms for the scheme and Leibniz,
# n * 2**(n-1) products for cofactor, and n**3 for Bareiss, whose elimination
# takes ~0.09 us a unit at n = 16 and, as its operands grow, ~0.16 us at
# n = 64 (~42 ms a run), on integers on a 2-vCPU host.
_RUN_COST = {
    "scheme": math.factorial,
    "leibniz": math.factorial,
    "cofactor": lambda n: n << (n - 1),
    "bareiss": lambda n: n**3,
}
# runs x the summed run costs of one call: ~1 s of Leibniz at n = 9, which
# takes 0.07-0.10 us a term on integers and 0.09-0.11 us on p/q entries on a
# 2-vCPU host, and ~1.6 s of Bareiss at n = 64
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


def bench(
    methods: list[str],
    sizes: list[int],
    runs: int = 3,
    seed: int = 0,
) -> list[BenchReport]:
    """One report per method and size; times exclude matrix and scheme setup.

    runs, each size and the seed must be ints: a float or a bool is refused
    with ValueError. A call whose runs times summed per-run costs exceed the
    budget is refused with SizeLimitExceeded before anything is built.
    """
    # a float would fail in range, True would be reported as true, and a
    # list seed would fail in the seed arithmetic
    if type(runs) is not int or any(type(n) is not int for n in sizes) or type(seed) is not int:
        raise ValueError(
            f"runs and sizes must be ints, and seed an int, "
            f"got {_quoted(runs)}, {_quoted(sizes)} and {_quoted(seed)}"
        )
    if not 1 <= runs <= _RUNS_LIMIT:
        raise ValueError(f"runs must be in 1..{_RUNS_LIMIT}")
    for n in sizes:
        _guard(n, "bench", "builds n x n matrices", _SIZE_LIMIT)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
    # a size below 1 costs nothing here: the matrix refuses it
    cost = runs * sum(_RUN_COST[m](n) for m in methods for n in sizes if n > 0)
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
    methods were measured, each followed by the multiplications each ran:
    the same terms, multiplied out differently only by each route's
    factoring. Below n = 5 each of the scheme's products takes n - 1. From
    n = 5 a diagonal's word and its partner's, with the labels 3 and 4
    swapped, share their n - 2 other entries and sum to those entries times
    a 2x2 minor on columns 3 and 4; from n = 6 the two words with two more
    columns exchanged join them, through a second minor. The diagonals that
    read the same minors, two or four, then make one product: the entries
    they share times the sum of their other entries' products times the
    minors. One product stands for four words at n = 5, and for eight or
    sixteen from n = 6, where the permutation expansion forms each term,
    so from n = 5 the scheme runs fewer multiplications: the saving is
    Laplace's expansion by complementary minors, not the strip."""
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
        head = f"n={n}: scheme evaluation runs {s.multiplications_chained} chained multiplications"
        against = (
            f"against {l.multiplications_chained} in the permutation expansion, which forms each "
            f"term as one shared prefix times one shared pair"
        )
        if not _swaps(n):
            lines.append(
                f"{head}, n - 1 per product, {against}; the counts differ by that factoring, "
                f"not by the scheme."
            )
            continue
        if _quads(n):
            words, per = "eight words or more", (
                "one product for the two or four diagonals that read the same 2x2 minors, on "
                "columns 3 and 4 and on two more columns, the entries all of them read times the "
                "sum of their other entries' products times the two minors, so one for eight or "
                "sixteen words, theirs, their partners' with the labels 3 and 4 swapped, and those "
                "with the two columns exchanged"
            )
        else:
            words, per = "four words", (
                "one product for the two diagonals that read a 2x2 minor on columns 3 and 4 on "
                "the same rows, the entries both read times the sum of their other entries' "
                "products times that minor, so one for four words, theirs and their partners' "
                "with the labels 3 and 4 swapped"
            )
        lines.append(
            f"{head}, {per}, plus 2 per minor, {against}; the scheme runs fewer because one "
            f"product of minors stands for {words}, by Laplace's expansion by complementary "
            f"minors, not by the strip arrangement."
        )
    return "\n".join(lines)


def reports_to_jsonl(reports: list[BenchReport]) -> str:
    """One JSON object per report, plus a trailing summary object when both
    expansion methods are present."""
    lines = [json.dumps(r.to_json_obj()) for r in reports]
    if note := term_count_statement(reports):
        lines.append(json.dumps({"summary": "term counts", "statement": note}))
    return "\n".join(lines) + "\n"
