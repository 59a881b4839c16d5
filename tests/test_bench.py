import functools
import importlib
import json
import math
import random
import statistics
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarrus import (
    Matrix,
    OpCounter,
    Scheme,
    SchemeStrip,
    SearchConfig,
    SizeLimitExceeded,
    bareiss_det,
    bench,
    builtin_scheme,
    cofactor_det,
    evaluate,
    leibniz_det,
    parity_partition_sums,
    positive_negative_sums,
    reports_to_jsonl,
    search_scheme,
    term_count_statement,
    validate,
)
from sarrus.bench import ORACLES, random_matrix
from sarrus.oracle import _expansion
from sarrus.scheme import _signed_windows


def cofactor_mult_count(n):
    # each m-column minor, m >= 2, is computed once: m products of entry * minor
    return sum(m * math.comb(n, m) for m in range(2, n + 1))


def cofactor_add_count(n):
    # ... and m - 1 additions to combine them
    return sum((m - 1) * math.comb(n, m) for m in range(2, n + 1))


def test_scheme_and_leibniz_counts_match():
    reports = bench(["scheme", "leibniz"], [4, 5], runs=1, seed=0)
    by_key = {(r.method, r.n): r for r in reports}
    for n in (4, 5):
        s = by_key[("scheme", n)]
        l = by_key[("leibniz", n)]
        assert s.term_count == l.term_count == math.factorial(n)
        assert s.multiplications_n_factors == math.factorial(n) * n
        assert s.multiplications_chained == math.factorial(n) * (n - 1)
        # Leibniz multiplies shared prefix and pair products, so its two
        # conventions coincide, at fewer multiplications than the scheme chains
        assert l.multiplications_n_factors == l.multiplications_chained == LEIBNIZ_MULS[n]
        assert l.multiplications_chained < s.multiplications_chained
        assert s.additions == l.additions == math.factorial(n) - 1


def test_counting_does_not_change_results():
    rng = random.Random(0)
    M = random_matrix(5, rng)
    ops = OpCounter()
    from sarrus import scheme_5x5

    assert evaluate(scheme_5x5(), M, ops=ops) == evaluate(scheme_5x5(), M)
    assert leibniz_det(M, ops=OpCounter()) == leibniz_det(M)
    assert cofactor_det(M, ops=OpCounter()) == cofactor_det(M)
    assert bareiss_det(M, ops=OpCounter()) == bareiss_det(M)
    assert ops.terms == 120


def test_cofactor_counts_match_the_recurrence():
    for n in range(1, 9):
        ops = OpCounter()
        cofactor_det(Matrix.identity(n), ops=ops)
        assert ops.mul_factors == ops.mul_chained == cofactor_mult_count(n) == n * 2 ** (n - 1) - n
        assert ops.adds == cofactor_add_count(n) == (n - 2) * 2 ** (n - 1) + 1


def test_bareiss_counts_are_cubic_not_factorial():
    ops = OpCounter()
    rng = random.Random(1)
    bareiss_det(random_matrix(8, rng), ops=ops)
    assert 0 < ops.mul_chained < math.factorial(8)
    assert ops.divs > 0


def _counts(route, *args):
    ops = OpCounter()
    route(*args, ops=ops)
    return ops.terms, ops.mul_chained, ops.adds, ops.divs


# The multiplications Leibniz runs on the last k = min(n, 5) rows, per placement
# of the rows above them: the ordered prefixes on 2..k-2 rows, the k(k-1) pairs
# of the last two rows and one prefix * pair per term (220 at k = 5), and two
# lead *; plus one leading product per placement of the rows above, at each level.
LEIBNIZ_MULS = {1: 2, 2: 4, 3: 14, 4: 50, 5: 222, 6: 1338, 7: 9373, 8: 74992}


@pytest.mark.parametrize("n", range(1, 9))
def test_expansion_counts_are_exact(n):
    M = random_matrix(n, random.Random(n))
    terms, muls = math.factorial(n), LEIBNIZ_MULS[n]
    # one addition fewer than terms on each nonempty side, plus the difference
    side_adds = max(terms - 2, 0)
    assert _counts(parity_partition_sums, M) == (terms, muls, side_adds, 0)
    assert _counts(leibniz_det, M) == (terms, muls, side_adds + 1, 0)
    if n <= 5:
        sch = Scheme(n=1, strips=(SchemeStrip(1, (1,), (1,)),)) if n == 1 else builtin_scheme(n)
        # the same terms and additions; the scheme chains n - 1 multiplications
        # a term
        assert _counts(positive_negative_sums, sch, M) == (terms, terms * (n - 1), side_adds, 0)
        assert _counts(evaluate, sch, M) == (terms, terms * (n - 1), side_adds + 1, 0)


class _Counted(int):
    """An int that counts the multiplications and the additions (subtractions
    included) it takes part in. Its results are counted ints too, so a sum
    times the leading product 1 is counted."""

    muls = 0
    adds = 0

    def __mul__(self, other):
        _Counted.muls += 1
        return _Counted(int(self) * int(other))

    def __add__(self, other):
        _Counted.adds += 1
        return _Counted(int(self) + int(other))

    def __sub__(self, other):
        _Counted.adds += 1
        return _Counted(int(self) - int(other))

    def __rsub__(self, other):
        _Counted.adds += 1
        return _Counted(int(other) - int(self))

    __rmul__ = __mul__
    __radd__ = __add__


def _counted(rows):
    _Counted.muls = _Counted.adds = 0
    return Matrix(tuple(tuple(_Counted(x) for x in row) for row in rows))


@pytest.mark.parametrize("n", range(2, 9))
def test_leibniz_tallies_the_multiplications_it_runs(n):
    # at n = 1 the odd side is the literal 0, whose product with the lead
    # takes no counted int
    rows = random_matrix(n, random.Random(n)).rows
    M = _counted(rows)
    ops = OpCounter()
    assert leibniz_det(M, ops=ops) == leibniz_det(Matrix(rows))
    assert _Counted.muls == LEIBNIZ_MULS[n]
    # each side starts from the first leaf's sum, so no 0 + sum runs
    assert _Counted.adds == ops.adds == math.factorial(n) - 1


@functools.cache
def _valid_scheme(n):
    if n == 1:
        return Scheme(n=1, strips=(SchemeStrip(1, (1,), (1,)),))
    return builtin_scheme(n) if n <= 5 else search_scheme(SearchConfig(n=n, random_seed=1))


def _assert_the_sums_run_their_tally(sch, rows):
    # each side starts from its first product, so no 0 + sum runs: t - 1
    # additions a side of t products, and one more for the difference
    side_adds = max(math.factorial(sch.n) - 2, 0)
    for f, adds in ((positive_negative_sums, side_adds), (evaluate, side_adds + 1)):
        M = _counted(rows)
        ops = OpCounter()
        assert f(sch, M, ops=ops) == f(sch, Matrix(rows))
        assert _Counted.adds == ops.adds == adds
        assert _Counted.muls == ops.mul_chained


@pytest.mark.parametrize("n", range(1, 8))
def test_scheme_sums_tally_the_additions_they_run(n):
    _assert_the_sums_run_their_tally(_valid_scheme(n), random_matrix(n, random.Random(n)).rows)


@st.composite
def _split_covers(draw):
    """A valid scheme with some starts moved to one-window strips of their
    own: exact covers whose runs have mixed lengths and signs."""
    n = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.1, 0.5, 0.9]))
    strips = []
    for strip in _valid_scheme(n).strips:
        kept = []
        for p in strip.starts:
            if rng.random() < share:
                strips.append(SchemeStrip(n, strip.window_at(p), (1,)))
            else:
                kept.append(p)
        if kept:
            strips.append(SchemeStrip(n, strip.columns, tuple(kept)))
    return Scheme(n=n, strips=tuple(strips))


@given(_split_covers(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_split_covers_tally_the_additions_they_run(sch, seed):
    assert validate(sch).is_valid
    M = random_matrix(sch.n, random.Random(seed))
    assert evaluate(sch, M) == bareiss_det(M)
    _assert_the_sums_run_their_tally(sch, M.rows)


@pytest.mark.parametrize("n", range(2, 9))
def test_cofactor_tallies_the_operations_it_runs(n):
    rows = random_matrix(n, random.Random(n)).rows
    M = _counted(rows)
    ops = OpCounter()
    assert cofactor_det(M, ops=ops) == cofactor_det(Matrix(rows))
    # each minor's sum starts from its first term, so no 0 + term runs
    assert _Counted.muls == ops.mul_chained == n * 2 ** (n - 1) - n
    assert _Counted.adds == ops.adds == (n - 2) * 2 ** (n - 1) + 1


@pytest.mark.parametrize("n", range(1, 9))
def test_bareiss_counts_are_exact(n):
    def tally(steps):
        m = sum((n - k - 1) ** 2 for k in range(steps))
        return (0, 2 * m, m, m)

    # the reversed identity has a zero first pivot, so it needs row swaps
    swapped = Matrix.from_rows([[int(i + j == n - 1) for j in range(n)] for i in range(n)])
    assert _counts(bareiss_det, swapped) == tally(n - 1)
    # a zero column c ends the elimination at step c, after c full steps
    c = n // 2
    vandermonde = [[0 if j == c else (i + 1) ** j for j in range(n)] for i in range(n)]
    zero_column = Matrix.from_rows(vandermonde)
    assert bareiss_det(zero_column) == 0
    assert _counts(bareiss_det, zero_column) == tally(c)


def test_bench_times_warm_runs(monkeypatch):
    # each clock read records whether the one-time kernels are built yet
    reads = []

    def perf_counter():
        reads.append((_expansion.cache_info().currsize, _signed_windows.cache_info().currsize))
        return 0.0

    # the package exports the function ``bench`` under the module's name
    module = importlib.import_module("sarrus.bench")
    monkeypatch.setattr(module, "time", SimpleNamespace(perf_counter=perf_counter))
    _expansion.cache_clear()
    _signed_windows.cache_clear()
    bench(["scheme", "leibniz"], [5], runs=2)
    scheme_reads, leibniz_reads = reads[:4], reads[4:]
    assert len(leibniz_reads) == 4
    assert all(windows == 1 for _, windows in scheme_reads)
    assert all(expansions == 1 for expansions, _ in leibniz_reads)


def test_bareiss_beats_leibniz_at_n8():
    reports = bench(["leibniz", "bareiss"], [8], runs=1, seed=2)
    by_method = {r.method: r for r in reports}
    assert min(by_method["bareiss"].wall_times) < min(by_method["leibniz"].wall_times)


def test_statement_says_identical():
    reports = bench(["scheme", "leibniz"], [4], runs=1, seed=0)
    text = term_count_statement(reports)
    assert "n=4" in text
    assert "exactly 24 signed products" in text
    assert "identical to the 24-term permutation expansion" in text
    assert "reorganizes" in text


def test_statement_sets_the_multiplications_beside_the_terms():
    reports = bench(["scheme", "leibniz"], [4, 5, 6], runs=1, seed=0)
    lines = term_count_statement(reports).splitlines()
    assert len(lines) == 6
    for n, scheme_muls, leibniz_muls in ((4, 72, 50), (5, 480, 222), (6, 3600, 1338)):
        terms, muls = lines[2 * (n - 4) : 2 * (n - 3)]
        assert terms.startswith(f"n={n}: scheme evaluation expands exactly {math.factorial(n)} ")
        assert muls == (
            f"n={n}: scheme evaluation runs {scheme_muls} chained multiplications, n - 1 per "
            f"product, against {leibniz_muls} in the permutation expansion, which forms each "
            f"term as one shared prefix times one shared pair; the counts differ by that "
            f"factoring, not by the scheme."
        )
        assert scheme_muls == math.factorial(n) * (n - 1)


def test_jsonl_output_parses():
    reports = bench(["scheme", "leibniz", "cofactor", "bareiss"], [4], runs=2, seed=0)
    lines = reports_to_jsonl(reports).strip().splitlines()
    objs = [json.loads(line) for line in lines]
    assert len(objs) == 5  # four method rows plus the term-count summary
    for obj in objs[:4]:
        assert obj["n"] == 4 and obj["runs"] == 2
        assert len(obj["wall_times"]) == 2
        assert obj["median_s"] == sum(obj["wall_times"]) / 2
        assert list(obj)[-2:] == ["wall_times", "median_s"]
    assert "statement" in objs[4]


@pytest.mark.parametrize("runs", [1, 3, 4])
def test_median_s_is_the_median_of_the_wall_times(runs):
    for report in bench(["scheme", "bareiss"], [3], runs=runs):
        assert report.median_s == statistics.median(report.wall_times)


def test_bench_rejects_unknown_method():
    with pytest.raises(ValueError):
        bench(["lu"], [4])
    with pytest.raises(ValueError):
        bench(["scheme"], [4], runs=0)


def test_bench_refuses_a_call_past_its_cost_budget(monkeypatch):
    # runs x n! at n = 9: 27 runs fit in 10**7 terms, 28 do not
    monkeypatch.setitem(ORACLES, "leibniz", lambda M, ops=None: 0)
    assert [r.runs for r in bench(["leibniz"], [9], runs=27)] == [27]
    with pytest.raises(SizeLimitExceeded, match="budget is 10000000"):
        bench(["leibniz"], [9], runs=28)
    # cofactor runs cost n * 2**(n-1): 1000 runs fit at n = 10, not at n = 11
    monkeypatch.setitem(ORACLES, "cofactor", lambda M, ops=None: 0)
    assert len(bench(["cofactor"], [10], runs=1000)) == 1
    with pytest.raises(SizeLimitExceeded):
        bench(["cofactor"], [11], runs=1000)
    # the costs of every method and size add up
    with pytest.raises(SizeLimitExceeded):
        bench(["leibniz", "cofactor"], [9, 8], runs=27)


def test_bench_scheme_uses_generator_beyond_builtins():
    (report,) = bench(["scheme"], [6], runs=1, seed=4)
    assert report.term_count == math.factorial(6)
