import functools
import importlib
import json
import math
import random
import statistics
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sarrus.scheme
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
from sarrus.perm import _class_pairs
from sarrus.scheme import _exchange, _record


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
        # at n = 4 each product chains its 4 entries, 3 multiplications; at
        # n = 5 each full run and its 3 <-> 4 swapped partner take n = 5
        # products, each of the two diagonals that read one minor on columns
        # 3 and 4: the entry both read, times the 2x2 minor of their other 2
        # entries, times that minor, 4 multiplications, 20 together against
        # 80 apart, and each of the 2 kernel calls, one per p, forms the 5
        # minors first, at 2 each
        assert s.multiplications_chained == {4: 72, 5: 6 * 20 + 2 * 10}[n]
        # Leibniz multiplies shared prefix and pair products, so its two
        # conventions coincide. It runs fewer multiplications than the
        # scheme at n = 4, 50 against 72, and more from n = 5, where one
        # product of the scheme stands for four words: 222 against 140
        assert l.multiplications_n_factors == l.multiplications_chained == LEIBNIZ_MULS[n]
        assert (l.multiplications_chained < s.multiplications_chained) == (n == 4)
        # one addition fewer than the terms for Leibniz; one fewer than the
        # products for the scheme, and one for each minor it forms
        assert l.additions == math.factorial(n) - 1
        assert s.additions == {4: 23, 5: 6 * 10 - 1 + 2 * 5}[n]


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
        # the same terms; the scheme chains n - 1 multiplications a term and
        # sums the terms, except at n = 5, where the built-in's 12 full runs
        # make 6 pairs, 3 and 4 swapped, of 2n = 10 diagonals each, and the
        # two diagonals that read one minor on columns 3 and 4 make one
        # product, n = 5 a pair: their shared entry times the 2x2 minor of
        # their other 2 entries times that minor, 4 multiplications, and 1
        # subtraction in the 2x2 minor. Each of its 2 kernel calls, one per
        # p, forms the 5 minors, at 2 multiplications and 1 subtraction
        # each. The sums run the kernels twice, signed and unsigned, and
        # take 2 additions to split the two
        if n == 5:
            scheme_muls, scheme_adds = 6 * 5 * 4 + 2 * 5 * 2, 6 * 10 - 1 + 2 * 5
        else:
            scheme_muls, scheme_adds = terms * (n - 1), terms - 1
        assert _counts(evaluate, sch, M) == (terms, scheme_muls, scheme_adds, 0)
        assert _counts(positive_negative_sums, sch, M) == (terms, 2 * scheme_muls, 2 * scheme_adds + 2, 0)


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


def _minors(n, x, y):
    """The 2x2 minors a kernel forms on the columns at window positions x
    and y: one for each pair of rows y - x apart, n of them, or n/2 where
    y - x = n/2."""
    return n // 2 if 2 * (y - x) % n == 0 else n


def _window_muls(n, p, quad):
    """The multiplications of one pair or quad window, the minors on its
    exchanged columns included. The descending diagonal at offset k and the
    ascending one at p + 1 - k read columns 3 and 4, and the columns at u
    and v, on the same rows, so they share one product; so do four, with
    the descending ones at k - p and the ascending at 1 - k, where those
    positions are n/2 apart: at p = n/2, and for a quad at n divisible by
    4. Two diagonals meet in one entry at odd n, and at even n and even p in
    two, at positions p/2 and p/2 + n/2, which are a quad's u and v. A
    product of g diagonals of e entries, c read by all, costs g(e - c - 1)
    + c multiplications, and one more for each minor it reads. So at odd n
    a pair window costs 2n(n - 3), and a quad window n(2n - 9) and 2 for
    each of its n minors on u and v."""
    u, v = _exchange(n, p)
    g = 4 if 2 * p == n and (not quad or 2 * (v - u) == n) else 2
    entries = n - 4 if quad else n - 2
    common = 0 if g == 4 else 1 if n % 2 else 2 if p % 2 == 0 and not quad else 0
    products = 2 * n // g * (g * (entries - common - 1) + common + (2 if quad else 1))
    return products + (2 * _minors(n, u, v) if quad else 0)


def _pass_additions(sch):
    """The additions of one pass of the kernels over a valid scheme: one
    fewer than the diagonal products of its n's record, 2 for each pair of
    a window's class (1 at n = 1), plus one for each minor: those of
    columns 3 and 4 once a kernel call, and those of the exchanged columns
    once a quad window."""
    n = sch.n
    products = minors = 0
    for p, quad, firsts in _record(n):
        windows = len(firsts) // n
        products += windows * (2 * _class_pairs(n) if n > 1 else 1)
        minors += (_minors(n, 0, p) if p else 0) + (windows * _minors(n, *_exchange(n, p)) if quad else 0)
    return products - 1 + minors


def _assert_the_sums_run_their_tally(sch, rows):
    # each pass's sum starts from its first product, so no 0 + sum runs;
    # the sums run a signed and an unsigned pass and split the two with 2
    # more additions
    adds = _pass_additions(sch)
    for f, expected in ((positive_negative_sums, 2 * adds + 2), (evaluate, adds)):
        M = _counted(rows)
        ops = OpCounter()
        assert f(sch, M, ops=ops) == f(sch, Matrix(rows))
        assert _Counted.adds == ops.adds == expected
        assert _Counted.muls == ops.mul_chained


def _kernel_calls(sch, M):
    """The kernels that evaluate(sch, M) calls, by (n, p, quad, mode), in
    order, and its tally."""
    calls, kernel = [], sarrus.scheme._run_sum

    def recording(*key):
        calls.append(key)
        return kernel(*key)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sarrus.scheme, "_run_sum", recording)
        evaluate(sch, M)
    ops = OpCounter()
    evaluate(sch, M, ops=ops)
    return calls, ops


def _assert_it_evaluates_as_the_searched_scheme(sch):
    # the same kernel calls and counts as the searched scheme of its n, or
    # the built-in below n = 6: every exact cover of n evaluates from one
    # record, however its strips cut the classes into runs
    M = random_matrix(sch.n, random.Random(sch.n))
    assert _kernel_calls(sch, M) == _kernel_calls(_valid_scheme(sch.n), M)


@pytest.mark.parametrize("n", range(1, 8))
def test_scheme_sums_tally_the_additions_they_run(n):
    _assert_the_sums_run_their_tally(_valid_scheme(n), random_matrix(n, random.Random(n)).rows)


@st.composite
def _split_covers(draw):
    """A valid scheme with some starts moved to one-window strips of their
    own: exact covers whose runs have mixed lengths and signs. At n = 8
    the paired kernels of every length below n run."""
    n = draw(st.integers(1, 8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return _split_cover(n, rng, draw(st.sampled_from([0.1, 0.5, 0.9])))


def _split_cover(n, rng, share):
    """The valid scheme of n with each start moved, with probability share,
    to a one-window strip of its own."""
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


@pytest.mark.parametrize("n", [6, 7, 8])
def test_split_covers_run_the_searched_schemes_kernels(n):
    # a tenth of the starts moved out: blocks left whole, blocks cut, and
    # one-window strips
    sch = _split_cover(n, random.Random(n), 0.1)
    assert validate(sch).is_valid
    _assert_it_evaluates_as_the_searched_scheme(sch)
    rng = random.Random(f"split:{n}")
    for rows in (
        random_matrix(n, rng).rows,
        [[rng.randrange(-(2**61), 2**61) for _ in range(n)] for _ in range(n)],
        [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)],
    ):
        M = Matrix.from_rows(rows)
        assert evaluate(sch, M) == bareiss_det(M)
        assert positive_negative_sums(sch, M) == parity_partition_sums(M)
    _assert_the_sums_run_their_tally(sch, random_matrix(n, rng).rows)


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
    # each clock read records whether the one-time work is done yet: the
    # Leibniz kernels built, and the pass of each scheme bench made set
    reads, schemes = [], []

    def perf_counter():
        reads.append((_expansion.cache_info().currsize, [s._pass is not None for s in schemes]))
        return 0.0

    # the package exports the function ``bench`` under the module's name
    module = importlib.import_module("sarrus.bench")
    built = module._scheme_for

    def scheme_for(n, seed):
        schemes.append(built(n, seed))
        return schemes[-1]

    monkeypatch.setattr(module, "time", SimpleNamespace(perf_counter=perf_counter))
    monkeypatch.setattr(module, "_scheme_for", scheme_for)
    _expansion.cache_clear()
    bench(["scheme", "leibniz"], [5], runs=2)
    scheme_reads, leibniz_reads = reads[:4], reads[4:]
    assert len(leibniz_reads) == 4
    assert all(passes == [True] for _, passes in scheme_reads)
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
    per = {
        4: "n - 1 per product",
        5: "one product for the two diagonals that read a 2x2 minor on columns 3 and 4 on the "
        "same rows, the entries both read times the sum of their other entries' products times "
        "that minor, so one for four words, theirs and their partners' with the labels 3 and 4 "
        "swapped, plus 2 per minor",
        6: "one product for the two or four diagonals that read the same 2x2 minors, on columns "
        "3 and 4 and on two more columns, the entries all of them read times the sum of their "
        "other entries' products times the two minors, so one for eight or sixteen words, "
        "theirs, their partners' with the labels 3 and 4 swapped, and those with the two "
        "columns exchanged, plus 2 per minor",
    }
    why = {
        4: "the counts differ by that factoring, not by the scheme.",
        5: "the scheme runs fewer because one product of minors stands for four words, by "
        "Laplace's expansion by complementary minors, not by the strip arrangement.",
    }
    why[6] = why[5].replace("four words", "eight words or more")
    for n, scheme_muls, leibniz_muls in ((4, 72, 50), (5, 140, 222), (6, 498, 1338)):
        terms, muls = lines[2 * (n - 4) : 2 * (n - 3)]
        assert terms.startswith(f"n={n}: scheme evaluation expands exactly {math.factorial(n)} ")
        assert muls == (
            f"n={n}: scheme evaluation runs {scheme_muls} chained multiplications, {per[n]}, "
            f"against {leibniz_muls} in the permutation expansion, which forms each term as "
            f"one shared prefix times one shared pair; {why[n]}"
        )
        # at n = 4, n!/2n classes of 2n products of n - 1 multiplications;
        # at n = 5, n!/4n pairs, and at n = 6, n!/8n quads, each window at
        # the cost of _window_muls; and each minor of columns 3 and 4,
        # formed once a kernel call, 2
        record = _record(n)
        windows = sum(
            len(firsts) // n * (_window_muls(n, p, quad) if p else 2 * n * (n - 1)) for p, quad, firsts in record
        )
        calls = sum(2 * _minors(n, 0, p) for p, _, _ in record if p)
        assert scheme_muls == windows + calls


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


@pytest.mark.parametrize(
    "sizes,runs,seed",
    [([4], 2.0, 0), ([4], True, 0), ([4.0], 2, 0), ([True], 2, 0), (["4"], 2, 0),
     ([4], 2, [1]), ([4], 2, 1.0), ([4], 2, True)],
    ids=["float-runs", "bool-runs", "float-size", "bool-size", "str-size", "list-seed", "float-seed", "bool-seed"],
)
def test_bench_refuses_what_is_not_an_int(sizes, runs, seed):
    with pytest.raises(ValueError, match="runs and sizes must be ints"):
        bench(["leibniz"], sizes, runs=runs, seed=seed)


def test_bench_prices_bareiss_at_n_cubed(monkeypatch):
    # runs x n**3 at n = 64: 38 runs fit in 10**7, 39 do not
    monkeypatch.setitem(ORACLES, "bareiss", lambda M, ops=None: 0)
    assert [r.runs for r in bench(["bareiss"], [64], runs=38)] == [38]
    with pytest.raises(SizeLimitExceeded, match="budget is 10000000"):
        bench(["bareiss"], [64], runs=39)


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
