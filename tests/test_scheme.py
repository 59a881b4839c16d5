import gc
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WORKED_DET, WORKED_SUMS

import sarrus.generate
import sarrus.scheme
from sarrus import (
    ChainMismatch,
    InvalidScheme,
    InvalidWindow,
    Matrix,
    OpCounter,
    Permutation,
    RenderSpec,
    Scheme,
    SchemeStrip,
    SearchConfig,
    SizeLimitExceeded,
    SizeMismatch,
    ValidationReport,
    bareiss_det,
    builtin_scheme,
    cofactor_det,
    evaluate,
    evaluate_float,
    expand_block,
    format_scalar,
    leibniz_det,
    p_block_heads,
    parity,
    parity_partition_sums,
    positive_negative_sums,
    render,
    scheme_4x4,
    scheme_5x5,
    scheme_from_json,
    scheme_to_json,
    search_scheme,
    stitch_blocks,
    validate,
    windows,
)
from sarrus.bench import random_matrix
from sarrus.perm import _word_parity
from sarrus.scheme import _diagonals, _runs, _signed_windows

# the first junction of the even quilt: two 9-column layouts sharing one column
P1_P2_PREFIX = (1, 2, 3, 4, 5, 1, 2, 3, 4, 3, 5, 2, 1, 4, 3, 5, 2)


def test_expand_block_examples():
    s = expand_block(Permutation((1, 2, 3, 4, 5)))
    assert s.columns == (1, 2, 3, 4, 5, 1, 2, 3, 4)
    assert s.starts == (1, 2, 3, 4, 5)
    s = expand_block(Permutation((4, 3, 5, 2, 1)))
    assert s.columns == (4, 3, 5, 2, 1, 4, 3, 5, 2)
    s = expand_block(Permutation((1,)))
    assert s.columns == (1,)
    assert s.starts == (1,)


def test_scheme_refuses_a_strip_of_another_size():
    strip = SchemeStrip(n=3, columns=(1, 2, 3, 1, 2), starts=(1,))
    with pytest.raises(SizeMismatch):
        Scheme(n=4, strips=(strip,))
    with pytest.raises(SizeMismatch):
        Scheme(n=3, strips=(strip, SchemeStrip(n=2, columns=(1, 2), starts=(1,))))


def test_strip_constructor_checks_ranges():
    with pytest.raises(ValueError):
        SchemeStrip(n=3, columns=(1, 2, 4, 1, 2), starts=(1,))
    with pytest.raises(ValueError):
        SchemeStrip(n=3, columns=(1, 2, 3, 1, 2), starts=(4,))
    with pytest.raises(ValueError):
        SchemeStrip(n=3, columns=(1, 2), starts=())
    # a bool or a float passes a range check but is no column, start or size
    for bad in (
        dict(n=2, columns=(True, 2, 1.0), starts=(1, 2)),
        dict(n=2, columns=(1, 2.0, 1), starts=(1,)),
        dict(n=2, columns=(1, 2, 1), starts=(True,)),
        dict(n=2, columns=(1, 2, 1), starts=(2.0,)),
        dict(n=2.0, columns=(1, 2, 1), starts=(1,)),
        dict(n=True, columns=(1,), starts=(1,)),
    ):
        with pytest.raises(ValueError):
            SchemeStrip(**bad)
    # a strip whose windows repeat columns is constructible; validate reports it
    SchemeStrip(n=3, columns=(1, 2, 2, 1, 2), starts=(1,))


def test_stitch_two_blocks():
    heads = p_block_heads()
    s = stitch_blocks(heads[:2])
    assert s.columns == P1_P2_PREFIX
    assert s.starts == (1, 2, 3, 4, 5, 9, 10, 11, 12, 13)


def test_stitch_all_six_blocks():
    s = stitch_blocks(p_block_heads())
    assert len(s.columns) == 6 * 9 - 5 == 49
    assert len(s.starts) == 30


def test_stitch_single_block_equals_expand():
    head = Permutation((3, 1, 2))
    assert stitch_blocks([head]) == expand_block(head)


def test_stitch_window_union_is_the_blocks_windows():
    heads = p_block_heads()
    stitched = stitch_blocks(heads)
    union = []
    for head in heads:
        for w in windows(expand_block(head)):
            union.append((w.descending, w.ascending))
    got = [(w.descending, w.ascending) for w in windows(stitched)]
    assert got == union


def test_stitch_chain_mismatch():
    with pytest.raises(ChainMismatch) as err:
        stitch_blocks([Permutation((1, 2, 3)), Permutation((1, 3, 2))])
    assert err.value.junction == 0
    with pytest.raises(SizeMismatch):
        stitch_blocks([Permutation((1, 2, 3)), Permutation((2, 1, 4, 3))])
    with pytest.raises(ValueError):
        stitch_blocks([])


def test_windows_examples():
    strip = scheme_4x4().strips[0]
    wins = {w.start: w for w in windows(strip)}
    assert wins[1].descending == Permutation((1, 2, 3, 4))
    assert wins[1].ascending == Permutation((4, 3, 2, 1))
    assert wins[7].descending == Permutation((3, 2, 4, 1))
    small = SchemeStrip(n=3, columns=(1, 2, 3, 1, 2), starts=(1, 2, 3))
    assert windows(small)[1].descending == Permutation((2, 3, 1))


def test_windows_rejects_repeats():
    strip = SchemeStrip(n=3, columns=(1, 2, 2, 1, 2), starts=(1,))
    with pytest.raises(InvalidWindow) as err:
        windows(strip)
    assert err.value.start == 1


def test_validate_4x4():
    report = validate(scheme_4x4())
    assert report.is_valid
    assert report.window_count == 24
    assert report.covered == 24
    assert report.even_count == report.odd_count == 12
    assert not report.duplicates and not report.missing and not report.invalid_windows


def test_validate_5x5():
    report = validate(scheme_5x5())
    assert report.is_valid
    assert report.covered == 120
    assert report.even_count == report.odd_count == 60


def test_validate_mutated_strip_reports_defects():
    base = scheme_4x4().strips[0]
    cols = list(base.columns)
    assert cols[4] == 1  # 1-based position 5
    cols[4] = 2
    mutated = Scheme(n=4, strips=(SchemeStrip(n=4, columns=tuple(cols), starts=base.starts),))
    report = validate(mutated)
    assert not report.is_valid
    assert report.invalid_windows or report.duplicates
    assert report.missing  # something is no longer covered


def test_validate_lists_missing_words_of_a_defective_6x6():
    scheme = Scheme(n=6, strips=(SchemeStrip(n=6, columns=(1, 2, 3, 4, 5, 6), starts=(1,)),))
    report = validate(scheme)
    assert report.covered == 2 and not report.is_valid
    words = [p.images for p in report.missing]
    assert len(words) == 718 and words == sorted(words)
    assert (1, 2, 3, 4, 5, 6) not in words and (1, 2, 3, 4, 6, 5) in words
    assert "(+708 more)" in report.summary()


def test_missing_sweep_is_guarded():
    scheme = Scheme(n=11, strips=(SchemeStrip(n=11, columns=tuple(range(1, 12)), starts=(1,)),))
    with pytest.raises(SizeLimitExceeded, match="validate"):
        validate(scheme)
    with pytest.raises(SizeLimitExceeded):
        evaluate(scheme, Matrix.identity(11))
    # a window listing needs no sweep
    assert len(windows(scheme.strips[0])) == 1


def test_uncoverable_scheme_is_refused_before_its_pass():
    # past the listing limit, one window can never cover n! words: the refusal
    # comes before any window is signed, whatever the size of the strip
    huge, small = (
        Scheme(n=n, strips=(SchemeStrip(n=n, columns=tuple(range(1, n + 1)), starts=(1,)),))
        for n in (10**6, 11)
    )
    calls = [
        lambda: validate(huge),
        lambda: render(RenderSpec(scheme=huge)),
        lambda: validate(small),
        lambda: evaluate(small, Matrix.identity(11)),
        lambda: evaluate_float(small, [[1.0] * 11] * 11),
        lambda: render(RenderSpec(scheme=small, output_format="ascii")),
    ]
    misses = _signed_windows.cache_info().misses
    for call in calls:
        with pytest.raises(SizeLimitExceeded, match="validate .* exceeds the limit of 9"):
            call()
    assert _signed_windows.cache_info().misses == misses


def test_one_window_at_n_10_is_refused_before_its_pass():
    # one window at n = 10 leaves 10! - 2 words to list: ~30 s and ~730 MB
    scheme = Scheme(n=10, strips=(SchemeStrip(n=10, columns=tuple(range(1, 11)), starts=(1,)),))
    calls = [
        lambda: validate(scheme),
        lambda: evaluate(scheme, Matrix.identity(10)),
        lambda: render(RenderSpec(scheme=scheme, output_format="ascii")),
    ]
    misses = _signed_windows.cache_info().misses
    for call in calls:
        with pytest.raises(SizeLimitExceeded, match="validate .* n = 10 exceeds the limit of 9"):
            call()
    assert _signed_windows.cache_info().misses == misses


def test_validate_reports_are_lexicographically_ordered():
    # two copies of the classic strip: every permutation covered twice
    strip = SchemeStrip(n=3, columns=(1, 2, 3, 1, 2), starts=(1, 2, 3))
    report = validate(Scheme(n=3, strips=(strip, strip)))
    dup_words = [p.images for p, _ in report.duplicates]
    assert dup_words == sorted(dup_words)
    assert report.covered == 6 and not report.missing


def test_self_reverse_window_counts_once():
    scheme = Scheme(n=1, strips=(SchemeStrip(n=1, columns=(1,), starts=(1,)),))
    report = validate(scheme)
    assert report.window_count == 2
    assert report.covered == 1
    assert report.is_valid
    assert evaluate(scheme, Matrix.from_rows([[7]])) == 7


def test_strip_hash_is_taken_once():
    hashes = []

    class Columns(tuple):
        def __hash__(self):
            hashes.append(self)
            return super().__hash__()

    strip = SchemeStrip(n=3, columns=Columns((1, 2, 3, 1, 2)), starts=(1, 2, 3))
    scheme = Scheme(n=3, strips=(strip,))
    assert len(hashes) == 1
    for _ in range(3):
        hash(strip)
        assert validate(scheme).is_valid
        assert evaluate(scheme, Matrix.identity(3)) == 1
    assert len(hashes) == 1
    # equal strips hash alike, however they were made
    plain = SchemeStrip(n=3, columns=(1, 2, 3, 1, 2), starts=(1, 2, 3))
    assert plain == strip and hash(plain) == hash(strip)
    assert hash(plain) != hash(SchemeStrip(n=3, columns=(1, 2, 3, 1, 2), starts=(1, 2)))
    searched = search_scheme(SearchConfig(n=6, random_seed=11))
    back = scheme_from_json(scheme_to_json(searched))
    assert back == searched and hash(back) == hash(searched)
    assert _signed_windows(back) is _signed_windows(searched)


def _reference_pass(sch):
    """Every field of the pass and of the validation report, the plain way:
    each valid window signed from scratch, every hit kept in one dict."""
    n = sch.n
    strips, invalid, occurrences, plus, minus = [], [], {}, [], []
    for si, strip in enumerate(sch.strips, start=1):
        diagonals = []
        for p in strip.starts:
            w = strip.columns[p - 1 : p - 1 + n]
            if sorted(w) != list(range(1, n + 1)):
                invalid.append((si, p))
                continue
            sign, back_sign = parity(Permutation(w)), parity(Permutation(w[::-1]))
            diagonals.append((p, sign, back_sign))
            if n == 1:
                hits = [(w, sign, "both")]
            else:
                hits = [(w, sign, "descending"), (w[::-1], back_sign, "ascending")]
            for word, word_sign, direction in hits:
                occurrences.setdefault(word, []).append((si, p, direction))
                (plus if word_sign == 1 else minus).append(word)
        strips.append(diagonals)
    duplicates = sorted((w, refs) for w, refs in occurrences.items() if len(refs) > 1)
    return {
        "strips": strips,
        "invalid": invalid,
        "duplicates": duplicates,
        "covered": len(occurrences),
        "even": sum(parity(Permutation(w)) == 1 for w in occurrences),
        "plus": plus,
        "minus": minus,
        "missing": [w for w in itertools.permutations(range(1, n + 1)) if w not in occurrences],
    }


@st.composite
def _block_strip(draw, n):
    """Runs of rotations of heads of random classes, each run's head starting
    on the column the last run ended with: runs shorter than, equal to and
    longer than n, classes repeated, then a few columns changed, a few starts
    dropped and a few swapped out of order."""
    columns, starts, heads = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        if heads and draw(st.booleans()):
            word = draw(st.sampled_from(heads))  # a class already laid out
        else:
            word = tuple(draw(st.permutations(range(1, n + 1))))
        shifts = [word[k:] + word[:k] for k in range(n)]
        members = sorted({w for s in shifts for w in (s, s[::-1]) if not columns or w[0] == columns[-1]})
        head = draw(st.sampled_from(members))
        heads.append(head)
        count = draw(st.integers(1, 2 * n + 1))  # windows in the run
        offset = len(columns) - 1 if columns else 0
        run = [head[j % n] for j in range(count + n - 1)]
        columns += run[1:] if columns else run
        starts += range(offset + 1, offset + count + 1)
    for i, c in draw(st.lists(st.tuples(st.integers(0, len(columns) - 1), st.integers(1, n)), max_size=2)):
        columns[i] = c
    for i in sorted(set(draw(st.lists(st.integers(0, len(starts) - 1), max_size=3))), reverse=True):
        del starts[i]
    for i, j in draw(st.lists(st.tuples(st.integers(0, len(starts)), st.integers(0, len(starts))), max_size=2)):
        if max(i, j) < len(starts):
            starts[i], starts[j] = starts[j], starts[i]
    return SchemeStrip(n=n, columns=tuple(columns), starts=tuple(starts))


@st.composite
def _strip_sets(draw):
    """1-3 strips of one n in 1..7: block-structured strips (see
    ``_block_strip``), cyclic runs of a word with a few columns changed, or
    arbitrary columns; starts in any order, with repeats and with runs of
    consecutive starts."""
    n = draw(st.integers(1, 7))
    strips = []
    for _ in range(draw(st.integers(1, 3))):
        mode = draw(st.sampled_from(["blocks", "cyclic", "arbitrary"]))
        if mode == "blocks":
            strips.append(draw(_block_strip(n)))
            continue
        length = draw(st.integers(n, 5 * n))
        column = st.integers(1, n)
        if mode == "cyclic":
            word = draw(st.permutations(range(1, n + 1)))
            columns = [word[i % n] for i in range(length)]
            for i, c in draw(st.lists(st.tuples(st.integers(0, length - 1), column), max_size=3)):
                columns[i] = c
        else:
            columns = draw(st.lists(column, min_size=length, max_size=length))
        limit = length - n + 1
        starts = draw(st.lists(st.integers(1, limit), max_size=2 * limit))
        for _ in range(draw(st.integers(0, 2))):
            first = draw(st.integers(1, limit))
            at = draw(st.integers(0, len(starts)))
            starts[at:at] = range(first, draw(st.integers(first, limit)) + 1)
        strips.append(SchemeStrip(n=n, columns=tuple(columns), starts=tuple(starts)))
    return Scheme(n=n, strips=tuple(strips))


@given(_strip_sets())
@settings(max_examples=300, deadline=None)
def test_pass_and_report_match_a_plain_reference(sch):
    ref = _reference_pass(sch)
    signed = _signed_windows(sch)
    assert [list(_diagonals(sch.n, strip)) for strip in sch.strips] == ref["strips"]
    for strip in sch.strips:
        runs = list(_runs(sch.n, strip))
        # the runs spell out the starts in order, and none could go on into
        # the next: that one's first window is no rotation of the last before it
        assert [p for first, length, _ in runs for p in range(first, first + length)] == list(strip.starts)
        for (first, length, sign), (p, _, next_sign) in zip(runs, runs[1:]):
            last = strip.window_at(p - 1)
            assert not (sign and next_sign and p == first + length and strip.window_at(p) == last[1:] + last[:1])
    assert list(signed.invalid) == ref["invalid"]
    assert [(w, [tuple(r) for r in refs]) for w, refs in signed.duplicates] == ref["duplicates"]
    assert signed.covered == ref["covered"]
    exact = not ref["invalid"] and not ref["duplicates"] and ref["covered"] == math.factorial(sch.n)
    assert bool(signed.runs) == exact
    if exact:
        plus, minus = _expand_runs(sch.n, signed.runs)
        assert (sorted(plus), sorted(minus)) == (sorted(ref["plus"]), sorted(ref["minus"]))
    else:
        assert signed.runs == ()
    report = validate(sch)
    assert report.window_count == 2 * sum(len(s.starts) for s in sch.strips)
    assert list(report.invalid_windows) == ref["invalid"]
    assert [(p.images, [tuple(r) for r in refs]) for p, refs in report.duplicates] == ref["duplicates"]
    assert [p.images for p in report.missing] == ref["missing"]
    assert (report.covered, report.even_count, report.odd_count) == (
        ref["covered"], ref["even"], ref["covered"] - ref["even"]
    )
    assert report.is_valid == exact


def _expand_runs(n, runs):
    """The even and the odd words of recorded runs: each first window's
    rotations, each rotation taking the sign times (-1)**(n - 1), and their
    reverses, each taking (-1)**(n // 2) more; at n = 1 the window alone."""
    assert len({(length, sign) for length, sign, _ in runs}) == len(runs)
    words = {1: [], -1: []}
    for length, sign, firsts in runs:
        assert len(firsts) % n == 0
        for i in range(0, len(firsts), n):
            first = tuple(firsts[i : i + n])
            for k in range(length):
                word, word_sign = first[k:] + first[:k], sign * (-1) ** ((n - 1) * k)
                words[word_sign].append(word)
                if n > 1:
                    words[word_sign * (-1) ** (n // 2)].append(word[::-1])
    return words[1], words[-1]


def test_a_cold_pass_takes_one_parity_per_block(monkeypatch):
    # inside a block each window is the one before it rotated left by one,
    # so only a block's first window needs its parity taken, and a block is
    # one whole class, so it needs one class place
    scheme = search_scheme(SearchConfig(n=7, random_seed=1))
    blocks = sum(len(strip.starts) for strip in scheme.strips) // 7
    calls = []

    def counted(word):
        calls.append(word)
        return _word_parity(word)

    monkeypatch.setattr(sarrus.scheme, "_word_parity", counted)
    keys = _count_calls(monkeypatch, sarrus.scheme, "_class_place")
    _signed_windows.cache_clear()
    assert validate(scheme).is_valid
    assert 0 < len(calls) <= blocks
    assert 0 < len(keys) <= blocks


def _count_calls(monkeypatch, module, name):
    """Record the arguments of every call of module.name from now on."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_cached_pass_holds_no_record_per_start():
    # the pass keeps its verdict only: after a cold validate of 2520 starts,
    # next to nothing stays allocated (one record per start took ~0.2 MB)
    scheme = search_scheme(SearchConfig(n=7, random_seed=1))
    _signed_windows.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        assert validate(scheme).is_valid
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 0.02 * 2**20


def test_windows_leaves_the_pass_cache_alone():
    strip = search_scheme(SearchConfig(n=5, random_seed=1)).strips[0]
    before = _signed_windows.cache_info()
    assert [w.start for w in windows(strip)] == list(strip.starts)
    # starts 5 and 4 are bad: the first of them in start order is named
    bad = SchemeStrip(n=3, columns=(1, 2, 3, 1, 1, 2, 2), starts=(5, 1, 4, 2))
    with pytest.raises(InvalidWindow) as caught:
        windows(bad)
    assert caught.value.start == 5
    assert _signed_windows.cache_info() == before


def test_a_refused_mutant_records_no_runs_and_sweeps_no_symmetric_group(monkeypatch):
    scheme = search_scheme(SearchConfig(n=7, random_seed=1))
    strip = scheme.strips[0]
    columns = strip.columns[:30] + (strip.columns[30] % 7 + 1,) + strip.columns[31:]
    mutant = Scheme(n=7, strips=(SchemeStrip(7, columns, strip.starts),) + scheme.strips[1:])
    sweeps = _count_calls(monkeypatch, itertools, "permutations")
    _signed_windows.cache_clear()
    report = validate(mutant)
    with pytest.raises(InvalidScheme):
        evaluate(mutant, Matrix.identity(7))
    assert report.missing and _signed_windows(mutant).runs == ()
    # the class walk permutes n - 1 values, never n
    assert sweeps and all(len(args[0]) < 7 for args in sweeps)


def test_a_mutant_that_hits_every_class_is_listed_without_a_class_walk(monkeypatch):
    scheme = search_scheme(SearchConfig(n=7, random_seed=1))
    strip = scheme.strips[0]
    # the first column lies in the first window only: its block's class is
    # still hit by the other six
    columns = (strip.columns[0] % 7 + 1,) + strip.columns[1:]
    mutant = Scheme(n=7, strips=(SchemeStrip(7, columns, strip.starts),) + scheme.strips[1:])
    sweeps = _count_calls(monkeypatch, itertools, "permutations")
    _signed_windows.cache_clear()
    missing = validate(mutant).missing
    assert missing and not sweeps
    assert [p.images for p in missing] == _plain_missing(mutant)


def test_evaluations_run_the_pass_once():
    scheme = search_scheme(SearchConfig(n=7, random_seed=1))
    _signed_windows.cache_clear()
    rng = random.Random(7)
    for _ in range(3):
        M = random_matrix(7, rng)
        assert evaluate(scheme, M) == bareiss_det(M)
        assert positive_negative_sums(scheme, M) == parity_partition_sums(M)
        assert evaluate_float(scheme, [[float(x) for x in row] for row in M.rows]) == pytest.approx(
            float(bareiss_det(M)), abs=1e-6
        )
    assert _signed_windows.cache_info().misses == 1
    plus, minus = _expand_runs(7, _signed_windows(scheme).runs)
    assert len(plus) == len(minus) == math.factorial(7) // 2


def test_the_benchmark_schemes_stay_warm():
    # det-files evaluates the built-ins for n = 2..5, and det-large the
    # searched n = 6 and 7 schemes of seed 11, all held warm
    schemes = [builtin_scheme(n) for n in (2, 3, 4, 5)]
    schemes += [search_scheme(SearchConfig(n=n, random_seed=11)) for n in (6, 7)]
    for scheme in schemes:
        assert evaluate(scheme, Matrix.identity(scheme.n)) == 1
    misses = _signed_windows.cache_info().misses
    rng = random.Random(11)
    for _ in range(2):
        for scheme in schemes:
            M = random_matrix(scheme.n, rng)
            assert evaluate(scheme, M) == bareiss_det(M)
    assert _signed_windows.cache_info().misses == misses


def _short_run_schemes(n):
    """Valid schemes whose runs are shorter than n: at n = 1 the one-column
    strip, at n = 2 the built-in; past it, a searched scheme with its starts
    shuffled, and the same scheme with each block cut in two, one block of
    its first n // 2 rotations and one of the rest."""
    if n < 3:
        return [Scheme(1, (SchemeStrip(1, (1,), (1,)),)) if n == 1 else builtin_scheme(2)]
    searched = search_scheme(SearchConfig(n=n, random_seed=n))
    rng = random.Random(n)
    shuffled, halves = [], []
    for strip in searched.strips:
        starts = list(strip.starts)
        rng.shuffle(starts)
        shuffled.append(SchemeStrip(n, strip.columns, tuple(starts)))
        for first in strip.starts[::n]:
            head = strip.window_at(first)
            for k, count in ((0, n // 2), (n // 2, n - n // 2)):
                rotated = head[k:] + head[:k]
                halves.append(SchemeStrip(n, rotated + rotated[: n - 1], tuple(range(1, count + 1))))
    return [Scheme(n, tuple(shuffled)), Scheme(n, tuple(halves))]


@pytest.mark.parametrize("n", range(1, 8))
def test_runs_shorter_than_n_evaluate_exactly(n):
    rng = random.Random(n)
    for sch in _short_run_schemes(n):
        assert validate(sch).is_valid
        assert all(length < n for length, _, _ in _signed_windows(sch).runs) or n == 1
        for rational_share in (0.0, 1.0):
            rows = [
                [Fraction(rng.randint(-9, 9), rng.randint(2, 9)) if rng.random() < rational_share
                 else rng.randint(-9, 9) for _ in range(n)]
                for _ in range(n)
            ]
            M = Matrix.from_rows(rows)
            assert evaluate(sch, M) == bareiss_det(M)
            assert positive_negative_sums(sch, M) == parity_partition_sums(M)
            assert evaluate_float(sch, [[float(x) for x in row] for row in rows]) == pytest.approx(
                float(bareiss_det(M)), abs=1e-6
            )


def test_a_valid_eight_by_eight_pass_holds_little():
    # the pass keeps a first window per run, ~20 kB at n = 8; the table of
    # 8! words it replaces held ~4.6 MB
    scheme = search_scheme(SearchConfig(n=8, random_seed=1))
    M = random_matrix(8, random.Random(8))
    assert evaluate(scheme, M) == bareiss_det(M)  # compiles the kernels first
    _signed_windows.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        assert validate(scheme).is_valid
        assert evaluate(scheme, M) == bareiss_det(M)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 0.1 * 2**20


def _plain_missing(sch):
    """The words of S_n that no window or reverse hits, by a sweep of S_n."""
    n = sch.n
    hit = set()
    for strip in sch.strips:
        for p in strip.starts:
            w = strip.window_at(p)
            hit |= {w, w[::-1]}
    return [w for w in itertools.permutations(range(1, n + 1)) if w not in hit]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_missing_words_from_the_class_walk_equal_a_sweep(n):
    scheme = search_scheme(SearchConfig(n=n, random_seed=3))
    rng = random.Random(n)
    for _ in range(40):
        si = rng.randrange(len(scheme.strips))
        strip = scheme.strips[si]
        pos = rng.randrange(len(strip.columns))
        cols = list(strip.columns)
        cols[pos] = (cols[pos] + rng.randrange(n - 1)) % n + 1
        strips = list(scheme.strips)
        strips[si] = SchemeStrip(n=n, columns=tuple(cols), starts=strip.starts)
        mutant = Scheme(n=n, strips=tuple(strips))
        missing = [p.images for p in validate(mutant).missing]
        assert missing and missing == _plain_missing(mutant)


def test_missing_words_are_listed_past_the_class_limit(monkeypatch):
    # the listing walks the class keys up to the listing limit, n = 9, not
    # through the class enumeration of the search and its lower limit
    monkeypatch.setattr(sarrus.generate, "_CLASS_LIMIT", 7)
    scheme = Scheme(n=8, strips=(SchemeStrip(n=8, columns=(3, 1, 4, 8, 5, 2, 6, 7), starts=(1,)),))
    report = validate(scheme)
    missing = [p.images for p in report.missing]
    assert report.covered == 2 and len(missing) == math.factorial(8) - 2
    assert missing == _plain_missing(scheme)


def test_a_refusal_after_validate_quotes_its_report(monkeypatch):
    scheme = search_scheme(SearchConfig(n=7, random_seed=1))
    strip = scheme.strips[0]
    columns = (strip.columns[0] % 7 + 1,) + strip.columns[1:]
    mutant = Scheme(n=7, strips=(SchemeStrip(7, columns, strip.starts),) + scheme.strips[1:])
    # the text of a refusal with no validate before it
    _signed_windows.cache_clear()
    with pytest.raises(InvalidScheme) as cold:
        evaluate(mutant, Matrix.identity(7))
    sweeps = []

    def counted(sch, signed):
        sweeps.append(sch)
        return missing(sch, signed)

    missing = sarrus.scheme._missing
    monkeypatch.setattr(sarrus.scheme, "_missing", counted)
    _signed_windows.cache_clear()
    report = validate(mutant)
    with pytest.raises(InvalidScheme) as refused:
        evaluate(mutant, Matrix.identity(7))
    assert report.missing
    assert sweeps == [mutant]
    assert str(refused.value) == str(cold.value) == "scheme failed validation:\n" + report.summary()


def test_summary_names_n_factorial_without_computing_it_past_the_sweep_limit():
    def summary(n):
        return ValidationReport(
            n=n, window_count=2, covered=2, duplicates=(), missing=(),
            invalid_windows=(), even_count=1, odd_count=1,
        ).summary()

    for n in range(1, 11):
        assert f"covered:    2 of {math.factorial(n)}\n" in summary(n)
    assert "covered:    2 of 11!\n" in summary(11)
    # 10**6! has millions of digits: too many to compute or print
    lines = summary(10**6).splitlines()
    assert lines[2:] == ["covered:    2 of 1000000!", "even / odd: 1 / 1", "INVALID"]


def test_evaluate_worked_example(worked_matrix):
    assert evaluate(scheme_4x4(), worked_matrix) == WORKED_DET


def test_evaluate_identity_is_one():
    assert evaluate(scheme_4x4(), Matrix.identity(4)) == 1
    assert evaluate(scheme_5x5(), Matrix.identity(5)) == 1


@pytest.mark.parametrize("n,scheme", [(4, scheme_4x4()), (5, scheme_5x5())])
def test_evaluate_matches_leibniz_on_random_matrices(n, scheme):
    rng = random.Random(1234 + n)
    for _ in range(200):
        M = random_matrix(n, rng)
        assert evaluate(scheme, M) == leibniz_det(M)


def test_evaluate_errors(worked_matrix):
    with pytest.raises(SizeMismatch):
        evaluate(scheme_5x5(), worked_matrix)
    broken = Scheme(n=3, strips=(SchemeStrip(n=3, columns=(1, 2, 3, 1, 2), starts=(1, 2)),))
    with pytest.raises(InvalidScheme):
        evaluate(broken, Matrix.identity(3))


def test_positive_negative_sums_worked_example(worked_matrix):
    # oracle first: the parity partition fixes which magnitude is subtracted
    assert parity_partition_sums(worked_matrix) == WORKED_SUMS
    assert positive_negative_sums(scheme_4x4(), worked_matrix) == WORKED_SUMS


def test_positive_negative_sums_identity():
    assert positive_negative_sums(scheme_4x4(), Matrix.identity(4)) == (1, 0)


def test_positive_negative_sums_match_oracle_componentwise():
    rng = random.Random(99)
    scheme = scheme_5x5()
    for _ in range(50):
        M = random_matrix(5, rng)
        assert positive_negative_sums(scheme, M) == parity_partition_sums(M)


@given(st.integers(-50, 50), st.integers(1, 4))
@settings(max_examples=40)
def test_scaling_one_column_scales_the_determinant(k, col):
    rng = random.Random(k * 7 + col)
    M = random_matrix(4, rng)
    scaled = Matrix.from_rows(
        [
            [x * k if j == col - 1 else x for j, x in enumerate(row)]
            for row in M.rows
        ]
    )
    scheme = scheme_4x4()
    assert evaluate(scheme, scaled) == k * evaluate(scheme, M)


@given(st.integers(0, 10_000))
@settings(max_examples=40)
def test_swapping_two_columns_negates_the_determinant(seed):
    rng = random.Random(seed)
    M = random_matrix(5, rng)
    c1, c2 = rng.sample(range(5), 2)
    swapped_rows = []
    for row in M.rows:
        row = list(row)
        row[c1], row[c2] = row[c2], row[c1]
        swapped_rows.append(row)
    scheme = scheme_5x5()
    assert evaluate(scheme, Matrix.from_rows(swapped_rows)) == -evaluate(scheme, M)


def test_reversal_parity_law_holds_for_every_window():
    for scheme in (scheme_4x4(), scheme_5x5()):
        flip = (-1) ** (scheme.n // 2)
        from sarrus import parity

        for strip in scheme.strips:
            for w in windows(strip):
                assert parity(w.ascending) == parity(w.descending) * flip


def test_evaluate_handles_rational_entries():
    from fractions import Fraction

    from sarrus import classic_sarrus

    M = Matrix.from_rows(
        [
            [Fraction(1, 2), 2, Fraction(3, 4)],
            [1, Fraction(5, 6), 0],
            [Fraction(7, 8), 1, 3],
        ]
    )
    assert evaluate(classic_sarrus(3), M) == leibniz_det(M)


@lru_cache(maxsize=None)
def _scheme_for(n):
    return builtin_scheme(n) if n <= 5 else search_scheme(SearchConfig(n=n, random_seed=1))


def _fraction(rng):
    """A p/q in [-9, 9] / [2, 9] that is not an integer."""
    while True:
        x = Fraction(rng.randint(-9, 9), rng.randint(2, 9))
        if x.denominator != 1:
            return x


def _rational_matrix(kind, n, rng):
    share = 0.25 if kind == "quarter p/q" else 1.0
    rows = [[_fraction(rng) if rng.random() < share else rng.randint(-9, 9) for _ in range(n)]
            for _ in range(n)]
    k = rng.randrange(n)
    if kind == "zero row":
        rows[k] = [0] * n
    elif kind == "integer row":
        rows[k] = [rng.randint(-9, 9) for _ in range(n)]
    elif kind == "integral det":
        # L @ U with L unit lower and U upper triangular: p/q entries, det = prod(diag U)
        L = [[1 if i == j else _fraction(rng) if j < i else 0 for j in range(n)] for i in range(n)]
        U = [[rng.choice((-3, -2, -1, 1, 2, 3)) if i == j else _fraction(rng) if j > i else 0
              for j in range(n)] for i in range(n)]
        rows = [[sum(L[i][t] * U[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return Matrix.from_rows(rows)


@pytest.mark.parametrize("kind", ["all p/q", "quarter p/q", "zero row", "integer row", "integral det"])
@pytest.mark.parametrize("n", range(2, 9))
def test_rational_evaluation_matches_the_oracles(n, kind):
    scheme = _scheme_for(n)
    M = _rational_matrix(kind, n, random.Random(f"{kind}:{n}"))
    ops = OpCounter()
    det = evaluate(scheme, M, ops=ops)
    assert det == bareiss_det(M) == cofactor_det(M)
    sum_ops = OpCounter()
    sums = positive_negative_sums(scheme, M, ops=sum_ops)
    oracle_sums = parity_partition_sums(M)
    assert sums[0] == oracle_sums[0] and sums[1] == oracle_sums[1]
    for value in (det, *sums):
        # an integral result is an int; a Fraction is never integral
        assert type(value) is (int if Fraction(value).denominator == 1 else Fraction)
        # the text a Fraction-arithmetic sum of the same value would print
        assert format_scalar(value) == format_scalar(Fraction(value))
    assert format_scalar(det) == format_scalar(cofactor_det(M))
    if kind in ("zero row", "integral det"):
        assert type(det) is int
    if kind == "zero row":
        assert det == 0
    # the counts do not depend on the entries
    integer_matrix = random_matrix(n, random.Random(n))
    int_ops, int_sum_ops = OpCounter(), OpCounter()
    evaluate(scheme, integer_matrix, ops=int_ops)
    positive_negative_sums(scheme, integer_matrix, ops=int_sum_ops)
    assert ops == int_ops and sum_ops == int_sum_ops


def test_evaluate_float_is_close(worked_matrix):
    got = evaluate_float(scheme_4x4(), [list(r) for r in worked_matrix.rows])
    assert got == pytest.approx(140.0)
    with pytest.raises(SizeMismatch):
        evaluate_float(scheme_4x4(), [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(TypeError):
        evaluate_float(scheme_4x4(), [["1", "2", "3", "4"]] * 4)


def single_column_mutants(scheme):
    """The scheme with one strip column set to another value, every way."""
    for si, strip in enumerate(scheme.strips):
        for pos, col in enumerate(strip.columns):
            for v in range(1, scheme.n + 1):
                if v == col:
                    continue
                cols = strip.columns[:pos] + (v,) + strip.columns[pos + 1 :]
                strips = list(scheme.strips)
                strips[si] = SchemeStrip(n=scheme.n, columns=cols, starts=strip.starts)
                yield Scheme(n=scheme.n, strips=tuple(strips))


def test_every_single_column_mutant_is_refused():
    import hashlib

    from sarrus import classic_sarrus

    summaries = []
    for scheme in (classic_sarrus(3), scheme_4x4(), scheme_5x5()):
        for mutant in single_column_mutants(scheme):
            report = validate(mutant)
            assert not report.is_valid
            summaries.append(report.summary())
            with pytest.raises(InvalidScheme):
                evaluate(mutant, Matrix.identity(scheme.n))
    assert len(summaries) == 10 + 57 + 392
    # the report text of every mutant, pinned before the validator was rewritten
    text = "\n".join(summaries).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "dae35d25bfe617d5fb9fa04544a7fd5e9ebdc8084b2bc29505f4e95a0a7d2ab1"
    )
