import gc
import itertools
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import WORKED_DET, WORKED_SUMS
from test_bench import _assert_the_sums_run_their_tally, _minors, _window_muls

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
    matrix_from_csv,
    matrix_from_json,
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
from sarrus.perm import (
    _class_pairs, _class_place, _class_words, _least_words, _swap_head, _swap_key, _word_parity
)
from sarrus.scheme import (
    _diagonals, _exchange, _exchanged_pair, _run_products, _run_sum, _runs, _signed_windows
)

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


@pytest.mark.parametrize("n", [True, 3.0, "3", None], ids=["bool", "float", "str", "none"])
def test_scheme_refuses_an_n_that_is_not_an_int(n):
    # True equals the n of a size-1 strip, and 3.0 that of a size-3 one
    strips = (SchemeStrip(1, (1,), (1,)),) if n is True else builtin_scheme(3).strips
    with pytest.raises(ValueError, match=r"scheme needs an int n, got "):
        Scheme(n=n, strips=strips)


def test_list_fields_are_held_as_tuples():
    strip = SchemeStrip(n=3, columns=[1, 2, 3, 1, 2], starts=[1, 2, 3])
    assert type(strip.columns) is tuple and type(strip.starts) is tuple
    assert strip == SchemeStrip(n=3, columns=(1, 2, 3, 1, 2), starts=(1, 2, 3))
    scheme = Scheme(n=3, strips=[strip])
    assert type(scheme.strips) is tuple
    assert scheme == builtin_scheme(3) and hash(scheme) == hash(builtin_scheme(3))
    assert evaluate(scheme, Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])) == -3


def test_a_summary_lists_ten_of_each_kind():
    s = search_scheme(SearchConfig(n=6, random_seed=1))
    doubled = Scheme(n=6, strips=s.strips + s.strips)
    report = validate(doubled)
    assert len(report.duplicates) == 720 and report.is_valid is False
    text = report.summary()
    assert sum(line.startswith("duplicate [") for line in text.splitlines()) == 10
    assert "duplicates: (+710 more)" in text.splitlines()
    assert len(text) < 2000
    # ten of the invalid windows and of the missing words, and a count of the rest
    strip = SchemeStrip(n=3, columns=(1, 1, 1) * 6, starts=tuple(range(1, 17)))
    report = validate(Scheme(n=3, strips=(strip,)))
    assert len(report.invalid_windows) == 16
    text = report.summary()
    assert "strip 1 start 10 (+6 more)" in text and "strip 1 start 11" not in text
    # ten of the windows that hit a duplicate word
    report = validate(Scheme(n=3, strips=builtin_scheme(3).strips * 12))
    assert all(len(refs) == 12 for _, refs in report.duplicates)
    assert "strip 10 start 1 descending (+2 more)" in report.summary()


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
    strip = SchemeStrip(n=11, columns=tuple(range(1, 12)), starts=(1,))
    with pytest.raises(SizeLimitExceeded, match="validate"):
        Scheme(n=11, strips=(strip,))
    # a window listing needs no sweep
    assert len(windows(strip)) == 1


@pytest.mark.parametrize(
    "fields,text",
    [
        ({"n": 0}, "strip needs an int n >= 1, got 0"),
        ({"n": "x" * 100000}, "strip needs an int n >= 1, got '" + "x" * 39 + "... (99962 more characters)"),
        ({"columns": (1, 2, 3, 9)}, "column indices not ints in 1..3: [9]"),
        ({"columns": (1, 2, 3, "x" * 100000)}, "column indices not ints in 1..3: ['" + "x" * 38 + "... (99964 more characters)"),
        ({"starts": (3,)}, "start 3 not an int in 1..2"),
        ({"starts": ([0] * 100000,)}, "start [" + "0, " * 13 + "... (299960 more characters) not an int in 1..2"),
    ],
    ids=["short-n", "long-n", "short-column", "long-column", "short-start", "long-start"],
)
def test_a_strip_quotes_a_bad_value_short(fields, text):
    # a short value reads whole, a long one as its first 40 characters and a count
    with pytest.raises(ValueError) as caught:
        SchemeStrip(**{"n": 3, "columns": (1, 2, 3, 1), "starts": (1,), **fields})
    assert str(caught.value) == text


def test_uncoverable_scheme_is_refused_before_its_pass(monkeypatch):
    # past the listing limit, one window can never cover n! words: the scheme
    # is refused when it is built, before any window is signed, whatever the
    # size of the strip
    walks = _count_calls(monkeypatch, sarrus.scheme, "_walk")
    for n in (10**6, 11):
        strip = SchemeStrip(n=n, columns=tuple(range(1, n + 1)), starts=(1,))
        with pytest.raises(SizeLimitExceeded, match="validate .* exceeds the limit of 9"):
            Scheme(n=n, strips=(strip,))
    assert not walks


def test_one_window_at_n_10_is_refused_before_its_pass(monkeypatch):
    # one window at n = 10 leaves 10! - 2 words to list: ~30 s and ~730 MB
    strip = SchemeStrip(n=10, columns=tuple(range(1, 11)), starts=(1,))
    walks = _count_calls(monkeypatch, sarrus.scheme, "_walk")
    with pytest.raises(SizeLimitExceeded, match="validate .* n = 10 exceeds the limit of 9"):
        Scheme(n=10, strips=(strip,))
    assert not walks


def test_the_size_rule_edges_are_decided_when_a_scheme_is_built(monkeypatch):
    walks = _count_calls(monkeypatch, sarrus.scheme, "_walk")
    # n = 9: one window builds, and its 9! - 2 missing words can be listed
    Scheme(n=9, strips=(SchemeStrip(n=9, columns=tuple(range(1, 10)), starts=(1,)),))
    # n = 10 builds from 10! windows, here the identity block's 20 repeated,
    # and is refused with one block fewer
    block = expand_block(Permutation.identity(10))
    copies = math.factorial(10) // 20
    assert Scheme(n=10, strips=(block,) * copies).n == 10
    with pytest.raises(SizeLimitExceeded, match="^validate lists up to n! missing permutations; n = 10 exceeds"):
        Scheme(n=10, strips=(block,) * (copies - 1))
    # n = 11 is refused with no count of its windows: a cover needs 11!/2
    # starts, and evaluating one reads more than 10! terms
    with pytest.raises(SizeLimitExceeded, match="^validate lists up to n! missing permutations; n = 11 exceeds"):
        Scheme(n=11, strips=(expand_block(Permutation.identity(11)),))
    assert not walks


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


def test_the_pass_is_computed_once_per_scheme(monkeypatch):
    strip = SchemeStrip(n=3, columns=[1, 2, 3, 1, 2], starts=[1, 2, 3])
    scheme = Scheme(n=3, strips=[strip])
    walks = _count_calls(monkeypatch, sarrus.scheme, "_walk")
    for _ in range(3):
        assert validate(scheme).is_valid
        assert evaluate(scheme, Matrix.identity(3)) == 1
        assert positive_negative_sums(scheme, Matrix.identity(3)) == (1, 0)
        assert evaluate_float(scheme, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]) == 1.0
        assert render(RenderSpec(scheme=scheme)).endswith("</svg>\n")
    assert walks == [(scheme,)]
    # equal strips and schemes compare and hash alike, however they were
    # made, and each scheme keeps a pass of its own
    plain = SchemeStrip(n=3, columns=(1, 2, 3, 1, 2), starts=(1, 2, 3))
    assert plain == strip and hash(plain) == hash(strip)
    assert hash(plain) != hash(SchemeStrip(n=3, columns=(1, 2, 3, 1, 2), starts=(1, 2)))
    twin = Scheme(n=3, strips=(plain,))
    assert twin == scheme and hash(twin) == hash(scheme)
    assert validate(twin).is_valid and len(walks) == 2
    searched = search_scheme(SearchConfig(n=6, random_seed=11))
    back = scheme_from_json(scheme_to_json(searched))
    assert back == searched and hash(back) == hash(searched)


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
        "even": len(set(plus)),
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


def _partnerless_scheme(n):
    """A valid scheme whose full runs lack a full partner: the searched
    scheme of seed n block by block, with the block of the greater key of
    each class and its 3 <-> 4 swapped partner cut in two, one block of its
    first n // 2 rotations and one of the rest."""
    strips = []
    for strip in search_scheme(SearchConfig(n=n, random_seed=n)).strips:
        for first in strip.starts[::n]:
            head = strip.window_at(first)
            key = _class_place(head)[0]
            cuts = ((0, n),) if key < _swap_key(key) else ((0, n // 2), (n // 2, n - n // 2))
            for k, count in cuts:
                rotated = head[k:] + head[:k]
                strips.append(SchemeStrip(n, rotated + rotated[: n - 1], tuple(range(1, count + 1))))
    return Scheme(n, tuple(strips))


# exact covers, which random strips past n = 3 almost never are: full runs
# recorded in swapped pairs at n = 5, in quads at n = 7, and full runs with
# no partner
@example(builtin_scheme(5))
@example(search_scheme(SearchConfig(n=7, random_seed=1)))
@example(_partnerless_scheme(5))
@given(_strip_sets())
@settings(max_examples=300, deadline=None)
def test_pass_and_report_match_a_plain_reference(sch):
    _assert_the_pass_and_report_match_a_plain_reference(sch)


def _assert_the_pass_and_report_match_a_plain_reference(sch):
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
    # the pass keeps the pairs hit twice; the report lists their words and hits
    assert sorted(w for key, bits in signed.twice.items() for w in _class_words(key, bits)) == [
        w for w, _ in ref["duplicates"]
    ]
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
    reverses, each taking (-1)**(n // 2) more; at n = 1 the window alone. A
    first window filed under p >= 1 starts with 3 and has 4 at p, and its
    2n words come with their 2n partners, 3 and 4 swapped, of the opposite
    signs. Filed as a quad, it stands also for the window with the entries
    at the positions of ``_exchange(n, p)`` exchanged, of the opposite sign,
    with its words and their partners."""
    assert len({(length, p, quad, sign) for length, p, quad, sign, _ in runs}) == len(runs)
    words = {1: [], -1: []}
    for length, p, quad, sign, firsts in runs:
        assert len(firsts) % n == 0
        for i in range(0, len(firsts), n):
            heads = [(tuple(firsts[i : i + n]), sign)]
            if quad:
                assert p and n >= 6
                u, v = _exchange(n, p)
                head = list(heads[0][0])
                head[u], head[v] = head[v], head[u]
                heads.append((tuple(head), -sign))
            for first, first_sign in heads:
                own = []
                for k in range(length):
                    word, word_sign = first[k:] + first[:k], first_sign * (-1) ** ((n - 1) * k)
                    own.append((word, word_sign))
                    if n > 1:
                        own.append((word[::-1], word_sign * (-1) ** (n // 2)))
                if p:
                    assert length == n >= 5 and first[0] == 3 and first[p] == 4 and 2 * p <= n
                    own += [(tuple(7 - c if c in (3, 4) else c for c in word), -s) for word, s in own]
                for word, word_sign in own:
                    words[word_sign].append(word)
    return words[1], words[-1]


def _cover_runs(n, rng):
    """The runs of a random exact cover, as (first window, length): each
    class's cycle of pairs cut at random points into arcs, each arc laid as
    one run of rotations, from its first pair forwards or from the reverse
    of its last pair backwards. A share of the classes, drawn per cover, is
    left whole, one full run each, so that pairs and quads form beside cut
    runs. A class's arcs come in cycle order, or against it, so that two
    laid back to back may go on from one another; the classes, or all the
    runs, then come in random order."""
    pairs = _class_pairs(n)
    whole = rng.choice([0.0, 0.5, 0.9, 1.0])
    groups = []
    for key in _least_words(n):
        if rng.random() < whole:
            cuts = [rng.randrange(pairs)]
        else:
            cuts = sorted(rng.sample(range(pairs), rng.randint(1, pairs)))
        arcs = []
        for a, b in zip(cuts, [*cuts[1:], cuts[0] + pairs]):
            last = (b - 1) % pairs
            if rng.random() < 0.5:
                arcs.append((key[a:] + key[:a], b - a))
            else:
                arcs.append(((key[last:] + key[:last])[::-1], b - a))
        groups.append(arcs[::-1] if rng.random() < 0.5 else arcs)
    rng.shuffle(groups)
    runs = [run for arcs in groups for run in arcs]
    if rng.random() < 0.5:
        rng.shuffle(runs)
    return runs


def _lay_runs(n, runs, rng):
    """Runs laid in order over 1-3 strips, as ([columns, starts] of each
    strip, [(strip index, first window, length, starts) of each run]).
    Between two runs go random filler columns, or none: the next run then
    shares as many columns with the strip's end as match, up to n - 1, and
    where it goes on from the last window, ``_runs`` merges the two."""
    bounds = sorted(rng.sample(range(1, len(runs)), rng.randint(1, min(3, len(runs))) - 1))
    strips, placed = [], []
    for lo, hi in zip([0, *bounds], [*bounds, len(runs)]):
        columns, starts = [], []
        for word, length in runs[lo:hi]:
            run = [word[k % n] for k in range(length + n - 1)]
            shared = 0
            if columns and rng.random() < 0.5:
                columns += [rng.randint(1, n) for _ in range(rng.randint(1, n))]
            else:
                shared = max(k for k in range(min(n, len(columns) + 1)) if columns[len(columns) - k :] == run[:k])
            first = len(columns) - shared + 1
            columns += run[shared:]
            run_starts = list(range(first, first + length))
            starts += run_starts
            placed.append((len(strips), word, length, run_starts))
        strips.append([columns, starts])
    return strips, placed


def _scheme_of(n, strips):
    return Scheme(n=n, strips=tuple(SchemeStrip(n, tuple(columns), tuple(starts)) for columns, starts in strips))


# one n = 8 cover, whose quads run in the n = 8 kernels
@example(8, 1, "dropped")
@given(st.integers(1, 7), st.integers(0, 2**32 - 1), st.sampled_from(["dropped", "repeated", "changed"]))
@settings(max_examples=20, deadline=None)
def test_random_exact_covers_validate_and_evaluate_right(n, seed, defect):
    rng = random.Random(seed)
    strips, placed = _lay_runs(n, _cover_runs(n, rng), rng)
    sch = _scheme_of(n, strips)
    assert validate(sch).is_valid
    # the runs of the pass expand to S_n with the reference signs
    _assert_the_pass_and_report_match_a_plain_reference(sch)
    # a quad is recorded by an even window, and so is a pair at n = 5
    assert all(sign > 0 for _, p, quad, sign, _ in _signed_windows(sch).runs if quad or p and n == 5)
    wide = Matrix([[rng.randrange(-(2**61), 2**61) for _ in range(n)] for _ in range(n)])
    ratios = Matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)])
    for M in (random_matrix(n, rng), wide, ratios):
        assert evaluate(sch, M) == bareiss_det(M)
        assert positive_negative_sums(sch, M) == parity_partition_sums(M)
    _assert_the_sums_run_their_tally(sch, random_matrix(n, rng).rows)
    # a defect drawn on top: one run's starts dropped, one run laid again in
    # a strip of its own, or one column changed
    si, word, length, run_starts = rng.choice(placed)
    if defect == "dropped":
        strips[si][1] = [p for p in strips[si][1] if p not in run_starts]
    elif defect == "repeated":
        strips.append([[word[k % n] for k in range(length + n - 1)], list(range(1, length + 1))])
    else:
        columns = strips[si][0]
        i = rng.randrange(len(columns))
        columns[i] = rng.choice([c for c in range(1, n + 1) if c != columns[i]] or [columns[i]])
    _assert_the_pass_and_report_match_a_plain_reference(_scheme_of(n, strips))


def test_a_cold_pass_takes_one_parity_per_block(monkeypatch):
    # inside a block each window is the one before it rotated left by one,
    # so only a block's first window needs its parity taken, and a block is
    # one whole class, so it needs one class place; grouping the pairs of
    # blocks into quads takes one more a quad, a quarter of the blocks
    scheme = search_scheme(SearchConfig(n=7, random_seed=1))
    blocks = sum(len(strip.starts) for strip in scheme.strips) // 7
    calls = []

    def counted(word):
        calls.append(word)
        return _word_parity(word)

    monkeypatch.setattr(sarrus.scheme, "_word_parity", counted)
    keys = _count_calls(monkeypatch, sarrus.scheme, "_class_place")
    # a fresh scheme is cold: the search validated the one it returned
    assert validate(Scheme(n=7, strips=scheme.strips)).is_valid
    assert 0 < len(calls) <= blocks
    assert 0 < len(keys) <= blocks + blocks // 4


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
    searched = search_scheme(SearchConfig(n=7, random_seed=1))
    scheme = Scheme(n=7, strips=searched.strips)
    gc.collect()
    tracemalloc.start()
    try:
        assert validate(scheme).is_valid
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 0.02 * 2**20


def test_windows_leaves_the_pass_cache_alone(monkeypatch):
    strip = search_scheme(SearchConfig(n=5, random_seed=1)).strips[0]
    walks = _count_calls(monkeypatch, sarrus.scheme, "_walk")
    assert [w.start for w in windows(strip)] == list(strip.starts)
    # starts 5 and 4 are bad: the first of them in start order is named
    bad = SchemeStrip(n=3, columns=(1, 2, 3, 1, 1, 2, 2), starts=(5, 1, 4, 2))
    with pytest.raises(InvalidWindow) as caught:
        windows(bad)
    assert caught.value.start == 5
    assert not walks


def test_a_refused_mutant_records_no_runs_and_sweeps_no_symmetric_group(monkeypatch):
    scheme = search_scheme(SearchConfig(n=7, random_seed=1))
    strip = scheme.strips[0]
    columns = strip.columns[:30] + (strip.columns[30] % 7 + 1,) + strip.columns[31:]
    mutant = Scheme(n=7, strips=(SchemeStrip(7, columns, strip.starts),) + scheme.strips[1:])
    sweeps = _count_calls(monkeypatch, itertools, "permutations")
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
    missing = validate(mutant).missing
    assert missing and not sweeps
    assert [p.images for p in missing] == _plain_missing(mutant)


def test_evaluations_run_the_pass_once(monkeypatch):
    scheme = Scheme(n=7, strips=search_scheme(SearchConfig(n=7, random_seed=1)).strips)
    walks = _count_calls(monkeypatch, sarrus.scheme, "_walk")
    rng = random.Random(7)
    for _ in range(3):
        M = random_matrix(7, rng)
        assert evaluate(scheme, M) == bareiss_det(M)
        assert positive_negative_sums(scheme, M) == parity_partition_sums(M)
        assert evaluate_float(scheme, [[float(x) for x in row] for row in M.rows]) == pytest.approx(
            float(bareiss_det(M)), abs=1e-6
        )
    assert walks == [(scheme,)]
    plus, minus = _expand_runs(7, _signed_windows(scheme).runs)
    assert len(plus) == len(minus) == math.factorial(7) // 2


def test_the_benchmark_schemes_stay_warm(monkeypatch):
    # det-files evaluates the built-ins for n = 2..5, and det-large the
    # searched n = 6 and 7 schemes of seed 11, all held warm
    schemes = [builtin_scheme(n) for n in (2, 3, 4, 5)]
    schemes += [search_scheme(SearchConfig(n=n, random_seed=11)) for n in (6, 7)]
    for scheme in schemes:
        assert evaluate(scheme, Matrix.identity(scheme.n)) == 1
    walks = _count_calls(monkeypatch, sarrus.scheme, "_walk")
    rng = random.Random(11)
    for _ in range(2):
        for scheme in schemes:
            M = random_matrix(scheme.n, rng)
            assert evaluate(scheme, M) == bareiss_det(M)
    assert not walks


def test_warm_evaluations_hold_no_memory_per_input():
    # det-files' loop: 2400 parses and evaluations through the warm
    # built-ins at n = 2..5, a third of them with p/q entries and every
    # fifth with the sums; nothing may stay behind per input
    rng = random.Random(2400)
    schemes = {n: builtin_scheme(n) for n in (2, 3, 4, 5)}
    items = []
    for i in range(2400):
        n = 2 + i % 4
        share = 0.25 if (i // 4) % 3 == 0 else 0.0
        rows = [[_fraction(rng) if rng.random() < share else rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if (i // 12) % 2:
            text = json.dumps([[x if isinstance(x, int) else str(x) for x in row] for row in rows])
        else:
            text = "".join(",".join(map(str, row)) + "\n" for row in rows)
        items.append((text, i % 5 == 0))

    def loop():
        for text, sums in items:
            M = matrix_from_json(text) if text.startswith("[") else matrix_from_csv(text)
            evaluate(schemes[M.n], M)
            if sums:
                positive_negative_sums(schemes[M.n], M)

    loop()  # the passes and kernels are made here
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loop()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held < 64 * 2**10


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
        assert all(length < n for length, _, _, _, _ in _signed_windows(sch).runs) or n == 1
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


@pytest.mark.parametrize("n", [5, 7])
def test_full_runs_without_a_full_partner_keep_their_own_kernels(n):
    sch = _partnerless_scheme(n)
    assert validate(sch).is_valid
    runs = _signed_windows(sch).runs
    assert {p for _, p, _, _, _ in runs} == {0} and any(length == n for length, _, _, _, _ in runs)
    rng = random.Random(n)
    for kind in ("int", "all p/q"):
        M = random_matrix(n, rng) if kind == "int" else _rational_matrix(kind, n, rng)
        assert evaluate(sch, M) == bareiss_det(M)
        assert positive_negative_sums(sch, M) == parity_partition_sums(M)


def test_swapped_pairs_halve_the_run_record_at_odd_n():
    # det-large's seed-11 n = 7 scheme: 360 full runs make 180 pairs, and
    # those make 90 quads, each one first window. A quad forms the 7 minors
    # of its two exchanged columns, at 2 multiplications each, then n = 7
    # products, each of two diagonals that read the same two minors: the
    # entry both read, times the 2x2 minor of their other 2 entries, times
    # the two minors, 5 multiplications: 49 = n(2n - 9) + 2n. Each quad is
    # recorded by an even window, so each of its 3 kernel calls, one per p
    # in 1..3, first forms the 7 minors of columns 3 and 4: 14
    scheme = search_scheme(SearchConfig(n=7, random_seed=11))
    runs = _signed_windows(scheme).runs
    assert sum(len(firsts) for *_, firsts in runs) == 90 * 7
    assert len(runs) == 3 and {(p, quad) for _, p, quad, _, _ in runs} == {(1, True), (2, True), (3, True)}
    ops = OpCounter()
    evaluate(scheme, Matrix.identity(7), ops=ops)
    assert ops.mul_chained == 4452 == 90 * 49 + 3 * 14


@pytest.mark.parametrize("n, muls", [(6, 498), (8, 47576)])
def test_swapped_pairs_halve_the_run_record_at_even_n(n, muls):
    # the searched seed-11 schemes: n!/2n full runs make n!/8n quads, each
    # one first window with 4 at p in 1..n/2, which forms the minors of its
    # two exchanged columns, 2 multiplications each, then one product for
    # each two diagonals that read the same two minors, or four at n = 8,
    # p = 4 (see _window_muls); each quad is recorded by an even window, so
    # one kernel call a p first forms the minors of columns 3 and 4. Minors
    # number n, or n/2 on two positions n/2 apart,
    # as 0 and p are at p = n/2, and the exchanged positions at even p
    scheme = search_scheme(SearchConfig(n=n, random_seed=11))
    runs = _signed_windows(scheme).runs
    assert sum(len(firsts) for *_, firsts in runs) == math.factorial(n) // 8
    assert {(p, quad) for _, p, quad, _, _ in runs} == {(p, True) for p in range(1, n // 2 + 1)}
    ops = OpCounter()
    evaluate(scheme, Matrix.identity(n), ops=ops)
    quads = sum(len(firsts) // n * _window_muls(n, p, True) for _, p, _, _, firsts in runs)
    tables = sum(2 * _minors(n, 0, p) for _, p, _, _, _ in runs)
    assert ops.mul_chained == muls == quads + tables


@pytest.mark.parametrize("n", [6, 7, 8])
def test_searched_schemes_record_quads_only(n):
    # every pair of full runs meets the pair of its window with two
    # positions exchanged: n!/8n first windows, all quads, and no pair
    for seed in range(1, 6):
        runs = _signed_windows(search_scheme(SearchConfig(n=n, random_seed=seed))).runs
        assert all(p and quad for _, p, quad, _, _ in runs)
        assert sum(len(firsts) for *_, firsts in runs) == math.factorial(n) // (8 * n) * n


@pytest.mark.parametrize("n", [6, 7, 8])
def test_searched_schemes_record_one_even_group_per_p(n):
    # a quad whose first window is odd is recorded by the other pair's
    # window, one transposition away: one kernel call a p, signed +1
    for seed in range(1, 6):
        runs = _signed_windows(search_scheme(SearchConfig(n=n, random_seed=seed))).runs
        assert [(p, sign) for _, p, _, sign, _ in runs] == [(p, 1) for p in range(1, n // 2 + 1)]


def test_the_five_by_five_records_six_pairs_and_no_quad():
    # at n = 5 the exchange leads each pair back to itself
    runs = _signed_windows(builtin_scheme(5)).runs
    assert all(p and not quad for _, p, quad, _, _ in runs)
    assert sum(len(firsts) for *_, firsts in runs) == 6 * 5


def test_the_five_by_five_records_its_pairs_by_even_windows():
    # at n = 5 a pair's window and its partner class's have opposite signs,
    # so every pair is recorded by the even one: one group a p, signed +1
    runs = _signed_windows(builtin_scheme(5)).runs
    assert [(p, quad, sign) for _, p, quad, sign, _ in runs] == [(1, False, 1), (2, False, 1)]


@pytest.mark.parametrize("n", range(5, 11))
def test_the_exchange_leads_to_another_pair_and_back(n):
    # from either first window of a pair, its own and its partner class's
    # (the reflection x -> p - x with 3 and 4 swapped), exchanging the
    # entries at u and v leads to one pair, and from that pair's window
    # back: four distinct classes from n = 6, and the pair itself at n = 5
    rng = random.Random(f"exchange:{n}")
    for _ in range(500):
        key = _class_place(tuple(rng.sample(range(1, n + 1), n)))[0]
        pair = min(key, _swap_key(key))
        head, p, _ = _swap_head(pair)
        u, v = _exchange(n, p)
        assert len({0, p, u, v}) == 4
        mirror = bytes(head[(p - x) % n] for x in range(n)).translate(bytes.maketrans(b"\3\4", b"\4\3"))
        assert mirror[0] == 3 and mirror[p] == 4 and _class_place(tuple(mirror))[0] in (key, _swap_key(key))
        _, other = _exchanged_pair(head, p)
        assert _exchanged_pair(tuple(mirror), p)[1] == other
        if n == 5:
            assert other == pair
        else:
            back, back_p, _ = _swap_head(other)
            assert other != pair and back_p == p and _exchanged_pair(back, p)[1] == pair


def test_a_valid_eight_by_eight_pass_holds_little():
    # the pass keeps a first window per run, ~20 kB at n = 8; the table of
    # 8! words it replaces held ~4.6 MB
    searched = search_scheme(SearchConfig(n=8, random_seed=1))
    M = random_matrix(8, random.Random(8))
    assert evaluate(searched, M) == bareiss_det(M)  # compiles the kernels first
    scheme = Scheme(n=8, strips=searched.strips)
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


def test_a_dropped_scheme_frees_its_pass():
    # the report of the seed-1 n = 8 scheme doubled holds ~15 MB of refs to
    # the hits of its duplicates; once the report, the refusal and the
    # scheme are dropped, nothing of them or of the pass stays
    strips = search_scheme(SearchConfig(n=8, random_seed=1)).strips
    gc.collect()
    tracemalloc.start()
    try:
        doubled = Scheme(n=8, strips=strips * 2)
        assert validate(doubled).duplicates
        with pytest.raises(InvalidScheme):
            evaluate(doubled, Matrix.identity(8))
        del doubled
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 0.1 * 2**20


def test_a_refused_pass_holds_no_listing():
    # the pass keeps the bitmasks of the pairs hit twice, not their words or
    # where they were hit: the seed-1 n = 7 scheme doubled once held ~1.9 MB
    # of refs in its pass for as long as the scheme lived
    doubled = Scheme(n=7, strips=search_scheme(SearchConfig(n=7, random_seed=1)).strips * 2)
    gc.collect()
    tracemalloc.start()
    try:
        assert validate(doubled).duplicates
        with pytest.raises(InvalidScheme):
            evaluate(doubled, Matrix.identity(7))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert _signed_windows(doubled).twice and held < 256 * 2**10


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
    with pytest.raises(InvalidScheme) as cold:
        evaluate(mutant, Matrix.identity(7))
    sweeps = []

    def counted(sch, signed):
        sweeps.append(sch)
        return missing(sch, signed)

    missing = sarrus.scheme._missing
    monkeypatch.setattr(sarrus.scheme, "_missing", counted)
    mutant = Scheme(n=7, strips=mutant.strips)  # cold again
    report = validate(mutant)
    with pytest.raises(InvalidScheme) as refused:
        evaluate(mutant, Matrix.identity(7))
    # the refusal lists the missing words again, and quotes a report equal
    # to the one validate returned
    assert report.missing
    assert sweeps == [mutant, mutant]
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


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("kind", ["int", "all p/q"])
def test_paired_kernels_split_as_the_expansion(n, kind):
    # from n = 5 the kernels share each product of n - 2 entries between a
    # run and its 3 <-> 4 swapped partner; each side of the split still
    # equals the n!-term expansion's
    rng = random.Random(f"paired:{kind}:{n}")
    M = random_matrix(n, rng) if kind == "int" else _rational_matrix(kind, n, rng)
    assert positive_negative_sums(_scheme_for(n), M) == parity_partition_sums(M)


@pytest.mark.parametrize("n", range(1, 11))
def test_kernels_pair_runs_from_n_5_only(n):
    # a p = 0 kernel forms no minor and takes each diagonal's entries row
    # by row, 2L(n - 1) multiplications for a run of L. From n = 5, and of
    # either parity, a full run and its swapped partner cost 2n(n - 3) at
    # odd n (see _window_muls), against 4n(n - 1) apart, with 4 at any p in
    # 1..n/2, plus the minors of columns 3 and 4 once a call. From n = 6 a
    # quad of two such pairs costs n(2n - 9) at odd n, and its window's
    # minors, against 8n(n - 1) apart. Below n = 5 no run pairs, and below
    # n = 6 no pair quads
    for length in range(1, n + 1):
        calls, windows, _ = _run_products(n, length, 0, False)
        assert not calls and not windows
        kernel = _run_sum(n, length, 0, False, "-")
        assert (kernel.muls, kernel.call_muls) == (2 * length * (n - 1), 0)
    for p in range(1, n // 2 + 1 if n >= 5 else 1):
        assert _run_sum(n, n, p, False, "-").muls == _window_muls(n, p, False)
        if n >= 6:
            assert _run_sum(n, n, p, True, "-").muls == _window_muls(n, p, True)
    if 2 <= n <= 8:
        runs = _signed_windows(_scheme_for(n)).runs
        assert {p > 0 for _, p, _, _, _ in runs} == {n >= 5}
        assert {quad for _, _, quad, _, _ in runs} == {n >= 6}


def _heads(n, p, rng):
    """Three first windows that start with 3 and have 4 at p, in one bytes."""
    firsts = b""
    for _ in range(3):
        rest = [c for c in range(1, n + 1) if c not in (3, 4)]
        rng.shuffle(rest)
        firsts += bytes([3, *rest[: p - 1], 4, *rest[p - 1 :]])
    return firsts


@pytest.mark.parametrize("n", range(5, 11))
def test_pair_kernels_sum_a_window_and_its_swap(n):
    # in mode "-" a pair kernel gives exactly what the full-run kernel
    # gives on its first windows less what it gives on those windows with 3
    # and 4 swapped, whose words have the opposite signs, and in mode "+"
    # the sum of the two; n = 9 and 10 reach no scheme the other tests
    # build. A window costs one product for each two diagonals that read
    # one minor, or four at p = n/2 (see _window_muls), and a call n minors
    # of 2 multiplications, n/2 at p = n/2, where j - i = p and -p name the
    # same pairs of rows
    rng = random.Random(f"pair kernel:{n}")
    columns = [(), *([rng.randrange(-(2**61), 2**61) for _ in range(n)] for _ in range(n))]
    swap = bytes.maketrans(b"\3\4", b"\4\3")
    for p in range(1, n // 2 + 1):
        firsts = _heads(n, p, rng)
        for mode, partner in (("-", -1), ("+", 1)):
            plain, kernel = _run_sum(n, n, 0, False, mode), _run_sum(n, n, p, False, mode)
            assert kernel(columns, firsts) == plain(columns, firsts) + partner * plain(columns, firsts.translate(swap))
        assert kernel.muls == _window_muls(n, p, False)
        assert kernel.call_muls == 2 * _minors(n, 0, p)


@pytest.mark.parametrize("n", range(6, 11))
def test_quad_kernels_sum_four_words_a_product(n):
    # in mode "-" a quad kernel gives exactly the signed sum of what the
    # full-run kernel gives on its first windows w, on σw, their 3 <-> 4
    # swaps, on τw, w with the entries at the positions u and v of
    # _exchange exchanged, and on στw, where σw and τw take the opposite
    # sign; in mode "+" it gives the unsigned sum of the four. A window
    # costs its minors on u and v, 2 multiplications each, and one product
    # for each two or four diagonals that read the same two minors (see
    # _window_muls), and a call the minors of columns 3 and 4
    rng = random.Random(f"quad kernel:{n}")
    columns = [(), *([rng.randrange(-(2**61), 2**61) for _ in range(n)] for _ in range(n))]
    swap = bytes.maketrans(b"\3\4", b"\4\3")
    for p in range(1, n // 2 + 1):
        u, v = _exchange(n, p)
        firsts = _heads(n, p, rng)
        exchanged = bytearray(firsts)
        exchanged[u::n], exchanged[v::n] = firsts[v::n], firsts[u::n]
        four = (firsts, firsts.translate(swap), bytes(exchanged), bytes(exchanged).translate(swap))
        for mode, other in (("-", -1), ("+", 1)):
            plain, kernel = _run_sum(n, n, 0, False, mode), _run_sum(n, n, p, True, mode)
            signs = (1, other, other, 1)
            assert kernel(columns, firsts) == sum(s * plain(columns, w) for s, w in zip(signs, four))
        assert kernel.muls == _window_muls(n, p, True)
        assert kernel.call_muls == 2 * _minors(n, 0, p)


def _window_products(source):
    """The products a kernel's source sums a window into, as text: the
    terms of its "t = " line outside brackets."""
    (line,) = (line for line in source.splitlines() if line.startswith("        t = "))
    products, depth, start = [], 0, len("        t = ")
    for i, char in enumerate(line):
        depth += (char == "(") - (char == ")")
        if depth == 0 and line[i : i + 3] in (" + ", " - "):
            products.append(line[start:i])
            start = i + 3
    return products + [line[start:]]


@pytest.mark.parametrize("n", range(5, 11))
def test_kernels_multiply_each_tuple_of_minors_once(monkeypatch, n):
    # every diagonal of a pair or quad window that reads one minor d, or
    # one pair of minors m and d, lies in the one product that multiplies
    # it: two diagonals a product, or four at p = n/2 for a pair, and for a
    # quad at n = 8, p = 4. The products are read off the generated source
    sources = []

    def recording(source, namespace):
        sources.append(source)
        exec(source, namespace)

    monkeypatch.setattr(sarrus.scheme, "exec", recording, raising=False)
    for p in range(1, n // 2 + 1):
        u, v = _exchange(n, p)
        for quad in (False, True) if n >= 6 else (False,):
            for mode in "-+":
                sources.clear()
                _run_sum.__wrapped__(n, n, p, quad, mode)
                products = _window_products(sources[0])
                minors = [tuple(re.findall(r"\b[md]\d+_\d+\b", product)) for product in products]
                assert all(len(names) == 1 + quad for names in minors)
                assert len(set(minors)) == len(minors)
                g = 4 if 2 * p == n and (not quad or 2 * (v - u) == n) else 2
                assert len(products) == 2 * n // g
                # each product sums g diagonals inside its bracket
                assert all(product.count(" + ") + product.count(" - ") == g - 1 for product in products)


def test_evaluate_float_is_the_exact_value_rounded_once():
    # a 5x5 whose last row is the sum of the others plus 1e-13 in one
    # entry, so that its determinant is all cancellation: float products
    # summed run by run give 9.0039e-14, where the exact value rounds to
    # 8.9992e-14
    rng = random.Random(705)
    rows = [[rng.uniform(-1, 1) for _ in range(5)] for _ in range(4)]
    last = [sum(column) for column in zip(*rows)]
    last[3] += 1e-13
    rows.append(last)
    exact = bareiss_det(Matrix([[Fraction(x) for x in row] for row in rows]))
    got = evaluate_float(scheme_5x5(), rows)
    assert got == float(exact) and f"{got:.4e}" == "8.9992e-14"


def test_evaluate_float_refuses_what_has_no_exact_value():
    # NaN and ±inf have no rational value, and a determinant past the float
    # range does not round to a float
    identity = [[1.0 if i == j else 0.0 for j in range(3)] for i in range(3)]
    for x, error in ((math.nan, ValueError), (math.inf, OverflowError), (-math.inf, OverflowError)):
        with pytest.raises(error):
            evaluate_float(builtin_scheme(3), [[x, 0.0, 0.0], *identity[1:]])
    with pytest.raises(OverflowError):
        evaluate_float(builtin_scheme(3), [[1e200 if i == j else 0.0 for j in range(3)] for i in range(3)])
    # a determinant below the smallest subnormal rounds to 0.0
    assert evaluate_float(builtin_scheme(3), [[1e-200 if i == j else 0.0 for j in range(3)] for i in range(3)]) == 0.0


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
