"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
each assertion is exact (integer/structural equality, no tolerances to tune).
"""

import itertools
import math
import random
import time

from sarrus import (
    Permutation,
    SearchConfig,
    bareiss_det,
    basic_strip_signs,
    bench,
    classic_sarrus,
    classify,
    cofactor_det,
    compose,
    evaluate,
    expand_block,
    leibniz_det,
    n_block_heads,
    p_block_heads,
    parity,
    parity_partition_sums,
    positive_negative_sums,
    render,
    RenderSpec,
    scheme_4x4,
    scheme_5x5,
    scheme_from_json,
    scheme_to_json,
    search_scheme,
    term_count_statement,
    validate,
    verify_generated,
    windows,
)
from sarrus.bench import random_matrix
from sarrus.cli import main

WORKED_CSV = "2,3,4,-1\n1,-2,0,5\n5,2,2,-3\n8,1,1,1\n"


def ok(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {message}")


def inversion_sign(word):
    inv = sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )
    return -1 if inv % 2 else 1


def test_criterion_01_worked_example(tmp_path, capsys, worked_matrix):
    # the independent oracle fixes the subtracted magnitude first
    assert parity_partition_sums(worked_matrix) == (551, 411)
    assert positive_negative_sums(scheme_4x4(), worked_matrix) == (551, 411)
    path = tmp_path / "m.csv"
    path.write_text(WORKED_CSV)
    code = main(["det", "--matrix", str(path), "--builtin", "4"])
    out = capsys.readouterr().out
    assert code == 0 and out.strip() == "140"
    assert evaluate(scheme_4x4(), worked_matrix) == 140
    ok(1, "det --builtin 4 prints 140; sums exactly (551, 411), oracle-confirmed")


def test_criterion_02_4x4_validation_and_signs():
    scheme = scheme_4x4()
    report = validate(scheme)
    assert report.is_valid and report.window_count == 24 and report.covered == 24
    seen = set()
    for w in windows(scheme.strips[0]):
        seen.add(w.descending.images)
        seen.add(w.ascending.images)
        expected = 1 if w.start in {1, 3, 7, 9, 13, 15} else -1
        assert w.start in {1, 2, 3, 4, 7, 8, 9, 10, 13, 14, 15, 16}
        assert parity(w.descending) == expected
        assert parity(w.ascending) == expected
    assert seen == set(itertools.permutations((1, 2, 3, 4)))
    ok(2, "24 windows biject onto S4; + at starts {1,3,7,9,13,15}, - elsewhere, both directions")


def test_criterion_03_fold_symmetry():
    cols = scheme_4x4().strips[0].columns
    swap = {3: 4, 4: 3}
    assert tuple(swap.get(c, c) for c in reversed(cols)) == cols
    ok(3, "reversing the 19 columns and swapping 3<->4 reproduces the sequence")


def test_criterion_04_5x5_construction():
    p_heads, n_heads = p_block_heads(), n_block_heads()
    for heads in (p_heads, n_heads):
        for a, b in itertools.pairwise(heads):
            assert expand_block(a).columns[-1] == b.images[0]
    scheme = scheme_5x5()
    assert [len(s.columns) for s in scheme.strips] == [49, 49]
    even_words, odd_words = set(), set()
    for bucket, strip in zip((even_words, odd_words), scheme.strips):
        for w in windows(strip):
            bucket.add(w.descending.images)
            bucket.add(w.ascending.images)
    alternating = {w for w in itertools.permutations((1, 2, 3, 4, 5)) if inversion_sign(w) == 1}
    everything = set(itertools.permutations((1, 2, 3, 4, 5)))
    assert even_words == alternating and len(even_words) == 60
    assert odd_words == everything - alternating and len(odd_words) == 60
    t = Permutation((1, 2, 4, 3, 5))
    for p, n in zip(p_heads, n_heads):
        assert compose(t, p) == n
    ok(4, "P/N heads chain; strips are 49 columns; windows split A5 vs S5\\A5; N = (3 4)P")


def test_criterion_05_oracle_equivalence_1000_each():
    t0 = time.monotonic()
    for n, scheme in ((4, scheme_4x4()), (5, scheme_5x5())):
        rng = random.Random(1000 + n)
        for _ in range(1000):
            M = random_matrix(n, rng)
            d = evaluate(scheme, M)
            assert d == leibniz_det(M) == cofactor_det(M) == bareiss_det(M)
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    ok(5, f"scheme = leibniz = cofactor = bareiss on 1000 matrices each at n=4,5 ({elapsed:.1f}s)")


def test_criterion_06_classic_sarrus_regression():
    scheme = classic_sarrus(3)
    report = validate(scheme)
    assert report.is_valid and report.window_count == 6 and report.covered == 6
    words = set()
    for w in windows(scheme.strips[0]):
        words.add(w.descending.images)
        words.add(w.ascending.images)
    assert words == set(itertools.permutations((1, 2, 3)))
    rng = random.Random(3)
    for _ in range(1000):
        M = random_matrix(3, rng)
        assert evaluate(scheme, M) == leibniz_det(M) == cofactor_det(M) == bareiss_det(M)
    ok(6, "classic 3x3 rule covers S3 and matches all oracles on 1000 matrices")


def test_criterion_07_pattern_law():
    for n in range(2, 13):
        assert classify(n).same_structure(classify(n + 4))
    assert classify(6).same_structure(classify(2))
    assert classify(7).same_structure(classify(3))
    for n in range(2, 10):
        strip = expand_block(Permutation.identity(n))
        by_start = {w.start: w for w in windows(strip)}
        for p, d, a in basic_strip_signs(n):
            assert d == inversion_sign(by_start[p].descending.images)
            assert a == inversion_sign(by_start[p].ascending.images)
    ok(7, "classify has period 4 (2..12); basic strip signs match brute force (2..9)")


def test_criterion_08_generator_soundness():
    from sarrus import necklace_classes

    classes4 = {frozenset(m.images for m in c.members) for c in necklace_classes(4)}
    assert len(classes4) == 3 and all(len(c) == 8 for c in classes4)
    classes5 = {frozenset(m.images for m in c.members) for c in necklace_classes(5)}
    assert len(classes5) == 12 and all(len(c) == 10 for c in classes5)
    for n in range(2, 7):
        union = set()
        total = 0
        for c in necklace_classes(n):
            words = {m.images for m in c.members}
            assert not (words & union)
            union |= words
            total += c.size
        assert union == set(itertools.permutations(range(1, n + 1)))
        assert total == math.factorial(n)
    for n, seed in ((4, 0), (4, 99), (5, 0), (5, 99)):
        t0 = time.monotonic()
        sch = search_scheme(SearchConfig(n=n, random_seed=seed))
        assert validate(sch).is_valid
        report = verify_generated(sch, 1000, seed=seed)
        assert report.samples_checked == 1000
        assert time.monotonic() - t0 < 60
    ok(8, "necklace partitions exact (n<=6); searched schemes at n=4,5 verify on 1000 samples")


def test_criterion_09_term_count_claim():
    reports = bench(["scheme", "leibniz"], [4, 5], runs=1, seed=0)
    by_key = {(r.method, r.n): r for r in reports}
    assert by_key[("scheme", 4)].term_count == by_key[("leibniz", 4)].term_count == 24
    assert by_key[("scheme", 5)].term_count == by_key[("leibniz", 5)].term_count == 120
    statement = term_count_statement(reports)
    assert "identical" in statement and "reorganizes" in statement
    ok(9, "instrumented term counts are 24 and 120 for both methods; report says so explicitly")


def test_criterion_10_determinism(tmp_path):
    for scheme in (scheme_4x4(), scheme_5x5(), search_scheme(SearchConfig(n=4, random_seed=1))):
        assert scheme_from_json(scheme_to_json(scheme)) == scheme
    spec = RenderSpec(scheme=scheme_5x5())
    assert render(spec) == render(RenderSpec(scheme=scheme_5x5()))
    ascii_spec = RenderSpec(scheme=scheme_4x4(), output_format="ascii")
    assert render(ascii_spec) == render(RenderSpec(scheme=scheme_4x4(), output_format="ascii"))
    a = search_scheme(SearchConfig(n=5, random_seed=77))
    b = search_scheme(SearchConfig(n=5, random_seed=77))
    assert a == b
    ok(10, "JSON round-trip lossless; renders byte-identical; fixed seed reproduces the search")
