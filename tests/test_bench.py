import json
import math
import random

import pytest

from sarrus import (
    Matrix,
    OpCounter,
    bareiss_det,
    bench,
    cofactor_det,
    evaluate,
    leibniz_det,
    reports_to_jsonl,
    term_count_statement,
)
from sarrus.bench import random_matrix


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
        assert s.multiplications_n_factors == l.multiplications_n_factors == math.factorial(n) * n
        assert s.multiplications_chained == l.multiplications_chained == math.factorial(n) * (n - 1)
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


def test_jsonl_output_parses():
    reports = bench(["scheme", "leibniz", "cofactor", "bareiss"], [4], runs=2, seed=0)
    lines = reports_to_jsonl(reports).strip().splitlines()
    objs = [json.loads(line) for line in lines]
    assert len(objs) == 5  # four method rows plus the term-count summary
    for obj in objs[:4]:
        assert obj["n"] == 4 and obj["runs"] == 2
        assert len(obj["wall_times"]) == 2
    assert "statement" in objs[4]


def test_bench_rejects_unknown_method():
    with pytest.raises(ValueError):
        bench(["lu"], [4])
    with pytest.raises(ValueError):
        bench(["scheme"], [4], runs=0)


def test_bench_scheme_uses_generator_beyond_builtins():
    (report,) = bench(["scheme"], [6], runs=1, seed=4)
    assert report.term_count == math.factorial(6)
