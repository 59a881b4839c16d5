import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import WORKED_DET, WORKED_SUMS

from sarrus import (
    Matrix,
    Permutation,
    SizeLimitExceeded,
    bareiss_det,
    builtin_scheme,
    cofactor_det,
    evaluate,
    format_scalar,
    leibniz_det,
    parity,
    parity_partition_sums,
)
from sarrus.bench import random_matrix
from sarrus.matrix import _cleared_rows, _uncleared
from sarrus.oracle import _EXPANSION_ROWS, _expansion


def test_leibniz_worked_example(worked_matrix):
    assert leibniz_det(worked_matrix) == WORKED_DET


@pytest.mark.parametrize("n", range(1, 7))
def test_leibniz_identity(n):
    assert leibniz_det(Matrix.identity(n)) == 1


def test_leibniz_equal_columns_vanish():
    M = Matrix.from_rows([[3, 3, 1], [5, 5, -2], [7, 7, 4]])
    assert leibniz_det(M) == 0


def test_cofactor_worked_example(worked_matrix):
    assert cofactor_det(worked_matrix) == WORKED_DET


def test_cofactor_1x1():
    assert cofactor_det(Matrix.from_rows([[17]])) == 17
    assert cofactor_det(Matrix.from_rows([[-3]])) == -3


def test_cofactor_matches_bareiss_n6():
    rng = random.Random(6)
    for _ in range(100):
        M = random_matrix(6, rng)
        assert cofactor_det(M) == bareiss_det(M)


def test_bareiss_worked_example(worked_matrix):
    assert bareiss_det(worked_matrix) == WORKED_DET


def test_bareiss_triangular_is_diagonal_product():
    M = Matrix.from_rows([[2, 5, -1], [0, -3, 7], [0, 0, 4]])
    assert bareiss_det(M) == 2 * -3 * 4


def test_bareiss_matches_cofactor_n8():
    rng = random.Random(8)
    for _ in range(100):
        M = random_matrix(8, rng)
        assert bareiss_det(M) == cofactor_det(M)


def test_bareiss_handles_zero_pivots():
    M = Matrix.from_rows([[0, 1, 2], [3, 0, 4], [5, 6, 0]])
    assert bareiss_det(M) == leibniz_det(M)
    singular = Matrix.from_rows([[0, 0, 1], [0, 0, 2], [1, 2, 3]])
    assert bareiss_det(singular) == 0


def test_bareiss_clears_rational_rows():
    M = Matrix.from_rows([[Fraction(1, 2), 0], [0, 2]])
    assert bareiss_det(M) == 1
    rng = random.Random(13)
    for _ in range(50):
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
            for _ in range(4)
        ]
        M = Matrix.from_rows(rows)
        assert bareiss_det(M) == leibniz_det(M) == cofactor_det(M)


def test_parity_partition_worked_example(worked_matrix):
    assert parity_partition_sums(worked_matrix) == WORKED_SUMS


def test_parity_partition_identity():
    assert parity_partition_sums(Matrix.identity(4)) == (1, 0)


def test_parity_partition_difference_is_the_determinant():
    rng = random.Random(21)
    for n in (3, 4, 5):
        for _ in range(50):
            M = random_matrix(n, rng)
            s_plus, s_minus = parity_partition_sums(M)
            assert s_plus - s_minus == leibniz_det(M)


def test_five_by_five_splits_sixty_sixty():
    # the partition sizes themselves, counted independently
    def inversion_sign(word):
        inv = sum(
            1
            for i in range(len(word))
            for j in range(i + 1, len(word))
            if word[i] > word[j]
        )
        return -1 if inv % 2 else 1

    signs = [inversion_sign(p) for p in itertools.permutations(range(5))]
    assert signs.count(1) == 60 and signs.count(-1) == 60


def test_all_oracles_agree():
    rng = random.Random(3)
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(20):
            M = random_matrix(n, rng)
            a = leibniz_det(M)
            assert a == cofactor_det(M) == bareiss_det(M)


def test_transpose_invariance():
    rng = random.Random(4)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            M = random_matrix(n, rng)
            T = M.transpose()
            assert leibniz_det(T) == leibniz_det(M)
            assert cofactor_det(T) == cofactor_det(M)
            assert bareiss_det(T) == bareiss_det(M)


def test_factorial_guard():
    M = Matrix.identity(11)
    with pytest.raises(SizeLimitExceeded):
        leibniz_det(M)
    with pytest.raises(SizeLimitExceeded):
        parity_partition_sums(M)
    # the elimination oracle has no factorial guard
    assert bareiss_det(M) == 1


def test_cofactor_guard():
    with pytest.raises(SizeLimitExceeded, match="cofactor_det"):
        cofactor_det(Matrix.identity(17))


def _pq(rng):
    # p/q in lowest terms with q > 1, never an integer
    while True:
        x = Fraction(rng.randint(-9, 9), rng.randint(2, 9))
        if x.denominator != 1:
            return x


def _pq_rows(n, rng):
    return [[_pq(rng) for _ in range(n)] for _ in range(n)]


def _routes_agree(M):
    det = leibniz_det(M)
    assert det == cofactor_det(M) == bareiss_det(M)
    s_plus, s_minus = parity_partition_sums(M)
    assert s_plus - s_minus == det
    return det


_ENTRIES = {
    "small": st.integers(-9, 9),
    "large": st.integers(-(10**30), 10**30),
    "p/q": st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(2, 10**6)),
}


@st.composite
def _oracle_rows(draw):
    # one kind for the whole matrix, or one kind per row; then maybe a zero
    # row or column
    n = draw(st.integers(1, 7))
    kinds = st.sampled_from(sorted(_ENTRIES))
    row_kinds = [draw(kinds) for _ in range(n)] if draw(st.booleans()) else [draw(kinds)] * n
    rows = [draw(st.lists(_ENTRIES[k], min_size=n, max_size=n)) for k in row_kinds]
    zeroed, i = draw(st.sampled_from(["none", "row", "column"])), draw(st.integers(0, n - 1))
    if zeroed == "row":
        rows[i] = [0] * n
    elif zeroed == "column":
        for row in rows:
            row[i] = 0
    return rows


@given(_oracle_rows())
@example([[0]])
@example([[Fraction(1, 2), 3], [-5, Fraction(7, 9)]])
@example([[0] * 3, [1, 2, 3], [4, 5, 6]])
@settings(max_examples=150, deadline=None)
def test_oracles_agree_on_any_matrix(rows):
    det = _routes_agree(Matrix.from_rows(rows))
    if any(not any(row) for row in rows) or not all(any(col) for col in zip(*rows)):
        assert det == 0


@pytest.mark.parametrize("n, count", [(6, 8), (7, 3), (8, 1)])
def test_rational_oracles_agree(n, count):
    rng = random.Random(100 + n)
    for _ in range(count):
        det = _routes_agree(Matrix.from_rows(_pq_rows(n, rng)))
        assert det != 0


def test_rational_oracles_integer_and_zero_rows():
    rng = random.Random(17)
    rows = _pq_rows(6, rng)
    rows[2] = [rng.randint(-9, 9) for _ in range(6)]  # row lcm 1
    _routes_agree(Matrix.from_rows(rows))
    rows[4] = [0] * 6
    M = Matrix.from_rows(rows)
    assert _routes_agree(M) == 0
    s_plus, s_minus = parity_partition_sums(M)
    assert s_plus == s_minus == 0
    assert format_scalar(leibniz_det(M)) == "0"


def test_rational_oracles_integer_determinant():
    # upper triangular with diagonal 1/2, 2, 3/4, 4/3, 5/6, 6/5 and p/q entries
    # above it: det 1
    rng = random.Random(18)
    diag = [Fraction(1, 2), 2, Fraction(3, 4), Fraction(4, 3), Fraction(5, 6), Fraction(6, 5)]
    rows = [[diag[i] if i == j else _pq(rng) if j > i else 0 for j in range(6)] for i in range(6)]
    M = Matrix.from_rows(rows)
    assert _routes_agree(M) == 1
    for det in (leibniz_det(M), cofactor_det(M), bareiss_det(M)):
        assert format_scalar(det) == "1"
    # an integral value prints alike as an int and as a Fraction over 1
    for x in parity_partition_sums(M):
        assert format_scalar(x) == str(Fraction(x))


def _kinds_of_input(n, rng):
    """An integer matrix, a p/q matrix with an integral determinant and one
    with a determinant that is not."""
    ints = random_matrix(n, rng)
    while True:
        rows = _pq_rows(n, rng)
        det = bareiss_det(Matrix.from_rows(rows))
        if det != 0 and type(det) is Fraction:
            break
    # row 0 times the determinant's denominator: its numerator, an integer
    scaled = [[x * det.denominator for x in rows[0]]] + rows[1:]
    return ints, Matrix.from_rows(scaled), Matrix.from_rows(rows)


@pytest.mark.parametrize("n", range(1, 9))
def test_every_route_returns_the_same_type(n):
    rng = random.Random(200 + n)
    ints, integral, fractional = _kinds_of_input(n, rng)
    for M, kind in ((ints, int), (integral, int), (fractional, Fraction)):
        routes = [leibniz_det(M), cofactor_det(M), bareiss_det(M)]
        if 2 <= n <= 5:
            routes.append(evaluate(builtin_scheme(n), M))
        assert all(type(det) is kind for det in routes), routes
        assert len(set(routes)) == 1
    assert n == 1 or not integral.is_integral()


def _dropping_row_0(cleared_rows):
    # the row clearing with row 0's factor left out of the clearing
    def corrupted(M):
        rows, clearing = cleared_rows(M)
        return rows, clearing // math.lcm(*(Fraction(x).denominator for x in M.rows[0]))

    return corrupted


def test_cofactor_does_not_share_the_row_clearing(monkeypatch):
    # det [[1/2, 1], [0, 2]] = 1/2 * 2 - 1 * 0 = 1, by hand; row 0 clears by 2
    M = Matrix.from_rows([[Fraction(1, 2), 1], [0, 2]])
    assert [type(det(M)) for det in (leibniz_det, cofactor_det, bareiss_det)] == [int] * 3
    for name, fault in (
        ("_cleared_rows", _dropping_row_0(_cleared_rows)),
        ("_uncleared", lambda value, clearing: _uncleared(value, clearing // 2)),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(f"sarrus.oracle.{name}", fault)
            assert leibniz_det(M) == 2
            assert bareiss_det(M) == 2
            assert cofactor_det(M) == 1
    assert not {"_cleared_rows", "_uncleared"} & set(cofactor_det.__code__.co_names)


_COLUMN_ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
    # Fraction(k, 1): Matrix stores it as an int
    st.builds(Fraction, st.integers(-9, 9)),
)


@st.composite
def _column_rows(draw):
    # mixed entries, then maybe an all-integer or a zero column
    n = draw(st.integers(1, 8))
    rows = [draw(st.lists(_COLUMN_ENTRIES, min_size=n, max_size=n)) for _ in range(n)]
    column, j = draw(st.sampled_from(["none", "int", "zero"])), draw(st.integers(0, n - 1))
    for row in rows:
        if column == "int":
            row[j] = draw(st.integers(-9, 9))
        elif column == "zero":
            row[j] = 0
    return rows


@given(_column_rows())
@example([[Fraction(k) for k in row] for row in [[2, 3], [5, 7]]])
@example([[Fraction(k + 1, 10**30 - k) for k in range(8 * r, 8 * r + 8)] for r in range(8)])
@settings(max_examples=100, deadline=None)
def test_cofactor_clears_columns_as_bareiss_clears_rows(rows):
    M = Matrix(rows)
    det = cofactor_det(M)
    assert det == bareiss_det(M)
    assert type(det) is (int if Fraction(det).denominator == 1 else Fraction)


def _inversions(word):
    return sum(a > b for a, b in itertools.combinations(word, 2))


def _inversion_sign(word):
    return (-1) ** _inversions(word)


def _split(rows, columns, sign):
    # the even and the odd product sums over rows on columns, word by word
    sides = [0, 0]
    for word in itertools.permutations(range(len(rows))):
        sides[sign(word) == -1] += math.prod(row[columns[c]] for row, c in zip(rows, word))
    return tuple(sides)


def _cycle_sign(word):
    return parity(Permutation(tuple(c + 1 for c in word)))


@pytest.mark.parametrize("k", range(1, 6))
def test_expansion_matches_a_brute_force_split(k):
    rng = random.Random(k)
    # the last k rows of a wider matrix, as a placement leaves them
    ints = [[rng.randint(-9, 9) for _ in range(k + 2)] for _ in range(k)]
    cleared = _cleared_rows(Matrix.from_rows(_pq_rows(k + 2, rng)))[0][2:]
    expansion = _expansion(k)
    for rows in (ints, cleared):
        for _ in range(4):
            columns = tuple(rng.sample(range(k + 2), k))
            got = expansion(rows, columns)
            assert got == _split(rows, columns, _inversion_sign)
            assert all(type(x) is int for x in got)
    # the cycle-decomposition sign of the rest of the library agrees word by word
    for word in itertools.permutations(range(k)):
        assert _cycle_sign(word) == _inversion_sign(word)
    assert expansion(ints, tuple(range(k))) == _split(ints, range(k), _cycle_sign)
    assert _expansion(k) is expansion
    if k == 1:
        assert expansion([[7]], (0,)) == (7, 0)


def test_nine_by_nine_streams_from_the_five_table():
    rng = random.Random(9)
    ints = Matrix.from_rows([[rng.randint(-9, 9) for _ in range(9)] for _ in range(9)])
    pqs = Matrix.from_rows(_pq_rows(9, rng))
    _expansion.cache_clear()
    for M in (ints, pqs):
        det = bareiss_det(M)
        assert det != 0
        assert leibniz_det(M) == det == cofactor_det(M)
        s_plus, s_minus = parity_partition_sums(M)
        assert s_plus - s_minus == det
    # each side is the first row against the minors' sides, the odd columns
    # swapping them
    sides = [0, 0]
    for c, x in enumerate(ints.rows[0]):
        minor = Matrix.from_rows([[row[j] for j in range(9) if j != c] for row in ints.rows[1:]])
        minor_plus, minor_minus = parity_partition_sums(minor)
        sides[c % 2] += x * minor_plus
        sides[1 - c % 2] += x * minor_minus
    assert tuple(sides) == parity_partition_sums(ints)
    # only the 5-row expansion was compiled
    assert _EXPANSION_ROWS == 5
    assert _expansion.cache_info().currsize == 1
    _expansion(_EXPANSION_ROWS)
    assert _expansion.cache_info().misses == 1


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("entries", ["int", "p/q"])
def test_placements_match_the_full_table(n, entries):
    # placement depths 1 to 3, against the sum over all n! words at once
    rng = random.Random(60 + n)
    if entries == "int":
        M = random_matrix(n, rng)
    else:
        M = Matrix.from_rows(_pq_rows(n, rng))
    rows, clearing = _cleared_rows(M)
    split = _split(rows, range(n), _inversion_sign)
    full = tuple(_uncleared(side, clearing) for side in split)
    assert parity_partition_sums(M) == full
    assert full[0] != full[1]


def test_ten_by_ten_leibniz_matches_bareiss():
    # placement depth 5 over the 5-row expansion
    M = random_matrix(10, random.Random(10))
    det = bareiss_det(M)
    assert det != 0 and leibniz_det(M) == det
