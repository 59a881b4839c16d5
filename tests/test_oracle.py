import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import WORKED_DET, WORKED_SUMS

from sarrus import (
    Matrix,
    Permutation,
    SizeLimitExceeded,
    bareiss_det,
    cofactor_det,
    format_scalar,
    leibniz_det,
    parity,
    parity_partition_sums,
)
from sarrus.bench import random_matrix
from sarrus.matrix import _cleared_rows, _product_sum, _uncleared
from sarrus.oracle import _TABLE_LIMIT, _signed_perms


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


def _inversions(word):
    return sum(a > b for a, b in itertools.combinations(word, 2))


@pytest.mark.parametrize("n", range(1, 9))
def test_sign_table_matches_a_brute_force_split(n):
    even, odd = _signed_perms(n)
    half = math.factorial(n) // 2
    assert (len(even), len(odd)) == ((1, 0) if n == 1 else (half, half))
    # position r * n + c holds column c of row r
    decoded = [[tuple(p % n for p in term) for term in side] for side in (even, odd)]
    words = list(itertools.permutations(range(n)))
    assert decoded[0] == [w for w in words if _inversions(w) % 2 == 0]
    assert decoded[1] == [w for w in words if _inversions(w) % 2 == 1]
    # the cycle-decomposition sign of the rest of the library agrees word by word
    for side, sign in zip(decoded, (1, -1)):
        assert all(parity(Permutation(tuple(c + 1 for c in w))) == sign for w in side)


def test_nine_by_nine_streams_from_the_five_table():
    rng = random.Random(9)
    ints = Matrix.from_rows([[rng.randint(-9, 9) for _ in range(9)] for _ in range(9)])
    pqs = Matrix.from_rows(_pq_rows(9, rng))
    _signed_perms.cache_clear()
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
    # only the 5-table was built
    assert _TABLE_LIMIT == 5
    assert _signed_perms.cache_info().currsize == 1
    even, odd = _signed_perms(_TABLE_LIMIT)
    assert len(even) == len(odd) == math.factorial(_TABLE_LIMIT) // 2
    assert _signed_perms.cache_info().misses == 1


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("entries", ["int", "p/q"])
def test_placements_match_the_full_table(n, entries):
    # placement depths 1 to 3, against the one-pass sum over the n! table
    rng = random.Random(60 + n)
    if entries == "int":
        M = random_matrix(n, rng)
    else:
        M = Matrix.from_rows(_pq_rows(n, rng))
    rows, clearing = _cleared_rows(M)
    flat = [x for row in rows for x in row]
    product_sum = _product_sum(n)
    full = tuple(_uncleared(product_sum(flat, side), clearing) for side in _signed_perms(n))
    assert parity_partition_sums(M) == full
    assert full[0] != full[1]


def test_ten_by_ten_leibniz_matches_bareiss():
    # placement depth 5 over the 5-table
    M = random_matrix(10, random.Random(10))
    det = bareiss_det(M)
    assert det != 0 and leibniz_det(M) == det
