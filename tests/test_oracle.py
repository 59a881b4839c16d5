import itertools
import random
from fractions import Fraction

import pytest

from conftest import WORKED_DET, WORKED_SUMS

from sarrus import (
    Matrix,
    SizeLimitExceeded,
    bareiss_det,
    cofactor_det,
    format_scalar,
    leibniz_det,
    parity_partition_sums,
)
from sarrus.bench import random_matrix


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
