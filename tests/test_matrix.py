import random
from fractions import Fraction

import pytest

from sarrus import Matrix, bareiss_det, cofactor_det, leibniz_det, parity_partition_sums
from sarrus.matrix import _cleared_rows, _product_sum


def test_from_rows_and_entry_are_one_based():
    M = Matrix.from_rows([[1, 2], [3, 4]])
    assert M.n == 2
    assert M.entry(1, 2) == 2
    assert M.entry(2, 1) == 3
    with pytest.raises(IndexError):
        M.entry(0, 1)
    with pytest.raises(IndexError):
        M.entry(1, 3)


def test_must_be_square():
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        Matrix.from_rows([])


def test_identity_and_transpose():
    assert Matrix.identity(3).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    M = Matrix.from_rows([[1, 2], [3, 4]])
    assert M.transpose().rows == ((1, 3), (2, 4))
    assert M.transpose().transpose() == M


def test_exact_entries_only():
    M = Matrix.from_rows([[Fraction(1, 2), 0], [0, 2]])
    assert M.entry(1, 1) == Fraction(1, 2)
    assert not M.is_integral()
    assert not Matrix.from_rows([[1, 2], [3, Fraction(1, 3)]]).is_integral()
    assert Matrix.from_rows([[1, 2], [3, Fraction(8, 2)]]).is_integral()
    # integral fractions normalize to int
    assert isinstance(Matrix.from_rows([[Fraction(4, 2)]]).entry(1, 1), int)
    with pytest.raises(TypeError):
        Matrix.from_rows([[0.5]])
    with pytest.raises(TypeError):
        Matrix.from_rows([[True]])


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "3", None])
def test_direct_construction_checks_entries_too(bad):
    # a float used to reach the oracles, which truncated it (bareiss_det) or
    # failed with AttributeError; now no route gets such a matrix
    for route in (lambda M: M, leibniz_det, cofactor_det, bareiss_det, parity_partition_sums):
        with pytest.raises(TypeError, match="entry"):
            route(Matrix(((bad, 0), (0, 2))))


def _reference_product_sum(entries, words):
    # the loop the kernel replaced, kept as its reference
    total = 0
    for word in words:
        prod = 1
        for i in word:
            prod *= entries[i]
        total += prod
    return total


@pytest.mark.parametrize("k", range(1, 11))
def test_product_sum_matches_the_nested_loop(k):
    rng = random.Random(k)
    # words as the scheme path and the oracles hold them, row r reading one
    # of the positions r * k .. r * k + k - 1
    words = [tuple(r * k + c for r, c in enumerate(rng.sample(range(k), k))) for _ in range(60)]
    small = [rng.randint(-9, 9) for _ in range(k * k)]
    # p/q rows cleared of their denominators: ints of several digits
    pq = [[Fraction(rng.randint(-99, 99), rng.randint(1, 97)) for _ in range(k)] for _ in range(k)]
    cleared = [x for row in _cleared_rows(Matrix.from_rows(pq))[0] for x in row]
    floats = [rng.uniform(-10, 10) for _ in range(k * k)]
    product_sum = _product_sum(k)
    for entries in (small, cleared, floats):
        got, expected = product_sum(entries, words), _reference_product_sum(entries, words)
        # the same products in the same order: floats agree to the bit
        assert got == expected and type(got) is type(expected)
    assert product_sum(small, []) == product_sum(floats, ()) == 0
    assert _product_sum(k) is product_sum


@pytest.mark.parametrize("bad", [0, -1, 2.0, True, "3"])
def test_product_sum_takes_an_int_length_only(bad):
    with pytest.raises(ValueError):
        _product_sum(bad)
