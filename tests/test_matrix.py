from fractions import Fraction

import pytest

from sarrus import Matrix, bareiss_det, cofactor_det, leibniz_det, parity_partition_sums


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
