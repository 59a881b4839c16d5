import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sarrus import Matrix, NonSquare, Permutation, bareiss_det, cofactor_det, leibniz_det, parity_partition_sums
from sarrus.io import matrix_from_csv
from sarrus.matrix import _cleared_rows


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


class _Int(int):
    pass


def _walk_is_integral(M):
    return all(isinstance(x, int) for row in M.rows for x in row)


_ints = st.integers(-(10**12), 10**12)
_pqs = st.fractions(max_denominator=10**6).filter(lambda x: x.denominator != 1)


def _square_rows(entry):
    return st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    )


_rows = st.one_of(_square_rows(_ints), _square_rows(_pqs), _square_rows(st.one_of(_ints, _pqs)))


@given(_rows)
@example([[1, 2], [3, 4]])
@example([[Fraction(1, 2), Fraction(3, 4)], [Fraction(-5, 6), Fraction(7, 8)]])
@example([[1, 2], [Fraction(3, 4), 5]])
@example([[Fraction(4, 2), 1], [0, 1]])
def test_integrality_is_what_a_walk_of_the_entries_finds(rows):
    M = Matrix.from_rows(rows)
    matrices = [
        M,
        Matrix(tuple(map(tuple, rows))),  # direct
        Matrix(rows),  # list rows are copied into tuples
        M.transpose(),
        Matrix.identity(len(rows)),
        Matrix(tuple(tuple(_Int(x) if type(x) is int else x for x in row) for row in rows)),
    ]
    for m in matrices:
        assert m.is_integral() == _walk_is_integral(m)
        assert type(m.rows) is tuple and all(type(row) is tuple for row in m.rows)


_whole = st.integers(-(10**12), 10**12).map(Fraction)  # integral Fractions


@given(st.one_of(_rows, _square_rows(st.one_of(_ints, _whole)), _square_rows(st.one_of(_ints, _pqs, _whole))))
@example([[Fraction(4, 2), 1], [0, 1]])
@example([[Fraction(4, 2), Fraction(1, 2)], [0, 1]])
def test_every_constructor_stores_one_normal_form(rows):
    # an integral Fraction is an int, however the matrix is built
    reference = Matrix.from_rows(rows)
    typed = [[(type(x), x) for x in row] for row in reference.rows]
    for m in (Matrix(rows), Matrix(tuple(map(tuple, rows))), reference):
        assert [[(type(x), x) for x in row] for row in m.rows] == typed
        assert m.is_integral() == reference.is_integral() == _walk_is_integral(m)
        assert not any(isinstance(x, Fraction) and x.denominator == 1 for row in m.rows for x in row)


def test_counting_ints_are_kept():
    M = Matrix(((_Int(2), Fraction(6, 3)), (0, 1)))
    assert [type(x) for x in M.rows[0]] == [_Int, int] and M.is_integral()


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1, 2, 3], [4, 5, 6]], [[1], [2]], ((1, 2), (3, 4, 5))])
def test_a_ragged_matrix_is_non_square_with_the_parsers_text(rows):
    text = f"{len(rows)} rows with widths {sorted({len(r) for r in rows})}"
    with pytest.raises(NonSquare, match=re.escape(text)):
        Matrix(rows)
    with pytest.raises(ValueError, match=re.escape(text)):
        Matrix.from_rows(rows)
    with pytest.raises(NonSquare) as parsed:
        matrix_from_csv("\n".join(",".join(map(str, r)) for r in rows))
    assert str(parsed.value) == text


def test_list_rows_cannot_change_a_matrix():
    rows = [[1, 2], [3, 4]]
    M = Matrix(rows)
    rows[0][0] = Fraction(1, 2)
    rows[1] = [5, 6]
    assert M.rows == ((1, 2), (3, 4)) and M.is_integral()
    assert M == Matrix.from_rows([[1, 2], [3, 4]]) and hash(M) == hash(Matrix(((1, 2), (3, 4))))


def _reference_cleared(M):
    """Every row times the lcm of all its denominators, int entries included."""
    rows, clearing = [], 1
    for row in M.rows:
        d = math.lcm(*(Fraction(x).denominator for x in row))
        rows.append([int(x * d) for x in row])
        clearing *= d
    return rows, clearing


@given(_rows)
@example([[1, 2], [3, 4]])
@example([[Fraction(1, 2), Fraction(3, 4)], [Fraction(-5, 6), Fraction(7, 8)]])
@example([[1, 2], [Fraction(3, 4), 5]])
def test_cleared_rows_match_a_full_clearing(rows):
    M = Matrix.from_rows(rows)
    cleared, clearing = _cleared_rows(M)
    assert ([list(row) for row in cleared], clearing) == _reference_cleared(M)
    assert all(type(x) is int for row in cleared for x in row)
    # an integer matrix is read as it is, with no copy
    if M.is_integral():
        assert cleared is M.rows
    # bareiss_det eliminates in a copy of its own
    bareiss_det(M)
    assert _cleared_rows(M) == (cleared, clearing)


@pytest.mark.parametrize(
    "value",
    [Matrix(((1, -2), (3, 4))), Matrix(((Fraction(1, 2), 3), (0, Fraction(-5, 7)))), Permutation((3, 1, 2))],
    ids=["int-matrix", "fraction-matrix", "permutation"],
)
def test_repr_reads_back_as_an_equal_value(value):
    assert eval(repr(value), {"Matrix": Matrix, "Fraction": Fraction, "Permutation": Permutation}) == value
