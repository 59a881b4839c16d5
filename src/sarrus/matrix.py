"""Exact square matrices over the integers and rationals.

Entries are Python ints or ``fractions.Fraction``; arithmetic on them never
rounds, which is what makes scheme evaluation and the oracles exactly equal
instead of approximately so. ``entry(r, c)`` is 1-based with r the row and c
the column. ``_cleared_rows`` and ``_uncleared`` let the scheme path and the
oracles sum over integers and divide once at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Scalar = Union[int, Fraction]


def _check_exact(x) -> None:
    if isinstance(x, bool):
        raise TypeError("bool is not a matrix entry")
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"exact entry expected (int or Fraction), got {type(x).__name__}")


def _normalized(x):
    return int(x) if isinstance(x, Fraction) and x.denominator == 1 else x


@dataclass(frozen=True, slots=True)
class Matrix:
    """Immutable n x n matrix of exact scalars."""

    rows: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if n < 1:
            raise ValueError("matrix needs n >= 1")
        if any(len(row) != n for row in self.rows):
            raise ValueError("matrix must be square")
        # plain ints, the common case, skip the call
        for row in self.rows:
            for x in row:
                if type(x) is not int:
                    _check_exact(x)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        """The matrix with integral Fractions stored as ints."""
        return cls(tuple(tuple(x if type(x) is int else _normalized(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, r: int, c: int) -> Scalar:
        """Entry in row r, column c (both 1-based)."""
        if not (1 <= r <= self.n and 1 <= c <= self.n):
            raise IndexError(f"entry ({r}, {c}) outside 1..{self.n}")
        return self.rows[r - 1][c - 1]

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.rows)))

    def is_integral(self) -> bool:
        # a plain loop, not a generator: every exact evaluation asks this first
        for row in self.rows:
            for x in row:
                if not isinstance(x, int):
                    return False
        return True

    def __repr__(self) -> str:
        return f"Matrix({[list(r) for r in self.rows]})"


def _cleared_rows(M: Matrix) -> tuple[list[list[int]], int]:
    """Row i times the lcm d_i of its denominators, as fresh int lists, and
    the product of the d_i.

    The determinant is linear in each row, and so is any sum of products that
    take one entry from every row: over the cleared rows such a sum is the
    same sum over M times the product of the d_i. The rows of an integer
    matrix are only copied, with no lcm taken. Lists, not tuples: the loops
    that read them index lists a few percent faster.
    """
    if M.is_integral():
        return [list(row) for row in M.rows], 1
    rows = []
    clearing = 1
    for row in M.rows:
        d = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (d // x.denominator) for x in row])
        clearing *= d
    return rows, clearing


def _uncleared(value: int, clearing: int) -> Scalar:
    """value / clearing, as an int when it is integral."""
    if clearing == 1:
        return value
    result = Fraction(value, clearing)
    return int(result) if result.denominator == 1 else result

