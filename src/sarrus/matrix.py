"""Exact square matrices over the integers and rationals.

Entries are Python ints or ``fractions.Fraction``; arithmetic on them never
rounds, which is what makes scheme evaluation and the oracles exactly equal
instead of approximately so. ``entry(r, c)`` is 1-based with r the row and c
the column.
"""

from __future__ import annotations

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
        return all(isinstance(x, int) for row in self.rows for x in row)

    def __repr__(self) -> str:
        return f"Matrix({[list(r) for r in self.rows]})"
