"""Exact square matrices over the integers and rationals.

Entries are Python ints or ``fractions.Fraction``; arithmetic on them never
rounds, which is what makes scheme evaluation and the oracles exactly equal
instead of approximately so. ``Matrix`` is the one place that checks an
entry's type, stores an integral ``Fraction`` as an int, and checks the
shape. ``entry(r, c)`` is 1-based with r the row and c the column.
``_cleared_rows`` and ``_uncleared`` let the scheme path and the oracles sum
over integers and divide once at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

from .errors import NonSquare

Scalar = Union[int, Fraction]


@dataclass(frozen=True, slots=True)
class Matrix:
    """Immutable n x n matrix of exact scalars.

    The constructor checks the shape and each entry once, stores an integral
    ``Fraction`` as an int, and records whether all the entries are ints,
    which ``is_integral`` returns. A ragged row is ``NonSquare``, a
    ``ValueError`` too. Int subclasses are kept as they are. Rows given as
    lists, or as any sequence but a tuple, are copied into tuples, and rows
    holding an integral ``Fraction`` are rebuilt, so no entry can change
    after that check.
    """

    rows: tuple[tuple[Scalar, ...], ...]
    _integral: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = self.rows
        n = len(rows)
        if n < 1:
            raise ValueError("matrix needs n >= 1")
        copy = type(rows) is not tuple
        integral = True
        whole = False  # an integral Fraction, to be stored as an int
        for row in rows:
            if len(row) != n:
                raise NonSquare(f"{n} rows with widths {sorted({len(r) for r in rows})}")
            copy = copy or type(row) is not tuple
            # plain ints, the common case, skip the checks
            for x in row:
                if type(x) is int:
                    continue
                if isinstance(x, Fraction):
                    whole = whole or x.denominator == 1
                    integral = integral and x.denominator == 1
                elif isinstance(x, bool) or not isinstance(x, int):
                    raise TypeError(f"exact entry expected (int or Fraction), got {type(x).__name__}")
        if whole:
            rows = [[int(x) if isinstance(x, Fraction) and x.denominator == 1 else x for x in row] for row in rows]
        if copy or whole:
            object.__setattr__(self, "rows", tuple(map(tuple, rows)))
        object.__setattr__(self, "_integral", integral)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        """The matrix of these rows: ``Matrix(rows)``."""
        return cls(rows)

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
        """Whether every entry is an int, as the constructor found while it
        checked them."""
        return self._integral

    def __repr__(self) -> str:
        return f"Matrix({[list(r) for r in self.rows]})"


def _cleared_rows(M: Matrix) -> tuple[Sequence[Sequence[int]], int]:
    """Row i times the lcm d_i of its denominators, and the product of the d_i.

    The determinant is linear in each row, and so is any sum of products that
    take one entry from every row: over the cleared rows such a sum is the
    same sum over M times the product of the d_i. An integer matrix comes
    back as its own ``rows``, and a row of plain ints of a rational matrix as
    it is, with no lcm taken; in the other rows the plain ints are multiplied
    as they are, and only the other entries are read for their numerator and
    denominator. The rows are for reading: a route that writes into them,
    as ``oracle.bareiss_det`` does, copies them first.
    """
    if M._integral:
        return M.rows, 1
    rows = []
    clearing = 1
    for row in M.rows:
        denominators = [x.denominator for x in row if type(x) is not int]
        if not denominators:
            rows.append(row)
            continue
        d = math.lcm(*denominators)
        rows.append([x * d if type(x) is int else x.numerator * (d // x.denominator) for x in row])
        clearing *= d
    return rows, clearing


def _uncleared(value: int, clearing: int) -> Scalar:
    """value / clearing, as an int when it is integral."""
    if clearing == 1:
        return value
    result = Fraction(value, clearing)
    return int(result) if result.denominator == 1 else result

