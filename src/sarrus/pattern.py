"""The period-4 sign structure of basic strips.

A basic strip is the identity block laid out for size n: columns 1..n,1..n-1
with a start at each of the first n positions. Two booleans pin down its sign
structure completely: whether descending signs alternate start to start
(they do exactly when n is even, since one shift costs (-1)**(n-1)) and
whether the ascending diagonal's sign is flipped relative to the descending
one at the same start (exactly when floor(n/2) is odd, the cost of reversal).
Both booleans depend only on n mod 4, so sizes repeat in a cycle of four.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeTooSmall, _guard, _int_n
from .perm import Permutation, _sign_factors
from .scheme import _diagonals, expand_block

_PATTERN_LIMIT = 10_000

_RESIDUE_NAMES = {2: "4k+2", 3: "4k+3", 0: "4k+4", 1: "4k+5"}


@dataclass(frozen=True, slots=True)
class PatternClass:
    n: int
    residue_class: str
    shift_alternates: bool
    ascending_flips: bool

    def same_structure(self, other: "PatternClass") -> bool:
        return (
            self.shift_alternates == other.shift_alternates
            and self.ascending_flips == other.ascending_flips
        )


def classify(n: int) -> PatternClass:
    """Which of the four repeating sign structures size n falls into."""
    _int_n(n, "classify")
    if n < 2:
        raise SizeTooSmall("pattern classes start at n = 2")
    turn, flip = _sign_factors(n)
    return PatternClass(
        n=n,
        residue_class=_RESIDUE_NAMES[n % 4],
        shift_alternates=turn < 0,
        ascending_flips=flip < 0,
    )


def basic_strip_signs(n: int) -> list[tuple[int, int, int]]:
    """(start, descending_sign, ascending_sign) for the identity block strip.

    descending_sign at start p is (-1)**((p-1)(n-1)); the ascending sign is
    the descending one times (-1)**(n//2).
    """
    _int_n(n, "basic_strip_signs")
    if n < 2:
        raise SizeTooSmall("basic strips start at n = 2")
    _guard(n, "basic_strip_signs", "builds n rows", _PATTERN_LIMIT)
    return list(_diagonals(n, expand_block(Permutation.identity(n))))
