"""Scheme-free determinant computations used as ground truth.

Three independent routes: the permutation expansion, one loop that splits
the n! products into the even sum S_plus and the odd sum S_minus (Leibniz is
S_plus - S_minus); first-row cofactor expansion with each minor computed once
per column subset; and fraction-free elimination. They share no code with the
scheme path: permutation signs here come from inversion counting, not from
the cycle decomposition the rest of the library uses, so agreement between
routes is meaningful. Operation counts are tallied once per call, per minor
size or per elimination step, never per term or entry.

The permutation expansion and the elimination run over integers: each row is
first scaled by the lcm of its denominators, and the result divided by the
product of those lcms. That clearing (``matrix._cleared_rows``) is shared with
scheme evaluation. The cofactor expansion works on the entries as given, so
it stays the independent check on the clearing.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .counting import OpCounter
from .errors import _guard
from .matrix import Matrix, Scalar, _cleared_rows, _uncleared

# The cofactor expansion holds one minor per column subset: at n = 16 that is
# 2^16 minors and 2^19 multiplications, still desk scale.
_COFACTOR_LIMIT = 16


def _sign_by_inversions(word: tuple[int, ...]) -> int:
    inv = 0
    for i in range(len(word)):
        wi = word[i]
        for j in range(i + 1, len(word)):
            if wi > word[j]:
                inv += 1
    return -1 if inv % 2 else 1


@lru_cache(maxsize=None)
def _signed_perms(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    # 0-based words; cached only where the table stays small.
    return tuple(
        (p, _sign_by_inversions(p)) for p in itertools.permutations(range(n))
    )


def _iter_signed_perms(n: int):
    if n <= 8:
        return _signed_perms(n)
    return ((p, _sign_by_inversions(p)) for p in itertools.permutations(range(n)))


def _parity_sums(M: Matrix, what: str, ops: OpCounter | None) -> tuple[int, int, int]:
    """The even and odd product sums over the cleared rows, and the clearing."""
    _guard(M.n, what)
    n = M.n
    rows, clearing = _cleared_rows(M)
    s_plus = 0
    s_minus = 0
    for word, sign in _iter_signed_perms(n):
        prod = 1
        for r in range(n):
            prod *= rows[r][word[r]]
        if sign == 1:
            s_plus += prod
        else:
            s_minus += prod
    if ops is not None:
        terms = math.factorial(n)
        ops.term(n, terms)
        # the first term in each running sum is no addition; at n = 1 one sum is empty
        ops.add(max(terms - 2, 0))
    return s_plus, s_minus, clearing


def leibniz_det(M: Matrix, *, ops: OpCounter | None = None) -> Scalar:
    """The n!-term permutation expansion, exact: S_plus - S_minus."""
    s_plus, s_minus, clearing = _parity_sums(M, "leibniz_det", ops)
    if ops is not None:
        ops.add(1)
    return _uncleared(s_plus - s_minus, clearing)


def parity_partition_sums(M: Matrix, *, ops: OpCounter | None = None) -> tuple[Scalar, Scalar]:
    """(S_plus, S_minus): product sums over even and odd permutations.

    S_plus - S_minus = det(M); for n = 5 each side collects 60 of the 120
    products.
    """
    s_plus, s_minus, clearing = _parity_sums(M, "parity_partition_sums", ops)
    return _uncleared(s_plus, clearing), _uncleared(s_minus, clearing)


def cofactor_det(M: Matrix, *, ops: OpCounter | None = None) -> Scalar:
    """Expansion by minors along the first row, exact.

    The minor on the last m rows and a sorted column tuple S is itself
    expanded along its first row, into minors on the last m - 1 rows. It is
    computed once and shared by every larger minor whose columns contain S,
    so the expansion is built bottom-up over column subsets:
    n * 2^(n-1) - n multiplications instead of about e * n!. Entries are used
    as given, rationals included.
    """
    n = M.n
    _guard(n, "cofactor_det", "holds 2^n minors", _COFACTOR_LIMIT)
    rows = M.rows
    minors = {(c,): x for c, x in enumerate(rows[n - 1])}
    for m in range(2, n + 1):
        row = rows[n - m]
        wider = {}
        for cols in itertools.combinations(range(n), m):
            total: Scalar = 0
            for k, c in enumerate(cols):
                term = row[c] * minors[cols[:k] + cols[k + 1 :]]
                total = total - term if k % 2 else total + term
            wider[cols] = total
        if ops is not None:
            ops.mul(m * len(wider))
            ops.add((m - 1) * len(wider))
        minors = wider
    return minors[tuple(range(n))]


def bareiss_det(M: Matrix, *, ops: OpCounter | None = None) -> Scalar:
    """Fraction-free elimination: O(n^3) exact determinant.

    Rational rows are cleared to integers first (``_cleared_rows``), and the
    integer determinant is divided by the clearing factor at the end. Every
    intermediate division in the elimination itself is exact by construction.
    """
    n = M.n
    rows, clearing = _cleared_rows(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * pivot - rik * rows[k][j]) // prev
            rows[i][k] = 0
        if ops is not None:
            m = (n - k - 1) ** 2  # entries eliminated in this step
            ops.mul(2 * m)
            ops.add(m)
            ops.div(m)
        prev = pivot
    return _uncleared(sign * rows[n - 1][n - 1], clearing)
