"""Scheme-free determinant computations used as ground truth.

Three independent routes: the permutation expansion, one loop that splits
the n! products into the even sum S_plus and the odd sum S_minus (Leibniz is
S_plus - S_minus); first-row cofactor expansion with each minor computed once
per column subset; and fraction-free elimination.

What the permutation expansion shares with scheme evaluation is the
clearing only: both clear rational rows to integers
(``matrix._cleared_rows``). The terms are summed by a product-sum kernel
(``matrix._product_sum``) that scheme evaluation does not use, and which
words are summed, and with which sign, comes from elsewhere: here the
words are all of S_n and each sign comes from inversion counting, where the
scheme path reads its words off the strips and signs them by cycle
decomposition, so agreement between the routes is meaningful. The
inversions are counted by leading-column composition: a word is a leading
column followed by a shorter word on the other columns, and the leading
column c adds c inversions. Words are held in one cached table of entry
positions, split by sign, for n <= 5 only: 5! = 120 words, small enough to
stay in cache. Every n > 5 streams from that 5-table, one leading column at
a time for each of the first n - 5 rows. Operation counts are tallied once
per call, per minor size or per elimination step, never per term or entry.

The elimination clears its rows the same way, and divides the integer
determinant by the product of the row lcms at the end; it shares no
kernel. The cofactor expansion shares neither: it works on the entries as
given, so it stays the independent check on the clearing.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import itemgetter

from .counting import OpCounter
from .errors import _guard
from .matrix import Matrix, Scalar, _cleared_rows, _product_sum, _uncleared

# The cofactor expansion holds one minor per column subset: at n = 16 that is
# 2^16 minors and 2^19 multiplications, still desk scale.
_COFACTOR_LIMIT = 16

# The largest sign table held: 5! = 120 words of 5 positions, ~10 kB, which
# stays in cache. Every n > 5 streams from this table; at n = 8 that is faster
# than reading an 8! table (~5 MB), and on p/q entries each inner product has
# 5 cleared factors instead of 8.
_TABLE_LIMIT = 5


@lru_cache(maxsize=None)
def _signed_perms(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The words of S_n as (even, odd), each word as the row-major positions
    r * n + w[r] of its n entries, in lexicographic order. The expansion
    asks for n <= _TABLE_LIMIT only.

    A word of S_k is a leading column c followed by a word of S_(k-1)
    relabelled onto the other k - 1 columns. Exactly c of the later entries
    are smaller than c (its Lehmer digit), so the word's parity is the
    sub-word's, flipped when c is odd. The table is built from S_1 upward in
    this one call, so the cache holds one entry per n asked for.
    """
    even: list[tuple[int, ...]] = [(0,)]
    odd: list[tuple[int, ...]] = []
    for k in range(2, n + 1):
        m = k - 1
        # Each getter reads from a relabelling table its slot m * m, which
        # holds the leading column, then the sub-word's positions.
        from_even = [itemgetter(m * m, *w) for w in even]
        from_odd = [itemgetter(m * m, *w) for w in odd]
        even, odd = [], []
        for c in range(k):
            # position r * m + j of the sub-word moves to row r + 1, and to
            # column j, or j + 1 past the leading column
            relabel = [(r + 1) * k + j + (j >= c) for r in range(m) for j in range(m)]
            relabel.append(c)
            same, flipped = (from_even, from_odd) if c % 2 == 0 else (from_odd, from_even)
            even += [get(relabel) for get in same]
            odd += [get(relabel) for get in flipped]
    return tuple(even), tuple(odd)


def _placements(rows: list[list[int]], depth: int, columns: tuple[int, ...], lead=1, odd=0):
    """Each way to give the first ``depth`` of ``rows`` distinct columns: the
    product of those entries, the parity of their Lehmer digits, and the
    columns left over, in order."""
    if depth == 0:
        yield lead, odd, columns
        return
    row = rows[len(rows) - len(columns)]
    for i, c in enumerate(columns):
        # exactly i of the columns left over are smaller than c
        rest = columns[:i] + columns[i + 1 :]
        yield from _placements(rows, depth - 1, rest, lead * row[c], odd ^ (i & 1))


def _parity_sums(M: Matrix, what: str, ops: OpCounter | None) -> tuple[int, int, int]:
    """The even and odd product sums over the cleared rows, and the clearing.

    Up to n = 5 one pass runs over the flattened rows. Past it, the first
    n - 5 rows are placed one leading column at a time, and the terms below
    each placement are streamed from the 5-table (120 words): the last five
    rows on the columns left over are laid out as a 5 x 5 grid, which
    relabels the entries so the table's positions read them directly. All
    n! terms are still summed, each once.
    """
    _guard(M.n, what)
    n = M.n
    rows, clearing = _cleared_rows(M)
    k = min(n, _TABLE_LIMIT)
    even, odd = _signed_perms(k)
    product_sum = _product_sum(k)
    sums = [0, 0]
    for lead, flip, columns in _placements(rows, n - k, tuple(range(n))):
        entries = [row[c] for row in rows[n - k :] for c in columns]
        sums[flip] += lead * product_sum(entries, even)
        sums[1 - flip] += lead * product_sum(entries, odd)
    if ops is not None:
        terms = math.factorial(n)
        ops.term(n, terms)
        # the first term in each running sum is no addition; at n = 1 one sum is empty
        ops.add(max(terms - 2, 0))
    return sums[0], sums[1], clearing


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
