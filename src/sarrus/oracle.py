"""Scheme-free determinant computations used as ground truth.

Three independent routes: the permutation expansion, one loop that splits
the n! products into the even sum S_plus and the odd sum S_minus (Leibniz is
S_plus - S_minus); first-row cofactor expansion with each minor computed once
per column subset; and fraction-free elimination.

What the permutation expansion shares with scheme evaluation is the
clearing only: both clear rational rows to integers
(``matrix._cleared_rows``). Its terms are summed by its own kernel,
``_expansion(k)``, and which words are summed, and with which sign, comes
from elsewhere: here the words are all of S_k, written out when the kernel
is compiled, each signed by its inversion count, where the scheme path
reads its words off the strips and signs them by cycle decomposition, so
agreement between the routes is meaningful. No table of words or positions
is held. Past n = 5 the first n - 5 rows are placed one leading column at a
time, a column c with i smaller columns left over adding i inversions, and
the 5-row kernel sums the rest of each term. Operation counts are tallied
once per call, per minor size or per elimination step, never per term or
entry.

The elimination clears its rows the same way, and divides the integer
determinant by the product of the row lcms at the end; it shares no
kernel. The cofactor expansion shares neither: it works on the entries as
given, so it stays the independent check on the clearing.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable

from .counting import OpCounter
from .errors import _guard
from .matrix import Matrix, Scalar, _cleared_rows, _uncleared

# The cofactor expansion holds one minor per column subset: at n = 16 that is
# 2^16 minors and 2^19 multiplications, still desk scale.
_COFACTOR_LIMIT = 16

# The most rows one written-out expansion covers: 5! = 120 products, each
# word and its sign taken from its inversion count when the expansion is
# compiled; no table is held. Every n > 5 places its first n - 5 rows and sums
# the rest with the 5-row expansion. On a 2-vCPU host a 6-row one compiled in
# ~14 ms and was no faster on p/q entries at n = 8, and a 4-row one was slower.
_EXPANSION_ROWS = 5


@lru_cache(maxsize=None)
def _expansion(k: int) -> Callable[[list, tuple], tuple[int, int]]:
    """The function f(rows, columns) that gives the even and the odd sum of
    the k! products over the k ``rows`` on the k ``columns``, in order: the
    product of word w takes column ``columns[w[r]]`` of row r.

    The entries are unpacked into locals and each side is one written-out
    expression; each word's sign is its inversion count's parity, counted
    here. At k = 1 the odd side is 0. Compiled from a fixed template, as
    ``scheme._run_sum`` is, whose text depends on the int k only.
    """
    sides: tuple[list[str], list[str]] = ([], [])
    for word in itertools.permutations(range(k)):
        inversions = sum(a > b for a, b in itertools.combinations(word, 2))
        sides[inversions % 2].append(" * ".join(f"e{r}_{c}" for r, c in enumerate(word)))
    source = "def expansion(rows, columns):\n"
    source += f"    {', '.join(f'c{j}' for j in range(k))}, = columns\n"
    source += f"    {', '.join(f'r{r}' for r in range(k))}, = rows\n"
    # e{r}_{j}: row r on the j-th column
    for r in range(k):
        entries = ", ".join(f"r{r}[c{j}]" for j in range(k))
        source += f"    {', '.join(f'e{r}_{j}' for j in range(k))}, = {entries},\n"
    source += f"    return {' + '.join(sides[0])}, {' + '.join(sides[1]) or 0}\n"
    namespace: dict = {}
    exec(source, namespace)
    return namespace["expansion"]


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

    Up to n = 5 one call of the n-row expansion sums all n! terms. Past it,
    the first n - 5 rows are placed one leading column at a time, and the
    5-row expansion sums the last five rows on the columns each placement
    leaves over. All n! terms are still summed, each once.
    """
    _guard(M.n, what)
    n = M.n
    rows, clearing = _cleared_rows(M)
    k = min(n, _EXPANSION_ROWS)
    expansion = _expansion(k)
    last = rows[n - k :]
    sums = [0, 0]
    for lead, flip, columns in _placements(rows, n - k, tuple(range(n))):
        even, odd = expansion(last, columns)
        sums[flip] += lead * even
        sums[1 - flip] += lead * odd
    if ops is not None:
        terms = math.factorial(n)
        ops.term(k, terms)
        # one leading product per placement at each level, n! / (n - d)! at
        # depth d, and two lead * per leaf placement
        placed = sum(terms // math.factorial(n - d) for d in range(1, n - k + 1))
        ops.mul(placed + 2 * terms // math.factorial(k))
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
