"""Scheme-free determinant computations used as ground truth.

Three independent routes: the permutation expansion, one loop that splits
the n! products into the even sum S_plus and the odd sum S_minus (Leibniz is
S_plus - S_minus); first-row cofactor expansion with each minor computed once
per column subset, held in a list indexed by the subset's column bitmask;
and fraction-free elimination.

What the permutation expansion shares with scheme evaluation is the
clearing only: both clear rational rows to integers
(``matrix._cleared_rows``). Its terms are summed by its own kernel,
``_expansion(k)``, and which words are summed, and with which sign, comes
from elsewhere: here the words are all of S_k, written out when the kernel
is compiled, each signed by its inversion count, where the scheme path
reads its words off the strips and signs them by cycle decomposition, so
agreement between the routes is meaningful. No table of words or positions
is held. The kernel forms each of its k! terms as one prefix times one pair:
the product of the first k - 2 rows on an ordered prefix of the columns,
shared by the two terms that end on it, and the product of the last two
rows on the remaining two, shared by the (k - 2)! terms that start on the
other k - 2 columns. Past n = 5 the first n - 5 rows are placed one leading
column at a time, a column c with i smaller columns left over adding i
inversions, and the 5-row kernel sums the rest of each term. Operation
counts are the operations run, tallied once per call, per minor size or per
elimination step, never per term or entry.

The elimination clears its rows the same way, and divides the integer
determinant by the product of the row lcms at the end; it shares no
kernel. The cofactor expansion shares neither. It clears rational columns
instead, with a few lines of its own: the determinant is linear in each
column as it is in each row, so column j scaled by the lcm e_j of its
denominators multiplies the determinant by e_j, and the minors run over
ints with one division by the product of the e_j at the end. No row lcm
enters it, so a fault in the row clearing still shows up as a
disagreement with the cofactor expansion.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .counting import OpCounter
from .errors import _guard
from .matrix import Matrix, Scalar, _cleared_rows, _uncleared

# The cofactor expansion holds one minor per column subset: at n = 16 that is
# 2^16 minors and 2^19 multiplications, still desk scale.
_COFACTOR_LIMIT = 16

# The most rows one written-out expansion covers: 5! = 120 products, each
# word and its sign taken from its inversion count when the expansion is
# compiled; no table is held. Every n > 5 places its first n - 5 rows and sums
# the rest with the 5-row expansion. On a 2-vCPU host the 6-row one compiled
# in 13-15 ms against 1.3-2.5 ms and summed n = 8 at most ~10 % faster, a
# cost every cold start would pay; a 4-row one took twice as long at n = 8.
_EXPANSION_ROWS = 5


@lru_cache(maxsize=None)
def _expansion(k: int) -> Callable[[list, tuple], tuple[int, int]]:
    """The function f(rows, columns) that gives the even and the odd sum of
    the k! products over the k ``rows`` on the k ``columns``, in order: the
    product of word w takes column ``columns[w[r]]`` of row r.

    The entries are unpacked into locals, and so are two kinds of shared
    product: each ordered prefix on rows 0..k-3, built from the prefix one
    row shorter, and the k(k-1) pair products of the last two rows. Each of
    the k! terms is then one prefix * pair, added to the side its inversion
    count picks: 20 + 60 prefixes, 20 pairs and 120 terms at k = 5, 220
    multiplications against 480 for the products written out in full. At
    k = 2 a term is its pair, at k = 1 its entry, and the odd side is 0.
    Compiled from a fixed template, as ``scheme._run_sum`` is from n, p,
    quad and its mode; this text depends on the int k only.
    """

    def prefix(word: tuple[int, ...]) -> str:
        # the product of rows 0..len(word)-1 on the columns word
        return f"e0_{word[0]}" if len(word) == 1 else "p" + "".join(map(str, word))

    source = "def expansion(rows, columns):\n"
    source += f"    {', '.join(f'c{j}' for j in range(k))}, = columns\n"
    source += f"    {', '.join(f'r{r}' for r in range(k))}, = rows\n"
    # e{r}_{j}: row r on the j-th column
    for r in range(k):
        entries = ", ".join(f"r{r}[c{j}]" for j in range(k))
        source += f"    {', '.join(f'e{r}_{j}' for j in range(k))}, = {entries},\n"
    for d in range(2, k - 1):
        for word in itertools.permutations(range(k), d):
            source += f"    {prefix(word)} = {prefix(word[:-1])} * e{d - 1}_{word[-1]}\n"
    # q{a}{b}: row k-2 on column a times row k-1 on column b
    for a, b in itertools.permutations(range(k), 2):
        source += f"    q{a}{b} = e{k - 2}_{a} * e{k - 1}_{b}\n"
    sides: tuple[list[str], list[str]] = ([], [])
    for word in itertools.permutations(range(k)):
        inversions = sum(a > b for a, b in itertools.combinations(word, 2))
        term = f"q{word[-2]}{word[-1]}" if k > 1 else "e0_0"
        if k > 2:
            term = f"{prefix(word[:-2])} * {term}"
        sides[inversions % 2].append(term)
    source += f"    return {' + '.join(sides[0])}, {' + '.join(sides[1]) or 0}\n"
    namespace: dict = {}
    exec(source, namespace)
    return namespace["expansion"]


def _placements(rows: Sequence[Sequence[int]], depth: int, columns: tuple[int, ...], lead=1, odd=0):
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
    leaves over. All n! terms are still formed and summed, each once. The
    tally is the operations run: the leading products, and per leaf
    placement the kernel's prefixes, pairs and prefix * pair terms and the
    two lead *; and n! - 2 additions, as each side starts from the first
    leaf's sum.
    """
    _guard(M.n, what)
    n = M.n
    rows, clearing = _cleared_rows(M)
    k = min(n, _EXPANSION_ROWS)
    expansion = _expansion(k)
    last = rows[n - k :]
    leaves = _placements(rows, n - k, tuple(range(n)))
    lead, _, columns = next(leaves)  # even: it takes the least column left at each row
    sums = [lead * x for x in expansion(last, columns)]  # so no 0 + sum runs
    for lead, flip, columns in leaves:
        even, odd = expansion(last, columns)
        sums[flip] += lead * even
        sums[1 - flip] += lead * odd
    if ops is not None:
        terms = math.factorial(n)
        ops.terms += terms
        # one leading product per placement at each level, n!/(n - d)! at depth
        # d; per leaf placement, the kernel's prefixes on 2..k-2 rows, its pairs,
        # one prefix * pair per term past k = 2, and two lead *
        placed = sum(math.perm(n, d) for d in range(1, n - k + 1))
        kernel = sum(math.perm(k, d) for d in range(2, k - 1)) + math.perm(k, 2)
        kernel += math.factorial(k) if k > 2 else 0
        ops.mul(placed + terms // math.factorial(k) * (kernel + 2))
        # the first term on each side is no addition; at n = 1 one side is empty
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

    The minor on the last m rows and a column set S is itself expanded
    along its first row, into minors on the last m - 1 rows. It is computed
    once and shared by every larger minor whose columns contain S, so the
    expansion is built bottom-up over column subsets:
    n * 2^(n-1) - n multiplications instead of about e * n!. The minors sit
    in one list of 2^n slots, indexed by the bitmask of S (0.5 MB of slots
    at n = 16), so a term reads its minor with one xor and no key is built.
    Each minor's sum starts from its first term, so the m * C(n, m)
    multiplications and (m - 1) * C(n, m) additions tallied per size are
    the ones run.

    A rational matrix has each column j scaled by the lcm e_j of its
    denominators first, so the minors are ints, and the determinant is
    divided by the product of the e_j once at the end; an integral result
    comes back as an int. The columns are cleared here, not by the rows'
    ``_cleared_rows``, so this expansion stays the independent check on
    that clearing. An integer matrix is read as it is, with no copy, and no
    route tallies its clearing.
    """
    n = M.n
    _guard(n, "cofactor_det", "holds 2^n minors", _COFACTOR_LIMIT)
    rows = M.rows
    clearing = 1
    if not M.is_integral():
        columns = []
        for column in zip(*rows):
            e = math.lcm(*[x.denominator for x in column if type(x) is not int])
            columns.append([x * e if type(x) is int else x.numerator * (e // x.denominator) for x in column])
            clearing *= e
        rows = list(zip(*columns))
    bits = [1 << c for c in range(n)]
    # minors[S]: the minor on the last |S| rows and the columns in the bitmask S
    minors: list = [None] * (1 << n)
    for c, x in enumerate(rows[n - 1]):
        minors[bits[c]] = x
    for m in range(2, n + 1):
        row = rows[n - m]
        subsets = zip(itertools.combinations(range(n), m), map(sum, itertools.combinations(bits, m)))
        for cols, S in subsets:
            c = cols[0]
            total = row[c] * minors[S ^ bits[c]]
            for k in range(1, m):
                c = cols[k]
                term = row[c] * minors[S ^ bits[c]]
                total = total - term if k & 1 else total + term
            minors[S] = total
        if ops is not None:
            count = math.comb(n, m)
            ops.mul(m * count)
            ops.add((m - 1) * count)
    if clearing == 1:
        return minors[-1]
    det = Fraction(minors[-1], clearing)
    return int(det) if det.denominator == 1 else det


def bareiss_det(M: Matrix, *, ops: OpCounter | None = None) -> Scalar:
    """Fraction-free elimination: O(n^3) exact determinant.

    Rational rows are cleared to integers first (``_cleared_rows``), and the
    integer determinant is divided by the clearing factor at the end. Every
    intermediate division in the elimination itself is exact by construction.
    The elimination writes into its rows, so it copies the cleared rows into
    lists of its own.
    """
    n = M.n
    cleared, clearing = _cleared_rows(M)
    rows = [list(row) for row in cleared]
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
