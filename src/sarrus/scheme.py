"""Column-strip schemes: the data model, window extraction, validation, evaluation.

A *strip* is a row of column indices with designated start positions. Each
start yields two length-n windows: the descending diagonal (read with rows
1..n) and the ascending diagonal (rows n..1, i.e. the reversed word). A
*scheme* is a list of strips; it is complete when the windows, taken over all
starts of all strips, hit every permutation of {1..n} exactly once. Signs are
never stored in a scheme: each window contributes with the sign of its
permutation, which is what makes a complete scheme compute the determinant.

One walk, ``_runs``, takes a strip to its signed diagonals; validation,
evaluation, the sums, float evaluation, ``windows`` and rendering all read
it. It cuts the starts into maximal runs in which each window is the one
before it rotated left by one: when the column entering at p is the one
leaving, the window at p is the window at p - 1 rotated, so it is valid too
and its sign is the previous sign times (-1)**(n - 1). A window is checked
and signed only where a run begins, once per block.

One cached pass per scheme reads the walk and keeps its verdict and, for an
exact cover, the first window of each run, with no record per start. Cover
is checked per necklace class, by the paper's cyclic pattern: a class is n
pairs, each rotation of a word with its reverse, and a window rotated left
by one lies in the next pair round the cycle. So every run, of any length,
hits an arc of consecutive pairs, found from its first window
(``perm._class_place``), and is recorded in a bitmask under its class's key.
A run longer than the cycle wraps round, and the pairs it hits again, as
those another run hit, are duplicates. Below n = 3 a class is one pair. The
missing words are the unset pairs of the class keys, listed without a sweep
of S_n, and the even words hit are half of S_n less the even ones missed.

Evaluation reads the pass only, run by run, following the cyclic pattern
of the diagonals: a run of L starts is its first window read along 2L broken
diagonals, each signed from the run's first sign by ``perm._sign_factors``.
One kernel per (n, L), ``_run_sum``, unpacks the n matrix columns that a
first window names and adds its 2L diagonal products, with no walk of the
strips and no table of words. One pair of running sums, even and odd, goes
through every kernel, each side started by its first products, so a side of
t products costs the t - 1 additions that ``OpCounter`` tallies.

Exact evaluation runs over cleared rows, as the oracles do: each row of a
rational matrix is scaled to integers by the lcm of its denominators. Every
window takes one entry from each row, so the even and the odd sums both scale
by the product of those lcms, and are divided by it once at the end.

Everything here is an immutable value and every function is pure, apart
from the summary a pass keeps of its last report; so evaluation and
validation are safe to run concurrently. Exact arithmetic makes summation
order irrelevant; float evaluation sums run by run, and rounds accordingly.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

from .counting import OpCounter
from .errors import _FACTORIAL_LIMIT, ChainMismatch, InvalidScheme, InvalidWindow, SizeMismatch, _guard
from .matrix import Matrix, Scalar, _cleared_rows, _uncleared
from .perm import (
    Permutation, Sign, _class_pairs, _class_place, _class_words, _least_words, _sign_factors, _word_parity
)


@dataclass(frozen=True, slots=True)
class SchemeStrip:
    """A column sequence with start positions.

    The constructor checks types and ranges only (int columns in 1..n, int
    starts within bounds). Whether each window actually forms a permutation
    is diagnosed by ``validate`` and enforced by ``windows``; a mis-edited
    strip must remain representable so the validator can report on it.

    The hash is taken once, at construction: every lookup of a scheme's cached
    pass hashes its strips, and tuples do not keep their hash.
    """

    n: int
    columns: tuple[int, ...]
    starts: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # type(x) is int, not isinstance: a bool or an integral float would
        # pass the range checks and reach the words
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"strip needs an int n >= 1, got {self.n!r}")
        if len(self.columns) < self.n:
            raise ValueError("strip shorter than one window")
        bad = [c for c in self.columns if type(c) is not int or not 1 <= c <= self.n]
        if bad:
            raise ValueError(f"column indices not ints in 1..{self.n}: {bad}")
        limit = len(self.columns) - self.n + 1
        for p in self.starts:
            if type(p) is not int or not 1 <= p <= limit:
                raise ValueError(f"start {p!r} not an int in 1..{limit}")
        object.__setattr__(self, "_hash", hash((self.n, self.columns, self.starts)))

    def __hash__(self) -> int:
        return self._hash

    def window_at(self, p: int) -> tuple[int, ...]:
        """The n column indices beginning at start p (1-based); no bijection check."""
        return self.columns[p - 1 : p - 1 + self.n]


@dataclass(frozen=True, slots=True)
class Scheme:
    """One or more strips meant to jointly cover S_n exactly once.

    The hash is taken once, at construction, as a strip's is: every
    evaluation looks up the scheme's cached pass.
    """

    n: int
    strips: tuple[SchemeStrip, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.strips:
            raise ValueError("scheme needs at least one strip")
        for s in self.strips:
            if s.n != self.n:
                raise SizeMismatch(f"strip of size {s.n} in scheme of size {self.n}")
        object.__setattr__(self, "_hash", hash((self.n, self.strips)))

    def __hash__(self) -> int:
        return self._hash


class Window(NamedTuple):
    start: int
    descending: Permutation
    ascending: Permutation


class WindowRef(NamedTuple):
    """Locates one diagonal: strip and start are 1-based; direction is
    'descending', 'ascending', or 'both' for a self-reverse window."""

    strip: int
    start: int
    direction: str


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """Coverage diagnostics for a scheme.

    ``window_count`` is 2 x (total starts). ``covered``, ``even_count`` and
    ``odd_count`` count *distinct* permutations hit; a self-reverse window
    (possible only at n = 1) covers one permutation, not two. Listings are in
    lexicographic order of the permutation word.
    """

    n: int
    window_count: int
    covered: int
    duplicates: tuple[tuple[Permutation, tuple[WindowRef, ...]], ...]
    missing: tuple[Permutation, ...]
    invalid_windows: tuple[tuple[int, int], ...]
    even_count: int
    odd_count: int

    @property
    def is_valid(self) -> bool:
        return (
            not self.duplicates
            and not self.missing
            and not self.invalid_windows
            and _is_factorial(self.covered, self.n)
        )

    def summary(self) -> str:
        lines = [
            f"n = {self.n}",
            f"windows:    {self.window_count}",
            f"covered:    {self.covered} of {_factorial_text(self.n)}",
            f"even / odd: {self.even_count} / {self.odd_count}",
        ]
        if self.invalid_windows:
            spots = ", ".join(f"strip {s} start {p}" for s, p in self.invalid_windows)
            lines.append(f"invalid windows: {spots}")
        if self.duplicates:
            for perm, refs in self.duplicates:
                spots = ", ".join(f"strip {r.strip} start {r.start} {r.direction}" for r in refs)
                lines.append(f"duplicate {list(perm.images)}: {spots}")
        if self.missing:
            shown = ", ".join(str(list(p.images)) for p in self.missing[:10])
            more = "" if len(self.missing) <= 10 else f" (+{len(self.missing) - 10} more)"
            lines.append(f"missing: {shown}{more}")
        lines.append("VALID" if self.is_valid else "INVALID")
        return "\n".join(lines)


def expand_block(head: Permutation) -> SchemeStrip:
    """Lay out a head's block: its columns followed by its first n-1 columns
    again, with a start at every one of the first n positions."""
    return stitch_blocks([head])


def stitch_blocks(heads: Sequence[Permutation]) -> SchemeStrip:
    """Chain heads into one strip, merging the shared column at each junction.

    Each expanded block ends with its head's (n-1)-th column, which must equal
    the next head's first column; k blocks therefore stitch into
    k*(2n-1) - (k-1) columns, with block i's starts at i*(2n-2) + 1..n. Raises
    ChainMismatch with the 0-based junction index when two consecutive blocks
    do not share that column.
    """
    if not heads:
        raise ValueError("nothing to stitch")
    n = heads[0].n
    columns = [heads[0].images[0]]
    for i, head in enumerate(h.images for h in heads):
        if len(head) != n:
            raise SizeMismatch("heads of different sizes")
        if columns[-1] != head[0]:
            raise ChainMismatch(
                i - 1,
                f"junction {i - 1}: strip ends in column {columns[-1]} "
                f"but next block starts with {head[0]}",
            )
        columns += head[1:] + head[: n - 1]
    starts = tuple(i * (2 * n - 2) + p for i in range(len(heads)) for p in range(1, n + 1))
    return SchemeStrip(n=n, columns=tuple(columns), starts=starts)


def _runs(n: int, strip: SchemeStrip) -> Iterator[tuple[int, int, int]]:
    """The starts of a strip, in order, as maximal runs of rotations: (first
    start, length, sign of the first descending word). A start whose window
    repeats a column comes alone, as (start, 1, 0)."""
    columns = strip.columns
    first = length = sign = 0
    for p in strip.starts:
        if length and p == first + length and columns[p + n - 2] == columns[p - 2]:
            length += 1  # the window at p - 1, rotated left by one
            continue
        if length:
            yield first, length, sign
        w = columns[p - 1 : p + n - 1]
        if len(set(w)) == n:
            first, length, sign = p, 1, _word_parity(w)
        else:
            length = 0
            yield p, 1, 0
    if length:
        yield first, length, sign


def _diagonals(n: int, strip: SchemeStrip) -> Iterator[tuple[int, Sign, Sign]]:
    """(start, descending sign, ascending sign) at each valid start, in order."""
    turn, flip = _sign_factors(n)
    for first, length, sign in _runs(n, strip):
        if sign:
            for p in range(first, first + length):
                yield p, sign, sign * flip
                sign *= turn


@dataclass(frozen=True, slots=True)
class _SignedWindows:
    """The verdict of a walk of every strip: the words checked for cover.

    ``invalid`` holds the 1-based (strip, start) of each window that repeats a
    column; ``duplicates`` each word hit more than once, in lexicographic
    order, with where it was hit. ``covered`` counts distinct words.
    When some words are missing, ``cover`` maps the key of each necklace
    class hit to the bitmask of its pairs hit (see ``perm._class_place``);
    otherwise it is empty. ``summary`` holds the summary of the last
    ``validate`` report of a scheme that is no exact cover, so that a refusal
    can quote it without listing missing words again; the text, not the
    report, since the report's missing words can number up to n!.

    ``runs`` holds, for an exact cover, every run of rotations that the walk
    found, as (length, sign of its first descending word, first windows): the
    first window of each run of that length and sign, n columns each, in one
    ``bytes``, about a byte a start. Evaluation reads each run's diagonals
    off its first window (see ``_run_sum``). Columns fit in a byte because
    past n = 9 only a scheme with at least n! windows reaches the pass
    (``_refuse_unsweepable``), so none with n >= 256 does. A scheme that is
    no exact cover records no runs, so ``runs`` is non-empty exactly when no
    window is invalid and the diagonals hit every permutation once.
    """

    invalid: tuple[tuple[int, int], ...]
    duplicates: tuple[tuple[tuple[int, ...], tuple[WindowRef, ...]], ...]
    covered: int
    cover: dict[tuple[int, ...], int]
    runs: tuple[tuple[int, Sign, bytes], ...]
    summary: list[str] = field(default_factory=list, compare=False, repr=False)


def _factorial_past(n: int, cap: int) -> int:
    """n!, or its first partial product above cap: compares with a count <= cap as n! does."""
    product = 1
    for k in range(2, n + 1):
        product *= k
        if product > cap:
            break
    return product


def _factorial_text(n: int) -> str:
    """n! in digits up to the sweep limit, and as "n!" past it."""
    return str(math.factorial(n)) if n <= _FACTORIAL_LIMIT else f"{n}!"


def _is_factorial(count: int, n: int) -> bool:
    return _factorial_past(n, count) == count


# At n = 9 one window leaves 362,878 words to list, in ~3 s and ~80 MB; at
# n = 10 it leaves 3,628,798, in ~30 s and ~730 MB.
_LISTING_LIMIT = 9


def _refuse_unsweepable(sch: Scheme) -> None:
    """Past the listing limit, refuse before its pass a scheme with fewer than
    n! windows, whose missing words could number nearly n!."""
    if sch.n > _LISTING_LIMIT:
        count = 2 * sum(len(strip.starts) for strip in sch.strips)
        if count < _factorial_past(sch.n, count):
            _guard(sch.n, "validate", "lists up to n! missing permutations", _LISTING_LIMIT)


def _arc(pairs: int, j: int, step: Sign, m: int) -> int:
    """The bitmask of the m >= 1 consecutive pairs from pair j in direction
    step on a cycle of ``pairs``: every pair once m reaches the cycle."""
    full = (1 << pairs) - 1
    if m >= pairs:
        return full
    arc = ((1 << m) - 1) << (j if step > 0 else j - m + 1) % pairs
    return (arc | arc >> pairs) & full


@lru_cache(maxsize=128)
def _signed_windows(sch: Scheme) -> _SignedWindows:
    # Schemes are immutable, so the pass is shared by every later call. It
    # keeps its verdict and each run's first window, not the words.
    n = sch.n
    pairs = _class_pairs(n)
    invalid: list[tuple[int, int]] = []
    cover: dict[tuple[int, ...], int] = {}  # the pairs hit, by class key
    twice: dict[tuple[int, ...], int] = {}  # the pairs hit more than once
    firsts: defaultdict[tuple[int, Sign], list[int]] = defaultdict(list)
    for si, strip in enumerate(sch.strips, start=1):
        columns = strip.columns
        for first, length, sign in _runs(n, strip):
            if not sign:
                invalid.append((si, first))
                continue
            w = columns[first - 1 : first + n - 1]
            firsts[length, sign] += w
            # the run's first ``pairs`` starts hit an arc of its class's
            # cycle, and the rest wrap round and hit that arc again
            key, j, step = _class_place(w)
            hit = _arc(pairs, j, step, length)
            old = cover.get(key, 0)
            cover[key] = old | hit
            again = old & hit
            if length > pairs:
                again |= _arc(pairs, j, step, length - pairs)
            if again:
                twice[key] = twice.get(key, 0) | again
    # two words a pair, and one at n = 1
    covered = sum(map(int.bit_count, cover.values())) * min(n, 2)
    repeated = {w for key, bits in twice.items() for w in _class_words(key, bits)}
    # only a listing of missing words reads the cover again
    short = not _is_factorial(covered, n)
    exact_cover = not invalid and not repeated and not short
    return _SignedWindows(
        invalid=tuple(invalid),
        duplicates=_where_hit(sch, repeated) if repeated else (),
        covered=covered,
        cover=cover if short else {},
        runs=tuple((*run, bytes(w)) for run, w in sorted(firsts.items())) if exact_cover else (),
    )


def _where_hit(
    sch: Scheme, repeated: set[tuple[int, ...]]
) -> tuple[tuple[tuple[int, ...], tuple[WindowRef, ...]], ...]:
    """Each repeated word, in lexicographic order, with every diagonal that hits it."""
    refs: dict[tuple[int, ...], list[WindowRef]] = {w: [] for w in sorted(repeated)}
    directions = ("both",) if sch.n == 1 else ("descending", "ascending")
    for si, strip in enumerate(sch.strips, start=1):
        for p, _, _ in _diagonals(sch.n, strip):
            w = strip.window_at(p)
            for word, direction in zip((w, w[::-1]), directions):
                if word in refs:
                    refs[word].append(WindowRef(si, p, direction))
    return tuple((w, tuple(r)) for w, r in refs.items())


def windows(s: SchemeStrip) -> list[Window]:
    """Both diagonals at every start; raises InvalidWindow if a window repeats
    a column index."""
    out = []
    for first, length, sign in _runs(s.n, s):
        if not sign:
            raise InvalidWindow(first)
        for p in range(first, first + length):
            w = s.window_at(p)
            out.append(Window(p, Permutation(w), Permutation(w[::-1])))
    return out


def validate(sch: Scheme) -> ValidationReport:
    """Check a scheme against S_n. Defects are reported, not raised.

    Cost is O(total windows), plus a listing of the missing permutations when
    some are missing. Beyond n = 9, a scheme with fewer than n! windows is
    refused with SizeLimitExceeded before the pass; with more, the listing
    costs no more than the pass. The pass reads the walk of each strip and
    records each run as the arc of its necklace class's pairs that it hits
    (see the module notes); for an exact cover it also records each run's
    first window, which is all evaluation reads. The even count is half of
    S_n (its one word at n = 1) less the even words missing.
    """
    n = sch.n
    _refuse_unsweepable(sch)
    signed = _signed_windows(sch)
    missing = () if _is_factorial(signed.covered, n) else _missing(sch, signed)
    even = (math.factorial(n) + 1) // 2 - sum(_word_parity(p.images) > 0 for p in missing)
    report = ValidationReport(
        n=n,
        window_count=2 * sum(len(strip.starts) for strip in sch.strips),
        covered=signed.covered,
        duplicates=tuple((Permutation(w), refs) for w, refs in signed.duplicates),
        missing=missing,
        invalid_windows=signed.invalid,
        even_count=even,
        odd_count=signed.covered - even,
    )
    if not signed.runs:
        signed.summary[:] = [report.summary()]
    return report


def _missing(sch: Scheme, signed: _SignedWindows) -> tuple[Permutation, ...]:
    """The words of S_n that no diagonal hits, in lexicographic order.

    Walk the key of every class, skip the classes whose pairs are all hit,
    and list the words of the unset pairs of the rest: no sweep of S_n.
    When every class was hit, as in a scheme with one column mis-edited, the
    cover's own keys are every key, and the walk reads those.
    """
    n = sch.n
    full = (1 << _class_pairs(n)) - 1
    # (n - 1)!/2 classes, and one below n = 3
    every_class = len(signed.cover) == max(math.factorial(n - 1) // 2, 1)
    words = []
    for key in signed.cover if every_class else _least_words(n):
        bits = signed.cover.get(key, 0)
        if bits != full:
            words += _class_words(key, ~bits)
    return tuple(map(Permutation, sorted(words)))


def _complete(sch: Scheme) -> _SignedWindows:
    _refuse_unsweepable(sch)
    signed = _signed_windows(sch)
    if not signed.runs:
        # quote the report of an earlier validate, or make one
        summary = signed.summary[0] if signed.summary else validate(sch).summary()
        raise InvalidScheme("scheme failed validation:\n" + summary)
    return signed


def _signed_sums(sch: Scheme, M: Matrix, ops: OpCounter | None) -> tuple[int, int, int]:
    """The even and odd window sums over the cleared rows, and the clearing."""
    if M.n != sch.n:
        raise SizeMismatch(f"matrix is {M.n}x{M.n} but scheme expects n = {sch.n}")
    signed = _complete(sch)
    if ops is not None:
        ops.term(sch.n, signed.covered)
        # the first term landing in each running sum is not an addition
        ops.add(max(signed.covered - 2, 0))
    if M.is_integral():  # the sums only read the rows: no cleared copy
        return *_even_odd_sums(sch.n, signed, M.rows), 1
    rows, clearing = _cleared_rows(M)
    return *_even_odd_sums(sch.n, signed, rows), clearing


def _even_odd_sums(n: int, signed: _SignedWindows, rows: Sequence[Sequence]) -> tuple:
    """The even and the odd diagonal sums over rows, run by run from the pass:
    one pair of running sums, each started by its first product, that every
    kernel continues."""
    columns = [(), *zip(*rows)]  # 1-based, as the strips name them
    even = odd = None
    for length, sign, firsts in signed.runs:
        if sign > 0:
            even, odd = _run_sum(n, length)(columns, firsts, even, odd)
        else:
            odd, even = _run_sum(n, length)(columns, firsts, odd, even)
    # only at n = 1 is a side, the odd one, left with no products
    return even, 0 if odd is None else odd


@lru_cache(maxsize=None)
def _run_sum(n: int, length: int) -> Callable[[list, bytes, object, object], tuple]:
    """The function f(columns, firsts, same, other) that adds the diagonals of
    runs of ``length`` rotations to a pair of running sums, given each run's
    first window as n bytes of ``firsts``, and ``columns[c]``, column c of the
    matrix by row.

    At offset k, row r of the descending diagonal reads column (r + k) mod n
    of the first window, and of the ascending one column (n - 1 - r + k) mod
    n; each product takes its rows in order. Products signed as the first
    window go to ``same``, the others to ``other``. Each run's products are
    summed before they meet the running sum, and a sum that is still None
    starts from them, so a side of t products costs t - 1 additions however
    its runs fall into kernels. Compiled from a fixed template, as
    ``oracle._expansion`` is, whose text depends on the ints n and length
    only.
    """
    turn, flip = _sign_factors(n)
    products: dict[int, list[str]] = {1: [], -1: []}
    for k in range(length):
        products[turn**k].append(" * ".join(f"e{(r + k) % n}_{r}" for r in range(n)))
        if n > 1:  # at n = 1 the window is its own reverse
            products[turn**k * flip].append(" * ".join(f"e{(n - 1 - r + k) % n}_{r}" for r in range(n)))
    source = "def run_sum(columns, firsts, same, other):\n"
    source += f"    for {', '.join(f'c{j}' for j in range(n))}, in zip(*[iter(firsts)] * {n}):\n"
    # e{j}_{r}: row r of the j-th column of the first window
    source += "".join(f"        {', '.join(f'e{j}_{r}' for r in range(n))}, = columns[c{j}]\n" for j in range(n))
    for name, side in (("same", 1), ("other", -1)):
        if products[side]:
            terms = " + ".join(products[side])
            source += f"        {name} = {terms} if {name} is None else {name} + ({terms})\n"
    namespace: dict = {}
    exec(source + "    return same, other\n", namespace)
    return namespace["run_sum"]


def evaluate(sch: Scheme, M: Matrix, *, ops: OpCounter | None = None) -> Scalar:
    """det(M) as the signed sum over every window's diagonal product.

    Exact: the windows are summed over the cleared integer rows, and the
    difference of the two sums is divided by the clearing once, so the result
    is an int, or a Fraction when it is not integral. The optional ``ops``
    counter tallies terms, multiplications (both conventions) and additions
    on the real code path.
    """
    s_plus, s_minus, clearing = _signed_sums(sch, M, ops)
    if ops is not None:
        ops.add(1)
    return _uncleared(s_plus - s_minus, clearing)


def positive_negative_sums(
    sch: Scheme, M: Matrix, *, ops: OpCounter | None = None
) -> tuple[Scalar, Scalar]:
    """The even-window and odd-window product sums; det = S_plus - S_minus."""
    s_plus, s_minus, clearing = _signed_sums(sch, M, ops)
    return _uncleared(s_plus, clearing), _uncleared(s_minus, clearing)


def evaluate_float(sch: Scheme, rows: Sequence[Sequence[float]]) -> float:
    """Convenience float evaluation of a valid scheme.

    No exactness guarantee: float products and sums round, so this is for
    quick numeric use only; the exact path is ``evaluate``.
    """
    n = sch.n
    if len(rows) != n or any(len(r) != n for r in rows):
        raise SizeMismatch(f"need a {n}x{n} array of numbers")
    signed = _complete(sch)
    # 1.0 * x: each entry meets float arithmetic, and a non-number fails here
    s_plus, s_minus = _even_odd_sums(n, signed, [[1.0 * x for x in row] for row in rows])
    return s_plus - s_minus
