"""Column-strip schemes: the data model, window extraction, validation, evaluation.

A *strip* is a row of column indices with designated start positions. Each
start yields two length-n windows: the descending diagonal (read with rows
1..n) and the ascending diagonal (rows n..1, i.e. the reversed word). A
*scheme* is a list of strips; it is complete when the windows, taken over all
starts of all strips, hit every permutation of {1..n} exactly once. Signs are
never stored in a scheme: each window contributes with the sign of its
permutation, which is what makes a complete scheme compute the determinant.

One walk, ``_runs``, takes a strip to its signed diagonals; validation,
``windows`` and rendering read it. It cuts the starts into maximal runs in
which each window is the one before it rotated left by one: when the column
entering at p is the one leaving, the window at p is the window at p - 1
rotated, so it is valid too and its sign is the previous sign times
(-1)**(n - 1). A window is checked and signed only where a run begins, once
per block.

One pass per scheme reads the walk and keeps its verdict, with no record
per start. Cover is checked per necklace class, by the paper's cyclic
pattern: a class is n pairs, each rotation of a word with its reverse, and
a window rotated left by one lies in the next pair round the cycle. So
every run, of any length, hits an arc of consecutive pairs, found from its
first window (``perm._class_place``), and is recorded in a bitmask under
its class's key. A run longer than the cycle wraps round, and the pairs it
hits again, as those another run hit, are duplicates. Below n = 3 a class
is one pair. The missing words are the unset pairs of the class keys,
listed without a sweep of S_n, and the even words hit are half of S_n less
the even ones missed.

Evaluation reads no strip. The diagonals of an exact cover are every word
of S_n once, so their signed sum is the same however the strips cut them
into runs: every exact cover of n evaluates from one record, ``_record(n)``,
built from the class keys alone. Following the cyclic pattern of the
diagonals, a class is one even window read along the broken diagonals of
its pairs, 2n from n = 3, each signed from the window's sign by
``perm._sign_factors``. One kernel per (n, p, quad) and mode, ``_run_sum``,
unpacks the n matrix columns that a window names and adds its diagonal
products to one running sum, with no table of words. Signed, that sum is
D = S+ - S-, the determinant, which ``evaluate`` reads;
``positive_negative_sums`` runs the same kernels once more with every sign
and minor taken as "+", which sums P = S+ + S-, and returns (P + D)/2 and
(P - D)/2. A sum of t diagonal products, started by its first, costs
t - 1 additions, plus one for each 2x2 minor that the kernels form.

From n = 5 the paper's "very symmetric pattern" of the 5x5, whose odd
strip is its even strip with the labels 3 and 4 swapped, pairs the
classes: the swap σ fixes no necklace class there, so each class C has a
partner, σC. A word x and σ∘x differ only in the two rows that read 3 and
4, and have opposite signs, so their two terms sum to the product of the
other n - 2 entries times the 2x2 minor of columns 3 and 4 on those rows:
Laplace's expansion by complementary minors. The record holds such a pair
once, by a window that starts with 3 and has 4 at position p in 1..n/2.
From n = 6 it also groups each pair with the pair of its window with two
more positions exchanged (``_exchange``), and holds that quad once: each
diagonal product of a quad is the product of its n - 4 other entries, a
minor on two more columns and a minor on columns 3 and 4, and stands for
four words. Either window of a pair, and either pair's window of a quad,
lists the same words through the same kernel, so the record holds each by
an even one: a window with the two positions exchanged is one
transposition away, in the quad's other pair, or at n = 5 in the pair
itself. So evaluation makes one kernel call below n = 5, and one a p from n = 5. The
diagonals of a window that read the same minors, two or four, then share
one product: the entries they all read, times the sum of their other
entries, times the minors, so no window multiplies a product of minors
twice (see ``_run_sum``). Below n = 5 a window reads its entries row by
row.

Exact evaluation runs over cleared rows, as the oracles do: each row of a
rational matrix is scaled to integers by the lcm of its denominators. Every
window takes one entry from each row, so both sums scale by the product of
those lcms, and are divided by it once at the end.

Everything here is an immutable value and every function is pure, apart
from the pass a scheme keeps, set on its first use. The pass is a pure
function of its scheme, so evaluation and validation are safe to run
concurrently: a first use from two threads at once computes equal passes,
and either one is kept. Two equal schemes, such as a file loaded twice,
each run their own pass. Exact arithmetic makes the order and grouping of
products irrelevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

from .counting import OpCounter
from .errors import (
    _FACTORIAL_LIMIT, ChainMismatch, InvalidScheme, InvalidWindow, SizeMismatch, _guard, _int_n, _quoted
)
from .matrix import Matrix, Scalar, _cleared_rows, _uncleared
from .perm import (
    Permutation, Sign, _class_pairs, _class_place, _class_words, _least_words, _sign_factors, _swap_head, _swap_key,
    _word_parity,
)


# the entries a summary or an error lists of each kind; the rest are counted
_LISTED = 10

# At n = 9 one window leaves 362,878 words to list, in ~3 s and ~80 MB; at
# n = 10 it leaves 3,628,798, in ~30 s and ~730 MB.
_LISTING_LIMIT = 9


def _more(items: Sequence) -> str:
    """The " (+k more)" that counts the k items past the first _LISTED, or ""."""
    return f" (+{len(items) - _LISTED} more)" if len(items) > _LISTED else ""


@dataclass(frozen=True, slots=True)
class SchemeStrip:
    """A column sequence with start positions.

    The constructor checks types and ranges only (int columns in 1..n, int
    starts within bounds), and copies columns or starts given as a list into
    a tuple, as ``Matrix`` copies list rows. Whether each window actually
    forms a permutation is diagnosed by ``validate`` and enforced by
    ``windows``; a mis-edited strip must remain representable so the
    validator can report on it.
    """

    n: int
    columns: tuple[int, ...]
    starts: tuple[int, ...]

    def __post_init__(self):
        # type(x) is int, not isinstance: a bool or an integral float would
        # pass the range checks and reach the words
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"strip needs an int n >= 1, got {_quoted(self.n)}")
        if not isinstance(self.columns, tuple):
            object.__setattr__(self, "columns", tuple(self.columns))
        if not isinstance(self.starts, tuple):
            object.__setattr__(self, "starts", tuple(self.starts))
        if len(self.columns) < self.n:
            raise ValueError("strip shorter than one window")
        bad = [c for c in self.columns if type(c) is not int or not 1 <= c <= self.n]
        if bad:
            raise ValueError(f"column indices not ints in 1..{self.n}: {_quoted(bad[:_LISTED])}{_more(bad)}")
        limit = len(self.columns) - self.n + 1
        for p in self.starts:
            if type(p) is not int or not 1 <= p <= limit:
                raise ValueError(f"start {_quoted(p)} not an int in 1..{limit}")

    def window_at(self, p: int) -> tuple[int, ...]:
        """The n column indices beginning at start p (1-based); no bijection check."""
        return self.columns[p - 1 : p - 1 + self.n]


@dataclass(frozen=True, slots=True)
class Scheme:
    """One or more strips meant to jointly cover S_n exactly once.

    The constructor refuses an n that is not an int, a bool included, and
    copies strips given as a list into a tuple. It refuses with
    SizeLimitExceeded an n past 10, and an n past 9 with fewer than n!
    windows: validate would list up to n! missing words, and evaluate reads
    more than 10! terms. So no operation on a scheme checks its size again.
    ``_pass`` holds the scheme's validation pass, set on its first use by
    ``_signed_windows``. It takes no part in equality or the hash, so two
    equal schemes, such as a file loaded twice, each run their own pass.
    """

    n: int
    strips: tuple[SchemeStrip, ...]
    _pass: _SignedWindows | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _int_n(self.n, "scheme")
        if not isinstance(self.strips, tuple):
            object.__setattr__(self, "strips", tuple(self.strips))
        if not self.strips:
            raise ValueError("scheme needs at least one strip")
        for s in self.strips:
            if s.n != self.n:
                raise SizeMismatch(f"strip of size {s.n} in scheme of size {_quoted(self.n)}")
        # n past 10 first, so that no factorial of a huge n is taken
        if self.n > _LISTING_LIMIT and (
            self.n > _FACTORIAL_LIMIT or 2 * sum(len(s.starts) for s in self.strips) < math.factorial(self.n)
        ):
            _guard(self.n, "validate", "lists up to n! missing permutations", _LISTING_LIMIT)


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
    lexicographic order of the permutation word. The fields hold every entry;
    ``summary`` lists the first 10 of each kind, and of the windows that hit
    each duplicate, and counts the rest.
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
            spots = ", ".join(f"strip {s} start {p}" for s, p in self.invalid_windows[:_LISTED])
            lines.append(f"invalid windows: {spots}{_more(self.invalid_windows)}")
        for perm, refs in self.duplicates[:_LISTED]:
            spots = ", ".join(f"strip {r.strip} start {r.start} {r.direction}" for r in refs[:_LISTED])
            lines.append(f"duplicate {list(perm.images)}: {spots}{_more(refs)}")
        if len(self.duplicates) > _LISTED:
            lines.append(f"duplicates:{_more(self.duplicates)}")
        if self.missing:
            shown = ", ".join(str(list(p.images)) for p in self.missing[:_LISTED])
            lines.append(f"missing: {shown}{_more(self.missing)}")
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
    return _stitch([h.images for h in heads])


def _stitch(words: Sequence[tuple[int, ...]]) -> SchemeStrip:
    """``stitch_blocks`` on the heads' raw words, at least one; the search
    chains raw words and hands them here."""
    n = len(words[0])
    columns = [words[0][0]]
    for i, head in enumerate(words):
        if len(head) != n:
            raise SizeMismatch("heads of different sizes")
        if columns[-1] != head[0]:
            raise ChainMismatch(
                i - 1,
                f"junction {i - 1}: strip ends in column {columns[-1]} "
                f"but next block starts with {head[0]}",
            )
        columns += head[1:] + head[: n - 1]
    starts = tuple(i * (2 * n - 2) + p for i in range(len(words)) for p in range(1, n + 1))
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

    Each scheme keeps its own pass in ``Scheme._pass``, set on its first use,
    and the pass goes with the scheme. Two equal schemes each run their own,
    and of two passes computed at once by two threads either may be kept:
    the pass is a pure function of the scheme.

    ``invalid`` holds the 1-based (strip, start) of each window that repeats a
    column, and ``covered`` counts distinct words. When some words are
    missing, ``cover`` maps the key of each necklace class hit to the
    bitmask of its pairs hit (see ``perm._class_place``); otherwise it is
    empty. ``twice`` maps the key of each class with a pair hit more than
    once to the bitmask of those pairs. The pass lists no word and locates
    no hit: ``validate`` does, from ``cover`` and ``twice``, each time it
    is called. Nor does it hold what evaluation reads: an exact cover
    evaluates from ``_record(n)``, the same for every scheme of n.
    """

    invalid: tuple[tuple[int, int], ...]
    covered: int
    cover: dict[tuple[int, ...], int]
    twice: dict[tuple[int, ...], int]


def _factorial_text(n: int) -> str:
    """n! in digits up to the sweep limit, and as "n!" past it."""
    return str(math.factorial(n)) if n <= _FACTORIAL_LIMIT else f"{n}!"


def _is_factorial(count: int, n: int) -> bool:
    return n <= _FACTORIAL_LIMIT and count == math.factorial(n)


def _arc(pairs: int, j: int, step: Sign, m: int) -> int:
    """The bitmask of the m >= 1 consecutive pairs from pair j in direction
    step on a cycle of ``pairs``: every pair once m reaches the cycle."""
    full = (1 << pairs) - 1
    if m >= pairs:
        return full
    arc = ((1 << m) - 1) << (j if step > 0 else j - m + 1) % pairs
    return (arc | arc >> pairs) & full


def _signed_windows(sch: Scheme) -> _SignedWindows:
    """The scheme's pass, walked on its first use and kept by the scheme."""
    if sch._pass is None:
        object.__setattr__(sch, "_pass", _walk(sch))
    return sch._pass


def _walk(sch: Scheme) -> _SignedWindows:
    # the verdict, not the words
    n = sch.n
    pairs = _class_pairs(n)
    invalid: list[tuple[int, int]] = []
    cover: dict[tuple[int, ...], int] = {}  # the pairs hit, by class key
    twice: dict[tuple[int, ...], int] = {}  # the pairs hit more than once
    for si, strip in enumerate(sch.strips, start=1):
        columns = strip.columns
        for first, length, sign in _runs(n, strip):
            if not sign:
                invalid.append((si, first))
                continue
            key, j, step = _class_place(columns[first - 1 : first + n - 1])
            # the run's first ``pairs`` starts hit an arc of its class's
            # cycle, and the rest wrap round and hit that arc again
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
    # only a listing of missing words reads the cover again
    return _SignedWindows(
        invalid=tuple(invalid), covered=covered, cover={} if _is_factorial(covered, n) else cover, twice=twice
    )


def _where_hit(sch: Scheme, signed: _SignedWindows) -> tuple[tuple[Permutation, tuple[WindowRef, ...]], ...]:
    """Each word hit more than once, in lexicographic order, with every
    diagonal that hits it: the words of the pairs of ``signed.twice``."""
    repeated = {w for key, bits in signed.twice.items() for w in _class_words(key, bits)}
    if not repeated:
        return ()
    refs: dict[tuple[int, ...], list[WindowRef]] = {w: [] for w in sorted(repeated)}
    directions = ("both",) if sch.n == 1 else ("descending", "ascending")
    for si, strip in enumerate(sch.strips, start=1):
        for p, _, _ in _diagonals(sch.n, strip):
            w = strip.window_at(p)
            for word, direction in zip((w, w[::-1]), directions):
                if word in refs:
                    refs[word].append(WindowRef(si, p, direction))
    return tuple((Permutation(w), tuple(r)) for w, r in refs.items())


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

    The pass reads the walk of each strip and records each run as the arc of
    its necklace class's pairs that it hits (see the module notes). That
    costs O(total windows), once a scheme. Each call then lists what
    the pass counted: the duplicates, with a walk of the strips that locates
    their hits, and the missing permutations, nearly n! of them when a few
    windows repeat n!/2 times. The even count is half of S_n (its one word
    at n = 1) less the even words missing.
    """
    n = sch.n
    signed = _signed_windows(sch)
    # the duplicates first: past a memory limit the listing then fails in
    # _missing, not in _where_hit with up to n! missing words held here,
    # which can leave the CLI no memory to report the error
    duplicates = _where_hit(sch, signed)
    missing = () if _is_factorial(signed.covered, n) else _missing(sch, signed)
    even = (math.factorial(n) + 1) // 2 - sum(_word_parity(p.images) > 0 for p in missing)
    return ValidationReport(
        n=n,
        window_count=2 * sum(len(strip.starts) for strip in sch.strips),
        covered=signed.covered,
        duplicates=duplicates,
        missing=missing,
        invalid_windows=signed.invalid,
        even_count=even,
        odd_count=signed.covered - even,
    )


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


def _complete(sch: Scheme) -> None:
    """Refuse a scheme that is no exact cover, quoting its report."""
    signed = _signed_windows(sch)
    # every Scheme has n <= 10, so n! is cheap
    if signed.invalid or signed.twice or signed.covered != math.factorial(sch.n):
        raise InvalidScheme("scheme failed validation:\n" + validate(sch).summary())


def _signed_sums(sch: Scheme, M: Matrix, modes: str, ops: OpCounter | None) -> tuple[list, int]:
    """The diagonal sum over the cleared rows in each mode of ``_run_sum``,
    "-" for D = S+ - S- and "+" for P = S+ + S-, and the clearing."""
    if M.n != sch.n:
        raise SizeMismatch(f"matrix is {M.n}x{M.n} but scheme expects n = {sch.n}")
    n = sch.n
    _complete(sch)
    record = _record(n)
    if ops is not None:
        # the kernels' operations, window by window and once a call, in each mode
        muls = adds = 0
        for p, quad, firsts in record:
            kernel = _run_sum(n, p, quad, "-")
            muls += kernel.call_muls + kernel.muls * (len(firsts) // n)
            adds += kernel.call_adds + kernel.adds * (len(firsts) // n)
        ops.term(n, math.factorial(n), chained=muls * len(modes))
        # the first product landing in each sum is not an addition
        ops.add((adds - 1) * len(modes))
    rows, clearing = _cleared_rows(M)
    columns = [(), *zip(*rows)]  # 1-based, as the windows name them
    sums = []
    for mode in modes:
        # one sum over the kernel calls, started by the first call's sum
        total = None
        for p, quad, firsts in record:
            t = _run_sum(n, p, quad, mode)(columns, firsts)
            total = t if total is None else total + t
        sums.append(total)
    return sums, clearing


@lru_cache(maxsize=None)
def _record(n: int) -> tuple[tuple[int, bool, bytes], ...]:
    """What every exact cover of n evaluates from: (p, quad, windows) for
    each kernel call, each window even, n columns in a byte each (every
    ``Scheme`` has n <= 10), read along the diagonals of its class's pairs
    (see ``_run_sum``). Below n = 5 one call at p = 0 holds a window of
    each class. From n = 5 each class and its 3 <-> 4 swapped partner make
    a pair, held once under p in 1..n/2 by the window of the lesser key
    that starts with 3 and has 4 at p (``perm._swap_head``), or, where that
    one is odd, by that window with the positions of ``_exchange(n, p)``
    exchanged, one transposition away. That window lies in the pair itself
    at n = 5, and from n = 6 in another pair, with which the pair makes a
    quad, held once under quad True: (n - 1)!/8 quads and no pair left
    over."""
    if n < 5:
        heads = [next(w for w in _class_words(key, -1) if _word_parity(w) > 0) for key in _least_words(n)]
        return ((0, False, bytes(c for w in heads for c in w)),)
    groups: dict[int, bytearray] = {}
    done = set()  # the lesser keys of the pairs held so far
    for key in _least_words(n):
        if key > _swap_key(key) or key in done:
            continue
        head, p = _swap_head(key)
        exchanged, other = _exchanged_pair(head, p)
        done.add(other)
        if _word_parity(head) < 0:
            head = exchanged
        groups.setdefault(p, bytearray()).extend(head)
    return tuple((p, n >= 6, bytes(groups[p])) for p in sorted(groups))


def _exchange(n: int, p: int) -> tuple[int, int]:
    """The window positions u and v whose entries a quad exchanges, for a
    window with 3 at 0 and 4 at p: the two that x -> p - x (mod n)
    fixes at even n and p, and p + 1 and n - 1, which it swaps, otherwise.
    That reflection takes a pair's window to its partner's (see
    ``perm._swap_head``) and maps {u, v} onto itself, so the exchange
    commutes with it and leads from either window of a pair to the same
    other pair. At n = 6 and even p the reflection swaps only p + 1 and
    n - 1 besides 0 and p, and exchanging those would lead back to the pair
    itself, as every exchange does at n = 5."""
    return (p // 2, p // 2 + n // 2) if n % 2 == 0 == p % 2 else (p + 1, n - 1)


def _exchanged_pair(head: tuple[int, ...], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(word, key): head with the entries at the positions of ``_exchange``
    exchanged, which still has 3 at 0 and 4 at p, and the lesser key of the
    pair whose classes hold it and its swap."""
    u, v = _exchange(len(head), p)
    word = list(head)
    word[u], word[v] = word[v], word[u]
    key = _class_place(tuple(word))[0]
    return tuple(word), min(key, _swap_key(key))


def _run_products(n: int, p: int, quad: bool) -> tuple[
    tuple[tuple[str, tuple[str, str, str, str]], ...],
    tuple[tuple[str, tuple[str, str, str, str]], ...],
    tuple[tuple[Sign, list[str], tuple[str, ...]], ...],
]:
    """The 2x2 minors a kernel forms once a call and once a window, each
    as (name, (w, x, y, z)) for w·x - y·z, and its diagonal terms, each as
    (sign relative to the window, entries, minors), the window's
    descending diagonal first (see ``_run_sum``). At
    p = 0 no minor is formed and each term is its entries in row order. At
    p >= 1 a call forms d{i}_{j}, the minor of columns 3 and 4 (positions 0
    and p) on rows i and j, and a quad's window forms m{i}_{j}, that of the
    columns at its positions u and v, with i < j: a term that reads the
    minor's columns on rows j and i takes the opposite sign. A term is the
    entries of its other rows, in row order, times its m, times its d."""
    turn, flip = _sign_factors(n)
    diagonals: list[tuple[Sign, list[tuple[int, int]]]] = []
    for k in range(_class_pairs(n)):
        diagonals.append((turn**k, [(r, (r + k) % n) for r in range(n)]))
        if n > 1:  # at n = 1 the window is its own reverse
            diagonals.append((turn**k * flip, [(r, (n - 1 - r + k) % n) for r in range(n)]))
    exchanges = ([("m", *_exchange(n, p))] if quad else []) + ([("d", 0, p)] if p else [])
    in_minors = {x for _, *positions in exchanges for x in positions}
    minors: dict[str, dict[str, tuple[str, str, str, str]]] = {"d": {}, "m": {}}
    terms = []
    for sign, d in diagonals:
        read = {c: r for r, c in d}  # the row that reads each position
        entries = [f"e{c}_{r}" for r, c in d if c not in in_minors]
        names = []
        for name, x, y in exchanges:
            i, j = read[x], read[y]
            if i > j:
                i, j, sign = j, i, -sign
            minors[name][f"{name}{i}_{j}"] = (f"e{x}_{i}", f"e{y}_{j}", f"e{x}_{j}", f"e{y}_{i}")
            names.append(f"{name}{i}_{j}")
        terms.append((sign, entries, tuple(names)))
    return tuple(minors["d"].items()), tuple(minors["m"].items()), tuple(terms)


@lru_cache(maxsize=None)
def _run_sum(n: int, p: int, quad: bool, mode: str) -> Callable[[list, bytes], object]:
    """The function f(columns, firsts) that sums the diagonal products of
    whole classes, given an even window of each as n bytes of ``firsts``,
    and ``columns[c]``, column c of the matrix by row (see ``_record``). In
    mode "-" each product takes its sign relative to the window, so the sum
    is S+ - S- of the classes; in mode "+" every sign and minor is "+", and
    the sum is S+ + S-. At p >= 1 each window stands for a pair of classes,
    its own and the one with the labels 3 and 4 swapped, and with quad for
    two such pairs.

    At offset k, for k below ``_class_pairs(n)``, row r of the descending
    diagonal reads column (r + k) mod n of the window, and of the ascending
    one column (n - 1 - r + k) mod n; at n = 1 the two are one. At p = 0
    each product takes its rows in order, at n - 1 multiplications.

    From n = 5 the swap σ of the labels 3 and 4 pairs the classes: σ fixes
    no class, since a rotation of the n-cycle moves every position and a
    reflection swaps (n - 1)/2 pairs of positions at odd n, and (n - 2)/2 or
    n/2 at even n, where σ swaps one pair; at n = 4 it fixes the class of
    (1, 3, 2, 4). A word x and σ∘x differ only in rows i and j, which read 3
    and 4, and their signs are opposite, so their terms sum to the product
    S of the other n - 2 entries times the minor d{i}_{j} of columns 3 and 4
    on rows i and j. The record holds each pair as one window that starts
    with 3 and has 4 at p in 1..n/2, so every window of the kernel of
    (n, p) reads columns 3 and 4 at positions 0 and p, and the kernel forms
    their minors once a call, before its loop: those on rows with j - i = ±p mod n, n of them,
    or n/2 at p = n/2. Each diagonal is then a product of n - 1 factors.

    From n = 6 the record groups each pair with the pair of its window with
    the positions u and v of ``_exchange`` exchanged, and the quad
    kernel of (n, p) also forms, once a window, the minors m{i}_{j} of the
    two columns at u and v, on the rows that read them: n of them, each read
    by a descending and an ascending diagonal, or n/2 where v - u = n/2.
    A word x and x with rows i and j exchanged have opposite signs too, so
    one product, the n - 4 other entries times m times d, stands for four
    words of four classes: Laplace's expansion by complementary minors
    along columns 3 and 4 and the columns at u and v, whose terms the
    diagonals of one quad enumerate. Each diagonal is then a product of
    n - 2 factors, and each minor 2 multiplications.

    Two diagonals of a window read one d, or one m and one d, on the same
    rows: the descending diagonal at offset k and the ascending one at
    p + 1 - k; and four, with the descending one at k - p and the ascending
    at 1 - k, where the minors' two positions are n/2 apart. Each such
    group is one product, in the order of its first diagonal: the entries
    every member reads, times the sum of the members' other entries, each
    signed relative to the first member, times the minors. At odd n two
    members share one entry, so the sum is a 2x2 minor, and a pair window
    costs 2n(n - 3) multiplications, against 2n(n - 2) ungrouped, and a
    quad window n(2n - 9), against 2n(n - 3), plus 2 a minor. A diagonal
    that reads no minor is a product alone, so a kernel at p = 0 runs 2n
    products of n - 1 multiplications a window from n = 3.

    Each window's products are summed before they meet the call's sum, and
    that sum starts from them, so a call of t diagonals and k minors costs
    t - 1 + k additions: a group of g takes g - 1 in its sum and one to
    meet the rest, as its g diagonals would alone. Compiled from a fixed
    template, as ``oracle._expansion`` is, whose text depends on n, p, quad
    and the mode only. Its ``muls`` and ``adds`` attributes are the
    multiplications and additions it runs on one window, counting the
    addition that meets the call's sum, and ``call_muls`` and ``call_adds``
    those it runs once a call.
    """
    calls, windows, terms = _run_products(n, p, quad)
    fixed = (0, p) if p else ()  # the positions that read columns 3 and 4

    def unpack(j: int, column: str) -> str:
        # e{j}_{r}: row r of the j-th column of the window
        return f"{', '.join(f'e{j}_{r}' for r in range(n))}, = columns[{column}]\n"

    def minor(name: str, factors: tuple[str, str, str, str]) -> str:
        w, x, y, z = factors
        return f"{name} = {w} * {x} {mode} {y} * {z}\n"

    source = "def run_sum(columns, firsts):\n"
    source += "".join(f"    {unpack(j, c)}" for j, c in zip(fixed, "34"))
    source += "".join(f"    {minor(*m)}" for m in calls)
    source += "    total = None\n"
    source += f"    for {', '.join('_' if j in fixed else f'c{j}' for j in range(n))}, in zip(*[iter(firsts)] * {n}):\n"
    source += "".join(f"        {unpack(j, f'c{j}')}" for j in range(n) if j not in fixed)
    source += "".join(f"        {minor(*m)}" for m in windows)
    # one product for the terms that read one tuple of minors, and one for
    # each term that reads none: each member's other entries take one
    # multiplication fewer than they number, and each shared entry and
    # minor one
    groups: dict[object, list[tuple[Sign, list[str], tuple[str, ...]]]] = {}
    for i, term in enumerate(terms):
        groups.setdefault(term[2] or i, []).append(term)
    products = []
    muls = 2 * len(windows)
    for members in groups.values():
        (sign, leader, minors), *others = members
        common = [e for e in leader if all(e in entries for _, entries, _ in others)]
        (_, own), *more = rests = [(s * sign, [e for e in entries if e not in common]) for s, entries, _ in members]
        bracket = " * ".join(own) + "".join(f" {'+' if s > 0 else mode} {' * '.join(r)}" for s, r in more)
        products.append((sign, [*common, f"({bracket})", *minors] if others else [*common, *minors]))
        muls += sum(len(r) - 1 for _, r in rests) + len(common) + len(minors)
    # the window's descending diagonal leads the first product, signed
    # "+": it reads each minor's columns on rows in increasing order, 0 < p
    # and u < v
    (_, first), *rest = products
    source += f"        t = {' * '.join(first)}"
    source += "".join(f" {'+' if sign > 0 else mode} {' * '.join(factors)}" for sign, factors in rest) + "\n"
    source += "        total = t if total is None else total + t\n"
    namespace: dict = {}
    exec(source + "    return total\n", namespace)
    run_sum = namespace["run_sum"]
    run_sum.call_muls, run_sum.call_adds = 2 * len(calls), len(calls)
    run_sum.muls = muls
    run_sum.adds = len(windows) + len(terms)
    return run_sum


def evaluate(sch: Scheme, M: Matrix, *, ops: OpCounter | None = None) -> Scalar:
    """det(M) as the signed sum over every window's diagonal product.

    Exact: the windows are summed over the cleared integer rows into one
    signed sum, S+ - S-, which is divided by the clearing once, so the
    result is an int, or a Fraction when it is not integral. The optional
    ``ops`` counter tallies terms, multiplications (both conventions) and
    additions on the real code path.
    """
    (det,), clearing = _signed_sums(sch, M, "-", ops)
    return _uncleared(det, clearing)


def positive_negative_sums(
    sch: Scheme, M: Matrix, *, ops: OpCounter | None = None
) -> tuple[Scalar, Scalar]:
    """The even-window and odd-window product sums; det = S_plus - S_minus.

    The kernels run twice, for D = S_plus - S_minus and P = S_plus +
    S_minus, and S_plus = (P + D)/2, S_minus = P - S_plus, exactly: both are
    sums of products over the cleared integer rows, so P + D is even.
    """
    (d, p), clearing = _signed_sums(sch, M, "-+", ops)
    if ops is not None:
        ops.add(2)
    s_plus = (p + d) // 2
    return _uncleared(s_plus, clearing), _uncleared(p - s_plus, clearing)


def evaluate_float(sch: Scheme, rows: Sequence[Sequence[float]]) -> float:
    """det of a float array through a valid scheme: the exact value, rounded once.

    Each entry is taken as the exact rational it holds (``Fraction`` of a
    float is exact), ``evaluate`` sums exactly, and ``float`` of the result
    rounds it correctly. A non-number is a TypeError, NaN a ValueError, and
    ±inf, or a determinant past the float range, an OverflowError.
    """
    n = sch.n
    if len(rows) != n or any(len(r) != n for r in rows):
        raise SizeMismatch(f"need a {n}x{n} array of numbers")
    # 1.0 * x: a non-number fails here, as in float arithmetic
    return float(evaluate(sch, Matrix([[Fraction(1.0 * x) for x in row] for row in rows])))
