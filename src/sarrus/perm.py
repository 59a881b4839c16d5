"""Permutations on {1..n} and the structural operations diagonal schemes are built from.

A permutation is stored in word form: ``images[i]`` (0-based storage, 1-based
values) is the image of position ``i + 1``. All indices and values are 1-based
at the API surface, matching the usual column labels 1..n; nothing in this
module ever sees a 0-based value.

Permutations are immutable values; every operation returns a new one.

The necklace class of a word (its rotations and their reversals) is defined
here once, on raw words, as its key, the class's least word, and its pairs,
each rotation of the key with its reverse: the search lists classes by key,
and the validator records cover as the pairs of each key that runs hit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Literal

from .errors import _FACTORIAL_LIMIT, IndexOutOfRange, SizeMismatch, _quoted

# +1 for even permutations, -1 for odd ones.
Sign = Literal[1, -1]


@dataclass(frozen=True, slots=True)
class Permutation:
    """A bijection on {1..n} in word form.

    >>> Permutation((2, 3, 1)).images
    (2, 3, 1)
    """

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if n < 1:
            raise ValueError("permutation needs n >= 1")
        # True == 1 and 2.0 == 2: the sort alone lets a bool or a float
        # through, and it cannot order an int against a str or a list
        images = self.images
        if any(type(x) is not int for x in images) or sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of ints on 1..{n}: {_quoted(images)}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        """Image of position i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"position {i} outside 1..{self.n}")
        return self.images[i - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.images)

    def __len__(self) -> int:
        return len(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.images})"


def parity(p: Permutation) -> Sign:
    """+1 if p is even, -1 if odd.

    >>> parity(Permutation((1, 2, 3, 4, 5)))
    1
    >>> parity(Permutation((1, 2, 4, 3, 5)))
    -1
    """
    return _word_parity(p.images)


def _word_parity(images: tuple[int, ...]) -> Sign:
    """The sign of a word on {1..n} that is known to be a bijection, via
    cycle decomposition.

    A cycle of length L contributes L-1 transpositions, so the sign is
    (-1)**(n - number_of_cycles).
    """
    n = len(images)
    seen = [False] * n
    cycles = 0
    for i in range(n):
        if seen[i]:
            continue
        cycles += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = images[j] - 1
    return 1 if (n - cycles) % 2 == 0 else -1


def _sign_factors(n: int) -> tuple[Sign, Sign]:
    """The sign factors of rotating a word of length n left by one and of reversing it."""
    return (-1 if n % 2 == 0 else 1), (-1 if n // 2 % 2 else 1)


def _class_pairs(n: int) -> int:
    """The number of pairs in a necklace class of S_n."""
    return n if n >= 3 else 1


def _class_place(word: tuple[int, ...]) -> tuple[tuple[int, ...], int, Sign]:
    """(key, j, step): the key is the least word of the word's class, 1
    rotated to the front and read towards its smaller neighbour. Pair j is
    the key rotated left by j, with its reverse; the word is the rotation
    (step 1) or the reverse (step -1), and the word rotated left by one lies
    in pair j + step (mod n). Below n = 3 the class is one pair. O(n)."""
    n = len(word)
    if n < 3:
        return tuple(range(1, n + 1)), 0, 1
    k = word.index(1)
    r = word[k:] + word[:k]
    if r[1] < r[-1]:
        return r, -k % n, 1
    return (1, *r[:0:-1]), (k + 1) % n, -1


# the values 0..10 with 3 and 4 swapped, read by value; no scheme is past n = 10
_SWAP_3_4 = (0, 1, 2, 4, 3, *range(5, _FACTORIAL_LIMIT + 1))


def _swap_key(key: tuple[int, ...]) -> tuple[int, ...]:
    """The key of the class of key's words with the values 3 and 4 swapped
    (4 <= n <= 10): swap them in key, keep 1 in front, and read towards the
    smaller neighbour. O(n)."""
    r = tuple([_SWAP_3_4[v] for v in key])
    return r if r[1] < r[-1] else (1, *r[:0:-1])


def _swap_head(key: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(word, p): the word of key's class, n >= 5, that starts with 3 and
    has 4 at position p in 1..n/2, found by rotating 3 to the front and,
    where 4 would sit past n/2, reading the rotation backwards from 3.
    O(n)."""
    n = len(key)
    k = key.index(3)
    word = key[k:] + key[:k]
    p = word.index(4)
    if 2 * p <= n:
        return word, p
    return (3, *word[:0:-1]), n - p


def _class_words(key: tuple[int, ...], bits: int) -> list[tuple[int, ...]]:
    """The words of the pairs of key's class whose bits are set in bits (-1
    sets every pair): two words a pair, and one, the key, at n = 1."""
    shifts = [key[j:] + key[:j] for j in range(_class_pairs(len(key))) if bits >> j & 1]
    return shifts + [w[::-1] for w in shifts if len(w) > 1]


def _place_word(key: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The word at place k of key's class in lexicographic order, that is
    ``sorted(_class_words(key, -1))[k]`` (n >= 3), built alone: places
    2(v - 1) and 2v - 1 hold the two words that start with v, the key
    rotated to v and its reversal read from v, and the one with the lesser
    second entry comes first. O(n)."""
    i = key.index(k // 2 + 1)
    rotation = key[i:] + key[:i]
    # the reversal's second entry is the rotation's last
    if (rotation[1] < rotation[-1]) == (k % 2 == 0):
        return rotation
    return (rotation[0], *rotation[:0:-1])


def _least_words(n: int) -> list[tuple[int, ...]]:
    """The least word of every necklace class of S_n, in lexicographic order:
    the keys of ``_class_place``, (1, *t) with t[0] <= t[-1]
    (and (1,) at n = 1). (n-1)!/2 words for n >= 3, found without visiting
    S_n."""
    return [(1, *t) for t in itertools.permutations(range(2, n + 1)) if t[:1] <= t[-1:]]


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q): apply q first, then p; images[i] = p(q(i))."""
    if p.n != q.n:
        raise SizeMismatch(f"cannot compose sizes {p.n} and {q.n}")
    return Permutation(tuple(p.images[v - 1] for v in q.images))


def reverse(p: Permutation) -> Permutation:
    """The word read backwards: the ascending diagonal of p's descending one.

    Reversal multiplies the sign by (-1)**(n // 2).
    """
    return Permutation(tuple(reversed(p.images)))


def cyclic_shift(p: Permutation, k: int) -> Permutation:
    """Rotate the word left by k (mod n); shift by 1 multiplies the sign by (-1)**(n-1)."""
    n = p.n
    k %= n
    return Permutation(p.images[k:] + p.images[:k])


def relabel_values(p: Permutation, a: int, b: int) -> Permutation:
    """Swap the values a and b wherever they occur: left multiplication by (a b)."""
    n = p.n
    if not (1 <= a <= n and 1 <= b <= n):
        raise IndexOutOfRange(f"values {a}, {b} must lie in 1..{n}")
    if a == b:
        return p
    swap = {a: b, b: a}
    return Permutation(tuple(swap.get(v, v) for v in p.images))
