"""Search for valid column-strip schemes for arbitrary n.

The unit of coverage is a necklace class: all cyclic shifts of a word together
with all cyclic shifts of its reversal. One block covers exactly one class, so
a scheme is a choice of one head per class, ordered so consecutive blocks
share a column. For n >= 3 every class has full size 2n and contains exactly
two heads beginning with any given value (one from the shift family, one from
the reversed family), so the chain can always be extended: one greedy pass
over the classes builds it, with no search to undo. The pass runs on raw
words and builds no ``Permutation``: classes are listed by their least
words, without visiting S_n; each class shuffles the places of its words in
lexicographic order and builds only the word at the place it picks; the
chosen heads are stitched as raw words; and the parity split below signs
the raw representatives.

Strip grouping follows the class parity structure: for n ≡ 1 (mod 4) classes
are parity-pure and split into an even strip and an odd strip; for even n and
for n ≡ 3 (mod 4) (where reversal flips parity and every class mixes both)
a single strip covers everything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import NotFound, SizeTooSmall, VerificationFailed, _guard, _int_n, _quoted
from .matrix import Matrix
from .oracle import bareiss_det
from .perm import Permutation, _class_pairs, _class_words, _least_words, _place_word, _sign_factors, _word_parity
from .scheme import Scheme, ValidationReport, _stitch, evaluate, validate

_CLASS_LIMIT = 8


@dataclass(frozen=True, slots=True)
class NecklaceClass:
    """A dihedral orbit: shifts of the representative plus shifts of its reversal.

    ``parity_profile`` describes the descending-window signs of a block built
    from the representative: blocks alternate sign start to start when n is
    even ("alternating"), and keep one sign when n is odd ("uniform(+)" or
    "uniform(-)"). For n ≡ 3 (mod 4) the reversed family inside the same class
    carries the opposite uniform sign, per the reversal law.

    A class is a view of its representative: ``members`` are built on demand.
    """

    representative: Permutation
    size: int
    parity_profile: str

    @property
    def members(self) -> tuple[Permutation, ...]:
        """Every word of the class, in lexicographic order."""
        return tuple(map(Permutation, sorted(_class_words(self.representative.images, -1))))


@dataclass(frozen=True, slots=True)
class SearchConfig:
    n: int
    max_blocks_per_strip: int | None = None
    random_seed: int = 0

    def __post_init__(self):
        # type(x) is int, as SchemeStrip checks: no chain is 2.5 blocks long,
        # True is a chain of one, range refuses a float n, and a seed of True
        # or 1.0 would seed as 1
        m, seed = self.max_blocks_per_strip, self.random_seed
        if type(self.n) is not int or type(m) not in (int, type(None)) or type(seed) is not int:
            raise ValueError(
                f"search needs int n and max_blocks_per_strip, and an int random_seed: "
                f"{_quoted(self.n)}, {_quoted(m)}, {_quoted(seed)}"
            )
        if self.n < 2:
            raise SizeTooSmall("search needs n >= 2")
        if m is not None and m < 1:
            raise ValueError("max_blocks_per_strip must be positive")


def _representatives(n: int) -> list[tuple[int, ...]]:
    """The least word of every class, in lexicographic order (see
    ``perm._least_words``), within the limit of class enumeration."""
    if n < 2:
        raise SizeTooSmall("necklace classes need n >= 2")
    _guard(n, "necklace_classes", "enumerates S_n", _CLASS_LIMIT)
    return _least_words(n)


def necklace_classes(n: int) -> list[NecklaceClass]:
    """Partition S_n into necklace classes, listed by lexicographically
    minimal representative."""
    _int_n(n, "necklace_classes")
    # n >= 3 classes have 2n words; the one class at n = 2 has both words
    size = 2 * _class_pairs(n)
    turn, _ = _sign_factors(n)
    classes = []
    for rep in _representatives(n):
        sign = "+" if _word_parity(rep) == 1 else "-"
        profile = "alternating" if turn < 0 else f"uniform({sign})"
        classes.append(NecklaceClass(Permutation(rep), size, profile))
    return classes


def _chain_group(
    reps: list[tuple[int, ...]],
    rng: random.Random,
    max_blocks: int | None,
) -> list[list[tuple[int, ...]]]:
    """Order the classes of a group into chains of heads; each chain becomes one strip.

    One pass over the class representatives in shuffled order. Each class
    shuffles the places 0..2n-1 of its words in lexicographic order when the
    pass reaches it, and contributes the word at the first of them whose
    word starts with column n - 1 of the previous head (places 2(v - 1) and
    2v - 1 start with v; see ``perm._place_word``), or at the first place
    when a chain starts. Only that word is built. ``random.shuffle`` draws
    by length alone, so the places draw as the sorted words would. For
    n >= 3 such a word always exists, so no choice is ever undone.
    """
    n = len(reps[0])
    class_order = list(reps)
    rng.shuffle(class_order)
    chains: list[list[tuple[int, ...]]] = [[]]
    for rep in class_order:
        places = list(range(2 * n))
        rng.shuffle(places)
        if len(chains[-1]) == max_blocks:
            chains.append([])
        chain = chains[-1]
        if chain:
            k = 2 * chain[-1][n - 2] - 2
            if places.index(k + 1) < places.index(k):
                k += 1
        else:
            k = places[0]
        chain.append(_place_word(rep, k))
    return chains


def search_scheme(cfg: SearchConfig) -> Scheme:
    """Find a scheme covering S_n, deterministic for a fixed random_seed.

    Raises NotFound when undersized (self-symmetric) classes block the
    construction (n = 2), or when the result fails validation.
    """
    if cfg.n == 2:
        raise NotFound(
            "n = 2 has self-symmetric classes of size < 4 ([1, 2]); "
            "blocks built from them would duplicate windows"
        )
    groups = [_representatives(cfg.n)]
    # where rotation and reversal keep the sign, classes are parity-pure: an
    # even strip group, then an odd one
    if _sign_factors(cfg.n) == (1, 1):
        signs = [_word_parity(rep) for rep in groups[0]]
        groups = [[rep for rep, s in zip(groups[0], signs) if s == sign] for sign in (1, -1)]
    rng = random.Random(cfg.random_seed)
    strips = tuple(
        _stitch(chain)
        for group in groups
        for chain in _chain_group(group, rng, cfg.max_blocks_per_strip)
    )
    scheme = Scheme(n=cfg.n, strips=strips)

    report = validate(scheme)
    if not report.is_valid:
        raise NotFound("search produced a defective scheme:\n" + report.summary())
    return scheme


def random_matrix(n: int, rng: random.Random) -> Matrix:
    return Matrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])


# verify_generated draws its entries from the 2^62 ints in [-2^61, 2^61)
_SAMPLE_HALF = 1 << 61


@dataclass(frozen=True, slots=True)
class VerificationReport:
    n: int
    validation: ValidationReport
    samples_checked: int


def verify_generated(sch: Scheme, sample_count: int, *, seed: int = 0) -> VerificationReport:
    """Validate a scheme and compare it against an independent oracle on
    random integer matrices.

    Each sample draws its own entries, uniformly from the 2^62 integers in
    [-2^61, 2^61). When a fault changes which products are summed, as a
    defective scheme does, or a kernel that drops, repeats or mis-indexes a
    product, the signed sum minus det is a nonzero polynomial of degree n
    in the n^2 entries; so by Schwartz-Zippel one sample misses it with
    probability at most n/2^62, and the samples are a check of their own
    beside the validation. (Entries in [-9, 9], as ``random_matrix`` draws,
    would bound it by n/19 only.) A fault that depends on the values, such
    as a branch or a wrong cast, is no such polynomial, and the bound says
    nothing of it.

    Raises VerificationFailed with the first counterexample.
    """
    # a float count fails in range, a negative one would be reported as
    # checked, and a seed of True or 1.0 would seed as 1
    if type(sample_count) is not int or sample_count < 0 or type(seed) is not int:
        raise ValueError(
            f"verify_generated needs an int sample_count >= 0 and an int seed, "
            f"got {_quoted(sample_count)} and {_quoted(seed)}"
        )
    report = validate(sch)
    if not report.is_valid:
        raise VerificationFailed("scheme failed validation:\n" + report.summary())
    rng = random.Random(seed)
    for i in range(sample_count):
        M = Matrix.from_rows([[rng.randrange(-_SAMPLE_HALF, _SAMPLE_HALF) for _ in range(sch.n)]
                              for _ in range(sch.n)])
        got = evaluate(sch, M)
        want = bareiss_det(M)
        if got != want:
            raise VerificationFailed(
                f"sample {i}: scheme evaluated to {got} but the oracle says {want} "
                f"for {M!r}"
            )
    return VerificationReport(n=sch.n, validation=report, samples_checked=sample_count)
