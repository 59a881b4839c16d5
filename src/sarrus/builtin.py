"""The built-in schemes for n = 2, 3, 4, 5.

The 2x2 and 3x3 cases are the classic diagonal rule; the 4x4 case is a single
19-column strip stitched from three blocks; the 5x5 case is a pair of
49-column strips (one per parity) stitched from six blocks each. The
odd-parity block heads are the even-parity heads with the values 3 and 4
swapped, which flips every window's sign at once.
"""

from __future__ import annotations

from .errors import UnsupportedSize
from .perm import Permutation, relabel_values
from .scheme import Scheme, SchemeStrip, expand_block, stitch_blocks

# three blocks of 7 columns, stitched into 19
_HEADS_4 = ((1, 2, 3, 4), (3, 2, 4, 1), (4, 2, 1, 3))

_P_HEADS = (
    (1, 2, 3, 4, 5),
    (4, 3, 5, 2, 1),
    (2, 5, 1, 3, 4),
    (3, 1, 4, 5, 2),
    (5, 4, 2, 1, 3),
    (1, 4, 2, 3, 5),
)


def classic_sarrus(n: int) -> Scheme:
    """The textbook rule: repeat the leading columns, one start per column.

    For n = 2 a single start already covers both permutations (its ascending
    window is the reverse of its descending one), so the strip is just the two
    columns with one start; repeating a column would hit each permutation
    twice.
    """
    if n == 3:
        strip = expand_block(Permutation.identity(3))
    elif n == 2:
        strip = SchemeStrip(n=2, columns=(1, 2), starts=(1,))
    else:
        raise UnsupportedSize(f"classic rule exists for n = 2 or 3, not {n}")
    return Scheme(n=n, strips=(strip,))


def scheme_4x4() -> Scheme:
    """The 19-column arrangement for 4x4 determinants: three blocks, stitched."""
    return Scheme(n=4, strips=(stitch_blocks([Permutation(h) for h in _HEADS_4]),))


def p_block_heads() -> list[Permutation]:
    """The six even block heads of the 5x5 scheme, in chaining order."""
    return [Permutation(h) for h in _P_HEADS]


def n_block_heads() -> list[Permutation]:
    """The six odd block heads: the even heads with values 3 and 4 swapped."""
    return [relabel_values(h, 3, 4) for h in p_block_heads()]


def scheme_5x5() -> Scheme:
    """Two 49-column strips: the even quilt and the odd quilt."""
    even = stitch_blocks(p_block_heads())
    odd = stitch_blocks(n_block_heads())
    return Scheme(n=5, strips=(even, odd))


def builtin_scheme(n: int) -> Scheme:
    """The built-in scheme for n in {2, 3, 4, 5}."""
    if n in (2, 3):
        return classic_sarrus(n)
    if n == 4:
        return scheme_4x4()
    if n == 5:
        return scheme_5x5()
    raise UnsupportedSize(f"no built-in scheme for n = {n}; use the generator")
