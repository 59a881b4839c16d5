"""Walkthrough: the pair of 49-column quilts behind the 5x5 determinant.

For odd n a cyclic shift of a diagonal keeps its sign, so every block of ten
diagonals (five shifts, five reversed shifts) is sign-pure. Six even blocks
chain into one strip and six odd blocks into another; the odd heads are the
even heads with the labels 3 and 4 swapped.
"""

from sarrus import (
    Matrix,
    compose,
    evaluate,
    expand_block,
    n_block_heads,
    p_block_heads,
    parity,
    Permutation,
    relabel_values,
    scheme_5x5,
    stitch_blocks,
    validate,
    windows,
)

print("even block heads and their odd partners:")
t = Permutation((1, 2, 4, 3, 5))
for k, (p, n) in enumerate(zip(p_block_heads(), n_block_heads()), start=1):
    assert relabel_values(p, 3, 4) == n == compose(t, p)
    print(f"  block {k}: {p.images}  ->  {n.images}")
print()

print("a single block expands to nine columns and covers ten diagonals:")
head = p_block_heads()[1]
strip = expand_block(head)
print("  head", head.images, "->", "-".join(map(str, strip.columns)))
for w in windows(strip):
    print(f"    start {w.start}: {w.descending.images} and {w.ascending.images}, "
          f"both {'even' if parity(w.descending) == 1 else 'odd'}")
print()

print("blocks chain because each expanded block ends where the next begins:")
heads = p_block_heads()
for a, b in zip(heads, heads[1:]):
    print(f"  {expand_block(a).columns[-3:]} ... joins ... {b.images[:3]}")
stitched = stitch_blocks(heads)
print(f"six blocks stitched: {len(stitched.columns)} columns, {len(stitched.starts)} starts")
print()

scheme = scheme_5x5()
report = validate(scheme)
print(f"the two quilts together: {report.covered} of 120 permutations, "
      f"{report.even_count} even / {report.odd_count} odd, valid={report.is_valid}")
print()

M = Matrix.from_rows(
    [
        [1, 2, 0, -1, 3],
        [0, 4, -2, 1, 1],
        [2, -1, 3, 0, 2],
        [1, 0, 1, 5, -3],
        [-2, 1, 0, 2, 4],
    ]
)
print("sample evaluation:", evaluate(scheme, M))
print("identity check:   ", evaluate(scheme, Matrix.identity(5)))
