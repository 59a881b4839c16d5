"""The independent determinant oracles, and why exactness matters.

Three scheme-free routes to the same number: the n!-term permutation
expansion, first-row cofactor expansion with each minor computed once per
column subset, and fraction-free elimination. Everything runs over exact
integers and rationals, so agreement is equality, not closeness. A rational
matrix is cleared to integers before the sums run: the expansion and the
elimination scale each row by the lcm of its denominators, the cofactor
expansion scales each column instead, with code of its own, so it checks the
row clearing rather than sharing it.
"""

import random
from fractions import Fraction

from sarrus import (
    Matrix,
    bareiss_det,
    cofactor_det,
    leibniz_det,
    parity_partition_sums,
)
from sarrus.bench import random_matrix

rng = random.Random(20240817)

print("random integer matrices, all routes, exact agreement:")
for n in (2, 3, 4, 5, 6):
    M = random_matrix(n, rng)
    a, b, c = leibniz_det(M), cofactor_det(M), bareiss_det(M)
    assert a == b == c
    print(f"  n={n}: det = {a}")
print()

print("rational entries are cleared exactly, by rows or by columns, never rounded:")
M = Matrix.from_rows(
    [
        [Fraction(1, 2), Fraction(1, 3), 1],
        [0, Fraction(3, 4), Fraction(2, 5)],
        [Fraction(5, 6), 1, Fraction(1, 7)],
    ]
)
for row in M.rows:
    print("  ", [str(x) for x in row])
print("  leibniz: ", leibniz_det(M))
print("  cofactor:", cofactor_det(M))
print("  bareiss: ", bareiss_det(M))
print()

print("the parity partition splits the expansion into the two signed halves:")
M = random_matrix(5, rng)
s_plus, s_minus = parity_partition_sums(M)
print(f"  60 even products sum to {s_plus}, 60 odd products to {s_minus}")
print(f"  difference {s_plus - s_minus} equals det {leibniz_det(M)}")
print()

print("transposing never changes the determinant:")
for _ in range(3):
    M = random_matrix(4, rng)
    assert bareiss_det(M) == bareiss_det(M.transpose())
    print(f"  det = {bareiss_det(M)} either way")
print()

print("elimination and the shared-minor cofactor expansion scale where the")
print("permutation expansion cannot (n = 12 has 479M terms, 4095 column subsets):")
big = random_matrix(12, rng)
print("  bareiss at n=12: ", bareiss_det(big))
print("  cofactor at n=12:", cofactor_det(big))
