"""Operation counting for the benchmark harness.

An OpCounter is threaded through the real evaluation and oracle code paths
(never through instrumented copies). Each route tallies after its loops, per
call or per step, the sizes they ran over, so counting costs nothing per term.
Products are recorded under both conventions: a length-n diagonal has n
factors, and the chained count is the multiplications that run. A diagonal
chained on its own needs n-1. From n = 5 the swap of the labels 3 and 4
pairs every necklace class with another, and a word and its swap differ
only in the two rows that read 3 and 4, with opposite signs. So the two
terms sum to the product of their n - 2 other entries times a 2x2 minor
on columns 3 and 4, which each kernel call forms once, plus 2
multiplications a minor. From n = 6 two such pairs whose words differ in
two more rows make a quad, and one product of the n - 4 other entries, a
minor on those rows' columns formed once a window, and the minor on
columns 3 and 4 stands for four words. This is Laplace's expansion by
complementary minors, and each minor is also an addition. The two (or
four) diagonals of a window that read the same minors then make one
product: the entries they share, times the sum of their other entries'
products, times the minors. At odd n two such diagonals share one entry,
so the four words of a pair take 2(n - 3) multiplications, where chaining
takes 4(n - 1), and the eight of a quad 2n - 9, where chaining takes
8(n - 1), plus 2 a minor. The oracles build their terms from shared
products and record each multiplication they run under both.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCounter:
    terms: int = 0
    mul_factors: int = 0
    mul_chained: int = 0
    adds: int = 0
    divs: int = 0

    def term(self, n_factors: int, k: int, chained: int) -> None:
        """Record k signed products of n_factors entries each, formed by
        ``chained`` multiplications."""
        self.terms += k
        self.mul_factors += k * n_factors
        self.mul_chained += chained

    def mul(self, k: int = 1) -> None:
        """Record k standalone multiplications (both conventions coincide)."""
        self.mul_factors += k
        self.mul_chained += k

    def add(self, k: int = 1) -> None:
        self.adds += k

    def div(self, k: int = 1) -> None:
        self.divs += k
