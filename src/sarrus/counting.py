"""Operation counting for the benchmark harness.

An OpCounter is threaded through the real evaluation and oracle code paths
(never through instrumented copies). Each route tallies after its loops, per
call or per step, the sizes they ran over, so counting costs nothing per term.
Products are recorded under both conventions: a length-n diagonal has n
factors, and the chained count is the multiplications that run. A diagonal
chained on its own needs n-1. From n = 5 the swap of the labels 3 and 4
pairs every necklace class with another, and a word and its swap differ
only in the two rows that read 3 and 4. So a full run and its partner's
share each diagonal's product S of the n - 2 other entries: n - 3
multiplications, then 1 for each of the two terms, which read their
column-3 x column-4 products from a table that each kernel call forms
once: n - 1 for two products where chaining takes 2(n - 1), plus up to 2n
a call. The oracles build their terms from shared products and record
each multiplication they run under both.
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
