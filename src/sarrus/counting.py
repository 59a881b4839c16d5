"""Operation counting for the benchmark harness.

An OpCounter is threaded through the real evaluation and oracle code paths
(never through instrumented copies). Each route tallies after its loops, per
call or per step, the sizes they ran over, so counting costs nothing per term.
Products are recorded under both conventions: a length-n diagonal has n
factors but needs only n-1 multiplications when chained.
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

    def term(self, n_factors: int, k: int = 1) -> None:
        """Record k signed products of n_factors entries each."""
        self.terms += k
        self.mul_factors += k * n_factors
        self.mul_chained += k * (n_factors - 1)

    def mul(self, k: int = 1) -> None:
        """Record k standalone multiplications (both conventions coincide)."""
        self.mul_factors += k
        self.mul_chained += k

    def add(self, k: int = 1) -> None:
        self.adds += k

    def div(self, k: int = 1) -> None:
        self.divs += k
