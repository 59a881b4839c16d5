"""Counting work: the strip method is a reorganization, not a shortcut.

Instrumented runs show scheme evaluation expands exactly n! signed products,
the same count as the permutation expansion; only elimination changes the
asymptotics. Multiplications are reported both as raw factors (n per product)
and as the chained multiplications that run. Below n = 5 they are n-1 per
product, and the permutation expansion, which forms each term as one shared
prefix product times one shared pair product, runs fewer (50 against 72 at
n = 4). An exact cover's products are every word of S_n once, so any
valid scheme of n is evaluated from one record of n's necklace classes,
and its counts depend on n alone. From n = 5 each class pairs with its
partner, the class with the labels 3 and 4 swapped (the 5x5's two strips
are each other's swap): a word and its partner's differ only in the two
rows that read 3 and 4, so their two terms are one product of the n-2
other entries and a 2x2 minor on columns 3 and 4, which each kernel call
forms once. That is Laplace's expansion by complementary minors, not the
strip arrangement. The two
diagonals that read one such minor then share one product, their shared
entry times the sum of their other entries' products times the minor, so
one product stands for four words, and the scheme runs below the
permutation expansion: 140 against 222 at n = 5, where chaining every
product takes 480. From n = 6 one product and two minors stand for eight
words or more.
"""

from sarrus import bench, reports_to_jsonl, term_count_statement

reports = bench(["scheme", "leibniz", "cofactor", "bareiss"], [4, 5], runs=3, seed=1)

print("method      n   terms   mults(nf)   mults(chain)   adds    best time")
for r in reports:
    print(
        f"{r.method:<10} {r.n:>2}  {r.term_count:>6}  {r.multiplications_n_factors:>10}  "
        f"{r.multiplications_chained:>13}  {r.additions:>5}   {min(r.wall_times) * 1e6:>8.1f} us"
    )
print()

print(term_count_statement(reports))
print()

print("asymptotics bite at n=8 (40320 expansion terms vs cubic elimination):")
big = bench(["leibniz", "bareiss"], [8], runs=1, seed=1)
for r in big:
    print(
        f"  {r.method:<8} mults={r.multiplications_chained:>7}  "
        f"time={min(r.wall_times) * 1e3:.2f} ms"
    )
print()

print("machine-readable report (JSON lines):")
print(reports_to_jsonl(bench(["scheme", "leibniz"], [4], runs=1, seed=1)))
