"""Counting work: the strip method is a reorganization, not a shortcut.

Instrumented runs show scheme evaluation expands exactly n! signed products,
the same count as the permutation expansion; only elimination changes the
asymptotics. Multiplications are reported both as raw factors (n per product)
and as the chained multiplications that run. Below n = 5 they are n-1 per
product. From n = 5 each full run pairs with its partner, the class with
the labels 3 and 4 swapped (the 5x5's two strips are each other's swap),
and each of its diagonals shares its n-2 other entries with one of the
partner's, while each kernel call forms the column-3 x column-4 products
they read once: n-1 for the two products, plus up to 2n a call, 270 at
n = 5 where chaining takes 480. The permutation expansion forms each term
as one shared prefix product times one shared pair product, so from n = 4
it runs fewer than the scheme (50 against 72 at n = 4, 222 against 270 at
n = 5).
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
