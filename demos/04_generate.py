"""Searching for schemes at sizes with no hand-built layout.

The search partitions S_n into necklace classes (shift-and-reverse orbits),
picks one head per class, and chains the heads so consecutive blocks share a
column. A fixed seed reproduces the same scheme bit for bit.
"""

import time

from sarrus import (
    SearchConfig,
    necklace_classes,
    scheme_to_json,
    search_scheme,
    validate,
    verify_generated,
)

print("necklace classes by size:")
for n in (3, 4, 5, 6):
    classes = necklace_classes(n)
    profiles = {}
    for c in classes:
        profiles[c.parity_profile] = profiles.get(c.parity_profile, 0) + 1
    print(f"  n={n}: {len(classes)} classes of size {classes[0].size}, profiles {profiles}")
print()

print("one class in full (n=4):")
cls = necklace_classes(4)[0]
print(f"  representative {cls.representative.images}; members:")
for m in cls.members:
    print("   ", m.images)
print()

for n in (4, 5, 6, 7, 8):
    t0 = time.monotonic()
    scheme = search_scheme(SearchConfig(n=n, random_seed=7))
    took = time.monotonic() - t0
    report = validate(scheme)
    widths = [len(s.columns) for s in scheme.strips]
    print(f"n={n}: found {len(scheme.strips)} strip(s) of widths {widths} "
          f"in {took:.2f}s; covered {report.covered} = {n}! exactly: {report.is_valid}")
print()

print("verification runs the validator plus random-matrix oracle comparisons:")
scheme = search_scheme(SearchConfig(n=6, random_seed=7))
result = verify_generated(scheme, 50, seed=7)
print(f"  n=6 scheme: {result.samples_checked} samples checked, "
      f"validation {'clean' if result.validation.is_valid else 'FAILED'}")
print()

print("the same seed always returns the same scheme:")
a = search_scheme(SearchConfig(n=5, random_seed=123))
b = search_scheme(SearchConfig(n=5, random_seed=123))
print("  identical:", a == b)
print()

small = search_scheme(SearchConfig(n=4, random_seed=7))
print("a generated 4x4 scheme as JSON:")
print(scheme_to_json(small))
