import itertools
import random

import pytest

from conftest import WORKED_DET

from sarrus import (
    Matrix,
    Permutation,
    UnsupportedSize,
    bareiss_det,
    builtin_scheme,
    classic_sarrus,
    compose,
    cyclic_shift,
    evaluate,
    expand_block,
    n_block_heads,
    p_block_heads,
    parity,
    relabel_values,
    reverse,
    scheme_4x4,
    scheme_5x5,
    validate,
    windows,
)
from sarrus.bench import random_matrix

EXPECTED_COLUMNS_4 = (1, 2, 3, 4, 1, 2, 3, 2, 4, 1, 3, 2, 4, 2, 1, 3, 4, 2, 1)
EXPECTED_STARTS_4 = (1, 2, 3, 4, 7, 8, 9, 10, 13, 14, 15, 16)
POSITIVE_STARTS_4 = {1, 3, 7, 9, 13, 15}
NEGATIVE_STARTS_4 = {2, 4, 8, 10, 14, 16}

P_HEADS = (
    (1, 2, 3, 4, 5),
    (4, 3, 5, 2, 1),
    (2, 5, 1, 3, 4),
    (3, 1, 4, 5, 2),
    (5, 4, 2, 1, 3),
    (1, 4, 2, 3, 5),
)
N_HEADS = (
    (1, 2, 4, 3, 5),
    (3, 4, 5, 2, 1),
    (2, 5, 1, 4, 3),
    (4, 1, 3, 5, 2),
    (5, 3, 2, 1, 4),
    (1, 3, 2, 4, 5),
)

# The ten products each even block contributes, as published with the scheme;
# each must equal {shifts of head} | {shifts of reversed head}.
EVEN_BLOCK_PRODUCTS = (
    ((1, 2, 3, 4, 5), (2, 3, 4, 5, 1), (3, 4, 5, 1, 2), (4, 5, 1, 2, 3), (5, 1, 2, 3, 4),
     (5, 4, 3, 2, 1), (1, 5, 4, 3, 2), (2, 1, 5, 4, 3), (3, 2, 1, 5, 4), (4, 3, 2, 1, 5)),
    ((4, 3, 5, 2, 1), (3, 5, 2, 1, 4), (5, 2, 1, 4, 3), (2, 1, 4, 3, 5), (1, 4, 3, 5, 2),
     (1, 2, 5, 3, 4), (4, 1, 2, 5, 3), (3, 4, 1, 2, 5), (5, 3, 4, 1, 2), (2, 5, 3, 4, 1)),
    ((2, 5, 1, 3, 4), (5, 1, 3, 4, 2), (1, 3, 4, 2, 5), (3, 4, 2, 5, 1), (4, 2, 5, 1, 3),
     (4, 3, 1, 5, 2), (2, 4, 3, 1, 5), (5, 2, 4, 3, 1), (1, 5, 2, 4, 3), (3, 1, 5, 2, 4)),
    ((3, 1, 4, 5, 2), (1, 4, 5, 2, 3), (4, 5, 2, 3, 1), (5, 2, 3, 1, 4), (2, 3, 1, 4, 5),
     (2, 5, 4, 1, 3), (3, 2, 5, 4, 1), (1, 3, 2, 5, 4), (4, 1, 3, 2, 5), (5, 4, 1, 3, 2)),
    ((5, 4, 2, 1, 3), (4, 2, 1, 3, 5), (2, 1, 3, 5, 4), (1, 3, 5, 4, 2), (3, 5, 4, 2, 1),
     (3, 1, 2, 4, 5), (5, 3, 1, 2, 4), (4, 5, 3, 1, 2), (2, 4, 5, 3, 1), (1, 2, 4, 5, 3)),
    ((1, 4, 2, 3, 5), (4, 2, 3, 5, 1), (2, 3, 5, 1, 4), (3, 5, 1, 4, 2), (5, 1, 4, 2, 3),
     (5, 3, 2, 4, 1), (1, 5, 3, 2, 4), (4, 1, 5, 3, 2), (2, 4, 1, 5, 3), (3, 2, 4, 1, 5)),
)
ODD_BLOCK_PRODUCTS = (
    ((1, 2, 4, 3, 5), (2, 4, 3, 5, 1), (4, 3, 5, 1, 2), (3, 5, 1, 2, 4), (5, 1, 2, 4, 3),
     (5, 3, 4, 2, 1), (1, 5, 3, 4, 2), (2, 1, 5, 3, 4), (4, 2, 1, 5, 3), (3, 4, 2, 1, 5)),
    ((3, 4, 5, 2, 1), (4, 5, 2, 1, 3), (5, 2, 1, 3, 4), (2, 1, 3, 4, 5), (1, 3, 4, 5, 2),
     (1, 2, 5, 4, 3), (3, 1, 2, 5, 4), (4, 3, 1, 2, 5), (5, 4, 3, 1, 2), (2, 5, 4, 3, 1)),
    ((2, 5, 1, 4, 3), (5, 1, 4, 3, 2), (1, 4, 3, 2, 5), (4, 3, 2, 5, 1), (3, 2, 5, 1, 4),
     (3, 4, 1, 5, 2), (2, 3, 4, 1, 5), (5, 2, 3, 4, 1), (1, 5, 2, 3, 4), (4, 1, 5, 2, 3)),
    ((4, 1, 3, 5, 2), (1, 3, 5, 2, 4), (3, 5, 2, 4, 1), (5, 2, 4, 1, 3), (2, 4, 1, 3, 5),
     (2, 5, 3, 1, 4), (4, 2, 5, 3, 1), (1, 4, 2, 5, 3), (3, 1, 4, 2, 5), (5, 3, 1, 4, 2)),
    ((5, 3, 2, 1, 4), (3, 2, 1, 4, 5), (2, 1, 4, 5, 3), (1, 4, 5, 3, 2), (4, 5, 3, 2, 1),
     (4, 1, 2, 3, 5), (5, 4, 1, 2, 3), (3, 5, 4, 1, 2), (2, 3, 5, 4, 1), (1, 2, 3, 5, 4)),
    ((1, 3, 2, 4, 5), (3, 2, 4, 5, 1), (2, 4, 5, 1, 3), (4, 5, 1, 3, 2), (5, 1, 3, 2, 4),
     (5, 4, 2, 3, 1), (1, 5, 4, 2, 3), (3, 1, 5, 4, 2), (2, 3, 1, 5, 4), (4, 2, 3, 1, 5)),
)


def necklace_members(head: Permutation) -> set[Permutation]:
    out = set()
    for k in range(head.n):
        s = cyclic_shift(head, k)
        out.add(s)
        out.add(reverse(s))
    return out


def test_classic_sarrus_3():
    scheme = classic_sarrus(3)
    strip = scheme.strips[0]
    assert strip.columns == (1, 2, 3, 1, 2)
    assert strip.starts == (1, 2, 3)
    report = validate(scheme)
    assert report.is_valid
    assert report.covered == 6
    assert report.even_count == report.odd_count == 3
    assert evaluate(scheme, Matrix.identity(3)) == 1


def test_classic_sarrus_2_covers_each_permutation_once():
    scheme = classic_sarrus(2)
    assert scheme.strips[0].columns == (1, 2)
    assert scheme.strips[0].starts == (1,)
    report = validate(scheme)
    assert report.is_valid and report.covered == 2
    rng = random.Random(5)
    for _ in range(50):
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        assert evaluate(scheme, Matrix.from_rows([[a, b], [c, d]])) == a * d - b * c


@pytest.mark.parametrize("n", [1, 4, 6])
def test_classic_sarrus_rejects_other_sizes(n):
    with pytest.raises(UnsupportedSize):
        classic_sarrus(n)


def test_scheme_4x4_layout():
    strip = scheme_4x4().strips[0]
    assert strip.columns == EXPECTED_COLUMNS_4
    assert strip.starts == EXPECTED_STARTS_4


def test_scheme_4x4_is_three_stitched_blocks():
    heads = [Permutation((1, 2, 3, 4)), Permutation((3, 2, 4, 1)), Permutation((4, 2, 1, 3))]
    from sarrus import stitch_blocks

    assert stitch_blocks(heads) == scheme_4x4().strips[0]


def test_scheme_4x4_validates_and_evaluates(worked_matrix):
    report = validate(scheme_4x4())
    assert report.is_valid and report.covered == 24
    assert report.even_count == report.odd_count == 12
    assert evaluate(scheme_4x4(), worked_matrix) == WORKED_DET
    assert evaluate(scheme_4x4(), Matrix.identity(4)) == 1


def test_scheme_4x4_signs_by_start_both_directions():
    strip = scheme_4x4().strips[0]
    for w in windows(strip):
        expected = 1 if w.start in POSITIVE_STARTS_4 else -1
        assert w.start in (POSITIVE_STARTS_4 | NEGATIVE_STARTS_4)
        assert parity(w.descending) == expected
        assert parity(w.ascending) == expected
    assert windows(strip)[0].descending == Permutation((1, 2, 3, 4))


def test_scheme_4x4_fold_symmetry():
    cols = scheme_4x4().strips[0].columns
    swap = {3: 4, 4: 3}
    assert tuple(swap.get(c, c) for c in reversed(cols)) == cols


def test_block_heads_are_the_published_ones():
    assert tuple(h.images for h in p_block_heads()) == P_HEADS
    assert tuple(h.images for h in n_block_heads()) == N_HEADS


def test_odd_heads_are_even_heads_times_the_transposition():
    t = Permutation((1, 2, 4, 3, 5))
    for p, n in zip(p_block_heads(), n_block_heads()):
        assert relabel_values(p, 3, 4) == n
        assert compose(t, p) == n


def test_heads_chain_end_to_start():
    for heads in (p_block_heads(), n_block_heads()):
        for a, b in itertools.pairwise(heads):
            assert expand_block(a).columns[-1] == b.images[0]


def test_every_even_block_member_is_even_and_odd_block_member_odd():
    for head in p_block_heads():
        assert all(parity(m) == 1 for m in necklace_members(head))
    for head in n_block_heads():
        assert all(parity(m) == -1 for m in necklace_members(head))


@pytest.mark.parametrize("k", range(6))
def test_block_product_tables_match_shift_and_reverse_families(k):
    even_head = p_block_heads()[k]
    odd_head = n_block_heads()[k]
    assert necklace_members(even_head) == {Permutation(w) for w in EVEN_BLOCK_PRODUCTS[k]}
    assert necklace_members(odd_head) == {Permutation(w) for w in ODD_BLOCK_PRODUCTS[k]}
    # the windows of the expanded block are exactly those ten products
    for head, table in ((even_head, EVEN_BLOCK_PRODUCTS[k]), (odd_head, ODD_BLOCK_PRODUCTS[k])):
        got = set()
        for w in windows(expand_block(head)):
            got.add(w.descending)
            got.add(w.ascending)
        assert got == {Permutation(w) for w in table}


def test_scheme_5x5_structure_and_validation():
    scheme = scheme_5x5()
    assert [len(s.columns) for s in scheme.strips] == [49, 49]
    report = validate(scheme)
    assert report.is_valid
    assert report.covered == 120
    assert report.even_count == report.odd_count == 60
    assert evaluate(scheme, Matrix.identity(5)) == 1


def test_scheme_5x5_matches_oracle_on_random_matrices():
    rng = random.Random(77)
    scheme = scheme_5x5()
    for _ in range(500):
        M = random_matrix(5, rng)
        assert evaluate(scheme, M) == bareiss_det(M)


def test_builtin_scheme_dispatch():
    for n in (2, 3, 4, 5):
        assert validate(builtin_scheme(n)).is_valid
    with pytest.raises(UnsupportedSize):
        builtin_scheme(6)


def test_all_builtins_validate_with_zero_defects():
    for n in (2, 3, 4, 5):
        report = validate(builtin_scheme(n))
        assert not report.duplicates
        assert not report.missing
        assert not report.invalid_windows
