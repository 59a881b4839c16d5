import pytest

from sarrus import (
    Permutation,
    necklace_classes,
    SizeTooSmall,
    basic_strip_signs,
    classify,
    expand_block,
    parity,
    scheme_4x4,
    scheme_5x5,
    windows,
)


def test_classify_small_cases():
    c4 = classify(4)
    assert c4.residue_class == "4k+4"
    assert c4.shift_alternates is True
    assert c4.ascending_flips is False
    c2, c6 = classify(2), classify(6)
    assert (c2.residue_class, c6.residue_class) == ("4k+2", "4k+2")
    assert c6.same_structure(c2)
    assert classify(7).same_structure(classify(3))
    assert classify(5).residue_class == "4k+5"


def test_classify_rejects_tiny_sizes():
    with pytest.raises(SizeTooSmall):
        classify(1)
    with pytest.raises(SizeTooSmall):
        basic_strip_signs(1)


@pytest.mark.parametrize("n", [2.5, 6.0, 3.0, True, "4"], ids=["half", "float", "float-3", "bool", "str"])
@pytest.mark.parametrize("size", [classify, basic_strip_signs, necklace_classes])
def test_a_size_that_is_not_an_int_is_refused(size, n):
    # 2.5 has no residue, 6.0 would be reported as a size, and range refuses 3.0
    with pytest.raises(ValueError, match=f"^{size.__name__} needs an int n, got "):
        size(n)


def test_period_four_law():
    for n in range(2, 13):
        assert classify(n).same_structure(classify(n + 4))


def test_four_distinct_structures_exist():
    structures = {
        (classify(n).shift_alternates, classify(n).ascending_flips) for n in range(2, 6)
    }
    assert len(structures) == 4


def test_basic_strip_signs_fixed_cases():
    assert basic_strip_signs(3) == [(1, 1, -1), (2, 1, -1), (3, 1, -1)]
    assert basic_strip_signs(4) == [(1, 1, 1), (2, -1, -1), (3, 1, 1), (4, -1, -1)]
    assert basic_strip_signs(6) == [
        (1, 1, -1),
        (2, -1, 1),
        (3, 1, -1),
        (4, -1, 1),
        (5, 1, -1),
        (6, -1, 1),
    ]


def inversion_sign(word):
    inv = sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )
    return -1 if inv % 2 else 1


@pytest.mark.parametrize("n", range(2, 10))
def test_basic_strip_signs_match_brute_force_window_parities(n):
    strip = expand_block(Permutation.identity(n))
    by_start = {w.start: w for w in windows(strip)}
    for p, d, a in basic_strip_signs(n):
        w = by_start[p]
        assert d == inversion_sign(w.descending.images)
        assert a == inversion_sign(w.ascending.images)


def test_classify_booleans_describe_the_basic_strip():
    for n in range(2, 10):
        cls = classify(n)
        signs = basic_strip_signs(n)
        descending = [d for _, d, _ in signs]
        alternates = any(x != descending[0] for x in descending)
        assert alternates == cls.shift_alternates
        flips = all(a == -d for _, d, a in signs)
        same = all(a == d for _, d, a in signs)
        assert flips == cls.ascending_flips
        assert same == (not cls.ascending_flips)


@pytest.mark.parametrize(
    "n,scheme", [(4, scheme_4x4()), (5, scheme_5x5())]
)
def test_basic_strip_matches_first_segment_of_builtins(n, scheme):
    first = scheme.strips[0]
    wins = {w.start: w for w in windows(first)}
    for p, d, a in basic_strip_signs(n):
        assert parity(wins[p].descending) == d
        assert parity(wins[p].ascending) == a
