import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sarrus import (
    IndexOutOfRange,
    Permutation,
    SizeMismatch,
    compose,
    cyclic_shift,
    parity,
    relabel_values,
    reverse,
)
from sarrus.perm import _class_pairs, _class_place, _class_words, _least_words, _swap_head, _swap_key, _word_parity


@pytest.mark.parametrize(
    "word,text",
    [
        ((1, 1, 2), "not a bijection of ints on 1..3: (1, 1, 2)"),
        ((1, "2", 3), "not a bijection of ints on 1..3: (1, '2', 3)"),
        ((0,) * 100000, "not a bijection of ints on 1..100000: (" + "0, " * 13 + "... (299960 more characters)"),
        ((1, [0] * 100000), "not a bijection of ints on 1..2: (1, [" + "0, " * 11 + "0,... (299965 more characters)"),
    ],
    ids=["repeat", "str", "long-word", "long-entry"],
)
def test_a_permutation_quotes_a_bad_word_short(word, text):
    # the type check comes first: sorted cannot order an int against a str
    with pytest.raises(ValueError) as caught:
        Permutation(word)
    assert str(caught.value) == text


def inversion_sign(word):
    # Independent parity route: count inversions (the library uses cycles).
    inv = sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )
    return -1 if inv % 2 else 1


def perms(n):
    return st.permutations(range(1, n + 1)).map(lambda w: Permutation(tuple(w)))


any_perm = st.integers(min_value=1, max_value=10).flatmap(perms)


@pytest.mark.parametrize("bad", [(), (1, 1), (0, 2), (2, 3), (1, 2, 2, 4), (True, 2), (1.0, 2), (2, 1, 3.0)])
def test_constructor_rejects_non_bijections(bad):
    with pytest.raises(ValueError):
        Permutation(bad)


def test_identity_and_accessors():
    p = Permutation.identity(5)
    assert p.images == (1, 2, 3, 4, 5)
    assert p.n == len(p) == 5
    assert p(3) == 3
    assert list(p) == [1, 2, 3, 4, 5]
    with pytest.raises(IndexOutOfRange):
        p(0)
    with pytest.raises(IndexOutOfRange):
        p(6)


def test_parity_examples():
    assert parity(Permutation((1, 2, 3, 4, 5))) == 1
    assert parity(Permutation((2, 3, 4, 5, 1))) == 1  # the 5-cycle
    assert parity(Permutation((1, 2, 4, 3, 5))) == -1  # one transposition


def test_parity_agrees_with_inversion_count_exhaustively():
    for n in range(1, 7):
        for word in itertools.permutations(range(1, n + 1)):
            assert parity(Permutation(word)) == inversion_sign(word)


@given(any_perm)
def test_parity_agrees_with_inversion_count_random(p):
    assert parity(p) == inversion_sign(p.images)


def test_compose_examples():
    q = Permutation((4, 3, 5, 2, 1))
    assert compose(Permutation.identity(5), q) == q
    t = Permutation((1, 2, 4, 3))
    assert compose(t, Permutation.identity(4)) == t
    # left-multiplying the second block head by (3 4) gives its odd partner
    assert compose(Permutation((1, 2, 4, 3, 5)), q) == Permutation((3, 4, 5, 2, 1))


def test_compose_size_mismatch():
    with pytest.raises(SizeMismatch):
        compose(Permutation.identity(3), Permutation.identity(4))


def test_parity_multiplicative_exhaustive_small():
    for n in range(1, 6):
        everyone = [Permutation(w) for w in itertools.permutations(range(1, n + 1))]
        signs = {p: parity(p) for p in everyone}
        for p in everyone:
            for q in everyone:
                assert signs[p] * signs[q] == parity(compose(p, q))


def test_parity_multiplicative_exhaustive_n6():
    everyone = [Permutation(w) for w in itertools.permutations(range(1, 7))]
    signs = {p.images: parity(p) for p in everyone}
    for p in everyone:
        pi = p.images
        sp = signs[pi]
        for q in everyone:
            composed = tuple(pi[v - 1] for v in q.images)
            assert sp * signs[q.images] == signs[composed]


@given(st.integers(min_value=2, max_value=10).flatmap(lambda n: st.tuples(perms(n), perms(n))))
def test_parity_multiplicative_random(pq):
    p, q = pq
    assert parity(compose(p, q)) == parity(p) * parity(q)


def test_reverse_examples():
    assert reverse(Permutation((1, 2, 3, 4, 5))) == Permutation((5, 4, 3, 2, 1))
    assert reverse(Permutation((4, 3, 5, 2, 1))) == Permutation((1, 2, 5, 3, 4))


def test_reversal_parity_law_brute_force():
    # sign(reverse(p)) = sign(p) * (-1)**(n // 2), checked over all of S_n
    for n in range(1, 8):
        flip = (-1) ** (n // 2)
        for word in itertools.permutations(range(1, n + 1)):
            assert inversion_sign(word[::-1]) == inversion_sign(word) * flip
        p = Permutation(tuple(range(1, n + 1)))
        assert parity(reverse(p)) == parity(p) * flip


@given(any_perm)
def test_reverse_is_an_involution(p):
    assert reverse(reverse(p)) == p


def test_cyclic_shift_examples():
    p = Permutation((1, 2, 3, 4, 5))
    assert cyclic_shift(p, 1) == Permutation((2, 3, 4, 5, 1))
    assert cyclic_shift(p, 0) == p
    assert cyclic_shift(p, 5) == p
    assert cyclic_shift(p, -1) == Permutation((5, 1, 2, 3, 4))


@given(any_perm, st.integers(-20, 20), st.integers(-20, 20))
def test_cyclic_shift_is_a_group_action(p, j, k):
    assert cyclic_shift(cyclic_shift(p, j), k) == cyclic_shift(p, j + k)


@given(any_perm)
def test_shift_parity_law(p):
    assert parity(cyclic_shift(p, 1)) == parity(p) * (-1) ** (p.n - 1)


def test_relabel_examples():
    assert relabel_values(Permutation((1, 2, 3, 4, 5)), 3, 4) == Permutation((1, 2, 4, 3, 5))
    assert relabel_values(Permutation((5, 4, 2, 1, 3)), 3, 4) == Permutation((5, 3, 2, 1, 4))
    p = Permutation((2, 1, 3))
    assert relabel_values(p, 2, 2) == p


def test_relabel_bounds():
    with pytest.raises(IndexOutOfRange):
        relabel_values(Permutation((1, 2, 3)), 0, 2)
    with pytest.raises(IndexOutOfRange):
        relabel_values(Permutation((1, 2, 3)), 1, 4)


@given(st.integers(min_value=2, max_value=10).flatmap(
    lambda n: st.tuples(perms(n), st.integers(1, n), st.integers(1, n))
))
def test_relabel_flips_parity(args):
    p, a, b = args
    if a == b:
        assert relabel_values(p, a, b) == p
    else:
        assert parity(relabel_values(p, a, b)) == -parity(p)
        # relabeling twice undoes itself
        assert relabel_values(relabel_values(p, a, b), a, b) == p


@given(any_perm)
def test_relabel_is_left_multiplication_by_a_transposition(p):
    n = p.n
    if n < 2:
        return
    t = relabel_values(Permutation.identity(n), 1, n)
    assert relabel_values(p, 1, n) == compose(t, p)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_class_key_is_the_least_word_of_the_orbit(n):
    keys = set()
    for word in itertools.permutations(range(1, n + 1)):
        shifts = [word[k:] + word[:k] for k in range(n)]
        orbit = set(shifts) | {w[::-1] for w in shifts}
        assert set(_class_words(_class_place(word)[0], -1)) == orbit
        assert _class_place(word)[0] == min(orbit)
        keys.add(min(orbit))
    assert _least_words(n) == sorted(keys)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_class_place_names_the_pair_and_the_pair_after_a_rotation(n):
    # pair j is the key rotated left by j with its reverse; a word rotated
    # left by one lies in the pair after its own, counted in its direction
    pairs = _class_pairs(n)
    for word in itertools.permutations(range(1, n + 1)):
        key, j, step = _class_place(word)
        assert 0 <= j < pairs and step in (1, -1)
        if n >= 3:
            rotation = key[j:] + key[:j]
            assert word == (rotation if step == 1 else rotation[::-1])
        assert word in _class_words(key, 1 << j)
        assert word[1:] + word[:1] in _class_words(key, 1 << (j + step) % pairs)
        assert len(_class_words(key, -1)) == min(2 * n, math.factorial(n))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_the_swap_of_3_and_4_pairs_every_class_from_n_5(n):
    # the swapped key is the key of the swapped words; the swap is an
    # involution that fixes one class at n = 4, the paper's middle block,
    # and none from n = 5
    fixed = []
    for key in _least_words(n):
        partner = _swap_key(key)
        swapped = tuple(7 - v if v in (3, 4) else v for v in key)
        assert partner == _class_place(swapped)[0] and _swap_key(partner) == key
        if partner == key:
            fixed.append(key)
    assert fixed == ([(1, 3, 2, 4)] if n == 4 else [])


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_the_swap_head_starts_with_3_and_has_4_in_the_first_half(n):
    # a rotation flips the sign at even n, so the head's sign factor
    # against the key counts the rotations, and a reversal's flip
    for key in _least_words(n):
        head, p, factor = _swap_head(key)
        assert head[0] == 3 and head[p] == 4 and 1 <= p <= n // 2
        assert head in _class_words(key, -1)
        assert _word_parity(head) == _word_parity(key) * factor
