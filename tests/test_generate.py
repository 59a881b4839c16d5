import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sarrus.generate
import sarrus.scheme
from sarrus.generate import _chain_group
from sarrus.perm import _class_words, _least_words
from sarrus import (
    NotFound,
    Permutation,
    Scheme,
    SchemeStrip,
    SearchConfig,
    SizeLimitExceeded,
    SizeTooSmall,
    VerificationFailed,
    builtin_scheme,
    cyclic_shift,
    necklace_classes,
    parity,
    reverse,
    scheme_4x4,
    scheme_to_json,
    search_scheme,
    validate,
    verify_generated,
)


@pytest.mark.parametrize("n,count,size", [(3, 1, 6), (4, 3, 8), (5, 12, 10), (6, 60, 12)])
def test_class_counts(n, count, size):
    classes = necklace_classes(n)
    assert len(classes) == count
    assert all(c.size == size for c in classes)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_classes_partition_the_symmetric_group(n):
    classes = necklace_classes(n)
    seen = set()
    for c in classes:
        members = {m.images for m in c.members}
        assert len(members) == c.size
        assert not (members & seen)
        seen |= members
        # closed under shift and reverse
        for m in c.members:
            assert cyclic_shift(m, 1).images in members
            assert reverse(m).images in members
        # representative is the lexicographic minimum
        assert c.representative.images == min(members)
    assert seen == set(itertools.permutations(range(1, n + 1)))


def test_classes_listed_by_representative_order():
    for n in range(3, 9):
        reps = [c.representative.images for c in necklace_classes(n)]
        assert reps == sorted(reps)


def test_parity_profiles():
    for c in necklace_classes(4):
        assert c.parity_profile == "alternating"
    fives = necklace_classes(5)
    assert sum(c.parity_profile == "uniform(+)" for c in fives) == 6
    assert sum(c.parity_profile == "uniform(-)" for c in fives) == 6
    # for n = 5 the profile is a property of the whole class
    for c in fives:
        want = 1 if c.parity_profile == "uniform(+)" else -1
        assert all(parity(m) == want for m in c.members)


def test_even_n_blocks_alternate_parity_along_starts():
    from sarrus import expand_block, windows

    for c in necklace_classes(4):
        strip = expand_block(c.representative)
        signs = [parity(w.descending) for w in windows(strip)]
        assert all(a == -b for a, b in zip(signs, signs[1:]))


def test_odd_n_blocks_keep_one_parity_along_starts():
    from sarrus import expand_block, windows

    for c in necklace_classes(5):
        strip = expand_block(c.representative)
        signs = {parity(w.descending) for w in windows(strip)}
        assert len(signs) == 1


def test_n2_has_one_undersized_class():
    (cls,) = necklace_classes(2)
    assert cls.size == 2 < 4


def test_class_size_guards():
    message = "necklace_classes enumerates S_n; n = 9 exceeds the limit of 8"
    with pytest.raises(SizeLimitExceeded, match=message):
        necklace_classes(9)
    with pytest.raises(SizeTooSmall):
        necklace_classes(1)


def test_search_n3_is_a_single_block_strip():
    sch = search_scheme(SearchConfig(n=3, random_seed=0))
    assert len(sch.strips) == 1
    assert len(sch.strips[0].columns) == 5
    assert validate(sch).is_valid


def test_search_n4_yields_one_strip_of_three_blocks():
    sch = search_scheme(SearchConfig(n=4, random_seed=11))
    assert len(sch.strips) == 1
    assert len(sch.strips[0].columns) == 3 * 7 - 2 == 19
    assert validate(sch).is_valid


def test_search_n5_yields_two_strips_of_six_blocks():
    sch = search_scheme(SearchConfig(n=5, random_seed=11))
    assert len(sch.strips) == 2
    assert [len(s.columns) for s in sch.strips] == [49, 49]
    report = validate(sch)
    assert report.is_valid
    assert report.even_count == report.odd_count == 60
    # each strip is parity-pure, one per family
    strip_parities = []
    for strip in sch.strips:
        words = [strip.window_at(p) for p in strip.starts]
        from sarrus import Permutation

        signs = {parity(Permutation(w)) for w in words}
        assert len(signs) == 1
        strip_parities.append(signs.pop())
    assert sorted(strip_parities) == [-1, 1]


def test_search_n6_covers_everything():
    sch = search_scheme(SearchConfig(n=6, random_seed=3))
    report = validate(sch)
    assert report.is_valid and report.covered == math.factorial(6)


def test_search_is_deterministic_under_a_seed():
    a = search_scheme(SearchConfig(n=5, random_seed=21))
    b = search_scheme(SearchConfig(n=5, random_seed=21))
    assert a == b


def test_max_blocks_per_strip():
    sch = search_scheme(SearchConfig(n=5, random_seed=2, max_blocks_per_strip=2))
    assert all(len(s.starts) <= 2 * 5 for s in sch.strips)
    assert len(sch.strips) == 6  # 12 classes in chains of at most 2
    assert validate(sch).is_valid
    singles = search_scheme(SearchConfig(n=4, random_seed=2, max_blocks_per_strip=1))
    assert len(singles.strips) == 3
    assert validate(singles).is_valid


def test_search_n2_fails_cleanly():
    with pytest.raises(NotFound) as err:
        search_scheme(SearchConfig(n=2))
    assert "self-symmetric" in str(err.value)


def test_search_builds_no_permutation(monkeypatch):
    # the search runs on raw words: it builds each chosen head alone from
    # its place, stitches the raw heads, and the parity split at n = 5 signs
    # the raw representatives; nor does the validation of a valid scheme
    # build one
    built = []
    check = Permutation.__post_init__

    def counting(self):
        built.append(self.images)
        check(self)

    monkeypatch.setattr(Permutation, "__post_init__", counting)
    for n in (7, 5):
        built.clear()
        sch = search_scheme(SearchConfig(n=n, random_seed=7))
        assert built == []
        assert validate(sch).is_valid


def _sorted_chain_group(reps, rng, max_blocks):
    # the chaining as it was before the place pick: each class lists its
    # words, sorts and shuffles them, and takes the first that continues
    n = len(reps[0])
    class_order = list(reps)
    rng.shuffle(class_order)
    chains = [[]]
    for rep in class_order:
        members = sorted(_class_words(rep, -1))
        rng.shuffle(members)
        if len(chains[-1]) == max_blocks:
            chains.append([])
        chain = chains[-1]
        need = chain[-1][n - 2] if chain else None
        chain.append(next(h for h in members if need is None or h[0] == need))
    return chains


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_place_pick_chains_as_the_sorted_shuffled_words_did(n):
    reps = _least_words(n)
    for seed, max_blocks in itertools.product(range(20), (None, 1, 3)):
        want = _sorted_chain_group(reps, random.Random(seed), max_blocks)
        assert _chain_group(reps, random.Random(seed), max_blocks) == want


def test_search_config_validation():
    with pytest.raises(SizeTooSmall):
        SearchConfig(n=1)
    with pytest.raises(ValueError):
        SearchConfig(n=4, max_blocks_per_strip=0)


@pytest.mark.parametrize(
    "fields",
    [{"n": 7.0}, {"n": True}, {"n": "7"}, {"max_blocks_per_strip": 2.5}, {"max_blocks_per_strip": True},
     {"random_seed": [1]}, {"random_seed": 1.0}, {"random_seed": True}],
    ids=["float-n", "bool-n", "str-n", "float-blocks", "bool-blocks", "list-seed", "float-seed", "bool-seed"],
)
def test_search_config_refuses_what_is_not_an_int(fields):
    # 2.5 never equals a chain's length, True is a chain of one, and a seed of
    # True or 1.0 would seed as 1
    with pytest.raises(ValueError, match="search needs int n and max_blocks_per_strip"):
        SearchConfig(**{"n": 7, **fields})


# SHA-256 of scheme_to_json(search_scheme(...)), taken before the chain search
# became a single greedy pass; seeded schemes must not change.
GOLDEN_SCHEMES = [
    (3, 0, None, "24a18494aaf1749465ed8580d998f54d2e7ebeca58d63ff031bbe5ba3349c323"),
    (4, 11, None, "d5266044dc24ea83aedc653991fa66efbf7b851a034d15503769ea121da0219f"),
    (4, 2, 1, "f0102220a0ae5c31b3f517f58ae1b43386d63a31371e702895631b4367ba90f9"),
    (5, 2, 2, "d6b80f024f2164f5e5474047556c51142a7365dc49aaebfa4535fa2efd204e17"),
    (5, 11, None, "56ee16e661bbfdf9fd071f0304eb6d7f12f3535756a7ff27b0c5b1e5cbb60d52"),
    (6, 3, None, "f05e8326e5fc71d95426715d42e334960ee1163f92a986a95df86267504daf54"),
    (7, 11, None, "d788437f54ddc693854e5552383c17fddafcfb4d61357458b9d5a8288729aa65"),
    (7, 7, None, "224f926253d3b831469527065cedcf71517882ac2e59c9744165db10b544d272"),
    (8, 7, None, "d584612682bf3c260899c05897ff82c945fc222c5a51ba82a533e080a1f420c8"),
]


@pytest.mark.parametrize("n,seed,max_blocks,digest", GOLDEN_SCHEMES)
def test_seeded_schemes_match_golden_digests(n, seed, max_blocks, digest):
    sch = search_scheme(SearchConfig(n=n, random_seed=seed, max_blocks_per_strip=max_blocks))
    assert hashlib.sha256(scheme_to_json(sch).encode()).hexdigest() == digest


def test_cli_generate_n8_is_fast():
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sarrus", "generate", "--n", "8", "--seed", "7"],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert time.perf_counter() - t0 < 5
    assert proc.returncode == 0, proc.stderr


def test_verify_generated_passes_for_good_schemes():
    report = verify_generated(scheme_4x4(), 200, seed=1)
    assert report.samples_checked == 200
    assert report.validation.is_valid


def test_verify_generated_catches_mutations():
    base = scheme_4x4().strips[0]
    cols = list(base.columns)
    cols[4] = 2
    mutated = Scheme(n=4, strips=(SchemeStrip(n=4, columns=tuple(cols), starts=base.starts),))
    with pytest.raises(VerificationFailed):
        verify_generated(mutated, 10)


@pytest.mark.parametrize(
    "fields",
    [{"seed": [1]}, {"seed": 1.0}, {"seed": True}, {"sample_count": 2.5}, {"sample_count": -1},
     {"sample_count": True}],
    ids=["list-seed", "float-seed", "bool-seed", "float-count", "negative-count", "bool-count"],
)
def test_verify_generated_refuses_a_seed_or_count_that_is_not_one(fields):
    # a list seed fails in random.Random, 2.5 in range, -1 would be reported
    # as checked, and a seed of True or 1.0 would seed as 1
    args = {"sample_count": 2, "seed": 1, **fields}
    with pytest.raises(ValueError, match="^verify_generated needs an int sample_count >= 0 and an int seed, got "):
        verify_generated(scheme_4x4(), args["sample_count"], seed=args["seed"])


def test_verify_generated_names_the_sample_the_oracle_refutes(monkeypatch):
    oracle, calls = sarrus.generate.bareiss_det, []

    def wrong_at_the_third(M):
        calls.append(M)
        return oracle(M) + (len(calls) == 3)

    monkeypatch.setattr(sarrus.generate, "bareiss_det", wrong_at_the_third)
    with pytest.raises(VerificationFailed) as caught:
        verify_generated(scheme_4x4(), 10, seed=5)
    M = calls[2]
    assert str(caught.value) == (
        f"sample 2: scheme evaluated to {oracle(M)} but the oracle says {oracle(M) + 1} for {M!r}"
    )
    assert len(calls) == 3


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_verify_generated_catches_a_kernel_that_drops_a_product(monkeypatch, n):
    # the validation passes, so only the samples can tell: the kernel drops
    # one word's product from the first window it is given. Its entries have
    # 62 bits, so the first sample catches it; drawn from [-9, 9], each
    # entry would be 0 one time in 19, and a 0 would hide it. Below n = 5
    # the word is the window's descending diagonal. From n = 5 that window
    # stands for a pair of classes, 3 and 4 swapped, and the word is the
    # swapped window's descending diagonal, which only the minor of columns
    # 3 and 4 forms; from n = 6 it is a quad, two such pairs, and the word
    # also has the entries at the exchanged positions u and v swapped, which
    # only the product of both minors forms
    sch = builtin_scheme(n) if n <= 5 else search_scheme(SearchConfig(n=n, random_seed=1))
    kernel, dropped = sarrus.scheme._run_sum, []
    swap = bytes.maketrans(b"\3\4", b"\4\3")

    def dropping(n, p, quad, mode):
        run_sum = kernel(n, p, quad, mode)

        def run_sum_less_one(columns, firsts):
            total = run_sum(columns, firsts)
            if mode == "-" and not dropped:
                dropped.append((p > 0, quad))
                word, sign = bytearray(firsts[:n]), 1
                if p:
                    word, sign = bytearray(word.translate(swap)), -sign
                if quad:
                    u, v = sarrus.scheme._exchange(n, p)
                    word[u], word[v], sign = word[v], word[u], -sign
                total -= sign * math.prod(columns[c][r] for r, c in enumerate(word))
            return total

        return run_sum_less_one

    monkeypatch.setattr(sarrus.scheme, "_run_sum", dropping)
    for seed in range(5):
        dropped.clear()
        with pytest.raises(VerificationFailed, match="^sample 0: "):
            verify_generated(sch, 5, seed=seed)
        assert dropped == [(n >= 5, n >= 6)]


def test_generated_schemes_survive_verification():
    for n, seed in ((4, 5), (5, 9)):
        sch = search_scheme(SearchConfig(n=n, random_seed=seed))
        report = verify_generated(sch, 100, seed=seed)
        assert report.samples_checked == 100
