"""Byte-level pins on rendered diagrams and report text.

The digests were taken from the implementation that derived each window's
sign separately in every consumer; the single signed-window pass must
reproduce the same bytes.
"""

import hashlib

import pytest

from sarrus import (
    RenderSpec,
    Scheme,
    SchemeStrip,
    SearchConfig,
    builtin_scheme,
    render,
    scheme_4x4,
    scheme_5x5,
    search_scheme,
    validate,
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "n,expected",
    [
        (2, "b5e5c4a93d5f43073c5cfd7055a44d5d593f046bfc30ef58f1d65d1889a73502"),
        (3, "c6736303e40509763c8cc8f00cee9ee5e0acf4b023c962e33aefac980e65cf59"),
        (4, "cfd0994e3c3c5741014b9fa7522c48af19d1fe90d53d81eae0367d7c87182235"),
        (5, "112f53237651806a124805a2ac4077f226bcdd44adadcc6406f48b963c0ad8c2"),
    ],
)
def test_builtin_svg_bytes(n, expected):
    assert digest(render(RenderSpec(scheme=builtin_scheme(n)))) == expected


def test_svg_bytes_without_signs_in_custom_colours():
    spec = RenderSpec(
        scheme=scheme_5x5(),
        cell_size=17,
        show_signs=False,
        positive_color="#112233",
        negative_color="#445566",
    )
    assert digest(render(spec)) == "e651dcbd24a71c6f3d1558a40c68ede8b68b1c613e890a683567bee394618e6d"


def test_searched_svg_bytes():
    # one strip of 60 blocks and 601 columns, far past the built-in strips; taken
    # before the SVG writer formatted each column and row centre once per strip
    sch = search_scheme(SearchConfig(n=6, random_seed=3))
    expected = "5211713ff47c8c363bf93b84267f2275572b2fc1cf7385af722df22cefd6f098"
    assert digest(render(RenderSpec(scheme=sch))) == expected


# The pins below were taken from the writer that formatted every element with
# its own f-string, before it built each strip from per-column templates.


@pytest.mark.parametrize(
    "show_signs,expected",
    [
        (True, "544804d9ebed568bf006bf2646f93ee7bd5ff931cd928185ee3b005e204d2d38"),
        (False, "f52288c8cbf212984b2994368b6e2cc90efac58e1f1bb5f6af2697115c7210f1"),
    ],
)
def test_one_by_one_svg_bytes(show_signs, expected):
    # n = 1: one stroke per start, and its two badges share one sign
    sch = Scheme(n=1, strips=(SchemeStrip(n=1, columns=(1,), starts=(1,)),))
    assert digest(render(RenderSpec(scheme=sch, show_signs=show_signs))) == expected


def test_many_strip_svg_bytes_at_an_odd_cell_size():
    # twelve strips, so every strip's y offset shows; odd s puts centres at k.5
    sch = search_scheme(SearchConfig(n=6, random_seed=2, max_blocks_per_strip=5))
    assert len(sch.strips) > 1
    spec = RenderSpec(scheme=sch, cell_size=13, positive_color="#0a0", negative_color="crimson")
    expected = "e00a0597754f9255f5b4f7e39bff98297afa7515be7c144c7c5592138a5ec867"
    assert digest(render(spec)) == expected


def test_svg_bytes_at_the_smallest_cell_size():
    # both font sizes sit on their floors, and the stroke width is 0.2
    spec = RenderSpec(scheme=builtin_scheme(4), cell_size=1)
    expected = "e11f0d232e2639e40585e30b244ed806539018cadf3e81c2da7717cdeb23d4f9"
    assert digest(render(spec)) == expected


def test_seeded_seven_by_seven_svg_bytes():
    # one strip of 4321 columns
    sch = search_scheme(SearchConfig(n=7, random_seed=1))
    expected = "39124a687225b9a1158351a255a351c2bdf962df2b8cfac8c15981d858be83a5"
    assert digest(render(RenderSpec(scheme=sch))) == expected


@pytest.mark.parametrize(
    "n,expected",
    [
        (3, "7f8330d2342a595112e09a28bf4e6412aeab110886edd8bf330d078ac5b41239"),
        (4, "2d71957441834f88d4f0eb6941db4816511695cbe48405f9866711f4f4c00b1e"),
        (5, "705c4a66a6c8e22a08870ba8a4800e0741e7209d845e0147f1e544d6251315a8"),
    ],
)
def test_builtin_ascii_bytes(n, expected):
    spec = RenderSpec(scheme=builtin_scheme(n), output_format="ascii")
    assert digest(render(spec)) == expected


def test_defective_summary_text():
    # a repeated column (invalid windows and missing words) next to a strip
    # that covers two words a second time and two missing ones
    base = scheme_4x4().strips[0]
    cols = list(base.columns)
    cols[4] = 2
    scheme = Scheme(
        n=4,
        strips=(
            SchemeStrip(n=4, columns=tuple(cols), starts=base.starts),
            SchemeStrip(n=4, columns=(1, 2, 3, 4, 1), starts=(1, 2)),
        ),
    )
    report = validate(scheme)
    assert report.duplicates and report.missing and report.invalid_windows
    assert digest(report.summary()) == "e628e78b1847da003fda3dc22046b0d473b99ecc76ab6b32594b6df39a28705e"
