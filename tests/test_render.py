import pytest

from sarrus import (
    InvalidScheme,
    RenderSpec,
    Scheme,
    SchemeStrip,
    SearchConfig,
    SizeLimitExceeded,
    classic_sarrus,
    render,
    scheme_4x4,
    scheme_5x5,
    search_scheme,
)


def count(haystack: str, needle: str) -> int:
    return haystack.count(needle)


def test_svg_is_deterministic():
    spec = RenderSpec(scheme=scheme_4x4())
    assert render(spec) == render(spec)
    assert render(spec) == render(RenderSpec(scheme=scheme_4x4()))


def test_ascii_is_deterministic():
    spec = RenderSpec(scheme=scheme_5x5(), output_format="ascii")
    assert render(spec) == render(spec)


def test_4x4_svg_structure():
    out = render(RenderSpec(scheme=scheme_4x4()))
    assert out.startswith("<svg ") or out.startswith("<svg\n")
    # 24 diagonal strokes: 12 in each sign color
    lines = [seg for seg in out.splitlines() if seg.startswith("<line")]
    assert len(lines) == 24
    assert sum('stroke="blue"' in seg for seg in lines) == 12
    assert sum('stroke="orange"' in seg for seg in lines) == 12
    # one cell rect per strip column (plus the background rect)
    assert count(out, "<rect") == 19 + 1
    assert out.endswith("</svg>\n")


def test_5x5_svg_has_two_grids():
    out = render(RenderSpec(scheme=scheme_5x5()))
    assert count(out, "<rect") == 2 * 49 + 1
    lines = [seg for seg in out.splitlines() if seg.startswith("<line")]
    assert len(lines) == 2 * 60
    assert sum('stroke="blue"' in seg for seg in lines) == 60
    assert sum('stroke="orange"' in seg for seg in lines) == 60


def test_classic_sarrus_svg_signs():
    out = render(RenderSpec(scheme=classic_sarrus(3)))
    lines = [seg for seg in out.splitlines() if seg.startswith("<line")]
    assert len(lines) == 6
    assert sum('stroke="blue"' in seg for seg in lines) == 3
    assert sum('stroke="orange"' in seg for seg in lines) == 3


def test_custom_colors_and_no_signs():
    out = render(
        RenderSpec(
            scheme=classic_sarrus(3),
            positive_color="#112233",
            negative_color="#445566",
            show_signs=False,
        )
    )
    assert 'stroke="#112233"' in out and 'stroke="#445566"' in out
    assert count(out, "<text") == 3 * 5  # only the cell labels, no badges


def test_ascii_contents():
    out = render(RenderSpec(scheme=classic_sarrus(3), output_format="ascii"))
    assert "strip 1: 3 rows x 5 columns" in out
    assert " + + +" in out
    assert " - - -" in out
    assert "start   1: desc 1-2-3 (+)  asc 3-2-1 (-)" in out
    assert out.count(" 1 2 3 1 2") == 3


def test_ascii_4x4_sign_rows():
    out = render(RenderSpec(scheme=scheme_4x4(), output_format="ascii"))
    rows = out.splitlines()
    badge = rows[1]
    # starts 1..4 alternate, then the segment pattern repeats at 7..10, 13..16
    assert badge.strip().startswith("+ - + -")


def test_render_refuses_invalid_schemes():
    broken = Scheme(n=3, strips=(SchemeStrip(n=3, columns=(1, 2, 3, 1, 2), starts=(1,)),))
    with pytest.raises(InvalidScheme):
        render(RenderSpec(scheme=broken))


def test_seeded_seven_by_seven_svg_element_counts():
    # one strip of 4321 columns: a dropped or doubled separator in any of the
    # per-column or per-start joins shows up in these counts
    sch = search_scheme(SearchConfig(n=7, random_seed=1))
    (strip,) = sch.strips
    cols, starts = len(strip.columns), len(strip.starts)
    out = render(RenderSpec(scheme=sch))
    assert count(out, "<rect") == cols + 1
    assert count(out, "<line") == 2 * starts
    assert count(out, "<text") == 7 * cols + 2 * starts
    assert out.endswith("</svg>\n") and count(out, "</svg>") == 1
    assert not out.endswith("\n\n")
    # one element per line
    assert len(out.splitlines()) == 1 + (cols + 1) + 2 * starts + 7 * cols + 2 * starts + 1


@pytest.mark.parametrize("output_format", ["svg", "ascii"])
def test_render_refuses_more_cells_than_its_limit_before_its_pass(output_format):
    # 400,000 columns at n = 3 are 1,200,000 cells; the pass would find the
    # strip incomplete
    big = Scheme(n=3, strips=(SchemeStrip(n=3, columns=(1, 2, 3) * 133333 + (1,), starts=(1,)),))
    with pytest.raises(SizeLimitExceeded, match="1200000 cells; the limit is 1048576$"):
        render(RenderSpec(scheme=big, output_format=output_format))
    assert big._pass is None
    # 2**20 cells are within the limit: the pass runs and refuses the scheme
    edge = Scheme(n=4, strips=(SchemeStrip(n=4, columns=(1, 2, 3, 4) * (1 << 16), starts=(1,)),))
    with pytest.raises(InvalidScheme):
        render(RenderSpec(scheme=edge, output_format=output_format))


def test_render_spec_validation():
    with pytest.raises(ValueError):
        RenderSpec(scheme=classic_sarrus(3), cell_size=0)
    with pytest.raises(ValueError):
        RenderSpec(scheme=classic_sarrus(3), output_format="png")
    # a bool or a float would be written into the attributes as given
    for cell_size in (True, 28.0, 7.5):
        with pytest.raises(ValueError, match="cell_size"):
            RenderSpec(scheme=classic_sarrus(3), cell_size=cell_size)
