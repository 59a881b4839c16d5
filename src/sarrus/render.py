"""Deterministic diagrams of schemes, as SVG or plain text.

Each strip becomes a grid with one cell per (row, strip column) showing the
column index, a diagonal stroke per window colored by its sign, and sign
badges above (descending) and below (ascending) each start, as the scheme
module's walk of the strip signs them. Output is a pure function of the
RenderSpec: same input, byte-identical bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .scheme import Scheme, _complete, _diagonals

_CELL_SIZE_LIMIT = 1000
# colours go into SVG attributes as given, so only #rgb, #rrggbb or a name
_COLOR = re.compile(r"#(?:[0-9a-fA-F]{3}){1,2}|[A-Za-z]+")


@dataclass(frozen=True, slots=True)
class RenderSpec:
    scheme: Scheme
    cell_size: int = 28
    show_signs: bool = True
    positive_color: str = "blue"
    negative_color: str = "orange"
    output_format: str = "svg"  # "svg" or "ascii"

    def __post_init__(self):
        if not 0 < self.cell_size <= _CELL_SIZE_LIMIT:
            raise ValueError(f"cell_size must be in 1..{_CELL_SIZE_LIMIT}")
        for color in (self.positive_color, self.negative_color):
            if not _COLOR.fullmatch(color):
                raise ValueError(f"colour {color!r} is neither #rgb, #rrggbb nor a name")
        if self.output_format not in ("svg", "ascii"):
            raise ValueError(f"unknown output format {self.output_format!r}")


def render(spec: RenderSpec) -> str:
    _complete(spec.scheme)
    strips = [list(_diagonals(spec.scheme.n, strip)) for strip in spec.scheme.strips]
    if spec.output_format == "svg":
        return _render_svg(spec, strips)
    return _render_ascii(spec, strips)


def _fmt(v: float) -> str:
    return str(int(v)) if v == int(v) else f"{v:.1f}"


def _mark(sign: int) -> str:
    return "+" if sign == 1 else "-"


def _render_svg(spec: RenderSpec, strips: list[list[tuple[int, int, int]]]) -> str:
    sch = spec.scheme
    s = spec.cell_size
    n = sch.n
    margin = s // 2 + 4
    badge = s // 2 + 6 if spec.show_signs else 0
    strip_height = n * s + 2 * badge
    gap = s

    width = 2 * margin + max(len(st.columns) for st in sch.strips) * s
    height = 2 * margin + len(sch.strips) * strip_height + (len(sch.strips) - 1) * gap

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    font = max(10, int(s * 0.45))
    badge_font = max(9, int(s * 0.4))
    color = {1: spec.positive_color, -1: spec.negative_color}

    stroke_width = _fmt(s * 0.25)
    for si, (strip, diagonals) in enumerate(zip(sch.strips, strips)):
        y0 = margin + si * (strip_height + gap)
        grid_top = y0 + badge
        # the centres of strip column c and of row r are xs[c - 1] and ys[r - 1]
        xs = [_fmt(margin + (c - 0.5) * s) for c in range(1, len(strip.columns) + 1)]
        ys = [_fmt(grid_top + (r - 0.5) * s) for r in range(1, n + 1)]
        for c in range(len(strip.columns)):
            parts.append(
                f'<rect x="{_fmt(margin + c * s)}" y="{_fmt(grid_top)}" width="{s}" '
                f'height="{n * s}" fill="none" stroke="#bbbbbb" stroke-width="1"/>'
            )
        for p, sign, back_sign in diagonals:
            # (sign, first row, last row): descending, then ascending unless
            # the two coincide (n = 1)
            strokes = [(sign, 0, n - 1), (back_sign, n - 1, 0)] if n > 1 else [(sign, 0, 0)]
            for stroke_sign, first, last in strokes:
                parts.append(
                    f'<line x1="{xs[p - 1]}" y1="{ys[first]}" '
                    f'x2="{xs[p + n - 2]}" y2="{ys[last]}" '
                    f'stroke="{color[stroke_sign]}" stroke-width="{stroke_width}" '
                    f'stroke-opacity="0.45" stroke-linecap="round"/>'
                )
        for x, col in zip(xs, strip.columns):
            for y in ys:
                parts.append(
                    f'<text x="{x}" y="{y}" font-family="monospace" '
                    f'font-size="{font}" text-anchor="middle" dominant-baseline="central" '
                    f'fill="#222222">{col}</text>'
                )
        if spec.show_signs:
            # descending sign above the grid, ascending sign below it
            above, below = _fmt(y0 + badge / 2), _fmt(grid_top + n * s + badge / 2)
            for p, sign, back_sign in diagonals:
                for badge_sign, y in ((sign, above), (back_sign, below)):
                    parts.append(
                        f'<text x="{xs[p - 1]}" y="{y}" '
                        f'font-family="monospace" font-size="{badge_font}" text-anchor="middle" '
                        f'dominant-baseline="central" fill="{color[badge_sign]}">{_mark(badge_sign)}</text>'
                    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render_ascii(spec: RenderSpec, strips: list[list[tuple[int, int, int]]]) -> str:
    sch = spec.scheme
    n = sch.n
    cell = max(len(str(c)) for st in sch.strips for c in st.columns) + 1
    lines: list[str] = []
    for si, (strip, diagonals) in enumerate(zip(sch.strips, strips), start=1):
        lines.append(f"strip {si}: {n} rows x {len(strip.columns)} columns")
        grid = ["".join(str(c).rjust(cell) for c in strip.columns)] * n
        if spec.show_signs:
            top = [" " * cell] * len(strip.columns)
            bottom = list(top)
            for p, sign, back_sign in diagonals:
                top[p - 1] = _mark(sign).rjust(cell)
                bottom[p - 1] = _mark(back_sign).rjust(cell)
            grid = ["".join(top), *grid, "".join(bottom)]
        lines.extend(grid)
        for p, sign, back_sign in diagonals:
            w = strip.window_at(p)
            desc = "-".join(map(str, w))
            asc = "-".join(map(str, w[::-1]))
            lines.append(
                f"  start {p:>3}: desc {desc} ({_mark(sign)})  asc {asc} ({_mark(back_sign)})"
            )
        lines.append("")
    return "\n".join(lines)
