"""Deterministic diagrams of schemes, as SVG or plain text.

Each strip becomes a grid with one cell per (row, strip column) showing the
column index, a diagonal stroke per window colored by its sign, and sign
badges above (descending) and below (ascending) each start, as the scheme
module's walk of the strip signs them. Output is a pure function of the
RenderSpec: same input, byte-identical bytes. A scheme of more than 2^20
cells (n x total columns) is refused with SizeLimitExceeded before its pass.

The SVG writer formats the constant text of each strip once, as templates
split where a centre goes, and then makes one string per column and one per
start by joining centres into them. ``cell_size`` is an int, so every
coordinate is an integer or ends in .5 and is written with integer arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import SizeLimitExceeded
from .scheme import Scheme, _complete, _diagonals

_CELL_SIZE_LIMIT = 1000
# n x columns cells: a searched n = 8 scheme draws 282,248 in a 52 MB SVG,
# and a full n = 9 one would draw ~2.9 million
_CELL_LIMIT = 1 << 20
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
        if not (type(self.cell_size) is int and 0 < self.cell_size <= _CELL_SIZE_LIMIT):
            raise ValueError(f"cell_size must be an int in 1..{_CELL_SIZE_LIMIT}")
        for color in (self.positive_color, self.negative_color):
            if not _COLOR.fullmatch(color):
                raise ValueError(f"colour {color!r} is neither #rgb, #rrggbb nor a name")
        if self.output_format not in ("svg", "ascii"):
            raise ValueError(f"unknown output format {self.output_format!r}")


def render(spec: RenderSpec) -> str:
    if (cells := spec.scheme.n * sum(len(strip.columns) for strip in spec.scheme.strips)) > _CELL_LIMIT:
        raise SizeLimitExceeded(f"render draws n x columns = {cells} cells; the limit is {_CELL_LIMIT}")
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
    pairs = [(sign, back_sign) for sign in (1, -1) for back_sign in (1, -1)]
    # a cell centre is an integer for even s and ends in .5 for odd s
    half = ".5" if s % 2 else ""

    stroke_width = _fmt(s * 0.25)
    for si, (strip, diagonals) in enumerate(zip(sch.strips, strips)):
        y0 = margin + si * (strip_height + gap)
        grid_top = y0 + badge
        right = margin + len(strip.columns) * s
        # the centres of strip column c and of row r are xs[c - 1] and ys[r - 1]
        xs = [f"{k}{half}" for k in range(margin + s // 2, right, s)]
        ys = [f"{k}{half}" for k in range(grid_top + s // 2, grid_top + n * s, s)]
        # Each kind of element is formatted once per strip as a template, split
        # where its x goes ("\0"; "\1" for a stroke's right end; no colour can
        # hold either). One join, or one f-string, per column or per start then
        # fills in the centres.
        head, tail = (
            f'<rect x="\0" y="{grid_top}" width="{s}" height="{n * s}" fill="none" '
            f'stroke="#bbbbbb" stroke-width="1"/>'
        ).split("\0")
        sep = f"{tail}\n{head}"
        parts.append(f"{head}{sep.join(map(str, range(margin, right, s)))}{tail}")

        # the descending stroke, then the ascending one unless the two coincide (n = 1)
        rows = [(0, n - 1), (n - 1, 0)] if n > 1 else [(0, 0)]
        strokes = {
            pair: re.split(
                "[\0\1]",
                "\n".join(
                    f'<line x1="\0" y1="{ys[first]}" x2="\1" y2="{ys[last]}" '
                    f'stroke="{color[stroke_sign]}" stroke-width="{stroke_width}" '
                    f'stroke-opacity="0.45" stroke-linecap="round"/>'
                    for stroke_sign, (first, last) in zip(pair, rows)
                ),
            )
            for pair in pairs
        }
        for p, sign, back_sign in diagonals:
            x1, x2 = xs[p - 1], xs[p + n - 2]
            t = strokes[sign, back_sign]
            # at n = 1 the two ends share x1
            parts.append(f"{t[0]}{x1}{t[1]}{x2}{t[2]}{x1}{t[3]}{x2}{t[4]}" if n > 1 else x1.join(t))

        # the n row texts of one column, for each column value
        cells = {
            col: "\n".join(
                f'<text x="\0" y="{y}" font-family="monospace" '
                f'font-size="{font}" text-anchor="middle" dominant-baseline="central" '
                f'fill="#222222">{col}</text>'
                for y in ys
            ).split("\0")
            for col in set(strip.columns)
        }
        parts.extend(map(str.join, xs, map(cells.__getitem__, strip.columns)))

        if spec.show_signs:
            # descending sign above the grid, ascending sign below it
            above, below = _fmt(y0 + badge / 2), _fmt(grid_top + n * s + badge / 2)
            badges = {
                pair: "\n".join(
                    f'<text x="\0" y="{y}" '
                    f'font-family="monospace" font-size="{badge_font}" text-anchor="middle" '
                    f'dominant-baseline="central" fill="{color[badge_sign]}">{_mark(badge_sign)}</text>'
                    for badge_sign, y in zip(pair, (above, below))
                ).split("\0")
                for pair in pairs
            }
            parts.extend([xs[p - 1].join(badges[sign, b]) for p, sign, b in diagonals])
    parts += ("</svg>", "")
    return "\n".join(parts)


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
