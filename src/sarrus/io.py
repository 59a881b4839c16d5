"""File formats: exact matrices (CSV and JSON) and scheme JSON.

Matrix CSV is one row per line, comma-separated integers or rationals written
as "p/q". Matrix JSON is an array of arrays whose entries are integers or
"p/q" strings; floats are rejected rather than silently rounded, since the
whole point of the library is exactness. Scheme JSON is
{"n": int, "strips": [{"columns": [int, ...], "starts": [int, ...]}]}; signs
are never stored, they are recomputed from window parity.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .errors import NonSquare, ParseError
from .matrix import Matrix, Scalar
from .perm import Permutation
from .scheme import Scheme, SchemeStrip


def _parse_exact(token: str, line: int, column: int) -> Scalar:
    text = token.strip()
    if not text:
        raise ParseError(line, column, "empty entry")
    # before Fraction, which would expand an exponent such as 1e1000000000
    if "." in text or "e" in text.lower():
        raise ParseError(line, column, f"not an exact number: {text!r}; floats are refused")
    # plain integers, the common case, skip the Fraction parse; int accepts
    # no text that Fraction reads differently
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(line, column, f"not an exact number: {text!r} ({e})") from None
    return int(value) if value.denominator == 1 else value


def _square(rows: list[list[Scalar]]) -> Matrix:
    if not rows:
        raise ParseError(1, 0, "no rows")
    widths = {len(r) for r in rows}
    if widths != {len(rows)}:
        raise NonSquare(f"{len(rows)} rows with widths {sorted(widths)}")
    return Matrix.from_rows(rows)


def matrix_from_csv(text: str) -> Matrix:
    rows: list[list[Scalar]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = [
            _parse_exact(tok, lineno, col)
            for col, tok in enumerate(line.split(","), start=1)
        ]
        rows.append(row)
    return _square(rows)


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.lineno, e.colno, e.msg) from None
    except (ValueError, RecursionError) as e:  # over-long integer literal, deep nesting
        raise ParseError(1, 0, f"unreadable JSON: {e}") from None


def matrix_from_json(text: str) -> Matrix:
    data = _load_json(text)
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ParseError(1, 0, "expected an array of arrays")
    rows: list[list[Scalar]] = []
    for i, row in enumerate(data, start=1):
        out: list[Scalar] = []
        for j, x in enumerate(row, start=1):
            if isinstance(x, int) and not isinstance(x, bool):
                out.append(x)
            elif isinstance(x, str):
                out.append(_parse_exact(x, i, j))
            else:
                raise ParseError(i, j, f"entry {x!r} is not exact; use an int or \"p/q\"")
        rows.append(out)
    return _square(rows)


def parse_matrix(path: str | Path, format: str | None = None) -> Matrix:
    """Read an exact matrix from a file; format 'csv' or 'json', inferred from
    the suffix when omitted."""
    path = Path(path)
    fmt = format or ("json" if path.suffix.lower() == ".json" else "csv")
    text = path.read_text(encoding="utf-8-sig")
    if fmt == "csv":
        return matrix_from_csv(text)
    if fmt == "json":
        return matrix_from_json(text)
    raise ValueError(f"unknown matrix format {fmt!r}")


def _json_ints(values: tuple[int, ...]) -> str:
    # a list of ints as json.dumps(..., indent=2) lays it out at this depth
    if not values:
        return "[]"
    return "[\n        " + ",\n        ".join(map(str, values)) + "\n      ]"


def scheme_to_json(sch: Scheme) -> str:
    # the layout of json.dumps(payload, indent=2), written directly: with an
    # indent, json.dumps runs its pure-Python encoder
    strips = ",\n    ".join(
        f'{{\n      "columns": {_json_ints(s.columns)},\n      "starts": {_json_ints(s.starts)}\n    }}'
        for s in sch.strips
    )
    return f'{{\n  "n": {sch.n},\n  "strips": [\n    {strips}\n  ]\n}}'


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(map(_is_int, value)):
        raise ParseError(1, 0, f"malformed {what} must be a list of integers")
    return tuple(value)


def scheme_from_json(text: str) -> Scheme:
    data = _load_json(text)
    try:
        n = data["n"]
        if not _is_int(n):
            raise ParseError(1, 0, "malformed scheme JSON: n must be an integer")
        strips = tuple(
            SchemeStrip(
                n=n,
                columns=_int_list(s["columns"], "scheme JSON: columns"),
                starts=_int_list(s["starts"], "scheme JSON: starts"),
            )
            for s in data["strips"]
        )
        return Scheme(n=n, strips=strips)
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(1, 0, f"malformed scheme JSON: {e}") from None


def load_scheme(path: str | Path) -> Scheme:
    return scheme_from_json(Path(path).read_text(encoding="utf-8-sig"))


def save_scheme(sch: Scheme, path: str | Path) -> None:
    Path(path).write_text(scheme_to_json(sch) + "\n", encoding="utf-8")


def permutation_to_json(p: Permutation) -> str:
    return json.dumps(list(p.images))


def permutation_from_json(text: str) -> Permutation:
    word = _int_list(_load_json(text), "permutation JSON: the word")
    try:
        return Permutation(word)
    except ValueError as e:
        raise ParseError(1, 0, f"permutation JSON: {e}") from None


def format_scalar(x: Scalar) -> str:
    """Exact rendering: integers plain, rationals as p/q."""
    return str(x)
