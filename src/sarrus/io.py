"""File formats: exact matrices (CSV and JSON) and scheme JSON.

Matrix CSV is one row per line, comma-separated integers or rationals written
as "p/q". Matrix JSON is an array of arrays whose entries are integers or
"p/q" strings; floats are rejected rather than silently rounded, since the
whole point of the library is exactness. Scheme JSON is
{"n": int, "strips": [{"columns": [int, ...], "starts": [int, ...]}]}; signs
are never stored, they are recomputed from window parity. The scheme and
permutation readers check structure only, that the objects and arrays are
there, naming the field that is not: each value is checked once, by the type
that holds it (``SchemeStrip``, ``Scheme``, ``Permutation``), whose
ValueError becomes a ParseError; a ``Scheme`` past its size limit raises
SizeLimitExceeded as it is.

Matrix entries are parsed in three tiers, each accepting exactly what the
``Fraction`` parse accepts for it. A CSV line of integers is read by one
``int`` per token, and a JSON row of integers is taken as it is. A line or
row that is not all integers is read token by token (``_parse_exact``), so
an error names its line and column. A token is an int if ``int`` reads it,
then a "p/q" of decimal digits is built from two ints, and anything else
goes to ``Fraction``. ``Matrix`` then checks each entry's type and the
shape, once, and stores an integral ``Fraction`` such as "4/2" as an int;
a ragged file is its ``NonSquare``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .errors import ParseError, _quoted
from .matrix import Matrix, Scalar
from .perm import Permutation
from .scheme import Scheme, SchemeStrip


def _parse_exact(token: str, line: int, column: int) -> Scalar:
    """One entry, for a CSV line or JSON row that is not all integers: an int
    if ``int`` reads it, else a Fraction, from two ints for a plain "p/q" and
    from ``Fraction`` otherwise. A float or any other text is a ParseError at
    (line, column)."""
    text = token.strip()
    if not text:
        raise ParseError(line, column, "empty entry")
    # before Fraction, which would expand an exponent such as 1e1000000000
    if "." in text or "e" in text.lower():
        raise ParseError(line, column, f"not an exact number: {_quoted(text)}; floats are refused")
    # plain integers, the common case, skip the Fraction parse; int accepts
    # no text that Fraction reads differently, and none with a "/"
    if "/" not in text:
        try:
            return int(text)
        except ValueError:
            pass
    try:
        return _fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        # Fraction's own message may quote the token too
        reason = str(e).replace(repr(text), _quoted(text))
        raise ParseError(line, column, f"not an exact number: {_quoted(text)} ({reason})") from None


def _fraction(text: str) -> Fraction:
    """Fraction(text), from two ints when text is a signed p over a q of
    decimal digits."""
    p, _, q = text.partition("/")
    if q.isdecimal() and (p[1:] if p[:1] in ("+", "-") else p).isdecimal():
        try:
            return Fraction(int(p), int(q))
        except (ValueError, ZeroDivisionError):
            pass  # too many digits for int, or q = 0: Fraction words the error
    return Fraction(text)


def _square(rows: list[tuple[Scalar, ...]]) -> Matrix:
    # Matrix checks the widths; no rows is a ParseError, with its line and column
    if not rows:
        raise ParseError(1, 0, "no rows")
    return Matrix(tuple(rows))


def matrix_from_csv(text: str) -> Matrix:
    rows: list[tuple[Scalar, ...]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split(",")
        if "/" not in line:
            try:
                rows.append(tuple(map(int, tokens)))
                continue
            except ValueError:
                pass
        rows.append(tuple(_parse_exact(tok, lineno, col) for col, tok in enumerate(tokens, start=1)))
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
    rows: list[tuple[Scalar, ...]] = []
    for i, row in enumerate(data, start=1):
        for x in row:
            if type(x) is not int:  # a bool is an int too
                break
        else:
            rows.append(tuple(row))
            continue
        out: list[Scalar] = []
        for j, x in enumerate(row, start=1):
            if isinstance(x, int) and not isinstance(x, bool):
                out.append(x)
            elif isinstance(x, str):
                out.append(_parse_exact(x, i, j))
            else:
                raise ParseError(i, j, f"entry {_quoted(x)} is not exact; use an int or \"p/q\"")
        rows.append(tuple(out))
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


# the structure only: the types that hold the values check each one
def _array(value, what: str, items: str = "integers") -> tuple:
    if not isinstance(value, list):
        raise ParseError(1, 0, f"malformed {what} must be a list of {items}")
    return tuple(value)


def _object(value, what: str, *keys: str) -> dict:
    if not isinstance(value, dict) or not all(key in value for key in keys):
        raise ParseError(1, 0, f"malformed {what} must be an object with {' and '.join(map(json.dumps, keys))}")
    return value


def scheme_from_json(text: str) -> Scheme:
    data = _object(_load_json(text), "scheme JSON: the file", "n", "strips")
    n = data["n"]
    try:
        strips = []
        for i, s in enumerate(_array(data["strips"], "scheme JSON: strips", "objects"), start=1):
            s = _object(s, f"scheme JSON: strip {i}", "columns", "starts")
            columns = _array(s["columns"], "scheme JSON: columns")
            strips.append(SchemeStrip(n=n, columns=columns, starts=_array(s["starts"], "scheme JSON: starts")))
        return Scheme(n=n, strips=strips)
    except ValueError as e:
        raise ParseError(1, 0, f"malformed scheme JSON: {e}") from None


def load_scheme(path: str | Path) -> Scheme:
    return scheme_from_json(Path(path).read_text(encoding="utf-8-sig"))


def save_scheme(sch: Scheme, path: str | Path) -> None:
    Path(path).write_text(scheme_to_json(sch) + "\n", encoding="utf-8")


def permutation_to_json(p: Permutation) -> str:
    return json.dumps(list(p.images))


def permutation_from_json(text: str) -> Permutation:
    word = _array(_load_json(text), "permutation JSON: the word")
    try:
        return Permutation(word)
    except ValueError as e:
        raise ParseError(1, 0, f"permutation JSON: {e}") from None


def format_scalar(x: Scalar) -> str:
    """Exact rendering: integers plain, rationals as p/q, of any length."""
    if isinstance(x, Fraction):
        p = _decimal(x.numerator)
        return p if x.denominator == 1 else f"{p}/{_decimal(x.denominator)}"
    return _decimal(x)


def _decimal(x: int) -> str:
    """str(x), also past CPython's limit on the digits of an int converted to
    text (4300 by default): an int that str refuses is split on a power of
    ten and each part written on its own. The process-wide limit is left as
    it is."""
    try:
        return str(x)
    except ValueError:
        k = x.bit_length() * 3 // 20  # about half its digits: log10(2) > 3/10
        high, low = divmod(abs(x), 10**k)
        return "-" * (x < 0) + _decimal(high) + _decimal(low).zfill(k)
