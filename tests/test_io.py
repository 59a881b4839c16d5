import json
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import WORKED_ROWS

from sarrus import (
    Matrix,
    NonSquare,
    ParseError,
    Permutation,
    SarrusError,
    Scheme,
    SchemeStrip,
    bareiss_det,
    format_scalar,
    load_scheme,
    matrix_from_csv,
    matrix_from_json,
    parse_matrix,
    permutation_from_json,
    permutation_to_json,
    save_scheme,
    scheme_4x4,
    scheme_5x5,
    scheme_from_json,
    scheme_to_json,
    search_scheme,
    SearchConfig,
    validate,
)
from sarrus.io import _load_json, _parse_exact, _quoted

WORKED_CSV = "2,3,4,-1\n1,-2,0,5\n5,2,2,-3\n8,1,1,1\n"


def test_csv_round_trip_of_worked_matrix():
    M = matrix_from_csv(WORKED_CSV)
    assert M == Matrix.from_rows(WORKED_ROWS)


def test_csv_rationals():
    M = matrix_from_csv("1/2,0\n0,2\n")
    assert M.entry(1, 1) == Fraction(1, 2)
    assert bareiss_det(M) == 1


def test_csv_whitespace_and_blank_lines():
    M = matrix_from_csv(" 1 , 2 \n\n 3 , 4 \n")
    assert M == Matrix.from_rows([[1, 2], [3, 4]])


def test_csv_non_square():
    with pytest.raises(NonSquare):
        matrix_from_csv("1,2,3,4\n5,6,7,8\n9,10,11,12\n")


def test_csv_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        matrix_from_csv("1,2\n3,x\n")
    assert err.value.line == 2 and err.value.column == 2
    with pytest.raises(ParseError) as err:
        matrix_from_csv("1.5,2\n3,4\n")
    assert err.value.line == 1 and err.value.column == 1
    with pytest.raises(ParseError):
        matrix_from_csv("")


def test_json_matrix_entries():
    M = matrix_from_json('[[1, "3/2"], [0, 2]]')
    assert M.entry(1, 2) == Fraction(3, 2)
    with pytest.raises(ParseError) as err:
        matrix_from_json("[[1.5, 2], [3, 4]]")
    assert (err.value.line, err.value.column) == (1, 1)
    with pytest.raises(ParseError):
        matrix_from_json("[[true, 1], [0, 1]]")
    with pytest.raises(ParseError):
        matrix_from_json("not json")
    with pytest.raises(ParseError):
        matrix_from_json('{"rows": []}')
    with pytest.raises(NonSquare):
        matrix_from_json("[[1, 2, 3], [4, 5, 6]]")


def test_parse_matrix_infers_format(tmp_path):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text(WORKED_CSV)
    json_path = tmp_path / "m.json"
    json_path.write_text(json.dumps(WORKED_ROWS))
    assert parse_matrix(csv_path) == parse_matrix(json_path)
    assert parse_matrix(csv_path, "csv") == parse_matrix(str(json_path), "json")
    with pytest.raises(ValueError):
        parse_matrix(csv_path, "toml")


def test_files_with_a_utf8_bom_parse_as_without(tmp_path):
    # Excel's "CSV UTF-8" and Notepad start their files with a BOM
    texts = {
        "m.csv": "2,1/3\n-4,5\n",
        "m.json": json.dumps([[2, "1/3"], [-4, 5]]),
        "s.json": scheme_to_json(scheme_4x4()),
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        (tmp_path / f"bom-{name}").write_text("\ufeff" + text, encoding="utf-8")
    for name in ("m.csv", "m.json"):
        assert parse_matrix(tmp_path / f"bom-{name}") == parse_matrix(tmp_path / name)
    assert parse_matrix(tmp_path / "bom-m.csv") == Matrix.from_rows([[2, Fraction(1, 3)], [-4, 5]])
    assert load_scheme(tmp_path / "bom-s.json") == load_scheme(tmp_path / "s.json") == scheme_4x4()


@pytest.mark.parametrize("scheme", [scheme_4x4(), scheme_5x5()])
def test_scheme_json_round_trip_is_lossless(scheme):
    again = scheme_from_json(scheme_to_json(scheme))
    assert again == scheme
    assert validate(again) == validate(scheme)


def test_scheme_json_shape():
    data = json.loads(scheme_to_json(scheme_4x4()))
    assert set(data) == {"n", "strips"}
    assert data["n"] == 4
    (strip,) = data["strips"]
    assert set(strip) == {"columns", "starts"}
    assert strip["columns"][:4] == [1, 2, 3, 4]
    # signs are derived, never stored
    assert "signs" not in json.dumps(data)


def test_a_strip_with_no_starts_is_written_as_json_dumps_writes_it():
    # an empty list is "[]" on one line, not a bracket pair around nothing
    strip = SchemeStrip(n=3, columns=(1, 2, 3, 1, 2), starts=())
    sch = Scheme(n=3, strips=(strip, SchemeStrip(n=3, columns=(3, 2, 1), starts=(1,))))
    payload = {"n": 3, "strips": [{"columns": list(s.columns), "starts": list(s.starts)} for s in sch.strips]}
    assert scheme_to_json(sch) == json.dumps(payload, indent=2)
    assert scheme_from_json(scheme_to_json(sch)) == sch


def test_generated_scheme_round_trips():
    sch = search_scheme(SearchConfig(n=4, random_seed=8))
    assert scheme_from_json(scheme_to_json(sch)) == sch


def test_scheme_file_round_trip(tmp_path):
    path = tmp_path / "s.json"
    save_scheme(scheme_5x5(), path)
    assert load_scheme(path) == scheme_5x5()


def test_scheme_json_rejects_garbage():
    with pytest.raises(ParseError):
        scheme_from_json("[")
    with pytest.raises(ParseError):
        scheme_from_json('{"strips": []}')


STRIP_4X4 = {"columns": [1, 2, 3, 4], "starts": [1]}


@pytest.mark.parametrize("field", ["columns", "starts"])
@pytest.mark.parametrize("bad", ["1234", [1, 2.0, 3, 4], [1, True, 3, 4], [[1], 2, 3, 4], 1])
def test_scheme_json_requires_integer_lists(field, bad):
    data = {"n": 4, "strips": [dict(STRIP_4X4, **{field: bad})]}
    with pytest.raises(ParseError, match=f"{field} must be a list of integers"):
        scheme_from_json(json.dumps(data))


@pytest.mark.parametrize("bad", ["4", 4.0, True, [4]])
def test_scheme_json_requires_integer_n(bad):
    with pytest.raises(ParseError, match="n must be an integer"):
        scheme_from_json(json.dumps({"n": bad, "strips": [STRIP_4X4]}))


@pytest.mark.parametrize(
    "data",
    [
        {"n": 4, "strips": []},
        {"n": 4, "strips": [{"columns": [1, 2, 3], "starts": [1]}]},
        {"n": 4, "strips": [{"columns": [1, 2, 3, 5], "starts": [1]}]},
        {"n": 4, "strips": [{"columns": [1, 2, 3, 4], "starts": [2]}]},
        {"n": 0, "strips": [{"columns": [], "starts": []}]},
    ],
    ids=["no-strips", "short-strip", "column-outside", "start-outside", "n-below-1"],
)
def test_scheme_json_refuses_impossible_schemes(data):
    with pytest.raises(ParseError, match="malformed scheme JSON"):
        scheme_from_json(json.dumps(data))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["n", "strips", "columns", "starts"]), inner, max_size=4),
    max_leaves=20,
)
_scheme_shaped = st.fixed_dictionaries(
    {
        "n": st.integers(-1, 5),
        "strips": st.lists(
            st.fixed_dictionaries(
                {
                    "columns": st.lists(st.integers(-1, 6), max_size=9),
                    "starts": st.lists(st.integers(-1, 5), max_size=3),
                }
            ),
            max_size=2,
        ),
    }
)


@given(
    st.sampled_from([matrix_from_csv, matrix_from_json, scheme_from_json]),
    st.one_of(st.text(), st.one_of(_json_values, _scheme_shaped).map(json.dumps)),
)
def test_parsers_give_a_value_or_a_sarrus_error(parse, text):
    try:
        value = parse(text)
    except SarrusError:
        return
    assert isinstance(value, (Matrix, Scheme))


def _parse_by_fraction(token, line, column):
    """The entry parse with no integer fast path: every entry through Fraction."""
    text = token.strip()
    if not text:
        raise ParseError(line, column, "empty entry")
    # error texts quote a token cut to a fixed width, as the library does
    if "." in text or "e" in text.lower():
        raise ParseError(line, column, f"not an exact number: {_quoted(text)}; floats are refused")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        reason = str(e).replace(repr(text), _quoted(text))
        raise ParseError(line, column, f"not an exact number: {_quoted(text)} ({reason})") from None
    return int(value) if value.denominator == 1 else value


def _outcome(parse, text):
    try:
        value = parse(text, 3, 4)
    except ParseError as e:
        return "error", str(e)
    return type(value), value


_number_like = st.text(alphabet="0123456789_+-/ \t\u00a0\u0663\uff17x", max_size=12)


@given(st.one_of(st.text(), _number_like, st.integers().map(str)))
@example("1_0")
@example("+7")
@example("-0")
@example(" \u0661\u0662 ")
@example("1__0")
@example("_1")
@example("007")
@example("0x1f")
@example("0b11")
@example("9" * 5000)
@example("-" + "9" * 5000)
@example("1/" + "9" * 5000)
def test_integer_fast_path_parses_as_fraction_does(text):
    assert _outcome(_parse_exact, text) == _outcome(_parse_by_fraction, text)


def _reference_square(rows):
    if not rows:
        raise ParseError(1, 0, "no rows")
    widths = {len(r) for r in rows}
    if widths != {len(rows)}:
        raise NonSquare(f"{len(rows)} rows with widths {sorted(widths)}")
    return Matrix.from_rows(rows)


def _reference_csv(text):
    """The CSV parse with no fast path: every entry through _parse_by_fraction."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            tokens = line.split(",")
            rows.append([_parse_by_fraction(tok, lineno, col) for col, tok in enumerate(tokens, start=1)])
    return _reference_square(rows)


def _reference_json(text):
    """The JSON parse with no fast path: every entry checked on its own."""
    data = _load_json(text)
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ParseError(1, 0, "expected an array of arrays")
    rows = []
    for i, row in enumerate(data, start=1):
        out = []
        for j, x in enumerate(row, start=1):
            if isinstance(x, int) and not isinstance(x, bool):
                out.append(x)
            elif isinstance(x, str):
                out.append(_parse_by_fraction(x, i, j))
            else:
                raise ParseError(i, j, f"entry {_quoted(x)} is not exact; use an int or \"p/q\"")
        rows.append(out)
    return _reference_square(rows)


def _text_outcome(parse, text):
    try:
        M = parse(text)
    except SarrusError as e:
        return type(e).__name__, str(e)
    return "matrix", M, [[(type(x), x) for x in row] for row in M.rows], M.is_integral()


_valid_token = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.tuples(st.integers(-99, 99), st.integers(1, 30)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["+3", "-0", " 7 ", "+3/4", "-6/4", "4/2", "007/014", "\u0661", "\u0661/\u0662",
                     "\uff17", "1_0", "1/1_0", "3/ 4", " 3 / 4 "]),
)
_any_token = st.one_of(
    _valid_token,
    st.tuples(st.integers(-99, 99), st.integers(0, 3)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["", " ", "\t", "3/+4", "-/4", "/4", "1/", "+-3/4", "1__0", "_1", "1.5", "1e3", "0x1f"]),
    _number_like,
)
# JSON takes the values as they are; CSV writes each one out with str
_valid_entry = st.one_of(_valid_token, st.integers(-(10**6), 10**6))
_any_entry = st.one_of(_any_token, _valid_entry, st.booleans(), st.floats(), st.none())


def _grids(entry):
    square = st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    return st.one_of(square, st.lists(st.lists(entry, max_size=4), max_size=4))


@given(st.one_of(_grids(_valid_entry), _grids(_any_entry)))
@example([["3/ 4", 1], [2, 2]])
@example([["+3/4", 1], [2, 2]])
@example([["3/+4", 1], [2, 2]])
@example([["-/4", 1], [2, 2]])
@example([["1/0", 1], [2, 2]])
@example([["\u0661/\u0662", 1], [2, 2]])
@example([["1/" + "9" * 5000, 1], [2, 2]])
@example([[1, -2, 3], [4, "5/6", -7], [8, 9, 0]])
def test_whole_texts_parse_as_entry_by_entry(grid):
    csv = "\n".join(",".join(map(str, row)) for row in grid) + "\n"
    js = json.dumps(grid)
    assert _text_outcome(matrix_from_csv, csv) == _text_outcome(_reference_csv, csv)
    assert _text_outcome(matrix_from_json, js) == _text_outcome(_reference_json, js)


@pytest.mark.parametrize(
    "parse,text,quoted,times",
    [
        (matrix_from_csv, "9" * 5000, "'" + "9" * 39 + "... (4962 more characters)", 1),
        # Fraction's own reason quotes the token too
        (matrix_from_csv, "x" * 5000, "'" + "x" * 39 + "... (4962 more characters)", 2),
        (matrix_from_csv, "1." + "5" * 5000, "'1." + "5" * 37 + "... (4964 more characters)", 1),
        (matrix_from_json, json.dumps([[[7] * 5000]]), "[" + "7, " * 13 + "... (14960 more characters)", 1),
    ],
)
def test_a_long_token_is_quoted_to_a_fixed_width(parse, text, quoted, times):
    with pytest.raises(ParseError) as caught:
        parse(text)
    message = str(caught.value)
    assert message.count(quoted) == times and len(message) < 300


def test_a_short_token_is_quoted_whole():
    with pytest.raises(ParseError) as caught:
        matrix_from_csv("abc\n")
    assert str(caught.value) == "line 1, column 1: not an exact number: 'abc' (Invalid literal for Fraction: 'abc')"
    with pytest.raises(ParseError) as caught:
        matrix_from_json("[[1.5]]")
    assert str(caught.value) == 'line 1, column 1: entry 1.5 is not exact; use an int or "p/q"'


def test_permutation_json():
    p = Permutation((4, 3, 5, 2, 1))
    assert permutation_to_json(p) == "[4, 3, 5, 2, 1]"
    assert permutation_from_json("[4,3,5,2,1]") == p


@pytest.mark.parametrize(
    "text", ['"312"', "[3.7, 1, 2]", "[3,1,2", "[1,1,2]", "[]", "[0,1]", "[2,3]"]
)
def test_permutation_json_rejects_non_integer_lists(text):
    with pytest.raises(ParseError):
        permutation_from_json(text)


@given(
    st.one_of(
        st.text(),
        st.lists(st.integers(-2, 9), max_size=9).map(json.dumps),
        st.permutations(range(1, 7)).map(json.dumps),
    )
)
def test_permutation_json_gives_a_permutation_or_a_parse_error(text):
    try:
        p = permutation_from_json(text)
    except ParseError:
        return
    assert isinstance(p, Permutation)
    assert permutation_from_json(permutation_to_json(p)) == p


@pytest.mark.parametrize("parse", [matrix_from_json, scheme_from_json, permutation_from_json])
@pytest.mark.parametrize(
    "text", ["[" * 100000, "[[" + "9" * 5000 + "]]"], ids=["deep", "long-int"]
)
def test_unreadable_json_is_a_parse_error(parse, text):
    with pytest.raises(ParseError):
        parse(text)


def test_format_scalar():
    assert format_scalar(140) == "140"
    assert format_scalar(Fraction(3, 2)) == "3/2"
    assert format_scalar(-7) == "-7"
