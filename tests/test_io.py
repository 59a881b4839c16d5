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
from sarrus.io import _parse_exact

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
    if "." in text or "e" in text.lower():
        raise ParseError(line, column, f"not an exact number: {text!r}; floats are refused")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(line, column, f"not an exact number: {text!r} ({e})") from None
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
