import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import WORKED_ROWS

import sarrus.scheme
from sarrus import (
    Matrix, Scheme, SearchConfig, bareiss_det, load_scheme, parse_matrix, scheme_to_json, scheme_4x4,
    search_scheme, validate,
)
from sarrus.bench import ORACLES, random_matrix
from sarrus.cli import main

WORKED_CSV = "2,3,4,-1\n1,-2,0,5\n5,2,2,-3\n8,1,1,1\n"

# `python -m sarrus` in a child process finds the package in src/, as the
# tests do, whether or not PYTHONPATH names it
_SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
)


@pytest.fixture
def worked_csv(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(WORKED_CSV)
    return str(path)


@pytest.fixture
def worked_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(WORKED_ROWS))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_det_all_methods_agree(capsys, worked_csv, worked_json):
    results = []
    for method in ("scheme", "leibniz", "cofactor", "bareiss"):
        code, out, _ = run(capsys, "det", "--matrix", worked_csv, "--method", method)
        assert code == 0
        results.append(out.strip())
    assert results == ["140"] * 4
    code, out, _ = run(capsys, "det", "--matrix", worked_json, "--method", "scheme")
    assert code == 0 and out.strip() == "140"


# 5x5 CSVs of p/q entries, none of them an integer: the first one's
# determinant is integral, the second one's is not
PQ_CSVS = {
    "integral-det": (
        "-23/2,11/2,-29/2,-19/2,-5/2\n22/3,-22/3,7/3,2/3,16/3\n13/2,3/2,-11/2,7/2,15/4\n"
        "23/5,11/5,-1/5,11/5,-27/5\n7/3,-7/3,-8/3,-7/3,29/6\n",
        "12834",
    ),
    "fractional-det": (
        "-11/4,-17/4,17/6,-8/9,19/4\n23/3,23/4,-17/6,5/2,-11/6\n25/4,29/3,-26/3,-23/2,3/8\n"
        "-15/4,-14/3,-3/4,-10/7,9/8\n-9/2,25/8,-29/3,-13/4,-9/4\n",
        "-18222926557/1741824",
    ),
}


@pytest.mark.parametrize("kind", sorted(PQ_CSVS))
def test_det_all_methods_agree_on_rationals(capsys, tmp_path, kind):
    text, det = PQ_CSVS[kind]
    path = tmp_path / "pq.csv"
    path.write_text(text)
    assert all("/" in entry for line in text.splitlines() for entry in line.split(","))
    for method in ("scheme", "leibniz", "cofactor", "bareiss"):
        code, out, _ = run(capsys, "det", "--matrix", str(path), "--method", method)
        assert code == 0 and out == det + "\n"


def _long_entries(n, rng):
    """The rows of an n x n matrix file whose determinant runs past the 4300
    digits that str writes by default: 500-digit integers at n = 10, and p/q
    of 2000-digit p and q at n = 3."""
    if n == 10:
        return [[str(rng.randrange(-(10**500), 10**500)) for _ in range(n)] for _ in range(n)]
    return [[f"{rng.randrange(10**2000)}/{rng.randrange(1, 10**2000)}" for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("method,n", [("bareiss", 10), ("scheme", 3)])
def test_a_determinant_of_any_length_is_printed(capsys, tmp_path, method, n):
    path = tmp_path / "long.csv"
    path.write_text("\n".join(",".join(row) for row in _long_entries(n, random.Random(n))) + "\n")
    code, out, err = run(capsys, "det", "--matrix", str(path), "--method", method)
    assert code == 0 and err == ""
    value = bareiss_det(parse_matrix(path))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = str(value)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(digits) > 4300 and out == digits + "\n"


def test_det_builtin_with_sums(capsys, worked_csv):
    code, out, _ = run(capsys, "det", "--matrix", worked_csv, "--builtin", "4", "--sums")
    assert code == 0
    assert out.splitlines() == ["positive sum: 551", "negative sum: 411", "140"]


@pytest.mark.parametrize(
    "text, lines",
    [
        (WORKED_CSV, ["positive sum: 551", "negative sum: 411", "140"]),
        ("1/2,1/3\n1/4,1\n", ["positive sum: 1/2", "negative sum: 1/12", "5/12"]),
        ("1/2,1/2\n1,1\n", ["positive sum: 1/2", "negative sum: 1/2", "0"]),
    ],
)
def test_det_sums_sums_the_windows_once(capsys, monkeypatch, tmp_path, text, lines):
    path = tmp_path / "m.csv"
    path.write_text(text)
    calls = []
    signed_sums = sarrus.scheme._signed_sums

    def counting(*args):
        calls.append(args)
        return signed_sums(*args)

    monkeypatch.setattr(sarrus.scheme, "_signed_sums", counting)
    code, out, _ = run(capsys, "det", "--matrix", str(path), "--sums")
    assert code == 0 and out.splitlines() == lines
    assert len(calls) == 1


@pytest.mark.parametrize(
    "text, lines",
    [
        (WORKED_CSV, ["positive sum: 551", "negative sum: 411", "140"]),
        ("1/2,1/3\n1/4,1\n", ["positive sum: 1/2", "negative sum: 1/12", "5/12"]),
        ("1/2,1/2\n1,1\n", ["positive sum: 1/2", "negative sum: 1/2", "0"]),
    ],
)
def test_det_sums_with_leibniz_print_the_parity_split(capsys, tmp_path, text, lines):
    path = tmp_path / "m.csv"
    path.write_text(text)
    code, out, _ = run(capsys, "det", "--matrix", str(path), "--method", "leibniz", "--sums")
    assert code == 0 and out.splitlines() == lines


@pytest.mark.parametrize("method", ["cofactor", "bareiss"])
def test_det_sums_with_a_method_that_has_none_is_a_usage_error(capsys, worked_csv, method):
    code, out, err = run(capsys, "det", "--matrix", worked_csv, "--method", method, "--sums")
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and "--sums" in err and method in err


@pytest.mark.parametrize("method", ["leibniz", "cofactor", "bareiss"])
@pytest.mark.parametrize("flag, value", [("--builtin", "7"), ("--builtin", "4"), ("--scheme", "missing.json")])
def test_det_scheme_source_with_an_oracle_method_is_a_usage_error(capsys, tmp_path, method, flag, value):
    # raised before the matrix file is read: this one does not exist
    missing = str(tmp_path / "m.csv")
    code, out, err = run(capsys, "det", "--matrix", missing, "--method", method, flag, value)
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and flag in err and method in err


def test_det_with_scheme_file(capsys, worked_csv, tmp_path):
    path = tmp_path / "scheme.json"
    path.write_text(scheme_to_json(scheme_4x4()))
    code, out, _ = run(capsys, "det", "--matrix", worked_csv, "--scheme", str(path))
    assert code == 0 and out.strip() == "140"


def test_det_reads_a_csv_with_a_utf8_bom(capsys, tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("\ufeff" + WORKED_CSV, encoding="utf-8")
    code, out, _ = run(capsys, "det", "--matrix", str(path))
    assert code == 0 and out.strip() == "140"


def test_det_rational_output(capsys, tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("1/2,0\n0,3\n")
    code, out, _ = run(capsys, "det", "--matrix", str(path), "--method", "bareiss")
    assert code == 0 and out.strip() == "3/2"


def test_det_usage_and_computation_errors(capsys, tmp_path, worked_csv):
    code, _, err = run(capsys, "det")
    assert code == 1 and "usage error" in err
    code, _, err = run(capsys, "det", "--matrix", str(tmp_path / "missing.csv"))
    assert code == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("1,x\n2,3\n")
    code, _, err = run(capsys, "det", "--matrix", str(bad))
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "nonsense")
    assert code == 1


def _write_rows(path, rows):
    path.write_text("\n".join(",".join(str(x) for x in row) for row in rows) + "\n")
    return str(path)


def test_det_cofactor_12x12(capsys, tmp_path):
    rng = random.Random(12)
    M = random_matrix(12, rng)
    path = _write_rows(tmp_path / "m12.csv", M.rows)
    code, out, _ = run(capsys, "det", "--matrix", path, "--method", "cofactor")
    assert code == 0 and out.strip() == str(bareiss_det(M))


def test_det_cofactor_beyond_its_limit_is_an_error(capsys, tmp_path):
    path = _write_rows(tmp_path / "m17.csv", Matrix.identity(17).rows)
    code, out, err = run(capsys, "det", "--matrix", path, "--method", "cofactor")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cofactor_det" in err
    assert "Traceback" not in err


def test_scheme_with_string_columns_is_an_error(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"n": 4, "strips": [{"columns": "1234", "starts": [1]}]}))
    code, _, err = run(capsys, "validate", "--scheme", str(path))
    assert code == 2 and err.startswith("error:")


def _refused_at_once(*argv):
    """Run sarrus in a subprocess; it must exit 2 with an error, within 5 s."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sarrus", *argv],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV,
    )
    assert time.perf_counter() - t0 < 5
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    return proc.stderr


def _one_window_scheme(path, n):
    strip = {"columns": list(range(1, n + 1)), "starts": [1]}
    path.write_text(json.dumps({"n": n, "strips": [strip]}))
    return str(path)


@pytest.mark.parametrize("command", ["validate", "det", "render"])
def test_missing_sweep_beyond_its_limit_is_an_error(tmp_path, command):
    # one window at n = 13 leaves 13! - 2 permutations to list as missing
    argv = [command, "--scheme", _one_window_scheme(tmp_path / "s13.json", 13)]
    if command == "det":
        argv += ["--matrix", _write_rows(tmp_path / "m13.csv", Matrix.identity(13).rows)]
    assert "n = 13 exceeds the limit" in _refused_at_once(*argv)


def test_one_window_at_n_10_is_refused_at_once(tmp_path):
    # 10! - 2 missing words would take ~30 s and ~730 MB to list
    path = _one_window_scheme(tmp_path / "s10.json", 10)
    assert "n = 10 exceeds the limit of 9" in _refused_at_once("validate", "--scheme", path)


def test_scheme_of_a_huge_n_is_refused_at_once(tmp_path):
    # whether one window covers all n! permutations is decided without n!
    path = _one_window_scheme(tmp_path / "huge.json", 10**6)
    assert "n = 1000000 exceeds the limit" in _refused_at_once("validate", "--scheme", path)


def test_running_out_of_memory_exits_2_with_one_line(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(importlib.import_module("sarrus.cli")._COMMANDS, "validate", exhausted)
    assert run(capsys, "validate", "--builtin", "3") == (2, "", "error: out of memory\n")


def test_out_of_memory_is_reported_once_the_failed_frames_are_freed(monkeypatch):
    # the line is written past the handler, so that what the failed frames
    # allocated is freed first and the report has room to run
    refs, alive = [], []

    class Held:
        pass

    def exhausted(args):
        held = Held()
        refs.append(weakref.ref(held))
        raise MemoryError

    class Stderr(io.StringIO):
        def write(self, text):
            alive.append(refs[0]() is not None)
            return super().write(text)

    monkeypatch.setitem(importlib.import_module("sarrus.cli")._COMMANDS, "validate", exhausted)
    monkeypatch.setattr(sys, "stderr", Stderr())
    assert main(["validate", "--builtin", "3"]) == 2
    assert sys.stderr.getvalue() == "error: out of memory\n"
    assert alive and not any(alive)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_a_scheme_past_a_memory_limit_exits_2_with_one_line(tmp_path):
    import resource

    # one n = 9 window at 181,440 starts, 544 kB: listing its 9! - 2 missing
    # words needs far more than 100 MB
    path = tmp_path / "s9.json"
    path.write_text(json.dumps({"n": 9, "strips": [{"columns": list(range(1, 10)), "starts": [1] * 181440}]}))
    limit = 100 * 2**20

    def cap():  # in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "sarrus", "validate", "--scheme", str(path)],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV, preexec_fn=cap,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize(
    "name,text", [("m.csv", "1e10000000\n"), ("m.json", '[["1e10000000"]]')]
)
def test_exponent_entry_is_refused_at_once(tmp_path, name, text):
    # Fraction would first expand the exponent into a 10-million-digit int
    path = tmp_path / name
    path.write_text(text)
    assert "floats are refused" in _refused_at_once("det", "--matrix", str(path))


_entry = st.one_of(st.integers(-9, 9), st.tuples(st.integers(-9, 9), st.integers(-2, 9)))
_matrix_like = st.lists(st.lists(_entry, max_size=6), max_size=6)


def _csv(rows):
    return "\n".join(",".join(f"{x[0]}/{x[1]}" if isinstance(x, tuple) else str(x) for x in row)
                     for row in rows)


def _json_matrix(rows):
    return json.dumps([[f"{x[0]}/{x[1]}" if isinstance(x, tuple) else x for x in row] for row in rows])


_scheme_like = st.fixed_dictionaries(
    {
        "n": st.integers(-1, 6),
        "strips": st.lists(
            st.fixed_dictionaries(
                {
                    "columns": st.lists(st.integers(-1, 7), max_size=12),
                    "starts": st.lists(st.integers(-1, 6), max_size=4),
                }
            ),
            max_size=2,
        ),
    }
).map(json.dumps)

_file_bytes = st.one_of(
    st.binary(max_size=200),
    st.text(max_size=60).map(str.encode),
    st.one_of(_matrix_like.map(_csv), _matrix_like.map(_json_matrix), _scheme_like).map(str.encode),
    st.sampled_from([scheme_to_json(scheme_4x4()), WORKED_CSV, json.dumps(WORKED_ROWS)]).map(str.encode),
)


@given(matrix=_file_bytes, scheme=_file_bytes, suffix=st.sampled_from([".csv", ".json"]))
@settings(deadline=None)
def test_any_file_bytes_give_an_exit_code(tmp_path_factory, matrix, scheme, suffix):
    folder = tmp_path_factory.mktemp("files")
    matrix_path, scheme_path = folder / f"m{suffix}", folder / "s.json"
    matrix_path.write_bytes(matrix)
    scheme_path.write_bytes(scheme)
    for argv in (
        ["det", "--matrix", str(matrix_path)],
        ["det", "--matrix", str(matrix_path), "--scheme", str(scheme_path), "--sums"],
        ["validate", "--scheme", str(scheme_path)],
        ["render", "--scheme", str(scheme_path)],
    ):
        assert main(argv) in (0, 1, 2, 3)


def test_validate_exit_codes(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", "--builtin", "5")
    assert code == 0 and "VALID" in out
    broken = {"n": 3, "strips": [{"columns": [1, 2, 3, 1, 2], "starts": [1, 2]}]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    code, out, _ = run(capsys, "validate", "--scheme", str(path))
    assert code == 2 and "INVALID" in out
    code, _, err = run(capsys, "validate")
    assert code == 1


def test_a_doubled_scheme_is_refused_in_a_short_message(capsys, tmp_path):
    s = search_scheme(SearchConfig(n=6, random_seed=1))
    path = tmp_path / "doubled.json"
    path.write_text(scheme_to_json(Scheme(n=6, strips=s.strips + s.strips)))
    matrix = tmp_path / "m6.csv"
    matrix.write_text("\n".join(",".join(map(str, row)) for row in random_matrix(6, random.Random(6)).rows))
    code, out, err = run(capsys, "det", "--matrix", str(matrix), "--scheme", str(path))
    assert code == 2 and out == "" and "(+710 more)" in err and len(err) < 2000
    code, out, _ = run(capsys, "validate", "--scheme", str(path))
    assert code == 2 and "(+710 more)" in out and len(out.splitlines()) < 20


@pytest.mark.parametrize("valid", [True, False])
def test_validate_into_a_closed_pipe_keeps_its_exit_status(tmp_path, valid):
    # as in `sarrus validate | head -1`: the reader is gone before the
    # summary is written, and that is no failure of the command
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"n": 3, "strips": [{"columns": [1, 2, 3, 1, 2], "starts": [1, 2]}]}))
    source = ["--builtin", "5"] if valid else ["--scheme", str(path)]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sarrus", "validate", *source],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60, env=CHILD_ENV,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == (0 if valid else 2)
    assert proc.stderr == ""


@pytest.mark.parametrize("command", ["det", "validate", "render"])
def test_builtin_zero_is_an_unsupported_size(capsys, worked_csv, command):
    argv = [command, "--builtin", "0"]
    if command == "det":
        argv += ["--matrix", worked_csv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "no built-in scheme for n = 0" in err


def test_generate_writes_a_valid_scheme(capsys, tmp_path):
    out_path = tmp_path / "s5.json"
    code, _, _ = run(capsys, "generate", "--n", "5", "--seed", "7", "--out", str(out_path))
    assert code == 0
    assert validate(load_scheme(out_path)).is_valid


def test_generate_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "generate", "--n", "4", "--seed", "3", "--out", str(a))[0] == 0
    assert run(capsys, "generate", "--n", "4", "--seed", "3", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_not_found_exit_code(capsys):
    code, _, err = run(capsys, "generate", "--n", "2")
    assert code == 3 and "not found" in err


def test_pattern_output(capsys):
    code, out, _ = run(capsys, "pattern", "--n", "7")
    assert code == 0
    assert "4k+3" in out
    assert "alternate along starts: no" in out
    assert "flipped vs descending:    yes" in out
    assert out.count("-") >= 7  # the ascending column of the sign table


def test_render_svg_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(capsys, "render", "--builtin", "4", "--out", str(a))[0] == 0
    assert run(capsys, "render", "--builtin", "4", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("<svg")


def test_render_ascii_to_stdout(capsys):
    code, out, _ = run(capsys, "render", "--builtin", "3", "--as", "ascii")
    assert code == 0 and "strip 1: 3 rows x 5 columns" in out


@pytest.mark.parametrize(
    "flags",
    [["--cell-size", "99"], ["--positive-color", "red"], ["--negative-color", "green"],
     ["--cell-size", "99", "--positive-color", "red", "--no-signs"]],
)
def test_render_svg_flags_with_ascii_are_a_usage_error(capsys, flags):
    code, out, err = run(capsys, "render", "--builtin", "3", "--as", "ascii", *flags)
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and flags[0] in err


def test_render_ascii_honours_no_signs(capsys):
    code, signed, _ = run(capsys, "render", "--builtin", "3", "--as", "ascii")
    assert code == 0
    code, unsigned, _ = run(capsys, "render", "--builtin", "3", "--as", "ascii", "--no-signs")
    assert code == 0 and unsigned != signed and "strip 1: 3 rows x 5 columns" in unsigned


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--positive-color", 'red"/><script>alert(1)</script>'),
        ("--negative-color", "url(#x)"),
        ("--positive-color", "#12345"),
        ("--positive-color", ""),
        ("--cell-size", "1" + "0" * 400),
        ("--cell-size", "1001"),
    ],
    ids=["markup", "url", "five-hex-digits", "empty", "400-digit-size", "size-over-limit"],
)
def test_render_refuses_colours_and_sizes_that_break_the_svg(capsys, flag, value):
    code, out, err = run(capsys, "render", "--builtin", "3", flag, value)
    assert code == 2 and out == "" and err.startswith("error:")


def test_render_takes_hex_and_named_colours_up_to_the_size_limit(capsys):
    code, out, _ = run(
        capsys, "render", "--builtin", "3", "--cell-size", "1000",
        "--positive-color", "#abc", "--negative-color", "DarkOrange",
    )
    assert code == 0 and 'stroke="#abc"' in out and 'stroke="DarkOrange"' in out


@pytest.mark.parametrize("output_format", ["svg", "ascii"])
def test_render_past_its_cell_limit_is_an_error(capsys, tmp_path, output_format):
    # 400,000 columns at n = 3: 1,200,000 cells, past the 2**20 limit
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 3, "strips": [{"columns": [1, 2, 3] * 133333 + [1], "starts": [1]}]}))
    code, out, err = run(capsys, "render", "--scheme", str(path), "--as", output_format)
    assert (code, out) == (2, "")
    assert err == "error: render draws n x columns = 1200000 cells; the limit is 1048576\n"


def test_bench_jsonl(capsys):
    code, out, _ = run(
        capsys, "bench", "--methods", "scheme,leibniz", "--sizes", "4", "--runs", "1"
    )
    assert code == 0
    objs = [json.loads(line) for line in out.strip().splitlines()]
    assert objs[0]["term_count"] == 24
    assert "statement" in objs[-1]
    code, _, err = run(capsys, "bench", "--sizes", "4,x")
    assert code == 1


@pytest.mark.parametrize("value", [",", "", " , ,"])
def test_bench_with_no_methods_is_a_usage_error(capsys, value):
    code, out, err = run(capsys, "bench", "--methods", value, "--sizes", "4", "--runs", "1")
    assert (code, out) == (1, "") and err.startswith("usage error:") and "--methods" in err


@pytest.mark.parametrize("value", [",", "", " , ,"])
def test_bench_with_no_sizes_is_a_usage_error(capsys, value):
    code, out, err = run(capsys, "bench", "--methods", "bareiss", "--sizes", value, "--runs", "1")
    assert (code, out) == (1, "") and err.startswith("usage error:") and "--sizes" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["pattern", "--n", "10001"],
        ["bench", "--methods", "bareiss", "--sizes", "1", "--runs", "1001"],
        ["bench", "--methods", "bareiss", "--sizes", "3,65", "--runs", "1"],
        ["bench", "--methods", "bareiss", "--sizes", "64", "--runs", "1000"],
        ["bench", "--methods", "bareiss,bareiss,bareiss,bareiss", "--sizes", "64,64,64,64,64", "--runs", "10"],
    ],
)
def test_flags_that_scale_work_are_bounded(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


def test_bench_past_its_budget_is_refused_before_any_run(capsys, monkeypatch):
    def no_matrix(*args):
        raise AssertionError("a matrix was built")

    # the package exports the function ``bench`` under the module's name
    monkeypatch.setattr(importlib.import_module("sarrus.bench"), "random_matrix", no_matrix)
    code, out, err = run(capsys, "bench", "--methods", "leibniz", "--sizes", "10", "--runs", "1000")
    assert code == 2 and out == "" and "budget" in err


def test_bench_within_its_budget_is_taken(capsys, monkeypatch):
    # the oracles are stubbed: what is checked is the budget, not their speed
    for method in ("leibniz", "cofactor"):
        monkeypatch.setitem(ORACLES, method, lambda M, ops=None: 0)
    code, out, _ = run(capsys, "bench", "--methods", "leibniz,cofactor", "--sizes", "9", "--runs", "3")
    assert code == 0
    assert [(r["method"], r["n"], r["runs"]) for r in map(json.loads, out.splitlines())] == [
        ("leibniz", 9, 3), ("cofactor", 9, 3)
    ]


def test_flags_at_their_limits_are_taken(capsys):
    code, out, _ = run(capsys, "pattern", "--n", "10000")
    assert code == 0 and len(out.splitlines()) == 4 + 10000
    code, out, _ = run(capsys, "bench", "--methods", "bareiss", "--sizes", "1,64", "--runs", "1")
    assert code == 0 and [json.loads(line)["n"] for line in out.splitlines()] == [1, 64]
    code, out, _ = run(capsys, "bench", "--methods", "bareiss", "--sizes", "1", "--runs", "1000")
    assert code == 0 and json.loads(out)["runs"] == 1000


def _flag_int(lo, hi):
    """An int flag value from the working range lo..hi, or far outside it either way."""
    return st.one_of(
        st.integers(lo, hi), st.integers(10**6, 10**400), st.integers(-(10**400), lo - 1)
    ).map(str)


_colour = st.one_of(st.sampled_from(["blue", "orange", "#112233", "#445566"]), st.text(max_size=12))

_flag_argv = st.one_of(
    st.tuples(st.integers(2, 5), _flag_int(1, 60), _colour, _colour).map(
        lambda t: ["render", "--builtin", str(t[0]), "--cell-size", t[1],
                   "--positive-color", t[2], "--negative-color", t[3]]
    ),
    _flag_int(2, 40).map(lambda n: ["pattern", "--n", n]),
    st.tuples(st.lists(_flag_int(1, 8), min_size=1, max_size=3), _flag_int(1, 5)).map(
        lambda t: ["bench", "--methods", "bareiss", "--sizes", ",".join(t[0]), "--runs", t[1]]
    ),
    st.tuples(st.integers(2, 6), _flag_int(0, 100), _flag_int(1, 5)).map(
        lambda t: ["generate", "--n", str(t[0]), "--seed", t[1], "--max-blocks-per-strip", t[2]]
    ),
)


@given(argv=_flag_argv)
@example(argv=["render", "--builtin", "3", "--cell-size", "1" + "0" * 400])
@settings(deadline=None)
def test_any_flag_value_gives_an_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2, 3)


def test_export_builtin_round_trip(capsys, tmp_path):
    path = tmp_path / "b4.json"
    code, _, _ = run(capsys, "export-builtin", "--n", "4", "--out", str(path))
    assert code == 0
    assert load_scheme(path) == scheme_4x4()
    code, _, _ = run(capsys, "export-builtin", "--n", "9")
    assert code == 2


def test_no_command_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == 1 and "COMMAND" in out


def test_module_entry_point_subprocess(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(WORKED_CSV)
    proc = subprocess.run(
        [sys.executable, "-m", "sarrus", "det", "--matrix", str(path), "--builtin", "4"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "140"


def test_render_is_deterministic_across_processes(tmp_path):
    outputs = []
    for name in ("a.svg", "b.svg"):
        target = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "sarrus", "render", "--builtin", "5", "--out", str(target)],
            capture_output=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]
