"""tools/trajectory.py: the record it writes and the report it prints."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("trajectory", ROOT / "tools" / "trajectory.py")
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)

BOUNDS = {
    "setup_s": {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    "ops_per_s": {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    "op_p50_ms": {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    "peak_rss_mb": {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
}


def _run(ops_per_s, op_p50_ms, peak_rss_mb, failed=0, operations=1000, setup_s=0.04):
    """A run as perfbench/run.py writes it, with the loop's operation count."""
    return {
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": op_p50_ms, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
        "seed": 1, "seconds": 20.0, "failed": failed, "attempted": 10, "operations": operations,
    }


def test_pairs_alternate_which_side_goes_first():
    order = []

    def run(side):
        order.append(side)
        return {"n": len(order)}

    runs = trajectory.alternate(3, run)
    assert order == ["base", "head", "head", "base", "base", "head"]
    # run i of each side forms pair i
    assert [r["n"] for r in runs["base"]] == [1, 4, 5]
    assert [r["n"] for r in runs["head"]] == [2, 3, 6]


def test_a_paired_entry_keeps_each_side_and_counts_the_wins():
    runs = {
        "base": [_run(2000.0, 0.15, 24.0), _run(2100.0, 0.14, 24.0), _run(1900.0, 0.16, 25.0),
                 _run(2050.0, 0.15, 24.5)],
        "head": [_run(2600.0, 0.15, 24.0, operations=1300), _run(2000.0, 0.13, 24.5),
                 _run(2700.0, 0.14, 24.0), _run(2650.0, 0.15, 24.0)],
    }
    entry = trajectory.paired_entry(runs, BOUNDS)
    assert (entry["seed"], entry["seconds"], entry["pairs"]) == (1, 20.0, 4)
    assert entry["runs"]["head"] == {"failed": [0] * 4, "attempted": [10] * 4, "operations": [1300, 1000, 1000, 1000]}
    ops = entry["metrics"]["ops_per_s"]
    assert (ops["unit"], ops["better"]) == ("1/s", "higher")
    assert ops["base"]["values"] == [2000.0, 2100.0, 1900.0, 2050.0]
    assert ops["base"]["median"] == 2025.0 and ops["head"]["median"] == 2625.0
    # exclusive quartiles of 1900, 2000, 2050, 2100: 1925 and 2087.5
    assert ops["base"]["iqr"] == pytest.approx(162.5)
    # higher is better for ops_per_s and lower for the rest; a tie is no win
    assert ops["wins"] == 3
    assert entry["metrics"]["op_p50_ms"]["wins"] == 2
    assert entry["metrics"]["setup_s"]["wins"] == 0
    assert entry["metrics"]["peak_rss_mb"]["wins"] == 2


def test_a_metric_some_run_lacks_is_null_in_a_paired_entry():
    runs = {"base": [_run(1.0, 1.0, 1.0)], "head": [_run(1.0, 1.0, 1.0)]}
    del runs["head"][0]["metrics"]["ops_per_s"]
    entry = trajectory.paired_entry(runs, BOUNDS)
    assert entry["metrics"]["ops_per_s"] is None
    assert entry["metrics"]["op_p50_ms"]["base"] == {"median": 1.0, "iqr": 0.0, "values": [1.0]}


def _paired_record(tag, workloads):
    return {
        "schema": 2, "tag": tag, "against": {"commit": "e33ad9790685cac9", "dirty": False},
        "workloads": {name: trajectory.paired_entry(runs, BOUNDS) for name, runs in workloads.items()},
    }


def test_the_pairs_report_sets_the_wins_beside_the_change():
    large = {
        "base": [_run(2000.0, 0.15, 24.0), _run(2200.0, 0.15, 24.0)],
        "head": [_run(2600.0, 0.15, 24.0, failed=1), _run(2800.0, 0.15, 24.0)],
    }
    del large["base"][1]["metrics"]["setup_s"]
    # a base median of 0 has no change in per cent; the peak RSS is the
    # det-files reading that once refused a change past its 10 % bound
    files = {
        "base": [_run(26600.0, 0.0280, 29.36, setup_s=0.0)] * 2,
        "head": [_run(25000.0, 0.0281, 32.53, setup_s=0.12)] * 2,
    }
    rec = _paired_record("run31", {"det-large": large, "det-files": files})
    assert trajectory.pairs_report(rec, BOUNDS) == [
        "run31: this checkout against e33ad9790685 in alternating pairs (scaled medians)",
        "  det-large: 2 pairs, failed 0 -> 1",
        "    setup_s      not reported by every run",
        # exclusive quartiles extrapolate past two values: 1950 and 2250
        "    ops_per_s    2100 -> 2700 1/s  +28.6% better, base IQR 300, won 2 of 2",
        "    op_p50_ms    0.15 -> 0.15 ms  +0.0% same, base IQR 0, won 0 of 2",
        "    peak_rss_mb  24 -> 24 MB  +0.0% same, base IQR 0, won 0 of 2",
        "  det-files: 2 pairs, failed 0 -> 0",
        "    setup_s      0.0 -> 0.12",
        "    ops_per_s    26600 -> 25000 1/s  -6.0% worse, base IQR 0, won 0 of 2",
        "    op_p50_ms    0.028 -> 0.0281 ms  +0.4% worse, base IQR 0, won 0 of 2",
        "    peak_rss_mb  29.36 -> 32.53 MB  +10.8% worse (past its bound), base IQR 0, won 0 of 2",
    ]


def test_both_sides_run_from_paths_of_equal_length(tmp_path):
    # the base is a clone at a revision, and this checkout is copied as it
    # stands, its edits included, with no git metadata, bytecode or run output
    base = trajectory._clone("HEAD", tmp_path)
    head = trajectory._copy(tmp_path)
    assert base.parent == head.parent == tmp_path and len(base.name) == len(head.name)
    copied = {p.relative_to(head).as_posix() for p in head.rglob("*") if p.is_file()}
    assert {"BENCHMARK.json", "perfbench/run.py", "src/sarrus/scheme.py", "tools/trajectory.py"} <= copied
    assert (head / "tools" / "trajectory.py").read_bytes() == (ROOT / "tools" / "trajectory.py").read_bytes()
    assert not [name for name in copied if {".git", "__pycache__"} & set(name.split("/"))]
    assert not [name for name in copied if name.startswith("perfbench/out/")]


@pytest.mark.parametrize(
    "argv",
    [
        ["t", "--pairs", "3"],
        ["t", "--against", "HEAD", "--pairs", "0"],
        ["t", "--against", "HEAD", "--workload", "no-such-workload"],
        ["t", "--run", "--against", "HEAD"],
        ["t", "--against", "HEAD", "--checkout", "."],
    ],
)
def test_flags_that_cannot_pair_are_refused_before_any_run(argv, capsys):
    with pytest.raises(SystemExit) as caught:
        trajectory.main(argv)
    assert caught.value.code == 2 and "error:" in capsys.readouterr().err


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_records_keep_the_schema(path):
    # every record is paired: it holds the workloads it measured, each of
    # its runs with no failed output
    rec = json.loads(path.read_text(encoding="utf-8"))
    assert rec["schema"] == trajectory.SCHEMA and "against" in rec and path.name == f"BENCH_{rec['tag']}.json"
    assert set(rec["workloads"]) <= set(trajectory.workloads(ROOT))
    for entry in rec["workloads"].values():
        assert set(entry["metrics"]) == set(BOUNDS)
        assert all(failed == 0 for side in entry["runs"].values() for failed in side["failed"])
