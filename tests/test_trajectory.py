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


def _record(tag, workloads):
    return {
        "tag": tag,
        "workloads": {
            name: {
                "failed": failed,
                "metrics": {m: {"value": v, "raw": None, "unit": BOUNDS[m]["unit"]} for m, v in values.items()},
            }
            for name, (failed, values) in workloads.items()
        },
    }


def test_the_delta_report_compares_each_bounded_metric():
    old = _record("run26", {
        "det-large": (0, {"setup_s": 0.04, "ops_per_s": 2000.0, "op_p50_ms": 0.150, "peak_rss_mb": 24.0}),
    })
    new = _record("run27", {
        "det-large": (0, {"setup_s": 0.04, "ops_per_s": 2100.0, "op_p50_ms": 0.132, "peak_rss_mb": 27.0}),
        "det-files": (1, {"setup_s": 0.14, "ops_per_s": None, "op_p50_ms": 0.027, "peak_rss_mb": 30.0}),
    })
    assert trajectory.delta_report(old, new, BOUNDS) == [
        "run27 against run26 (scaled values)",
        "  det-large: failed 0 -> 0",
        "    setup_s      0.04 -> 0.04 s  +0.0% same",
        "    ops_per_s    2000 -> 2100 1/s  +5.0% better",
        "    op_p50_ms    0.15 -> 0.132 ms  -12.0% better",
        "    peak_rss_mb  24 -> 27 MB  +12.5% worse (past its bound)",
        "  det-files: not in run26",
    ]


def test_a_metric_missing_on_one_side_is_shown_as_is():
    old = _record("a", {"w": (0, {"setup_s": None, "ops_per_s": 1.0, "op_p50_ms": 1.0, "peak_rss_mb": 1.0})})
    new = _record("b", {"w": (2, {"setup_s": 0.5, "ops_per_s": 0.5, "op_p50_ms": 1.0, "peak_rss_mb": 1.0})})
    lines = trajectory.delta_report(old, new, BOUNDS)
    assert lines[1:4] == [
        "  w: failed 0 -> 2",
        "    setup_s      None -> 0.5",
        "    ops_per_s    1 -> 0.5 1/s  -50.0% worse (past its bound)",
    ]


def test_the_delta_report_notes_a_run_of_another_seed_or_length():
    values = {"setup_s": 1.0, "ops_per_s": 1.0, "op_p50_ms": 1.0, "peak_rss_mb": 1.0}
    old, new = _record("a", {"w": (0, values)}), _record("b", {"w": (0, values)})
    old["workloads"]["w"].update(seed=1, seconds=20.0)
    new["workloads"]["w"].update(seed=2, seconds=20.0)
    lines = trajectory.delta_report(old, new, BOUNDS)
    assert lines[2] == "    run differs: (seed, seconds) (1, 20.0) -> (2, 20.0)"
    new["workloads"]["w"]["seed"] = 1
    assert "run differs" not in "".join(trajectory.delta_report(old, new, BOUNDS))


def test_the_previous_record_sorts_tags_by_number(tmp_path):
    for tag in ("run9", "run10", "run26", "run27"):
        (tmp_path / f"BENCH_{tag}.json").write_text("{}")
    assert trajectory.previous("run27", tmp_path).name == "BENCH_run26.json"
    assert trajectory.previous("run26", tmp_path).name == "BENCH_run10.json"
    assert trajectory.previous("run10", tmp_path).name == "BENCH_run9.json"
    assert trajectory.previous("run9", tmp_path) is None


def test_a_workload_entry_keeps_scaled_raw_extras_and_failed():
    run = {
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {"setup_s": {"value": 0.04, "unit": "s"}, "op_p50_ms": {"value": 0.13, "unit": "ms"}},
        "workload_metrics": {"det_p99_ms": {"value": 1.2, "unit": "ms"}},
        "raw_metrics": {"setup_s": 0.038},
        "seed": 1, "seconds": 20.0, "interpreter_ms": 60.0,
    }
    entry = trajectory.workload_entry(run, BOUNDS)
    assert entry["metrics"]["setup_s"] == {"value": 0.04, "raw": 0.038, "unit": "s"}
    assert entry["metrics"]["ops_per_s"] == {"value": None, "raw": None, "unit": "1/s"}
    assert entry["extras"] == {"det_p99_ms": {"value": 1.2, "unit": "ms"}}
    assert (entry["failed"], entry["attempted"]) == (0, 10)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_records_keep_the_schema(path):
    rec = json.loads(path.read_text(encoding="utf-8"))
    assert rec["schema"] == trajectory.SCHEMA and path.name == f"BENCH_{rec['tag']}.json"
    assert set(rec["workloads"]) == set(trajectory.workloads(ROOT))
    for entry in rec["workloads"].values():
        assert set(entry["metrics"]) == set(BOUNDS)
        assert entry["failed"] == 0
