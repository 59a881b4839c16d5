"""Record perfbench's end-to-end results as BENCH_<tag>.json, and report the
change against the previous record.

    python3 tools/trajectory.py TAG              # read perfbench/out/<workload>.trace0.json
    python3 tools/trajectory.py TAG --run        # run perfbench/run.py --trace 0 first
    python3 tools/trajectory.py TAG --run --checkout DIR

The workloads are the ones ``perfbench/run.py`` names. Each workload's
``perfbench/out/<workload>.trace0.json`` (written by ``perfbench/run.py
--trace 0``, with run.py's default seed and length) becomes one entry of a
fixed-schema record: the four bounded metrics, scaled and raw (null where
the run reports none), the workload's own extras, ``failed`` and
``attempted``. The record adds the
git revision of the checkout measured and the machine context, and is
written at the root of this repository. ``--checkout`` measures another
checkout of the repository, such as a parent commit.

The previous record is the other BENCH_*.json whose tag sorts last before
TAG, numbers compared as numbers (run9 before run10). The change against it
is printed as a report and never fails the run: the exit status is 0
whenever the record was written. A workload whose seed or length differs
between the two records is noted in the report.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 1


def workloads(checkout: Path) -> tuple[str, ...]:
    """The workload names of the checkout's perfbench/run.py."""
    spec = importlib.util.spec_from_file_location("perfbench_run", checkout / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.NAMES


def _natural(tag: str) -> list:
    # run9 before run10: digit runs compare as numbers
    return [(0, int(part), "") if part.isdigit() else (1, 0, part) for part in re.findall(r"\d+|\D+", tag)]


def _revision(checkout: Path) -> dict:
    def git(*args: str) -> str:
        done = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else ""

    return {"commit": git("rev-parse", "HEAD") or None, "dirty": bool(git("status", "--porcelain"))}


def _bounds(checkout: Path) -> dict:
    """BENCHMARK.json's end-to-end metrics by name: unit, better, bound."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"]}


def workload_entry(run: dict, bounds: dict) -> dict:
    """One workload of the record, from the JSON that perfbench/run.py wrote."""
    metrics = {
        name: {
            "value": run["metrics"][name]["value"] if name in run["metrics"] else None,
            "raw": run["raw_metrics"].get(name),
            "unit": spec["unit"],
        }
        for name, spec in bounds.items()
    }
    return {
        "seed": run["seed"],
        "seconds": run["seconds"],
        "interpreter_ms": run["interpreter_ms"],
        "metrics": metrics,
        "extras": run["workload_metrics"],
        "failed": run["failed"],
        "attempted": run["attempted"],
    }


def record(tag: str, checkout: Path, runs: dict[str, dict]) -> dict:
    """The BENCH record of the runs, by workload, of one checkout."""
    bounds = _bounds(checkout)
    first = next(iter(runs.values()))
    return {
        "schema": SCHEMA,
        "tag": tag,
        "revision": _revision(checkout),
        "machine": {
            "nproc": first["nproc"],
            "python": first["python"],
            "implementation": platform.python_implementation(),
            "system": platform.system(),
            "machine": platform.machine(),
            "host_probe_ref_ns": first["host_probe_ref_ns"],
        },
        "workloads": {name: workload_entry(run, bounds) for name, run in runs.items()},
    }


def delta_report(old: dict, new: dict, bounds: dict) -> list[str]:
    """Lines that compare each bounded metric of the workloads both records
    hold: old, new, the change in per cent, and whether it is better or worse
    by the metric's direction, noting a change past the metric's bound."""
    lines = [f"{new['tag']} against {old['tag']} (scaled values)"]
    for name in new["workloads"]:
        if name not in old["workloads"]:
            lines.append(f"  {name}: not in {old['tag']}")
            continue
        was, now = old["workloads"][name], new["workloads"][name]
        lines.append(f"  {name}: failed {was['failed']} -> {now['failed']}")
        runs = [(w.get("seed"), w.get("seconds")) for w in (was, now)]
        if runs[0] != runs[1]:
            lines.append(f"    run differs: (seed, seconds) {runs[0]} -> {runs[1]}")
        for metric, spec in bounds.items():
            a, b = was["metrics"][metric]["value"], now["metrics"][metric]["value"]
            if a is None or b is None or a == 0:
                lines.append(f"    {metric:<12} {a} -> {b}")
                continue
            change = b / a - 1
            gain = change if spec["better"] == "higher" else -change
            verdict = "same" if change == 0 else "better" if gain > 0 else "worse"
            past = " (past its bound)" if -gain > spec["bound"] else ""
            lines.append(
                f"    {metric:<12} {a:.6g} -> {b:.6g} {spec['unit']}  {change:+.1%} {verdict}{past}"
            )
    return lines


def previous(tag: str, root: Path = ROOT) -> Path | None:
    """The BENCH_*.json whose tag sorts last before tag, or None."""
    earlier = [p for p in root.glob("BENCH_*.json") if _natural(p.stem[6:]) < _natural(tag)]
    return max(earlier, key=lambda p: _natural(p.stem[6:]), default=None)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("tag", help="the record is written as BENCH_<tag>.json")
    p.add_argument("--checkout", type=Path, default=ROOT, help="the checkout measured (default: this one)")
    p.add_argument("--run", action="store_true", help="run perfbench/run.py --trace 0 on each workload first")
    args = p.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.tag):
        p.error(f"tag {args.tag!r} is not letters, digits, '_', '.' or '-'")
    checkout = args.checkout.resolve()
    runs = {}
    for name in workloads(checkout):
        path = checkout / "perfbench" / "out" / f"{name}.trace0.json"
        if args.run:
            path.unlink(missing_ok=True)  # so a run that ends early leaves no stale record
            cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--trace", "0"]
            subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL)
        if not path.is_file():
            print(f"error: no {path}; run perfbench/run.py --workload {name} --trace 0, "
                  f"or pass --run", file=sys.stderr)
            return 2
        runs[name] = json.loads(path.read_text(encoding="utf-8"))
    new = record(args.tag, checkout, runs)
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(new, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    before = previous(args.tag)
    if before is None:
        print("no earlier BENCH_*.json to compare with")
    else:
        old = json.loads(before.read_text(encoding="utf-8"))
        print("\n".join(delta_report(old, new, _bounds(checkout))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
