"""Record perfbench's end-to-end results as BENCH_<tag>.json, and report the
change against the previous record, or between two revisions run in pairs.

    python3 tools/trajectory.py TAG              # read perfbench/out/<workload>.trace0.json
    python3 tools/trajectory.py TAG --run        # run perfbench/run.py --trace 0 first
    python3 tools/trajectory.py TAG --run --checkout DIR
    python3 tools/trajectory.py TAG --run --against REV --pairs K [--workload W ...]

The workloads are the ones ``perfbench/run.py`` names, or those given with
``--workload``. Each workload's ``perfbench/out/<workload>.trace0.json``
(written by ``perfbench/run.py --trace 0``, with run.py's default seed and
length) becomes one entry of a fixed-schema record: the four bounded
metrics, scaled and raw (null where the run reports none), the workload's
own extras, ``failed`` and ``attempted``. The record adds the git revision
of the checkout measured and the machine context, and is written at the
root of this repository. ``--checkout`` measures another checkout of the
repository, such as a parent commit.

``--against REV --pairs K`` measures REV against this checkout in K
alternating pairs per workload, with run.py's defaults. REV is cloned into
a temporary directory, which goes when the run ends; a clone, unlike a
worktree, leaves nothing in this repository's git metadata. Within a pair
the two runs follow each other, and the side that goes first alternates
from pair to pair, so drift on the host falls on both sides. The paired
entry keeps, per bounded metric and per side, every run's value, their
median and their interquartile range (``statistics.quantiles``, exclusive
method), and the number of pairs in which this checkout was better; each
side's ``failed``, ``attempted`` and loop operation counts are kept run by
run.

The previous record is the other BENCH_*.json whose tag sorts last before
TAG, numbers compared as numbers (run9 before run10). The change against it
is printed as a report, and a paired record also prints its own pairs, with
the win count beside each change. Neither ever fails the run: the exit
status is 0 whenever the record was written. A workload whose seed or
length differs between the two records is noted in the report. Schema 1
records, which hold single runs only, are still read.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 2
SIDES = ("base", "head")  # the revision given with --against, and this checkout


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


def _machine(run: dict) -> dict:
    return {
        "nproc": run["nproc"],
        "python": run["python"],
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
        "host_probe_ref_ns": run["host_probe_ref_ns"],
    }


def record(tag: str, checkout: Path, runs: dict[str, dict]) -> dict:
    """The BENCH record of the runs, by workload, of one checkout."""
    bounds = _bounds(checkout)
    return {
        "schema": SCHEMA,
        "tag": tag,
        "revision": _revision(checkout),
        "machine": _machine(next(iter(runs.values()))),
        "workloads": {name: workload_entry(run, bounds) for name, run in runs.items()},
    }


def _spread(values: list[float]) -> dict:
    """The values, their median and their interquartile range."""
    iqr = 0.0
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    return {"median": statistics.median(values), "iqr": iqr, "values": values}


def paired_entry(runs: dict[str, list[dict]], bounds: dict) -> dict:
    """One workload of a paired record, from the runs of each side in pair
    order: run i of each side forms pair i. A metric that some run does
    not report is kept as null."""
    base, head = (runs[side] for side in SIDES)
    metrics = {}
    for name, spec in bounds.items():
        values = {side: [r["metrics"].get(name, {}).get("value") for r in runs[side]] for side in SIDES}
        if any(v is None for side in SIDES for v in values[side]):
            metrics[name] = None
            continue
        sign = 1 if spec["better"] == "higher" else -1
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            **{side: _spread(values[side]) for side in SIDES},
            "wins": sum(sign * (b - a) > 0 for a, b in zip(values["base"], values["head"])),
        }
    return {
        "seed": head[0]["seed"],
        "seconds": head[0]["seconds"],
        "pairs": len(head),
        "runs": {
            side: {key: [r.get(key) for r in runs[side]] for key in ("failed", "attempted", "operations")}
            for side in SIDES
        },
        "metrics": metrics,
    }


def alternate(pairs: int, run: Callable[[str], dict]) -> dict[str, list[dict]]:
    """run(side) for each side, ``pairs`` times: base then head in even
    pairs, head then base in odd ones."""
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run(side))
    return runs


def paired_record(tag: str, base: Path, runs: dict[str, dict[str, list[dict]]]) -> dict:
    """The BENCH record of paired runs by workload: this checkout against
    the checkout ``base``."""
    bounds = _bounds(ROOT)
    first = next(iter(runs.values()))["head"][0]
    return {
        "schema": SCHEMA,
        "tag": tag,
        "revision": _revision(ROOT),
        "against": _revision(base),
        "machine": _machine(first),
        "workloads": {name: paired_entry(sides, bounds) for name, sides in runs.items()},
    }


def _value(entry: dict, metric: str):
    """A workload entry's value of a metric: its single run's, or the median
    of this checkout's runs in a paired entry."""
    if "pairs" not in entry:
        return entry["metrics"][metric]["value"]
    paired = entry["metrics"][metric]
    return None if paired is None else paired["head"]["median"]


def _failed(entry: dict) -> int:
    return sum(entry["runs"]["head"]["failed"]) if "pairs" in entry else entry["failed"]


def delta_report(old: dict, new: dict, bounds: dict) -> list[str]:
    """Lines that compare each bounded metric of the workloads both records
    hold: old, new, the change in per cent, and whether it is better or worse
    by the metric's direction, noting a change past the metric's bound. A
    paired entry counts by the median of this checkout's runs."""
    lines = [f"{new['tag']} against {old['tag']} (scaled values)"]
    for name in new["workloads"]:
        if name not in old["workloads"]:
            lines.append(f"  {name}: not in {old['tag']}")
            continue
        was, now = old["workloads"][name], new["workloads"][name]
        lines.append(f"  {name}: failed {_failed(was)} -> {_failed(now)}")
        runs = [(w.get("seed"), w.get("seconds")) for w in (was, now)]
        if runs[0] != runs[1]:
            lines.append(f"    run differs: (seed, seconds) {runs[0]} -> {runs[1]}")
        for metric, spec in bounds.items():
            lines.append(_change(metric, spec, _value(was, metric), _value(now, metric)))
    return lines


def _change(metric: str, spec: dict, a, b, note: str = "") -> str:
    if a is None or b is None or a == 0:
        return f"    {metric:<12} {a} -> {b}"
    change = b / a - 1
    gain = change if spec["better"] == "higher" else -change
    verdict = "same" if change == 0 else "better" if gain > 0 else "worse"
    past = " (past its bound)" if -gain > spec["bound"] else ""
    return f"    {metric:<12} {a:.6g} -> {b:.6g} {spec['unit']}  {change:+.1%} {verdict}{past}{note}"


def pairs_report(rec: dict, bounds: dict) -> list[str]:
    """Lines that compare, per workload and bounded metric, the median of
    the base runs with the median of this checkout's, with the base's
    interquartile range and the pairs this checkout won."""
    against = (rec["against"]["commit"] or "?")[:12]
    lines = [f"{rec['tag']}: this checkout against {against} in alternating pairs (scaled medians)"]
    for name, entry in rec["workloads"].items():
        failed = {side: sum(entry["runs"][side]["failed"]) for side in SIDES}
        lines.append(f"  {name}: {entry['pairs']} pairs, failed {failed['base']} -> {failed['head']}")
        for metric, spec in bounds.items():
            paired = entry["metrics"][metric]
            if paired is None:
                lines.append(f"    {metric:<12} not reported by every run")
                continue
            base, head = paired["base"], paired["head"]
            note = f", base IQR {base['iqr']:.3g}, won {paired['wins']} of {entry['pairs']}"
            lines.append(_change(metric, spec, base["median"], head["median"], note))
    return lines


def previous(tag: str, root: Path = ROOT) -> Path | None:
    """The BENCH_*.json whose tag sorts last before tag, or None."""
    earlier = [p for p in root.glob("BENCH_*.json") if _natural(p.stem[6:]) < _natural(tag)]
    return max(earlier, key=lambda p: _natural(p.stem[6:]), default=None)


def _run_workload(checkout: Path, name: str) -> dict | None:
    """perfbench/run.py --workload name --trace 0 in the checkout: its JSON,
    with the loop's operation count, or None if it wrote none."""
    path = checkout / "perfbench" / "out" / f"{name}.trace0.json"
    path.unlink(missing_ok=True)  # so a run that ends early leaves no stale record
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if not path.is_file():
        return None
    run = json.loads(path.read_text(encoding="utf-8"))
    loop = re.search(r"(\d+) operations in the loop", done.stdout)
    run["operations"] = int(loop.group(1)) if loop else None
    return run


def _clone(rev: str, into: Path) -> Path:
    """A clone of this repository at rev, in a new directory under into."""
    done = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, capture_output=True, text=True
    )
    if done.returncode:
        raise ValueError(f"no commit {rev!r} in {ROOT}")
    checkout = into / "base"
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(ROOT), str(checkout)], check=True)
    subprocess.run(["git", "checkout", "--quiet", "--detach", done.stdout.strip()], cwd=checkout, check=True)
    return checkout


def _write(tag: str, rec: dict) -> None:
    out = ROOT / f"BENCH_{tag}.json"
    out.write_text(json.dumps(rec, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")


def _paired(args, names: tuple[str, ...]) -> int:
    with tempfile.TemporaryDirectory(prefix="trajectory-") as tmp:
        try:
            base = _clone(args.against, Path(tmp))
        except (ValueError, subprocess.CalledProcessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        checkouts = {"base": base, "head": ROOT}
        runs = {}
        for name in names:

            def run(side: str) -> dict:
                result = _run_workload(checkouts[side], name)
                if result is None:
                    raise RuntimeError(f"{side} run of {name} wrote no result")
                print(f"  {name} {side}: done", flush=True)
                return result

            try:
                runs[name] = alternate(args.pairs, run)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        rec = paired_record(args.tag, base, runs)
    _write(args.tag, rec)
    print("\n".join(pairs_report(rec, _bounds(ROOT))))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("tag", help="the record is written as BENCH_<tag>.json")
    p.add_argument("--checkout", type=Path, default=ROOT, help="the checkout measured (default: this one)")
    p.add_argument("--run", action="store_true", help="run perfbench/run.py --trace 0 on each workload first")
    p.add_argument("--against", metavar="REV", help="with --run: measure REV against this checkout in pairs")
    p.add_argument("--pairs", type=int, metavar="K", help="with --against: alternating pairs per workload (default 10)")
    p.add_argument("--workload", action="append", metavar="W", help="a workload to measure (default: all)")
    args = p.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.tag):
        p.error(f"tag {args.tag!r} is not letters, digits, '_', '.' or '-'")
    if args.against is None and args.pairs is not None:
        p.error("--pairs needs --against")
    if args.against is not None:
        args.pairs = 10 if args.pairs is None else args.pairs
        if not args.run or args.checkout != ROOT or args.pairs < 1:
            p.error("--against needs --run, no --checkout, and --pairs of at least 1")
    checkout = args.checkout.resolve()
    names = workloads(checkout)
    for name in args.workload or ():
        if name not in names:
            p.error(f"unknown workload {name!r}; choose from {', '.join(names)}")
    names = tuple(args.workload or names)
    if args.against is not None:
        return _paired(args, names)
    runs = {}
    for name in names:
        path = checkout / "perfbench" / "out" / f"{name}.trace0.json"
        run = _run_workload(checkout, name) if args.run else None
        if run is None and not path.is_file():
            print(f"error: no {path}; run perfbench/run.py --workload {name} --trace 0, "
                  f"or pass --run", file=sys.stderr)
            return 2
        runs[name] = run or json.loads(path.read_text(encoding="utf-8"))
    new = record(args.tag, checkout, runs)
    _write(args.tag, new)
    before = previous(args.tag)
    if before is None:
        print("no earlier BENCH_*.json to compare with")
    else:
        old = json.loads(before.read_text(encoding="utf-8"))
        print("\n".join(delta_report(old, new, _bounds(checkout))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
