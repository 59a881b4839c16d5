"""Measure this checkout against a revision in alternating perfbench runs.

    python3 tools/trajectory.py TAG --against REV [--pairs K] [--workload W ...]

The workloads are the ones ``perfbench/run.py`` names, or those given with
``--workload``. REV is cloned into a temporary directory, which goes when
the run ends; a clone, unlike a worktree, leaves nothing in this
repository's git metadata. This checkout's tracked and untracked files, the
ignored ones left out, are copied beside it, so both sides run from paths of
equal length: the length of the working directory's name has moved
det-files' peak RSS by ~3 MB. Each workload runs ``perfbench/run.py --trace
0`` with run.py's defaults, K times (default 10) on each side, REV and this
checkout. Within a pair the two runs follow each other, and the side that
goes first alternates from pair to pair, so drift on the host falls on both
sides. A single run moves by up to ~10 % on code nobody touched, so a
before/after number is only read from such pairs.

The record, BENCH_<tag>.json at the root of this repository (schema 2),
holds the git revisions of both sides and the machine context. Its entry
per workload keeps, per bounded metric and per side, every run's value,
their median and their interquartile range (``statistics.quantiles``,
exclusive method), and the number of pairs in which this checkout was
better; each side's ``failed``, ``attempted`` and loop operation counts are
kept run by run. The report prints the change of each median with the win
count beside it. It never fails the run: the exit status is 0 whenever the
record was written.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import re
import shutil
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


def _revision(checkout: Path) -> dict:
    def git(*args: str) -> str:
        done = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else ""

    return {"commit": git("rev-parse", "HEAD") or None, "dirty": bool(git("status", "--porcelain"))}


def _bounds(checkout: Path) -> dict:
    """BENCHMARK.json's end-to-end metrics by name: unit, better, bound."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"]}


def _machine(run: dict) -> dict:
    return {
        "nproc": run["nproc"],
        "python": run["python"],
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
        "host_probe_ref_ns": run["host_probe_ref_ns"],
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


def _change(metric: str, spec: dict, a, b, note: str = "") -> str:
    if a == 0:
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


def _run_workload(checkout: Path, name: str) -> dict:
    """perfbench/run.py --workload name --trace 0 in the checkout: its JSON,
    with the loop's operation count."""
    path = checkout / "perfbench" / "out" / f"{name}.trace0.json"
    path.unlink(missing_ok=True)  # so a run that ends early leaves no stale record
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if not path.is_file():
        raise RuntimeError(f"perfbench/run.py --workload {name} wrote no result in {checkout}")
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
        raise RuntimeError(f"no commit {rev!r} in {ROOT}")
    checkout = into / "base"
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(ROOT), str(checkout)], check=True)
    subprocess.run(["git", "checkout", "--quiet", "--detach", done.stdout.strip()], cwd=checkout, check=True)
    return checkout


def _copy(into: Path) -> Path:
    """This checkout's tracked and untracked files, the ignored ones (such as
    ``perfbench/out`` and ``__pycache__``) left out, copied to a new directory
    under into whose name is as long as the clone's."""
    checkout = into / "head"
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in this checkout is listed too
            (checkout / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, checkout / name)
    return checkout


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("tag", help="the record is written as BENCH_<tag>.json")
    p.add_argument("--against", required=True, metavar="REV", help="the revision this checkout is measured against")
    p.add_argument("--pairs", type=int, default=10, metavar="K", help="alternating pairs per workload (default 10)")
    p.add_argument("--workload", action="append", metavar="W", help="a workload to measure (default: all)")
    args = p.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.tag):
        p.error(f"tag {args.tag!r} is not letters, digits, '_', '.' or '-'")
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    names = workloads(ROOT)
    for name in args.workload or ():
        if name not in names:
            p.error(f"unknown workload {name!r}; choose from {', '.join(names)}")
    names = tuple(args.workload or names)
    with tempfile.TemporaryDirectory(prefix="trajectory-") as tmp:
        try:
            base = _clone(args.against, Path(tmp))
            checkouts = {"base": base, "head": _copy(Path(tmp))}
            runs = {}
            for name in names:

                def run(side: str) -> dict:
                    result = _run_workload(checkouts[side], name)
                    print(f"  {name} {side}: done", flush=True)
                    return result

                runs[name] = alternate(args.pairs, run)
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        rec = paired_record(args.tag, base, runs)
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(rec, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    print("\n".join(pairs_report(rec, _bounds(ROOT))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
