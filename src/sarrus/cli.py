"""Command-line interface.

Subcommands: det, validate, generate, pattern, render, bench, export-builtin.
Exit codes: 0 success, 1 usage error, 2 computation error or out of memory,
3 scheme search found nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .bench import METHODS, ORACLES, bench, reports_to_jsonl
from .builtin import builtin_scheme
from .errors import NotFound, SarrusError
from .generate import SearchConfig, search_scheme
from .io import format_scalar, load_scheme, parse_matrix, scheme_to_json
from .oracle import parity_partition_sums
from .pattern import basic_strip_signs, classify
from .render import RenderSpec, render
from .scheme import Scheme, evaluate, positive_negative_sums, validate


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract says 1
        raise _UsageError(message)


def _add_scheme_source(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--scheme", metavar="PATH", help="scheme JSON file")
    g.add_argument("--builtin", type=int, metavar="N", help="built-in scheme for n in 2..5")


def _resolve_scheme(args, n: int | None = None) -> Scheme:
    if args.scheme is not None:
        return load_scheme(args.scheme)
    if args.builtin is not None:
        return builtin_scheme(args.builtin)
    if n is not None:
        return builtin_scheme(n)
    raise _UsageError("need --scheme or --builtin")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sarrus", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("det", parents=[], help="determinant of a matrix file")
    p.add_argument("--matrix", required=True, metavar="PATH")
    p.add_argument("--format", choices=("csv", "json"), help="default: by file suffix")
    p.add_argument("--method", choices=METHODS, default="scheme")
    _add_scheme_source(p)
    p.add_argument("--sums", action="store_true",
                   help="also print the positive and negative sums (scheme or leibniz method)")

    p = sub.add_parser("validate", help="check a scheme against S_n")
    _add_scheme_source(p)

    p = sub.add_parser("generate", help="search for a scheme covering S_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-blocks-per-strip", type=int, default=None)
    p.add_argument("--out", metavar="PATH", help="default: stdout")

    p = sub.add_parser("pattern", help="sign structure class for size n")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("render", help="draw a scheme as SVG or text")
    _add_scheme_source(p)
    p.add_argument("--as", dest="output_format", choices=("svg", "ascii"), default="svg")
    # SVG only; unset, they take the RenderSpec defaults
    p.add_argument("--cell-size", type=int)
    p.add_argument("--no-signs", action="store_true")
    p.add_argument("--positive-color")
    p.add_argument("--negative-color")
    p.add_argument("--out", metavar="PATH", help="default: stdout")

    p = sub.add_parser("bench", help="operation counts and wall times")
    p.add_argument("--methods", default=",".join(METHODS),
                   help="comma-separated subset of " + ",".join(METHODS))
    p.add_argument("--sizes", default="4,5", help="comma-separated sizes")
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH", help="JSON-lines output; default: stdout")

    p = sub.add_parser("export-builtin", help="write a built-in scheme as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", metavar="PATH", help="default: stdout")

    return parser


def _emit(text: str, out: str | None = None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: the rest, and the flush at exit, go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_det(args) -> int:
    if args.sums and args.method not in ("scheme", "leibniz"):
        raise _UsageError(f"--sums needs --method scheme or leibniz, not {args.method}")
    if args.method != "scheme" and (args.scheme is not None or args.builtin is not None):
        flag = "--scheme" if args.scheme is not None else "--builtin"
        raise _UsageError(f"{flag} needs --method scheme, not {args.method}")
    M = parse_matrix(args.matrix, args.format)
    if args.sums:
        if args.method == "scheme":
            s_plus, s_minus = positive_negative_sums(_resolve_scheme(args, n=M.n), M)
        else:
            s_plus, s_minus = parity_partition_sums(M)
        _emit(f"positive sum: {format_scalar(s_plus)}\nnegative sum: {format_scalar(s_minus)}\n")
        value = s_plus - s_minus
    elif args.method == "scheme":
        value = evaluate(_resolve_scheme(args, n=M.n), M)
    else:
        value = ORACLES[args.method](M)
    _emit(format_scalar(value) + "\n")
    return 0


def _cmd_validate(args) -> int:
    report = validate(_resolve_scheme(args))
    _emit(report.summary() + "\n")
    return 0 if report.is_valid else 2


def _cmd_generate(args) -> int:
    cfg = SearchConfig(
        n=args.n,
        max_blocks_per_strip=args.max_blocks_per_strip,
        random_seed=args.seed,
    )
    _emit(scheme_to_json(search_scheme(cfg)) + "\n", args.out)
    return 0


def _cmd_pattern(args) -> int:
    cls = classify(args.n)
    signs = basic_strip_signs(args.n)
    _emit(
        f"n = {cls.n}  ({cls.residue_class})\n"
        f"descending signs alternate along starts: {'yes' if cls.shift_alternates else 'no'}\n"
        f"ascending sign flipped vs descending:    {'yes' if cls.ascending_flips else 'no'}\n"
        "basic strip signs (start, descending, ascending):\n"
        + "".join(f"  {p:>3}  {'+' if d == 1 else '-'}  {'+' if a == 1 else '-'}\n" for p, d, a in signs)
    )
    return 0


def _cmd_render(args) -> int:
    styles = ("cell_size", "positive_color", "negative_color")
    svg_only = {name: value for name in styles if (value := getattr(args, name)) is not None}
    if svg_only and args.output_format == "ascii":
        flags = ", ".join("--" + name.replace("_", "-") for name in svg_only)
        raise _UsageError(f"{flags} apply to --as svg only")
    spec = RenderSpec(
        scheme=_resolve_scheme(args),
        show_signs=not args.no_signs,
        output_format=args.output_format,
        **svg_only,
    )
    _emit(render(spec), args.out)
    return 0


def _cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise _UsageError(f"bad --sizes value {args.sizes!r}")
    # an empty list would run nothing, print nothing and exit 0
    if not methods:
        raise _UsageError(f"--methods {args.methods!r} names no method")
    if not sizes:
        raise _UsageError(f"--sizes {args.sizes!r} names no size")
    reports = bench(methods, sizes, runs=args.runs, seed=args.seed)
    _emit(reports_to_jsonl(reports), args.out)
    return 0


def _cmd_export_builtin(args) -> int:
    _emit(scheme_to_json(builtin_scheme(args.n)) + "\n", args.out)
    return 0


_COMMANDS = {
    "det": _cmd_det,
    "validate": _cmd_validate,
    "generate": _cmd_generate,
    "pattern": _cmd_pattern,
    "render": _cmd_render,
    "bench": _cmd_bench,
    "export-builtin": _cmd_export_builtin,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            _emit(parser.format_help())
            return 1
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except NotFound as e:
        print(f"not found: {e}", file=sys.stderr)
        return 3
    except (SarrusError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        pass
    # past the handler, once the traceback and every frame it held are freed
    print("error: out of memory", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
