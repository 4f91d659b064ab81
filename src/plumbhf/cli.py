"""Command-line front end.

Subcommands: analyze (one graph file), brieskorn (one multiplicity
tuple), survey (family sweeps), s3 (two-ray property harness).  Exit
codes: 0 all rows computed, 2 some rows skipped, 1 invocation error or
failed computation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import PlumbingError
from .graph import blow_down
from .report import (
    AnalysisReport,
    ResultCache,
    analyze,
    report_to_csv,
    reverify_cache,
    rows_to_csv,
    sigma_star,
    survey_all_minus_two,
    survey_brieskorn,
    s3_rows,
)
from .files import parse_graph_file

CACHE_ENV = "PLUMB_HF_CACHE"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this front end reserves 2 for
    partially skipped runs, so usage errors exit 1 instead."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", metavar="PATH", help="write here instead of stdout")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_scan_flags(p: argparse.ArgumentParser, early_stop_help: str = "") -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument(
        "--early-stop",
        type=_positive_int,
        metavar="K",
        help="stop scanning once K good initials are found" + early_stop_help,
    )
    g.add_argument(
        "--full",
        action="store_true",
        help="scan every initial association (no early stop)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="plumbhf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one plumbing graph file")
    p.add_argument("graph_file", metavar="FILE")
    _add_scan_flags(p)
    p.add_argument("--emit-sequences", action="store_true")
    _add_output_flags(p)

    p = sub.add_parser("brieskorn", help="build and analyze one Brieskorn sphere")
    p.add_argument("multiplicities", metavar="A", type=int, nargs="+")
    _add_scan_flags(p)
    p.add_argument("--emit-sequences", action="store_true")
    _add_output_flags(p)

    # Flags that only one mode reads default to None, so that giving one
    # to the other mode is caught; the per-mode defaults apply in _cmd_survey.
    p = sub.add_parser("survey", help="sweep a family and emit one row per member")
    p.add_argument("--mode", choices=("brieskorn", "all-minus-two"), default="brieskorn")
    p.add_argument(
        "--max-a",
        type=_positive_int,
        metavar="N",
        help="largest multiplicity (brieskorn; default 30)",
    )
    p.add_argument("--rays", type=_positive_int, default=3, metavar="N")
    p.add_argument(
        "--max-p",
        type=_positive_int,
        metavar="N",
        help="longest ray (all-minus-two; default 12)",
    )
    _add_scan_flags(p, early_stop_help=" (brieskorn; default 2)")
    p.add_argument(
        "--cache",
        metavar="PATH",
        help=f"JSONL result cache (overrides ${CACHE_ENV}; no cache otherwise)",
    )
    p.add_argument(
        "--reverify-sample",
        type=_positive_int,
        metavar="N",
        help="recompute N cached rows of this run and fail on any mismatch (needs a cache)",
    )
    _add_output_flags(p)

    p = sub.add_parser("s3", help="two-ray quadruple property harness")
    p.add_argument("--bound", type=int, default=20, metavar="N")
    _add_output_flags(p)

    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(output).write_text(text if text.endswith("\n") else text + "\n")


def _emit_report(report: AnalysisReport, args, extra: dict | None = None) -> None:
    if args.format == "csv":
        _emit(report_to_csv(report, extra), args.output)
    else:
        _emit(json.dumps({**report.to_obj(), **(extra or {})}, indent=2), args.output)


def _emit_rows(rows, args) -> None:
    if args.format == "csv":
        _emit(rows_to_csv(rows), args.output)
    else:
        _emit(json.dumps([r.to_obj() for r in rows], indent=2), args.output)


def _early_stop(args) -> int | None:
    return None if args.full else args.early_stop


def _cmd_analyze(args) -> int:
    graph = parse_graph_file(args.graph_file)
    report = analyze(
        graph,
        early_stop=_early_stop(args),
        emit_sequences=args.emit_sequences,
    )
    _emit_report(report, args)
    return 0


def _cmd_brieskorn(args) -> int:
    graph = blow_down(sigma_star(tuple(args.multiplicities)))
    report = analyze(
        graph,
        early_stop=_early_stop(args),
        emit_sequences=args.emit_sequences,
    )
    verdict = "nontrivial" if report.good_initial_count >= 2 else "trivial-rank"
    _emit_report(report, args, extra={"verdict": verdict})
    return 0


def _cache_path(args) -> str | None:
    return (args.cache if args.cache is not None else os.environ.get(CACHE_ENV)) or None


def _survey_flags_ignored(args) -> list[str]:
    """Flags given on the command line that args.mode does not read."""
    if args.mode == "brieskorn":
        given = {"--max-p": args.max_p is not None}
    else:
        given = {
            "--max-a": args.max_a is not None,
            "--early-stop": args.early_stop is not None,
            "--full": args.full,
            "--cache": args.cache is not None,
            "--reverify-sample": args.reverify_sample is not None,
        }
    return [flag for flag, on in given.items() if on]


def _cmd_survey(args) -> int:
    cache = None
    if args.mode == "all-minus-two":
        max_p = 12 if args.max_p is None else args.max_p
        rows = survey_all_minus_two(max_p=max_p, rays=args.rays)
    else:
        cache_path = _cache_path(args)
        cache = ResultCache(cache_path) if cache_path else None
        early_stop = 2 if args.early_stop is None else args.early_stop
        rows = survey_brieskorn(
            max_a=30 if args.max_a is None else args.max_a,
            rays=args.rays,
            early_stop=None if args.full else early_stop,
            cache=cache,
        )
    _emit_rows(rows, args)
    if args.reverify_sample:
        problems = reverify_cache(cache, rows, args.reverify_sample)
        if problems:
            for line in problems:
                print(line, file=sys.stderr)
            return 1
    return 2 if any(r.verdict == "skipped" for r in rows) else 0


def _cmd_s3(args) -> int:
    rows = s3_rows(args.bound)
    _emit_rows(rows, args)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("analyze", "brieskorn") and args.emit_sequences and args.format == "csv":
        parser.error("--emit-sequences needs --format json (CSV carries no sequences)")
    if args.command == "survey":
        ignored = _survey_flags_ignored(args)
        if ignored:
            parser.error(f"--mode {args.mode} does not use {', '.join(ignored)}")
        if args.reverify_sample and _cache_path(args) is None:
            parser.error(f"--reverify-sample needs --cache or ${CACHE_ENV}")
    handler = {
        "analyze": _cmd_analyze,
        "brieskorn": _cmd_brieskorn,
        "survey": _cmd_survey,
        "s3": _cmd_s3,
    }[args.command]
    try:
        return handler(args)
    except (PlumbingError, ValueError, OSError) as exc:
        print(f"plumbhf: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
