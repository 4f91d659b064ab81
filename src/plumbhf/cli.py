"""Command-line front end.

Five subcommands: analyze (one graph file), brieskorn (one multiplicity
tuple), survey (the Brieskorn sweep), all-minus-two (the all-(-2) star
scan), s3 (two-ray property harness).  Exit codes: 0 all rows computed,
2 some rows skipped, 1 invocation error, failed computation or an s3
row that fails one of its properties.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path

from .errors import PlumbingError
from .graph import blow_down
from .report import (
    AnalysisReport,
    ResultCache,
    S3Row,
    SurveyRow,
    analyze,
    brieskorn_verdict,
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


def _int_at_least(text: str, low: int = 1) -> int:
    """An argparse type: an integer no smaller than ``low`` (bind another with partial)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="plumbhf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze_p = sub.add_parser("analyze", help="analyze one plumbing graph file")
    analyze_p.add_argument("graph_file", metavar="FILE")
    analyze_p.set_defaults(handler=_cmd_analyze)
    brieskorn_p = sub.add_parser("brieskorn", help="build and analyze one Brieskorn sphere")
    brieskorn_p.add_argument(
        "multiplicities", metavar="A", type=partial(_int_at_least, low=2), nargs="+"
    )
    brieskorn_p.set_defaults(handler=_cmd_brieskorn)
    for p in (analyze_p, brieskorn_p):
        p.add_argument(
            "--early-stop",
            type=_int_at_least,
            metavar="K",
            help="stop scanning once K good initials are found (default: scan them all)",
        )
        p.add_argument("--emit-sequences", action="store_true")
        _add_output_flags(p)

    p = sub.add_parser("survey", help="one row per pairwise-coprime Brieskorn tuple")
    p.set_defaults(handler=_cmd_survey)
    p.add_argument(
        "--max-a",
        type=_int_at_least,
        default=30,
        metavar="N",
        help="largest multiplicity (default 30)",
    )
    p.add_argument("--rays", type=partial(_int_at_least, low=3), default=3, metavar="N")
    g = p.add_mutually_exclusive_group()
    # a str default is parsed like a given value, so a given 2 is not the
    # default object and argparse still rejects --early-stop 2 --full
    g.add_argument(
        "--early-stop",
        type=_int_at_least,
        default="2",
        metavar="K",
        help="stop each count once K good initials are found (default 2)",
    )
    g.add_argument(
        "--full",
        action="store_true",
        help="scan every initial association (no early stop)",
    )
    p.add_argument(
        "--cache",
        default=os.environ.get(CACHE_ENV),
        metavar="PATH",
        help=f"JSONL result cache (default ${CACHE_ENV}; no cache if unset or empty)",
    )
    p.add_argument(
        "--reverify-sample",
        type=_int_at_least,
        metavar="N",
        help="recompute N cached rows of this run and fail on any mismatch (needs a cache)",
    )
    _add_output_flags(p)

    p = sub.add_parser("all-minus-two", help="one row per all-(-2) star, no game runs")
    p.set_defaults(handler=_cmd_all_minus_two)
    p.add_argument(
        "--max-p",
        type=_int_at_least,
        default=12,
        metavar="N",
        help="longest ray (default 12)",
    )
    p.add_argument("--rays", type=_int_at_least, default=3, metavar="N")
    _add_output_flags(p)

    p = sub.add_parser("s3", help="two-ray quadruple property harness")
    p.set_defaults(handler=_cmd_s3)
    p.add_argument("--bound", type=partial(_int_at_least, low=5), default=20, metavar="N")
    _add_output_flags(p)

    for p in sub.choices.values():  # main reports usage errors through these
        p.set_defaults(subparser=p)
    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _emit_report(report: AnalysisReport, args, extra: dict | None = None) -> None:
    if args.format == "csv":
        _emit(report_to_csv(report, extra), args.output)
    else:
        _emit(json.dumps({**report.to_obj(), **(extra or {})}, indent=2) + "\n", args.output)


def _emit_rows(rows, row_type: type, args) -> None:
    if args.format == "csv":
        _emit(rows_to_csv(rows, row_type), args.output)
    else:
        _emit(json.dumps([r.to_obj() for r in rows], indent=2) + "\n", args.output)


def _cmd_analyze(args) -> int:
    graph = parse_graph_file(args.graph_file)
    report = analyze(
        graph,
        early_stop=args.early_stop,
        emit_sequences=args.emit_sequences,
    )
    _emit_report(report, args)
    return 0


def _cmd_brieskorn(args) -> int:
    graph = blow_down(sigma_star(tuple(args.multiplicities)))
    report = analyze(
        graph,
        early_stop=args.early_stop,
        emit_sequences=args.emit_sequences,
    )
    verdict = brieskorn_verdict(report.good_initial_count)
    _emit_report(report, args, extra={"verdict": verdict})
    return 0


def _cmd_survey(args) -> int:
    if args.reverify_sample and not args.cache:
        args.subparser.error(f"--reverify-sample needs --cache or ${CACHE_ENV}")
    cache = ResultCache(args.cache) if args.cache else None
    rows = survey_brieskorn(
        max_a=args.max_a,
        rays=args.rays,
        early_stop=None if args.full else args.early_stop,
        cache=cache,
    )
    _emit_rows(rows, SurveyRow, args)
    if args.reverify_sample:
        problems = reverify_cache(cache, rows, args.reverify_sample)
        if problems:
            for line in problems:
                print(line, file=sys.stderr)
            return 1
    return 2 if any(r.verdict == "skipped" for r in rows) else 0


def _cmd_all_minus_two(args) -> int:
    _emit_rows(survey_all_minus_two(max_p=args.max_p, rays=args.rays), SurveyRow, args)
    return 0


def _cmd_s3(args) -> int:
    rows = s3_rows(args.bound)
    _emit_rows(rows, S3Row, args)
    failed = [r for r in rows if not r.all_pass()]
    for r in failed:
        print(f"plumbhf: s3 {r.quadruple} fails {', '.join(r.failures())}", file=sys.stderr)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    parser = args.subparser
    if unknown:  # a flag the subcommand does not read; its usage line says which it does
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    if args.command in ("analyze", "brieskorn") and args.emit_sequences and args.format == "csv":
        parser.error("--emit-sequences needs --format json (CSV carries no sequences)")
    try:
        return args.handler(args)
    except (PlumbingError, ValueError, OSError) as exc:
        print(f"plumbhf: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
