"""Command-line front end.

Five subcommands: analyze (one graph file), brieskorn (one multiplicity
tuple), survey (the Brieskorn sweep), all-minus-two (the all-(-2) star
scan), s3 (two-ray property harness).  Exit codes: 0 every row computed,
1 invocation error, failed computation (a failed engine self-check
included), a cache mismatch found by --reverify-sample or an s3 row that
fails one of its properties.  Output is UTF-8 whatever the locale; a
warning is one ``plumbhf: warning:`` line on stderr.  The module entry is
``python -m plumbhf``; ``python -m plumbhf.cli`` refuses with exit 1.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from contextlib import nullcontext
from functools import partial
from pathlib import Path

from .errors import PlumbingError
from .graph import blow_down
from .report import (
    ResultCache,
    SurveyRow,
    analyze,
    brieskorn_verdict,
    csv_text,
    json_text,
    reverify_cache,
    survey_all_minus_two,
    survey_brieskorn,
)
from .files import parse_graph_file
from .seifert import sigma_star

CACHE_ENV = "PLUMB_HF_CACHE"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; here every invocation error exits 1."""

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
    brieskorn_p = sub.add_parser("brieskorn", help="build and analyze one Brieskorn sphere")
    brieskorn_p.add_argument(
        "multiplicities", metavar="A", type=partial(_int_at_least, low=2), nargs="+"
    )
    # a verdict needs two good initials, so brieskorn stops at 2 or later
    for p, low in ((analyze_p, 1), (brieskorn_p, 2)):
        p.set_defaults(handler=_cmd_report)
        p.add_argument(
            "--early-stop",
            type=partial(_int_at_least, low=low),
            metavar="K",
            help="stop once K good initials are found (default: an exact count)",
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
        type=partial(_int_at_least, low=2),
        default="2",
        metavar="K",
        help="stop each count once K >= 2 good initials are found (default 2)",
    )
    g.add_argument(
        "--full",
        action="store_true",
        help="count every good initial exactly (no early stop)",
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


def _emit(args, value, header, records) -> None:
    """``value`` as JSON, or ``header`` and ``records`` as CSV, in UTF-8.

    Stdout gets the bytes through its binary layer when it has one (an
    io.StringIO has not, and takes the text); that layer is the raw
    file under ``python -u``, whose write may take only some of the
    bytes, so the rest are written until none is left.  --output gets
    them in a sibling temp file moved over the target, so a failed write
    leaves the target as it was.
    """
    text = csv_text(header, records) if args.format == "csv" else json_text(value) + "\n"
    data = text.encode("utf-8")
    if args.output is None:
        out = sys.stdout
        if hasattr(out, "buffer"):
            out.flush()
            rest = memoryview(data)
            while rest:
                rest = rest[out.buffer.write(rest):]
        else:
            out.write(text)
        return
    path = Path(args.output)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already unless the write failed


def _cmd_report(args) -> int:
    """analyze reads its graph from a file; brieskorn builds it and adds a verdict."""
    brieskorn = args.command == "brieskorn"
    if brieskorn:
        graph = blow_down(sigma_star(tuple(args.multiplicities)))
    else:
        graph = parse_graph_file(args.graph_file)
    report = analyze(graph, early_stop=args.early_stop, emit_sequences=args.emit_sequences)
    obj = report.to_obj()
    if brieskorn:
        obj["verdict"] = brieskorn_verdict(report.good_initial_count)
    _emit(args, obj, obj.keys(), [obj.values()])  # main refuses sequences with CSV
    return 0


def _cmd_survey(args) -> int:
    if args.reverify_sample and not args.cache:
        args.subparser.error(f"--reverify-sample needs --cache or ${CACHE_ENV}")
    with ResultCache(args.cache) if args.cache else nullcontext() as cache:
        if cache is not None and cache.torn_line is not None:
            print(f"plumbhf: {cache.path}:{cache.torn_line}: skipped a torn last cache record",
                  file=sys.stderr)
        rows = survey_brieskorn(
            max_a=args.max_a,
            rays=args.rays,
            early_stop=None if args.full else args.early_stop,
            cache=cache,
        )
        _emit(args, rows, SurveyRow._fields, map(SurveyRow._key, rows))
        if args.reverify_sample:
            problems = reverify_cache(cache, rows, args.reverify_sample)
            if problems:
                for line in problems:
                    print(line, file=sys.stderr)
                return 1
    return 0


def _cmd_all_minus_two(args) -> int:
    rows = survey_all_minus_two(max_p=args.max_p, rays=args.rays)
    _emit(args, rows, SurveyRow._fields, map(SurveyRow._key, rows))
    return 0


def _cmd_s3(args) -> int:
    from .s3 import S3Row, s3_rows  # the harness loads only when s3 runs
    rows = s3_rows(args.bound)
    _emit(args, rows, S3Row._fields, map(S3Row._key, rows))
    failed = [r for r in rows if r.failures()]
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
    with warnings.catch_warnings():  # restores showwarning on the way out
        # one line: the frame a warning names is main's caller, runpy's under -m
        warnings.showwarning = lambda message, *_: print(f"plumbhf: warning: {message}", file=sys.stderr)
        try:
            return args.handler(args)
        except (PlumbingError, ValueError, OSError, Warning) as exc:  # a Warning under -W error
            print(f"plumbhf: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":  # run as python -m plumbhf.cli, which would otherwise do nothing
    sys.exit("plumbhf: the module entry is python -m plumbhf, not python -m plumbhf.cli")
