"""Command-line interface.

Exit codes: 0 when every query ran (regardless of established /
not-established outcomes), 1 for usage, parse, or query errors and for input
that cannot be read, 2 for an internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .document import Document, QueryDecl, parse
from .literals import ParseError, _integer, _number
from .report import render_text, report_to_json, run_document
from .search import DEFAULT_DEPTH

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2


def integer(text: str) -> int:
    """A flag's value as a .surf integer literal; argparse names this
    function in its usage error ("invalid integer value: '1_0'")."""
    return _integer(text, "{!r} is not an integer", None, None)


def rational(text: str) -> Fraction:
    """A flag's value as a .surf rational literal, ``[sign]p/q`` or an
    integer; argparse names this function in its usage error ("invalid
    rational value: '3.4'")."""
    return Fraction(_number(text, None))


@functools.cache  # one parser per process: parse_args leaves it as it was, so calls of main share it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qreider",
        description="Exact Reider-type positivity checks for adjoint systems on surfaces with boundary.",
    )
    parser.add_argument("--version", action="version", version=f"qreider {__version__}")
    sub = parser.add_subparsers(dest="command")

    check = sub.add_parser("check", help="run the queries of a .surf document")
    check.add_argument("file", help="input document, or '-' for stdin")
    check.add_argument("--json", action="store_true", help="emit the machine-readable report")

    hz = sub.add_parser("hirzebruch", help="verify one part of the ruled-surface claim")
    hz.add_argument("--n", type=integer, required=True)
    hz.add_argument("--part", type=integer, choices=(1, 2), required=True)
    hz.add_argument("--m", type=integer, default=None)
    hz.add_argument("--json", action="store_true")
    hz.add_argument("--depth", type=integer, default=DEFAULT_DEPTH, help="the claim query's depth=")
    return parser


def _emit(report, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report_to_json(report), indent=2))
    else:
        print(render_text(report), end="")


def _run_check(args) -> int:
    path = None if args.file == "-" else Path(args.file)
    source = "<stdin>" if path is None else str(path)
    try:  # a .surf document is UTF-8, read as bytes from a file or from stdin alike
        text = (sys.stdin.buffer.read() if path is None else path.read_bytes()).decode()
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, or bytes that are not UTF-8
        print(f"error: cannot read {source}: {getattr(exc, 'strerror', None) or exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        doc = parse(text)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = run_document(doc, source=source)
    _emit(report, args.json)
    return EXIT_USAGE if report.any_error else EXIT_OK


def _run_hirzebruch(args) -> int:
    argpairs = [("n", str(args.n)), ("part", str(args.part)), ("depth", str(args.depth))]
    if args.m is not None:
        argpairs.insert(2, ("m", str(args.m)))
    doc = Document(queries=(QueryDecl("hirzebruch-claim", tuple(argpairs)),))
    report = run_document(doc, source=f"hirzebruch n={args.n} part={args.part}")
    _emit(report, args.json)
    return EXIT_USAGE if report.any_error else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 after a usage error, 0 after --help or --version
        if exc.code == 0:
            raise
        return EXIT_USAGE
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        if args.command == "check":
            return _run_check(args)
        return _run_hirzebruch(args)
    except Exception as exc:  # noqa: BLE001 - report as internal failure
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
