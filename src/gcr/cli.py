"""Command-line front end: one JSON job per invocation.

Reports go to stdout, diagnostics to stderr.  Exit codes: 0 success /
verdict reached, 1 invalid input (or failing self-test cases), 2 budget
exceeded, 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys

from .jobs import COMMANDS, RequestError, parse_request, report_to_json, run
from .linalg import BudgetExceeded


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcr",
        description="Exact complete-reducibility toolkit for GL_n")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", metavar="FILE",
                        help="JSON job document (default: stdin)")
    parser.add_argument("--budget", type=int, default=None,
                        help="override the enumeration budget")
    return parser


def main(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    # usage errors and --help go to this call's streams
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as e:
            return 0 if e.code == 0 else 1

    if args.command == "selftest":
        doc: object = {"command": "selftest"}
    else:
        try:
            if args.input is None:
                doc = stdin.read()
            else:
                with open(args.input, "r", encoding="utf-8") as fh:
                    doc = fh.read()
        except OSError as e:
            print(f"error: {e}", file=stderr)
            return 1
        except UnicodeDecodeError as e:
            name = "stdin" if args.input is None else args.input
            print(f"error: {name}: not UTF-8 ({e.reason} at position "
                  f"{e.start})", file=stderr)
            return 1

    try:
        req = parse_request(doc)
        if req.command != args.command:
            raise RequestError("$.command",
                               f"document command {req.command!r} does not "
                               f"match CLI command {args.command!r}")
        if args.budget is not None:
            if args.budget < 0:
                raise RequestError("$.budget", "budget must be non-negative")
            req = req._replace(budget=args.budget)
    except RequestError as e:
        print(f"error: {e}", file=stderr)
        return 1

    try:
        report = run(req)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=stderr)
        return 2
    except (RequestError, ValueError) as e:
        print(f"error: {e}", file=stderr)
        return 1
    except AssertionError as e:
        print(f"internal error: {e}", file=stderr)
        return 3

    print(report_to_json(report), file=stdout)
    if req.command == "selftest" and not report.get("ok", False):
        for case in report["cases"]:
            if not case["ok"]:
                print(f"selftest failure: {case['name']}: "
                      f"expected {case['expected']!r}, got {case['actual']!r}",
                      file=stderr)
        return 1
    return 0


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
