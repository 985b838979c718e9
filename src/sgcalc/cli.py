"""Command line interface.

Subcommands:

  run <file.sgc>   execute a construction script and emit its report
  verify-paper     run the built-in end-to-end verification of the exotic
                   CP^2 # 3 CP^2bar construction
  simplify <file>  simplify a presentation document and emit the result

Exit codes: 0 PASS, 1 FAIL, 2 INCONCLUSIVE, 64 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import construction
from .coset_enum import MAX_COSETS
from .tietze import TIETZE_BUDGET, tietze_simplify

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser, max_cosets: bool, tietze_budget: bool) -> None:
    if max_cosets:
        p.add_argument("--max-cosets", type=_positive_int, default=MAX_COSETS, metavar="N",
                       help=f"coset budget for enumerations (default {MAX_COSETS})")
    if tietze_budget:
        p.add_argument("--tietze-budget", type=_positive_int, default=TIETZE_BUDGET, metavar="N",
                       help=f"step budget for presentation simplification (default {TIETZE_BUDGET})")
    p.add_argument("--emit", choices=("json", "text"), default="json",
                   help="report format (default json)")
    p.add_argument("--trace", action="store_true",
                   help="include derivation traces in text output")
    p.add_argument("--out", metavar="PATH", help="write the report to a file")


def _emit(payload: str, out: str | None) -> None:
    """Write ``payload``, ending in a newline, to standard output or to ``out``."""
    if not payload.endswith("\n"):
        payload += "\n"
    if out is None:
        sys.stdout.write(payload)
    else:
        _write(out, payload, "w")


def _write(path: str, payload: str, mode: str) -> None:
    try:
        with open(path, mode, encoding="utf-8") as handle:
            handle.write(payload)
    except OSError as err:
        print(f"sgcalc: cannot write {path}: {err}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _emit_report(report: construction.Report, args: argparse.Namespace) -> int:
    _emit(report.to_json() if args.emit == "json" else report.to_text(trace=args.trace), args.out)
    return report.exit_code


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        print(f"sgcalc: cannot read {path}: {err}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _cmd_run(args: argparse.Namespace) -> int:
    from . import script as sgc
    text = _read(args.file)
    try:
        report = sgc.execute(sgc.parse(text), sgc.Budgets(args.max_cosets))
    except sgc.ParseError as err:  # a syntax error, or a word over the length bound
        print(f"sgcalc: parse error in {args.file}: {err}", file=sys.stderr)
        return USAGE_EXIT
    return _emit_report(report, args)


def _cmd_verify(args: argparse.Namespace) -> int:
    return _emit_report(construction.verify_main_theorem(args.max_cosets, args.tietze_budget), args)


def _cmd_simplify(args: argparse.Namespace) -> int:
    from . import script as sgc
    text = _read(args.file)
    try:
        p = sgc.parse_presentation_document(text)
    except sgc.ParseError as err:
        print(f"sgcalc: parse error in {args.file}: {err}", file=sys.stderr)
        return USAGE_EXIT
    final, trace = tietze_simplify(p, args.tietze_budget)
    if args.emit == "json":
        payload = json.dumps(
            {
                "initial": construction.presentation_dict(p),
                "final": construction.presentation_dict(final),
                "steps": len(trace.steps),
                "eliminated": trace.eliminated_generators(),
                "complete": trace.complete,
            },
            indent=2,
        )
        _emit(payload, args.out)
    else:
        lines = [
            sgc.format_presentation_document(final).rstrip("\n"),
            f"steps: {len(trace.steps)}",
            f"eliminated: {', '.join(trace.eliminated_generators()) or '(none)'}",
            f"complete: {trace.complete}",
        ]
        if args.trace:
            lines += [f"  {step!r}" for step in trace.steps]
        _emit("\n".join(lines) + "\n", args.out)
    return construction.VERDICT_EXIT["PASS" if trace.complete else "INCONCLUSIVE"]


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="sgcalc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a .sgc construction script")
    p_run.add_argument("file")
    _add_common(p_run, max_cosets=True, tietze_budget=False)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser(
        "verify-paper",
        help="verify the built-in exotic CP^2 # 3 CP^2bar construction end to end",
    )
    _add_common(p_verify, max_cosets=True, tietze_budget=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_simp = sub.add_parser("simplify", help="simplify a presentation document")
    p_simp.add_argument("file")
    _add_common(p_simp, max_cosets=False, tietze_budget=True)
    p_simp.set_defaults(func=_cmd_simplify)

    args = parser.parse_args(argv)
    if args.out is not None:  # fail on an unwritable path before any work; "a" keeps what is there
        _write(args.out, "", "a")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
