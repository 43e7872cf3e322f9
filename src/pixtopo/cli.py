"""Command-line front end.

Subcommands: ``analyze`` (invariant reports for image files), ``verify``
(the exhaustive and randomized consistency sweeps of ``pixtopo.verify``),
``classify`` (curve predicates for one file) and ``gen`` (seeded test
objects).  ``classify FILE --adjacency A`` prints the same document as
``analyze FILE --curve A`` and exits with the same code.  Exit codes: 0
success, 1 a counter inconsistency was detected (an implementation alarm,
never caused by input), 2 input/output error, which includes a parse error,
an object too large to rasterize and an unwritable ``gen -o`` path, 3 usage
error, which includes sizes, counts, densities and curve steps out of range,
141 (128 + SIGPIPE) the reader closed stdout early.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from typing import List, Optional

from . import verify
from .curves import curve_report
from .generate import GenerationError, check_random_args, generate_curve, generate_random
from .grid import Adjacency, DigitalObject
# bench/spans.py traces cli.classify_case, so the name stays imported here
from .incremental import CaseId, classify_case
from .invariants import analyze
from .io import ParseError, ReportDocument, emit_report, parse_ascii_grid, parse_pbm, to_ascii_grid

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_INPUT = 2
EXIT_USAGE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it

# verify --exhaustive checks 2**cells subsets; 20 cells take seconds on the batch engine
MAX_EXHAUSTIVE_CELLS = 20


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_object(path: str) -> DigitalObject:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] in (b"P1", b"P4"):
        return parse_pbm(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid text: {exc}") from None
    return parse_ascii_grid(text)


def _report_files(paths: List[str], alpha: Optional[Adjacency], as_json: bool) -> int:
    """Print one report per file, with its curve verdict when alpha is given."""
    status = EXIT_OK
    outputs = []
    for path in paths:
        # ParseError is a ValueError, and so is an object too large to rasterize
        try:
            obj = _read_object(path)
            if alpha is None:
                report, curves = analyze(obj), None
            else:
                verdict = curve_report(obj, alpha)
                report, curves = verdict.report, {alpha: verdict}
        except (OSError, ValueError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return EXIT_INPUT
        doc = ReportDocument(source=path, report=report, curves=curves)
        outputs.append(emit_report(doc, "json" if as_json else "text"))
        if not report.consistent:
            status = EXIT_INCONSISTENT
    print("\n".join(outputs))
    return status


def _cmd_analyze(args) -> int:
    alpha = None if args.curve is None else Adjacency(args.curve)
    return _report_files(args.files, alpha, args.json)


def _cmd_classify(args) -> int:
    return _report_files([args.file], Adjacency(args.adjacency), args.json)


def _parse_dims(value: str) -> tuple:
    try:
        w, h = value.lower().split("x")
        dims = int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WxH, got {value!r}")
    if min(dims) <= 0:
        raise argparse.ArgumentTypeError(f"sizes must be positive, got {value!r}")
    return dims


def _cmd_verify(args) -> int:
    width, height = args.grid
    if args.runs < 0:
        print(f"verify: --runs {args.runs} is negative", file=sys.stderr)
        return EXIT_USAGE
    try:  # before any sweep runs
        check_random_args(width, height, args.density)
    except ValueError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return EXIT_USAGE
    failures = 0
    if args.exhaustive:
        ew, eh = args.exhaustive
        if ew * eh > MAX_EXHAUSTIVE_CELLS:
            print(f"exhaustive grid larger than {MAX_EXHAUSTIVE_CELLS} cells is impractical",
                  file=sys.stderr)
            return EXIT_USAGE
        for mask, report in enumerate(verify.subset_reports(ew, eh)):
            if not report.consistent:
                failures += 1
                print(f"INCONSISTENT subset mask={mask:#x}: {report}", file=sys.stderr)
        print(f"exhaustive {ew}x{eh}: {1 << ew * eh} subsets checked, {failures} inconsistent")

    cases: Counter = Counter()
    sweep = verify.random_sweep(width, height, args.density, args.seed, args.runs, cases)
    for run, (report, snap) in enumerate(sweep):
        if not report.consistent:
            failures += 1
            print(f"INCONSISTENT random object (run {run}): {report}", file=sys.stderr)
        if not verify.agrees(snap, report):
            failures += 1
            print(f"TRACKER MISMATCH (run {run}): {snap} vs {report}", file=sys.stderr)

    print(f"random sweep: {args.runs} objects on {width}x{height} at density {args.density}")
    print(f"insertions classified: {sum(cases.values())}")
    print("case frequency:")
    for line in verify.case_table(cases):
        print(f"  {line}")
    failures += cases[CaseId.UNMATCHED]
    print(f"failures: {failures}")
    return EXIT_OK if failures == 0 else EXIT_INCONSISTENT


def _cmd_gen(args) -> int:
    if args.curve is not None:
        if args.width is not None or args.height is not None or args.density is not None:
            print("gen: --curve excludes --width/--height/--density", file=sys.stderr)
            return EXIT_USAGE
        try:
            obj = generate_curve(
                args.curve, Adjacency(args.adjacency), args.steps, args.seed
            )
        except GenerationError as exc:
            print(f"gen: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except ValueError as exc:  # steps out of range
            print(f"gen: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        width = args.width if args.width is not None else 16
        height = args.height if args.height is not None else 16
        density = args.density if args.density is not None else 0.5
        try:
            obj = generate_random(width, height, density, args.seed)
        except ValueError as exc:
            print(f"gen: {exc}", file=sys.stderr)
            return EXIT_USAGE
    grid = to_ascii_grid(obj)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(grid + "\n")
        except OSError as exc:
            print(f"gen: {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        print(grid)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pixtopo", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="invariant report for image files")
    p_analyze.add_argument("files", nargs="+")
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.add_argument("--curve", type=int, choices=(0, 1), default=None,
                           help="add curve classification under this adjacency")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_verify = sub.add_parser("verify", help="consistency sweeps over generated objects")
    p_verify.add_argument("--grid", type=_parse_dims, default=(20, 20), metavar="WxH")
    p_verify.add_argument("--density", type=float, default=0.5)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--runs", type=int, default=100)
    p_verify.add_argument("--exhaustive", type=_parse_dims, default=None, metavar="WxH",
                          help="also check every subset of a small WxH grid")
    p_verify.set_defaults(func=_cmd_verify)

    p_classify = sub.add_parser("classify", help="curve classification for one file")
    p_classify.add_argument("file")
    p_classify.add_argument("--adjacency", type=int, choices=(0, 1), required=True)
    p_classify.add_argument("--json", action="store_true")
    p_classify.set_defaults(func=_cmd_classify)

    p_gen = sub.add_parser("gen", help="emit a seeded test object as an ASCII grid")
    p_gen.add_argument("--width", type=int, default=None)
    p_gen.add_argument("--height", type=int, default=None)
    p_gen.add_argument("--density", type=float, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--curve", choices=("closed", "arc"), default=None)
    p_gen.add_argument("--adjacency", type=int, choices=(0, 1), default=0)
    p_gen.add_argument("--steps", type=int, default=12)
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the exit flush
        return status
    except BrokenPipeError:  # stdout on devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
