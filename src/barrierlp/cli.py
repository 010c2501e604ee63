"""Command-line front end.

Subcommands: ``verify`` a problem file, ``empty-check`` its candidates'
joint safe set, ``export-lp`` the first program of either schedule, in
CPLEX LP text form, and ``bench-satellite`` for the scaling study. Exit
codes form a stable contract: 0 Verified/MultiVerified,
1 Inconclusive/MultiInconclusive (a candidate refuted by a checked
counterexample included), 2 EmptinessCertified, 3 usage or parse error,
4 internal or capacity error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import fields, replace
from typing import List, Optional, Sequence

from .lpsolve import LpCapacityError, export_lp_text
from .satbench import CwParams, run_benchmark
from .specio import (
    PolyParseError,
    ProblemFormatError,
    load_problem_file,
    write_report,
)
from .verifier import (
    LP_TIMINGS,
    Verdict,
    VerifierOptions,
    _emptiness_rungs,
    _single_rungs,
    check_emptiness,
    verify_multi,
    verify_single,
)

EXIT_VERIFIED = 0
EXIT_INCONCLUSIVE = 1
EXIT_EMPTY = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

_VERDICT_EXIT = {
    Verdict.VERIFIED: EXIT_VERIFIED,
    Verdict.MULTI_VERIFIED: EXIT_VERIFIED,
    Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    Verdict.MULTI_INCONCLUSIVE: EXIT_INCONCLUSIVE,
    Verdict.EMPTINESS_CERTIFIED: EXIT_EMPTY,
}

REPORT_DIR_ENV = "BARRIERLP_REPORT_DIR"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the usage code instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _int(text: str) -> int:
    """An integer flag value: ASCII digits with an optional minus sign, nothing else."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
    return int(text)


def _int_list(text: str) -> List[int]:
    return [_int(part) for part in text.split(",") if part != ""]


def _add_option_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--a-values", type=_int_list, metavar="A0,A1,...",
                     help="exponents a to try (default 0,1)")
    sub.add_argument("--deg-s", type=_int_list, metavar="D0,D1,...",
                     help="DSOS half-degree schedule")
    sub.add_argument("--deg-p", type=_int_list, metavar="D0,D1,...",
                     help="free-multiplier degrees, one per --deg-s entry")
    sub.add_argument("--emptiness-deg-s", type=_int_list, metavar="D0,D1,...",
                     help="half-degrees for the emptiness sweep")
    sub.add_argument("--archimedean-C", type=_int, default=None, metavar="C",
                     help="add the generator C - sum x_i^2 to the emptiness program")
    sub.add_argument("--max-iters", type=_int, default=None, metavar="N",
                     help="simplex pivot budget per program")


def _add_report_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--report", metavar="PATH", default=None,
                     help="write the report here (joined with $%s when relative)"
                     % REPORT_DIR_ENV)
    sub.add_argument("--format", choices=("json", "text"), default="json",
                     help="report format (default json)")
    sub.add_argument("--deterministic", action="store_true",
                     help="zero timing fields so reports compare byte-for-byte")


def _options_from_args(args, problem_options: Optional[VerifierOptions]) -> VerifierOptions:
    """Overlay the CLI flags given (an empty list is not given) on the problem file's options."""
    base = problem_options if problem_options is not None else VerifierOptions()
    given = {f.name: getattr(args, f.name) for f in fields(VerifierOptions)
             if getattr(args, f.name, None) not in (None, [])}
    try:
        return replace(base, **given)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _report_path(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    base = os.environ.get(REPORT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _check_report_destination(path: Optional[str]) -> None:
    """Raise OSError now, before anything is solved, if the report cannot be written.

    The probe opens for append, so an existing report is not truncated, and
    a file it had to create is removed again.
    """
    dest = _report_path(path)
    if dest is None:
        return
    existed = os.path.lexists(dest)
    with open(dest, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(dest)


def _emit_report(outcome, args) -> None:
    dest = _report_path(args.report)
    text = write_report(outcome, fmt=args.format,
                        deterministic=args.deterministic, destination=dest)
    if dest is None:
        sys.stdout.write(text)
    else:
        sys.stderr.write("report written to %s\n" % dest)


def cmd_verify(args) -> int:
    spec = load_problem_file(args.problem)
    opts = _options_from_args(args, spec.options)
    _check_report_destination(args.report)
    if len(spec.candidates) == 1:
        outcome = verify_single(spec.system, spec.candidates[0], opts)
    else:
        outcome = verify_multi(spec.system, spec.candidates, opts)
    _emit_report(outcome, args)
    return _VERDICT_EXIT[outcome.verdict]


def cmd_empty_check(args) -> int:
    spec = load_problem_file(args.problem)
    opts = _options_from_args(args, spec.options)
    _check_report_destination(args.report)
    outcome = check_emptiness(spec.candidates, opts)
    _emit_report(outcome, args)
    return _VERDICT_EXIT[outcome.verdict]


def cmd_export_lp(args) -> int:
    spec = load_problem_file(args.problem)
    if args.a is not None:  # --a narrows the a schedule to one exponent
        args.a_values = [args.a]
    opts = _options_from_args(args, spec.options)
    if args.emptiness:
        rungs = _emptiness_rungs(spec.candidates, opts)
    elif 0 <= args.candidate < len(spec.candidates):
        rungs = _single_rungs(spec.candidates[args.candidate], opts)
    else:
        raise _UsageError("candidate index %d out of range (problem has %d)"
                          % (args.candidate, len(spec.candidates)))
    lp, _ = rungs[0].assemble()  # the first program of the schedule
    text = export_lp_text(lp, destination=args.out)
    if args.out is None:
        sys.stdout.write(text)
    else:
        sys.stderr.write("%d rows, %d columns written to %s\n"
                         % (lp.nrows, lp.nvars, args.out))
    return EXIT_VERIFIED


def cmd_bench_satellite(args) -> int:
    if args.L < 1:
        raise _UsageError("--L must be >= 1, got %d" % args.L)
    try:
        params = CwParams(
            L=1,
            n_mean_motion=args.n_mean_motion,
            masses=(args.mass,),
            thrusts=(args.thrust,),
            R_t=args.R_t,
        )
    except ValueError as exc:
        raise _UsageError(str(exc))
    opts = _options_from_args(args, None)
    _check_report_destination(args.report)
    report = run_benchmark(params, args.L, opts)
    if args.deterministic:
        for row in report["rows"]:
            row["seconds"] = 0.0
            for lp in row.get("lps", ()):
                lp.update((t, 0.0) for t in LP_TIMINGS)
    header = "%4s  %-20s  %10s" % ("L", "verdict", "seconds")
    print(header)
    print("-" * len(header))
    for row in report["rows"]:
        print("%4d  %-20s  %10.3f" % (row["L"], row["verdict"], row["seconds"]))
    dest = _report_path(args.report)
    if dest is not None:
        with open(dest, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        sys.stderr.write("report written to %s\n" % dest)
    verdicts = [row["verdict"] for row in report["rows"]]
    if any(v == "Error" for v in verdicts):
        return EXIT_INTERNAL
    if all(v in ("Verified", "MultiVerified") for v in verdicts):
        return EXIT_VERIFIED
    if any(v == "EmptinessCertified" for v in verdicts):
        return EXIT_EMPTY
    return EXIT_INCONCLUSIVE


def make_parser() -> _Parser:
    parser = _Parser(prog="barrierlp",
                     description="Certify control barrier functions by linear programming.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser("verify", help="verify a problem file's candidates")
    p_verify.add_argument("problem", help="problem JSON path")
    _add_option_flags(p_verify)
    _add_report_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_empty = subs.add_parser("empty-check",
                              help="only look for a joint-safe-set emptiness certificate")
    p_empty.add_argument("problem", help="problem JSON path")
    _add_option_flags(p_empty)
    _add_report_flags(p_empty)
    p_empty.set_defaults(func=cmd_empty_check)

    p_export = subs.add_parser("export-lp", help="write one assembled LP in CPLEX text form")
    p_export.add_argument("problem", help="problem JSON path")
    p_export.add_argument("--out", metavar="PATH", default=None,
                          help="output path (default: standard output)")
    p_export.add_argument("--candidate", type=_int, default=0, metavar="I",
                          help="candidate index for the single program (default 0)")
    p_export.add_argument("--a", type=_int, default=None,
                          help="exponent a (default: first scheduled value)")
    p_export.add_argument("--emptiness", action="store_true",
                          help="export the emptiness program instead")
    _add_option_flags(p_export)
    p_export.set_defaults(func=cmd_export_lp)

    p_bench = subs.add_parser("bench-satellite", help="run the inspection scaling study")
    p_bench.add_argument("--L", type=_int, default=3, metavar="N",
                         help="largest chaser count (default 3)")
    p_bench.add_argument("--n-mean-motion", type=float, default=0.0010,
                         metavar="RAD_S", help="orbital mean motion (default 0.0010)")
    p_bench.add_argument("--mass", type=float, default=2.0, metavar="KG",
                         help="chaser mass (default 2.0)")
    p_bench.add_argument("--thrust", type=float, default=0.5, metavar="N",
                         help="nominal thrust (default 0.5)")
    p_bench.add_argument("--R-t", type=float, default=0.5, metavar="KM",
                         help="keep-out radius (default 0.5)")
    p_bench.add_argument("--report", metavar="PATH", default=None,
                         help="also write the JSON report here")
    p_bench.add_argument("--deterministic", action="store_true",
                         help="zero timing fields in the report and table")
    _add_option_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench_satellite)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except (ProblemFormatError, PolyParseError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except OSError as exc:  # a missing, unreadable or unwritable path
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except LpCapacityError as exc:
        sys.stderr.write("capacity error: %s\n" % exc)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write("internal error: %s\n" % exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
