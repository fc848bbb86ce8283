"""Command-line front end: enumerate MUSes of DIMACS instances, emit metrics CSV.

Exit codes: 0 clean finish or budget stop, 1 output that cannot be written
(the `solve --stats` CSV, opened before the run, or the `gen -o` file, or
stdout once its reader has gone: a `solve` run stops there, quietly), 2
unreadable/ill-formed input or bad flags, 3 satisfiable instance.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys

from .core import DimacsParseError, InstanceSatisfiableError, PreconditionError
from .oracles import parse_dimacs
from .reference import random_cnf, to_dimacs
from .session import EnumerationResult, RemusConfig, enumerate_marco, enumerate_remus


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("value must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="musenum",
        description="Online enumeration of minimal unsatisfiable subsets of CNF formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="enumerate the MUSes of a DIMACS CNF file")
    solve.add_argument("input", help="path to a DIMACS CNF file")
    solve.add_argument(
        "--algorithm", choices=("remus", "marco"), default="remus",
        help="enumeration algorithm (default: remus)",
    )
    solve.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="stop cleanly after this wall-clock budget",
    )
    solve.add_argument(
        "--mus-limit", type=int, default=None, metavar="N",
        help="stop cleanly after emitting N MUSes",
    )
    solve.add_argument(
        "--reduction-factor", type=float, default=0.9, metavar="F",
        help="search-space reduction factor for remus (default: 0.9)",
    )
    solve.add_argument(
        "--stats", metavar="PATH", default=None,
        help="write per-MUS cumulative statistics as CSV",
    )
    solve.add_argument(
        "--quiet", action="store_true", help="suppress per-MUS output lines"
    )

    gen = sub.add_parser("gen", help="write a seeded random CNF instance")
    gen.add_argument("--vars", type=_positive_int, required=True, help="variable count")
    gen.add_argument("--clauses", type=_positive_int, required=True, help="clause count")
    gen.add_argument("--width", type=_positive_int, default=3, help="literals per clause (default: 3)")
    gen.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    gen.add_argument("-o", "--output", default=None, help="output path (default: stdout)")
    return parser


def write_stats_csv(result: EnumerationResult, handle) -> None:
    """One CSV row per emitted MUS, cumulative counters at emission time."""
    writer = csv.writer(handle)
    writer.writerow(["mus_index", "elapsed_s", "oracle_checks", "map_solver_calls", "depth"])
    for record in result.records:
        writer.writerow(
            [record.ordinal, f"{record.elapsed_s:.6f}", record.oracle_checks,
             record.map_solver_calls, record.depth]
        )


def _cmd_solve(args) -> int:
    try:
        config = RemusConfig(
            reduction_factor=args.reduction_factor,
            mus_limit=args.mus_limit,
            time_limit=args.time_limit,
        )
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.input, "rb") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    try:
        oracle = parse_dimacs(text)
    except DimacsParseError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 2
    if oracle.n == 0:  # the run would reject it, but only after the CSV is opened
        print(f"error: {args.input}: the instance must contain at least one constraint", file=sys.stderr)
        return 2
    # opened before the run, so that an unwritable path does not cost the run
    try:
        stats = open(args.stats, "w", newline="") if args.stats else None
    except OSError as exc:
        print(f"error: cannot write {args.stats}: {exc}", file=sys.stderr)
        return 1
    with stats or contextlib.nullcontext():
        return _solve(args, config, oracle, stats)


def _solve(args, config: RemusConfig, oracle, stats) -> int:
    out = sys.stdout

    def sink(record):
        if args.quiet:
            return
        indices = " ".join(str(i) for i in record.mus.indices_1based())
        out.write(f"MUS {record.ordinal}: {indices}\n")
        out.flush()  # the line must be out before the next oracle check starts

    runner = enumerate_remus if args.algorithm == "remus" else enumerate_marco
    try:
        result = runner(oracle, config, sink)
        out.write(
            f"found={len(result.records)} oracle_checks={result.oracle_checks} "
            f"map_calls={result.map_solver_calls} elapsed={result.elapsed_s:.3f}s "
            f"complete={'yes' if result.complete else 'no'}\n"
        )
        out.flush()
    except InstanceSatisfiableError:
        print("instance is satisfiable", file=sys.stderr)
        return 3
    except BrokenPipeError:  # the reader of stdout went away
        return 1
    if stats is not None:
        try:
            write_stats_csv(result, stats)
            stats.close()  # a write the buffer held fails here, not in the caller's close
        except OSError as exc:
            print(f"error: cannot write {args.stats}: {exc}", file=sys.stderr)
            return 1
    return 0


def _cmd_gen(args) -> int:
    clauses = random_cnf(args.vars, args.clauses, args.width, args.seed)
    text = to_dimacs(args.vars, clauses)
    if args.output is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.output, "w") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return 1
    return 0


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "solve":
        return _cmd_solve(args)
    return _cmd_gen(args)


def main(argv=None) -> None:
    code = run(argv)
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: discard what is still buffered rather than fail again at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
