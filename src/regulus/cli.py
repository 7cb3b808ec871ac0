"""Command-line interface: solve one problem, run benchmark batches, and
compute performance profiles from recorded batches."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import List, Optional

from .core import SolverConfig, Status, config_entry, read_config_file, strict_json
from .harness import (
    DEFAULT_TAU_GRID,
    EmptyIntersectionError,
    check_batch,
    performance_profile,
    read_records,
    run_batch,
    write_profile,
    write_records,
)
from .problems import get_problem, registry
from .solvers import SOLVERS

USAGE_ERROR = 2
# A failed write of the output (EX_IOERR in sysexits.h).
IO_ERROR = 74
# What a shell reports for a process killed by SIGPIPE (128 + 13).
BROKEN_PIPE = 141


def _build_config(args) -> SolverConfig:
    """The config file's entries, overridden by each ``-p``, validated once
    as a whole."""
    data = read_config_file(args.config) if args.config is not None else {}
    data.update(config_entry(item, "-p") for item in args.param or [])
    return SolverConfig.from_mapping(data)


def _select_problems(selection: str):
    if selection == "all":
        return registry()
    return [get_problem(item) for item in selection.split(",") if item]


def _usage_error(args, exc) -> int:
    args.parser.print_usage(sys.stderr)
    # A KeyError's str is the repr of its message.
    message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def cmd_solve(args) -> int:
    try:
        config = _build_config(args)
        problem = get_problem(args.problem)
        # Opened before the solve so that a bad path fails fast.
        trace_file = open(args.trace, "w") if args.trace is not None else contextlib.nullcontext()
    except (KeyError, ValueError, OSError) as exc:
        return _usage_error(args, exc)
    trace = [] if args.trace is not None else None
    with trace_file:
        report = SOLVERS[args.solver](problem.objective, problem.x0, config, trace=trace)
        for record in trace or ():
            trace_file.write(record.to_json() + "\n")
    print(strict_json(report.to_dict(), indent=2))
    return 0 if report.status is Status.CONVERGED else 1


def cmd_bench(args) -> int:
    try:
        config = _build_config(args)
        problems = _select_problems(args.problems)
        solvers = [s for s in args.solvers.split(",") if s]
        check_batch(problems, solvers)
        # Opened before the batch so that a bad path fails fast.
        out = open(args.out, "w", newline="")
    except (KeyError, ValueError, OSError) as exc:
        return _usage_error(args, exc)
    with out:
        records = run_batch(problems, solvers, config)
        write_records(records, out)
    solved = sum(1 for r in records if r.status is Status.CONVERGED)
    print(f"wrote {len(records)} records to {args.out} ({solved} converged)")
    return 0


def cmd_profile(args) -> int:
    try:
        records = read_records(args.input)
        tau_grid = DEFAULT_TAU_GRID if args.tau is None else list(map(float, args.tau.split(",")))
        metric = {"nf": "n_f", "time": "wall_time"}[args.metric]
        curves = performance_profile(records, metric, tau_grid, union=args.union)
        out = open(args.out, "w", newline="")
    except EmptyIntersectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError, OSError) as exc:
        # A tau below 1 or not finite and a repeated (problem, solver) record
        # are ValueErrors of performance_profile.
        return _usage_error(args, exc)
    with out:
        write_profile(curves, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regulus",
        description="Limited-memory quasi-Newton solvers and a benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_options(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument(
            "-p", "--param", action="append", metavar="KEY=VALUE",
            help="override one solver parameter (repeatable)",
        )

    p_solve = sub.add_parser("solve", help="run one solver on one problem")
    p_solve.add_argument("problem", help="problem name or name:n")
    p_solve.add_argument("--solver", choices=sorted(SOLVERS), default="rlbfgs")
    p_solve.add_argument("--trace", help="write a JSON-lines iteration trace here")
    add_config_options(p_solve)
    p_solve.set_defaults(func=cmd_solve, parser=p_solve)

    p_bench = sub.add_parser("bench", help="run a problems-by-solvers batch")
    p_bench.add_argument("--problems", default="all", help="'all' or comma list of name[:n]")
    p_bench.add_argument("--solvers", default=",".join(sorted(SOLVERS)), help="comma list")
    p_bench.add_argument("--out", required=True, help="records CSV path")
    add_config_options(p_bench)
    p_bench.set_defaults(func=cmd_bench, parser=p_bench)

    p_profile = sub.add_parser("profile", help="distribution curves from records")
    p_profile.add_argument("--in", dest="input", required=True, help="records CSV path")
    p_profile.add_argument("--metric", choices=("nf", "time"), default="nf")
    p_profile.add_argument("--out", required=True, help="profile CSV path")
    p_profile.add_argument("--tau", help="comma list of finite tau grid values (>= 1)")
    p_profile.add_argument("--union", action="store_true",
                           help="rank over problems solved by at least one solver")
    p_profile.set_defaults(func=cmd_profile, parser=p_profile)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except MemoryError as exc:
        # A problem too large to build, or a solve that ran out of memory.
        return _usage_error(args, exc)
    except OSError as exc:
        # The reader closed the pipe early (`regulus solve ... | head -1`),
        # or a write failed (a full disk). Point stdout at devnull so that
        # the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return BROKEN_PIPE
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
