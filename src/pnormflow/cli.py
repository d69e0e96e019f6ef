"""Command-line interface.

Subcommands: pnorm / maxflow / effres run a solver over an update stream
and print one metrics record per event; verify runs a stream, checks
every answer with pnormflow.check, which compares it with oracles built
from the stream alone, and fails on any disagreement; gen writes seeded
instances.

Every run checks the solver's runtime invariants. Exit codes: 0 success,
1 usage or parse error, 2 invariant, solver or verification failure, 141
(128 + SIGPIPE) when the reader closes standard output early. Metrics
records are deterministic for a fixed stream and seed except for the
wall-time field.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time

from .check import stream_checker
from .drivers import DRIVER_STEP_BUDGET, Below, event_calls
from .errors import InvariantViolation, OracleError, StreamError
from .refine import Flow
from .streams import (GENERATOR_MODES, generate_stream, parse_stream,
                      print_stream)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2
# 128 + SIGPIPE: the status a shell shows for a writer killed by a closed
# pipe.
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@contextlib.contextmanager
def _trace_sink(path: str | None):
    """JSON-lines writer for --trace PATH (per-iteration internals, not
    metrics), or None without a path."""
    if not path:
        yield None
        return
    with open(path, "w", encoding="utf-8") as fh:
        yield lambda record: fh.write(json.dumps(record, default=float) + "\n")


def _read_stream(args):
    if args.stream == "-":
        return parse_stream(sys.stdin.read())
    with open(args.stream, "r", encoding="utf-8") as fh:
        return parse_stream(fh.read())


class _StdoutClosed(Exception):
    """The reader of standard output closed it (`| head`)."""


def _write(text: str, flush: bool = False) -> None:
    """Write text to standard output, then flush it if asked. A broken
    pipe there raises _StdoutClosed, so that main tells it from one on a
    --trace or --out path, which is an input error."""
    try:
        sys.stdout.write(text)
        if flush:
            sys.stdout.flush()
    except BrokenPipeError as exc:
        raise _StdoutClosed from exc


def _emit(record: dict, as_json: bool) -> None:
    """One record as JSON or as key=value pairs (a float as its repr)."""
    if as_json:
        _write(json.dumps(record, default=float) + "\n")
    else:
        _write(" ".join(f"{k}={v}" for k, v in record.items()) + "\n")


def _solver_kwargs(args) -> dict:
    kwargs = {"seed": args.seed}
    if args.event_budget is not None:
        kwargs["step_budget_per_event"] = args.event_budget
    return kwargs


def _verdict_record(verdict) -> tuple[str, float]:
    """Metrics name and objective of a solver or driver answer."""
    if isinstance(verdict, Flow):
        return "Flow", verdict.energy
    if isinstance(verdict, Below):
        return "Below", verdict.r_est
    if isinstance(verdict, tuple):
        return "Published", verdict[0]
    return type(verdict).__name__, math.inf


def cmd_run(args) -> int:
    """The pnorm, maxflow and effres commands: one metrics record per event."""
    stream = _read_stream(args)
    if stream.kind != args.command:
        raise StreamError(f"the {args.command} command needs a "
                          f"{args.command} stream, got {stream.kind}")
    with _trace_sink(args.trace) as trace:
        runner, calls = event_calls(stream, trace=trace,
                                    **_solver_kwargs(args))
        for index, call in enumerate(calls):
            begin = time.perf_counter()
            verdict = call()
            wall = (time.perf_counter() - begin) * 1e3
            name, objective = _verdict_record(verdict)
            # A driver keeps its counters on its solver, which the maxflow
            # driver builds at start.
            counters = getattr(runner, "solver", runner)
            _emit({"event": index, "verdict": name,
                   "objective": float(objective), "queries": counters.queries,
                   "iterations": counters.iterations,
                   "wall_ms": round(wall, 3)}, args.as_json)
    return EXIT_OK


def cmd_verify(args) -> int:
    """Check every event's answer with the stream's checker; one record
    per event."""
    stream = _read_stream(args)
    check = stream_checker(stream)
    failures = 0
    with _trace_sink(args.trace) as trace:
        _, calls = event_calls(stream, trace=trace, **_solver_kwargs(args))
        for index, call in enumerate(calls):
            record = check(index, call())
            failures += 0 if record["ok"] else 1
            _emit({"event": index, **record}, args.as_json)
    return EXIT_OK if failures == 0 else EXIT_FAILURE


def cmd_gen(args) -> int:
    stream = generate_stream(args.mode, args.kind, args.n, args.initial,
                             args.events, p=args.p, eps=args.eps,
                             seed=args.seed, cap_max=args.cap_max)
    text = print_stream(stream)
    if args.out == "-":
        _write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="pnormflow",
                     description="incremental thresholded smoothed p-norm "
                                 "flow solver and its maxflow and "
                                 "effective-resistance drivers")
    subs = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(sub):
        sub.add_argument("stream",
                         help="update stream file, or - for standard input")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--trace", metavar="PATH",
                         help="write per-iteration internals as JSON lines")
        sub.add_argument("--json", action="store_true", dest="as_json",
                         help="metrics records as JSON objects")
        sub.add_argument("--event-budget", type=int, default=None,
                         dest="event_budget",
                         help="inner rounds per event; an event that "
                              "exhausts them materializes (default: 2T "
                              "for pnorm, T being an inner run's round "
                              f"count; {DRIVER_STEP_BUDGET} for maxflow "
                              "and effres)")

    for name, func in (("pnorm", cmd_run), ("maxflow", cmd_run),
                       ("effres", cmd_run), ("verify", cmd_verify)):
        sub = subs.add_parser(name)
        add_run_flags(sub)
        sub.set_defaults(func=func)

    gen = subs.add_parser("gen", help="generate a seeded stream")
    gen.add_argument("--mode", choices=GENERATOR_MODES, default="random")
    gen.add_argument("--kind", choices=("pnorm", "maxflow", "effres"),
                     required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--initial", type=int, required=True)
    gen.add_argument("--events", type=int, required=True)
    gen.add_argument("--p", type=int, default=2)
    gen.add_argument("--eps", type=float, default=None)
    gen.add_argument("--cap-max", type=int, default=8, dest="cap_max")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="-")
    gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Flushed here, so that a closed pipe raises below, not at exit.
        _write("", flush=True)
        return code
    except _StdoutClosed:
        # No input error. Python flushes stdout again at exit, so point it
        # at devnull first.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except StreamError as exc:
        print(f"pnormflow: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"pnormflow: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(f"pnormflow: invariant failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OracleError as exc:
        print(f"pnormflow: solver failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ValueError as exc:
        print(f"pnormflow: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
