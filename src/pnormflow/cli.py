"""Command-line interface.

Subcommands: pnorm / maxflow / effres run a solver over an update stream
and print one metrics record per event; verify re-runs a stream with the
reference oracles and fails on any disagreement; gen writes seeded
instances.

Every run checks the solver's runtime invariants. Exit codes: 0 success,
1 usage or parse error, 2 invariant, solver or verification failure. Metrics
records are deterministic for a fixed stream and seed except for the
wall-time field.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .drivers import DRIVER_STEP_BUDGET, Below, event_calls
from .errors import InvariantViolation, OracleError, StreamError
from .graph import net_demand
from .refine import Flow
from .streams import (GENERATOR_MODES, generate_stream, parse_stream,
                      print_stream)
from .verify import effective_resistance, static_pnorm_opt

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2

VERIFY_RTOL = 1e-7
VERIFY_MAX_VERTICES = 32
# scipy's maximum_flow works in int32, and at scipy 1.17.1 it returns 0 for
# larger int64 capacities too, so verify refuses what int32 cannot hold.
VERIFY_MAX_TOTAL_CAPACITY = 2 ** 31 - 1


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
        text = sys.stdin.read()
    else:
        with open(args.stream, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_stream(text)


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(record: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(record, default=float))
    else:
        print(" ".join(f"{k}={_format_value(v)}" for k, v in record.items()))


def _metrics(event: int, verdict: str, objective: float, queries: int,
             iterations: int, wall_ms: float) -> dict:
    return {
        "event": event,
        "verdict": verdict,
        "objective": float(objective),
        "queries": queries,
        "iterations": iterations,
        "wall_ms": round(wall_ms, 3),
    }


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
        # The effres driver keeps its counters on its solver.
        counters = getattr(runner, "solver", runner)
        for index, call in enumerate(calls):
            begin = time.perf_counter()
            verdict = call()
            wall = (time.perf_counter() - begin) * 1e3
            name, objective = _verdict_record(verdict)
            _emit(_metrics(index, name, objective, counters.queries,
                           counters.iterations, wall), args.as_json)
    return EXIT_OK


def _pnorm_check(stream, solver, seed):
    instance = solver.instance
    F, eps = instance.threshold, instance.eps

    def check(index: int, verdict) -> dict:
        if isinstance(verdict, Flow):
            imbalance = net_demand(instance.graph, verdict.flow) - instance.d
            feasible = float(np.max(np.abs(imbalance))) <= VERIFY_RTOL * (
                1.0 + float(np.max(np.abs(instance.d))))
            energy = instance.energy(verdict.flow)
            ok = feasible and energy <= F + eps + VERIFY_RTOL * (abs(F) + eps)
            return {"verdict": "Flow", "oracle": float(energy), "ok": ok}
        if instance.routable():
            opt = static_pnorm_opt(instance, seed=seed).value
        else:
            opt = math.inf
        ok = opt > F - VERIFY_RTOL * (1.0 + abs(F))
        return {"verdict": "CertifiedAbove", "oracle": float(opt), "ok": ok}

    return check


def _scipy_maxflow(n: int, tails: np.ndarray, heads: np.ndarray,
                   caps: np.ndarray, s: int, t: int) -> float:
    """Undirected s-t maxflow value by scipy, independent of the solver."""
    caps = caps.astype(np.int32)
    graph = sp.csr_matrix(
        (np.concatenate([caps, caps]),
         (np.concatenate([tails, heads]), np.concatenate([heads, tails]))),
        shape=(n, n), dtype=np.int32)
    graph.sum_duplicates()
    return float(csgraph.maximum_flow(graph, s, t).flow_value)


def _maxflow_check(stream, driver, seed):
    specs = stream.initial_edges + stream.events
    total = sum(spec.capacity() for spec in specs)
    if total > VERIFY_MAX_TOTAL_CAPACITY:
        raise StreamError(f"verify checks maxflow with scipy and is capped at "
                          f"a total capacity <= {VERIFY_MAX_TOTAL_CAPACITY}, "
                          f"got {total}")
    tails = np.asarray([spec.u for spec in specs], dtype=np.int64)
    heads = np.asarray([spec.v for spec in specs], dtype=np.int64)
    all_caps = np.asarray([spec.capacity() for spec in specs], dtype=np.int64)

    def check(index: int, published) -> dict:
        value, flow = published
        m = len(stream.initial_edges) + index
        caps = all_caps[:m]
        exact = _scipy_maxflow(stream.n, tails[:m], heads[:m], caps,
                               stream.s, stream.t)
        net = np.zeros(stream.n)
        np.add.at(net, heads[:m], flow)
        np.subtract.at(net, tails[:m], flow)
        net[stream.s] += value
        net[stream.t] -= value
        routes = np.max(np.abs(net), initial=0.0) <= VERIFY_RTOL * (1 + value)
        feasible = not np.any(np.abs(flow) > caps * (1 + 1e-9))
        ok = (feasible and routes
              and (1.0 - stream.eps) * exact - 1e-9 <= value <= exact + 1e-9
              and driver.phase_count <= driver.phase_bound())
        return {"verdict": "Published", "value": value, "oracle": exact,
                "ok": ok}

    return check


def _effres_check(stream, driver, seed):
    theta, eps_rel = stream.threshold, stream.eps
    resistances = np.asarray([s.resistance() for s in
                              stream.initial_edges + stream.events])
    below_seen = False

    def check(index: int, verdict) -> dict:
        nonlocal below_seen
        graph = driver.instance.graph
        if graph.connected(stream.s, stream.t):
            true_res = effective_resistance(
                graph, resistances[:graph.m], stream.s, stream.t)
        else:
            true_res = math.inf
        if isinstance(verdict, Below):
            below_seen = True
            name = "Below"
            ok = (true_res <= verdict.r_est * (1 + VERIFY_RTOL)
                  and verdict.r_est <= theta * (1 + eps_rel) * (1 + VERIFY_RTOL))
        else:
            name = "AboveThreshold"
            ok = (not below_seen
                  and true_res > theta / (1 + eps_rel) * (1 - VERIFY_RTOL))
        return {"verdict": name, "oracle": float(true_res), "ok": ok}

    return check


# Per stream kind: (stream, runner, seed) -> a check that turns one event's
# answer into its verify record.
_CHECKS = {"pnorm": _pnorm_check, "maxflow": _maxflow_check,
           "effres": _effres_check}


def cmd_verify(args) -> int:
    """Re-answer every event with reference oracles; one record per event."""
    stream = _read_stream(args)
    if stream.n > VERIFY_MAX_VERTICES:
        raise StreamError(f"verify is oracle-backed and capped at "
                          f"n <= {VERIFY_MAX_VERTICES}, got n={stream.n}")
    failures = 0
    with _trace_sink(args.trace) as trace:
        runner, calls = event_calls(stream, trace=trace,
                                    **_solver_kwargs(args))
        check = _CHECKS[stream.kind](stream, runner, args.seed)
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
        sys.stdout.write(text)
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
        return args.func(args)
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
