"""Command-line interface.

Subcommands: pnorm / maxflow / effres run a solver over an update stream
and print one metrics record per event; verify re-runs a stream with the
reference oracles and fails on any disagreement; gen writes seeded
instances.

Exit codes: 0 success, 1 usage or parse error, 2 invariant or verification
failure. Metrics records are deterministic for a fixed stream, seed and
backend except for the wall-time field.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .drivers import (
    Below,
    DRIVER_STEP_BUDGET,
    EffResDriver,
    MaxflowDriver,
)
from .errors import InvariantViolation, OracleError, StreamError
from .graph import net_demand
from .refine import Flow, IncrementalPNormSolver
from .streams import (
    GENERATOR_MODES,
    EdgeSpec,
    build_pnorm_instance,
    generate_stream,
    parse_stream,
    print_stream,
)
from .verify import effective_resistance, exact_maxflow, static_pnorm_opt

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2

VERIFY_RTOL = 1e-7
VERIFY_MAX_VERTICES = 32


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _TraceWriter:
    """JSON-lines sink for per-iteration internals (not adversary-visible
    output; potentials, ratios and verdict bookkeeping only)."""

    def __init__(self, path: str):
        self._fh = open(path, "w", encoding="utf-8")

    def __call__(self, record: dict) -> None:
        self._fh.write(json.dumps(record, default=float) + "\n")

    def close(self) -> None:
        self._fh.close()


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
    kwargs = {
        "kappa": args.kappa,
        "backend": args.backend,
        "seed": args.seed,
        "assert_invariants": args.assert_invariants,
    }
    if args.event_budget is not None:
        kwargs["step_budget_per_event"] = args.event_budget
    return kwargs


def _run_with_trace(args, body) -> int:
    trace = _TraceWriter(args.trace) if args.trace else None
    try:
        return body(trace)
    finally:
        if trace is not None:
            trace.close()


def _event_calls(stream, args, trace=None):
    """The stream's solver or driver, and one call per event (start first)."""
    kwargs = _solver_kwargs(args)
    if stream.kind == "pnorm":
        instance, events = build_pnorm_instance(stream)
        solver = IncrementalPNormSolver(instance, m_max=stream.m_max,
                                        trace=trace, **kwargs)
        return solver, [solver.start] + [
            (lambda ev=ev: solver.insert_edge(*ev)) for ev in events]
    kwargs.setdefault("step_budget_per_event", DRIVER_STEP_BUDGET)
    if stream.kind == "maxflow":
        driver = MaxflowDriver(stream.n, stream.m_max, stream.s, stream.t,
                               stream.eps, trace=trace, **kwargs)
        attr = EdgeSpec.capacity
    else:
        driver = EffResDriver(stream.n, stream.m_max, stream.s, stream.t,
                              stream.threshold, stream.eps, trace=trace,
                              **kwargs)
        attr = EdgeSpec.resistance
    for spec in stream.initial_edges:
        driver.add_initial_edge(spec.u, spec.v, attr(spec))
    return driver, [driver.start] + [
        (lambda s=s: driver.insert(s.u, s.v, attr(s))) for s in stream.events]


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

    def body(trace) -> int:
        runner, calls = _event_calls(stream, args, trace)
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

    return _run_with_trace(args, body)


def _verify_pnorm(stream, args) -> int:
    solver, calls = _event_calls(stream, args)
    instance = solver.instance
    failures = 0
    for index, call in enumerate(calls):
        verdict = call()
        F, eps = instance.threshold, instance.eps
        if isinstance(verdict, Flow):
            name = "Flow"
            imbalance = net_demand(instance.graph, verdict.flow) - instance.d
            feasible = float(np.max(np.abs(imbalance))) <= VERIFY_RTOL * (
                1.0 + float(np.max(np.abs(instance.d))))
            energy = instance.energy(verdict.flow)
            ok = feasible and energy <= F + eps + VERIFY_RTOL * (abs(F) + eps)
            detail = energy
        else:
            name = "CertifiedAbove"
            if instance.routable():
                opt = static_pnorm_opt(instance, seed=args.seed).value
            else:
                opt = math.inf
            ok = opt > F - VERIFY_RTOL * (1.0 + abs(F))
            detail = opt
        failures += 0 if ok else 1
        _emit({"event": index, "verdict": name, "oracle": float(detail),
               "ok": ok}, args.as_json)
    return EXIT_OK if failures == 0 else EXIT_FAILURE


def _verify_maxflow(stream, args) -> int:
    driver, calls = _event_calls(stream, args)
    failures = 0
    for index, call in enumerate(calls):
        value, flow = call()
        caps = np.asarray(driver.caps, dtype=float)
        exact, _ = exact_maxflow(driver.graph, caps, stream.s, stream.t)
        feasible = not np.any(np.abs(flow) > caps * (1 + 1e-9))
        ok = feasible and value >= (1.0 - stream.eps) * exact - 1e-9
        ok = ok and driver.phase_count <= driver.phase_bound()
        failures += 0 if ok else 1
        _emit({"event": index, "verdict": "Published", "value": value,
               "oracle": float(exact), "ok": ok}, args.as_json)
    return EXIT_OK if failures == 0 else EXIT_FAILURE


def _verify_effres(stream, args) -> int:
    driver, calls = _event_calls(stream, args)
    failures = 0
    below_seen = False
    theta, eps_rel = stream.threshold, stream.eps
    resistances = np.asarray([s.resistance() for s in
                              stream.initial_edges + stream.events])
    for index, call in enumerate(calls):
        verdict = call()
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
        failures += 0 if ok else 1
        _emit({"event": index, "verdict": name, "oracle": float(true_res),
               "ok": ok}, args.as_json)
    return EXIT_OK if failures == 0 else EXIT_FAILURE


def cmd_verify(args) -> int:
    stream = _read_stream(args)
    if stream.n > VERIFY_MAX_VERTICES:
        raise StreamError(f"verify is oracle-backed and capped at "
                          f"n <= {VERIFY_MAX_VERTICES}, got n={stream.n}")
    if stream.kind == "pnorm":
        return _verify_pnorm(stream, args)
    if stream.kind == "maxflow":
        return _verify_maxflow(stream, args)
    return _verify_effres(stream, args)


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
        sub.add_argument("--backend", choices=("exact", "trees"),
                         default="exact")
        sub.add_argument("--kappa", type=float, default=1.0,
                         help="oracle approximation quality (trees backend)")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--assert-invariants", action="store_true",
                         dest="assert_invariants",
                         help="enable runtime invariant assertions")
        sub.add_argument("--trace", metavar="PATH",
                         help="write per-iteration internals as JSON lines")
        sub.add_argument("--json", action="store_true", dest="as_json",
                         help="metrics records as JSON objects")
        sub.add_argument("--event-budget", type=int, default=None,
                         dest="event_budget",
                         help="inner steps per event before materializing "
                              "(<= 0 means unbounded)")

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
    except FileNotFoundError as exc:
        print(f"pnormflow: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvariantViolation, OracleError) as exc:
        print(f"pnormflow: invariant failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ValueError as exc:
        print(f"pnormflow: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
