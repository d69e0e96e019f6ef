"""Seeded sweeps of extreme but valid streams, each stream named by its index.

Four sweeps, stream i drawn from its own numpy default_rng:

- extreme: default_rng(i), kind pnorm, effres or maxflow as i % 3 is 0, 1
  or 2, n in [3, 8), 1 to 2n - 1 initial edges and 1-7 insertions;
- wide: the same draws with n in [8, 41), n - 1 to 3n initial edges and
  1-10 insertions, so every Newton step is in the cycle space;
- vertex: the same draws with n in [40, 101), 3n to 6n initial edges and
  1-10 insertions, so most Newton steps are in the vertex space;
- dense-maxflow: default_rng(5000 + i), a phase-stress maxflow stream of
  generate_stream whose capacities are spread by up to 10^5.

The first three draw n, the initial edge count and the insertion count,
then the header, then per edge (initial edges first) its endpoints and its
attributes; 10 ** rng.uniform(a, b) spreads a value over orders of
magnitude. The committed streams under tests/streams/ carry the recipe
in their headers, and a tier-1 test checks that stream_text reproduces
them. The sweeps themselves are too slow for tier-1. Run a range with

    PYTHONPATH=src python tests/sweeps.py vertex 0 300

which puts each stream through event_calls (seed 1) and stream_checker
and prints, per kind, the streams answered in full and the first failure
of the others.
"""

from __future__ import annotations

import argparse
import collections
import time

import numpy as np

from pnormflow.check import stream_checker
from pnormflow.drivers import event_calls
from pnormflow.errors import OracleError, StreamError
from pnormflow.streams import (EdgeSpec, UpdateStream, generate_stream,
                               parse_stream, print_stream)

# Per sweep of random kinds: n's range, the initial edge count's range as a
# function of n, and the insertion count's range (numpy's half-open
# integers bounds).
_SHAPES = {
    "extreme": ((3, 8), lambda n: (1, 2 * n), (1, 8)),
    "wide": ((8, 41), lambda n: (n - 1, 3 * n + 1), (1, 11)),
    "vertex": ((40, 101), lambda n: (3 * n, 6 * n + 1), (1, 11)),
}
SWEEPS = (*_SHAPES, "dense-maxflow")
_KINDS = ("pnorm", "effres", "maxflow")


def _spread(rng: np.random.Generator, low: float, high: float) -> float:
    return float(10 ** rng.uniform(low, high))


def _random_kinds(sweep: str, index: int) -> UpdateStream:
    rng = np.random.default_rng(index)
    kind = _KINDS[index % 3]
    n_range, initial_range, events_range = _SHAPES[sweep]
    n = int(rng.integers(*n_range))
    initial = int(rng.integers(*initial_range(n)))
    events = int(rng.integers(*events_range))
    stream = UpdateStream(kind=kind, n=n, m_max=initial + events)
    if kind == "pnorm":
        stream.p = int(rng.choice([2, 3, 4, 8]))
        a, b = (int(v) for v in rng.choice(n, 2, replace=False))
        x = _spread(rng, -3, 3)
        stream.demand = {a: -x, b: x}
        stream.threshold = _spread(rng, -3, 6)
        stream.eps = 1e-3 * stream.threshold
    elif kind == "effres":
        stream.s, stream.t = 0, 1
        stream.threshold, stream.eps = _spread(rng, -6, 6), 0.1
    else:
        stream.s, stream.t = 0, 1
        stream.eps = float(rng.choice([0.1, 0.25, 0.5]))
    specs = []
    for _ in range(initial + events):
        u, v = (int(w) for w in rng.choice(n, 2, replace=False))
        if kind == "pnorm":
            g = float(rng.normal()) * _spread(rng, -3, 3)
            spec = EdgeSpec(u, v, g=g, r=_spread(rng, -6, 6),
                            w=_spread(rng, -6, 6))
        elif kind == "effres":
            spec = EdgeSpec(u, v, r=_spread(rng, -6, 6))
        else:
            spec = EdgeSpec(u, v, cap=max(1, int(_spread(rng, 0, 8))))
        specs.append(spec)
    stream.initial_edges, stream.events = specs[:initial], specs[initial:]
    return stream


def _dense_maxflow(index: int) -> UpdateStream:
    rng = np.random.default_rng(5000 + index)
    n = int(rng.integers(20, 60))
    c = int(rng.integers(3, 7))
    eps = float(rng.choice([0.1, 0.25, 0.5]))
    stream = generate_stream("phase-stress", "maxflow", n, c * n, 15,
                             eps=eps, seed=int(rng.integers(0, 2 ** 31)))
    for spec in stream.initial_edges + stream.events:
        spec.cap = max(1, round(spec.cap * _spread(rng, 0, 5)))
    return stream


def stream_text(sweep: str, index: int) -> str:
    """Stream `index` of `sweep` as print_stream writes it."""
    if sweep == "dense-maxflow":
        return print_stream(_dense_maxflow(index))
    if sweep not in _SHAPES:
        raise ValueError(f"unknown sweep {sweep!r}; one of {SWEEPS}")
    return print_stream(_random_kinds(sweep, index))


def first_failure(text: str) -> str | None:
    """None when every answer of the stream passes stream_checker;
    otherwise what went wrong first: the checker's refusal of the stream,
    its rejection of an answer, or the solver's error (an OracleError by
    its message before any " (", " in " or " at ", other errors by type)."""
    stream = parse_stream(text)
    try:
        check = stream_checker(stream)
    except StreamError as exc:
        return f"refused by the checker: {exc}".split(",")[0]
    try:
        _, calls = event_calls(stream, seed=1)
        for k, call in enumerate(calls):
            if not check(k, call())["ok"]:
                return "checker rejection"
    except OracleError as exc:
        return str(exc).split(" (")[0].split(" in ")[0].split(" at ")[0]
    except Exception as exc:
        return type(exc).__name__
    return None


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sweep", choices=SWEEPS)
    parser.add_argument("start", type=int)
    parser.add_argument("stop", type=int)
    parser.add_argument("--verbose", action="store_true",
                        help="print each failing stream's index and failure")
    args = parser.parse_args(argv)
    ok: collections.Counter = collections.Counter()
    total: collections.Counter = collections.Counter()
    failures: dict[str, collections.Counter] = collections.defaultdict(
        collections.Counter)
    began = time.perf_counter()
    for index in range(args.start, args.stop):
        text = stream_text(args.sweep, index)
        kind = text.split()[1]
        total[kind] += 1
        failure = first_failure(text)
        if failure is None:
            ok[kind] += 1
            continue
        failures[kind][failure] += 1
        if args.verbose:
            print(f"{args.sweep} {index} {kind}: {failure}")
    print(f"{args.sweep} sweep, streams {args.start}-{args.stop - 1}, "
          f"{time.perf_counter() - began:.1f} s")
    print("| kind | ok | failures |")
    print("|---|---|---|")
    for kind in sorted(total):
        listed = "; ".join(f"{count} {name}" for name, count in
                           failures[kind].most_common()) or "none"
        print(f"| {kind} | {ok[kind]} of {total[kind]} | {listed} |")


if __name__ == "__main__":
    main()
