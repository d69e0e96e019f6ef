"""Verdict checker: each published answer against an independent oracle
(the static optimum, scipy's maximum_flow or the Laplacian effective
resistance), or an effres Below against its own flow as a witness, built
from the stream alone. The README lists the comparisons; the CLI's verify
command and the acceptance suite use it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .drivers import AboveThreshold, Below
from .errors import StreamError
from .graph import IncrementalGraph, net_demand
from .refine import CertifiedAbove, Flow
from .streams import UpdateStream, build_pnorm_instance
from .verify import effective_resistance, static_pnorm_opt

# Slack for a solver's floating-point answer against its reference.
RTOL = 1e-7
# Slack for a bound an answer meets exactly up to rounding: absolute on the
# integral maxflow value, relative elsewhere.
EXACT_TOL = 1e-9
# static_pnorm_opt's forest seed.
OPT_SEED = 23
# scipy's maximum_flow works in int32, and at scipy 1.17.1 it returns 0 for
# larger int64 capacities too, so maxflow streams are checked only while
# int32 holds their total capacity.
MAX_TOTAL_CAPACITY = 2 ** 31 - 1


def stream_checker(stream: UpdateStream) -> Callable[[int, object], dict]:
    """check(index, answer) -> the record of the answer to event `index`
    (0 is start): `verdict`, `oracle` (the reference value), `ok`, and for
    maxflow the published `value`. The checker grows its own prefix graph,
    or p-norm instance, and takes no solver, driver or seed, so events are
    checked in order. Raises StreamError on a maxflow stream whose total
    capacity int32 cannot hold."""
    return _CHECKERS[stream.kind](stream)


def _prefix(stream: UpdateStream, index: int, checked: int) -> int:
    """Edge count after event `index`, given `checked` edges so far."""
    m = len(stream.initial_edges) + index
    if not checked <= m <= len(stream.initial_edges) + len(stream.events):
        raise ValueError(f"event {index} is out of order or not in the stream")
    return m


def _pnorm_checker(stream: UpdateStream) -> Callable[[int, object], dict]:
    instance, events = build_pnorm_instance(stream)
    initial = len(stream.initial_edges)
    F, eps = instance.threshold, instance.eps
    demand_scale = 1.0 + float(np.max(np.abs(instance.d)))
    warm = None

    def check(index: int, verdict) -> dict:
        nonlocal warm
        for event in events[instance.m - initial:
                            _prefix(stream, index, instance.m) - initial]:
            instance.add_edge(*event)
        if isinstance(verdict, Flow):
            imbalance = net_demand(instance.graph, verdict.flow) - instance.d
            oracle = instance.energy(verdict.flow)
            ok = (float(np.max(np.abs(imbalance))) <= RTOL * demand_scale
                  and oracle <= F + eps + RTOL * (abs(F) + eps))
        else:
            # Only an unroutable demand is above F with an infinite optimum;
            # a routable one whose reference overflows proves nothing.
            oracle = math.inf
            if routable := instance.routable():
                if warm is not None:
                    warm = np.concatenate(
                        [warm, np.zeros(instance.m - warm.size)])
                report = static_pnorm_opt(instance, start_flow=warm,
                                          seed=OPT_SEED)
                warm, oracle = report.flow, report.value
            ok = (isinstance(verdict, CertifiedAbove)
                  and oracle > F - RTOL * (1.0 + abs(F))
                  and (math.isfinite(oracle) or not routable))
        return {"verdict": type(verdict).__name__, "oracle": float(oracle),
                "ok": ok}

    return check


def _scipy_maxflow(n: int, tails: np.ndarray, heads: np.ndarray,
                   caps: np.ndarray, s: int, t: int) -> float:
    """Undirected s-t maxflow value by scipy, independent of the solver."""
    arcs = sp.csr_matrix((np.tile(caps.astype(np.int32), 2),
                          (np.concatenate([tails, heads]),
                           np.concatenate([heads, tails]))), shape=(n, n))
    arcs.sum_duplicates()
    return float(csgraph.maximum_flow(arcs, s, t).flow_value)


def _maxflow_checker(stream: UpdateStream) -> Callable[[int, object], dict]:
    specs = stream.initial_edges + stream.events
    capacities = [spec.capacity() for spec in specs]
    if sum(capacities) > MAX_TOTAL_CAPACITY:
        raise StreamError(f"verify checks maxflow with scipy and is capped at "
                          f"a total capacity <= {MAX_TOTAL_CAPACITY}, "
                          f"got {sum(capacities)}")
    all_caps = np.asarray(capacities, dtype=np.int64)
    tails = np.asarray([spec.u for spec in specs], dtype=np.int64)
    heads = np.asarray([spec.v for spec in specs], dtype=np.int64)
    n, s, t = stream.n, stream.s, stream.t

    def check(index: int, published) -> dict:
        value, flow = published
        m = _prefix(stream, index, 0)
        caps = all_caps[:m]
        exact = _scipy_maxflow(n, tails[:m], heads[:m], caps, s, t)
        net = np.bincount(heads[:m], flow, n) - np.bincount(tails[:m], flow, n)
        net[s] += value
        net[t] -= value
        ok = bool((1.0 - stream.eps) * exact - EXACT_TOL <= value
                  <= exact + EXACT_TOL
                  and np.max(np.abs(net)) <= RTOL * (1.0 + value)
                  and np.all(np.abs(flow) <= caps * (1.0 + EXACT_TOL)))
        return {"verdict": "Published", "value": value, "oracle": exact,
                "ok": ok}

    return check


def _effres_checker(stream: UpdateStream) -> Callable[[int, object], dict]:
    specs = stream.initial_edges + stream.events
    resistances = np.asarray([spec.resistance() for spec in specs])
    theta, eps, s, t = stream.threshold, stream.eps, stream.s, stream.t
    graph = IncrementalGraph(stream.n)
    unit = np.zeros(stream.n)
    unit[s], unit[t] = -1.0, 1.0
    below_seen = False

    def check(index: int, verdict) -> dict:
        nonlocal below_seen
        for spec in specs[graph.m:_prefix(stream, index, graph.m)]:
            graph.add_edge(spec.u, spec.v)
        if isinstance(verdict, Below):
            # Thomson: a unit s-t flow's energy bounds R_eff from above.
            imbalance = net_demand(graph, verdict.flow) - unit
            oracle = float(resistances[:graph.m] @ verdict.flow ** 2)
            ok = (float(np.max(np.abs(imbalance))) <= RTOL
                  and oracle <= verdict.r_est * (1.0 + RTOL) and verdict.r_est
                  <= theta * (1.0 + eps) * (1.0 + EXACT_TOL))
            below_seen = True
        else:
            oracle = (effective_resistance(graph, resistances[:graph.m], s, t)
                      if graph.connected(s, t) else math.inf)
            ok = (isinstance(verdict, AboveThreshold) and not below_seen
                  and oracle > theta / (1.0 + eps) * (1.0 - EXACT_TOL))
        return {"verdict": type(verdict).__name__, "oracle": float(oracle),
                "ok": ok}

    return check


_CHECKERS = {"pnorm": _pnorm_checker, "maxflow": _maxflow_checker,
             "effres": _effres_checker}
