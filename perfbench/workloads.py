"""Benchmark workloads: seeded stream jobs, their oracles and verdict checks.

A workload turns the benchmark seed into a list of jobs. A job holds the
stream text that the timed set-up parses, the options its solver or driver
gets, and a way to compute one oracle value per event. Generation and
threshold placement run before timing starts; the oracles are computed
on first use, by the checks, after timing ends. Only `Job.setup` and the
event calls it returns are timed.

The oracles do not use the code under test: p-norm optima come from a
closed-form Laplacian solve (p = 2), maxflow from
`scipy.sparse.csgraph.maximum_flow`, effective resistance from a scipy
sparse Laplacian solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from pnormflow import drivers, refine, streams
from pnormflow.streams import UpdateStream

# Comparison slack for p-norm verdicts, as in acceptance check 1.
PNORM_RTOL = 1e-7


@dataclass
class Job:
    """One stream of a workload and everything needed to check its verdicts.

    `oracle[k]` belongs to event k (0 is start()): the optimum for p-norm,
    the exact maxflow value, or the s-t effective resistance; math.inf
    while the demand is not routable. `make_oracle` computes the list
    once, on first use.
    """

    kind: str
    text: str
    stream: UpdateStream
    options: dict
    make_oracle: Callable[[], list[float]]

    @functools.cached_property
    def oracle(self) -> list[float]:
        return self.make_oracle()

    def setup(self) -> list[Callable[[], object]]:
        """Stream text to a ready solver or driver; returns one call per
        event, each returning that event's verdict."""
        stream = streams.parse_stream(self.text)
        if self.kind == "pnorm":
            instance, events = streams.build_pnorm_instance(stream)
            solver = refine.IncrementalPNormSolver(
                instance, m_max=stream.m_max, **self.options)
            return [solver.start] + [
                functools.partial(solver.insert_edge, *ev) for ev in events]
        if self.kind == "maxflow":
            driver = drivers.MaxflowDriver(stream.n, stream.m_max, stream.s,
                                           stream.t, stream.eps,
                                           **self.options)
            for spec in stream.initial_edges:
                driver.add_initial_edge(spec.u, spec.v, spec.capacity())
            return [driver.start] + [
                functools.partial(driver.insert, spec.u, spec.v,
                                  spec.capacity())
                for spec in stream.events]
        driver = drivers.EffResDriver(stream.n, stream.m_max, stream.s,
                                      stream.t, stream.threshold, stream.eps,
                                      **self.options)
        for spec in stream.initial_edges:
            driver.add_initial_edge(spec.u, spec.v, spec.resistance())
        return [driver.start] + [
            functools.partial(driver.insert, spec.u, spec.v,
                              spec.resistance())
            for spec in stream.events]


def derive_seed(*parts: int) -> int:
    """A 63-bit stream seed from the benchmark seed and a stream index."""
    return int(np.random.SeedSequence(list(parts)).generate_state(
        2, np.uint64)[0] >> np.uint64(1))


def _prefix_specs(stream: UpdateStream, k: int):
    """Edge specs present after event k (0 = the initial graph)."""
    return stream.initial_edges + stream.events[:k]


def _edge_arrays(specs):
    return (np.asarray([s.u for s in specs], dtype=np.int64),
            np.asarray([s.v for s in specs], dtype=np.int64))


# --- oracles -----------------------------------------------------------------

def _grounded_solve(n, tails, heads, conductance, rhs, s, t):
    """Potentials phi with L phi = rhs, grounded at t in the component of
    s and at its lowest vertex in every other component; None when s and
    t are not connected. rhs must sum to zero on every component."""
    graph = sp.coo_matrix((np.ones(tails.size), (tails, heads)), shape=(n, n))
    _, labels = csgraph.connected_components(graph, directed=False)
    if labels[s] != labels[t]:
        return None
    grounded = np.zeros(n, dtype=bool)
    grounded[np.unique(labels, return_index=True)[1]] = True
    grounded[labels == labels[t]] = False
    grounded[t] = True
    lap = sp.coo_matrix(
        (np.concatenate([conductance, conductance, -conductance, -conductance]),
         (np.concatenate([tails, heads, tails, heads]),
          np.concatenate([tails, heads, heads, tails]))),
        shape=(n, n)).tocsc()
    free = np.flatnonzero(~grounded)
    phi = np.zeros(n)
    phi[free] = spla.spsolve(lap[free][:, free], rhs[free])
    return phi


def quadratic_optimum(stream: UpdateStream, k: int) -> float:
    """Optimum after event k of a p = 2 stream, in closed form.

    With c = r^2 + w^2 the objective is <g, f> + sum c f^2; the optimal
    flow is f = (B phi - g) / 2c for potentials phi solving a Laplacian
    system with conductances 1/2c.
    """
    if stream.p != 2:
        raise ValueError("the closed form needs p = 2")
    d = stream.demand_vector()
    (s, t) = sorted(stream.demand, key=stream.demand.get)
    specs = _prefix_specs(stream, k)
    tails, heads = _edge_arrays(specs)
    g = np.asarray([x.pnorm_attrs()[0] for x in specs])
    c = np.asarray([x.pnorm_attrs()[1] ** 2 + x.pnorm_attrs()[2] ** 2
                    for x in specs])
    # Net demand of f is B^T f with B = (-1 at the tail, +1 at the head).
    bias = np.zeros(stream.n)
    np.add.at(bias, heads, g / (2 * c))
    np.subtract.at(bias, tails, g / (2 * c))
    phi = _grounded_solve(stream.n, tails, heads, 1 / (2 * c), d + bias, s, t)
    if phi is None:
        return math.inf
    f = (phi[heads] - phi[tails] - g) / (2 * c)
    return float(g @ f + c @ f ** 2)


def maxflow_values(stream: UpdateStream) -> list[float]:
    """Exact undirected maxflow after every event, by scipy."""
    values = []
    for k in range(len(stream.events) + 1):
        specs = _prefix_specs(stream, k)
        tails, heads = _edge_arrays(specs)
        caps = np.asarray([x.capacity() for x in specs], dtype=np.int32)
        graph = sp.csr_matrix(
            (np.concatenate([caps, caps]),
             (np.concatenate([tails, heads]), np.concatenate([heads, tails]))),
            shape=(stream.n, stream.n), dtype=np.int32)
        graph.sum_duplicates()
        values.append(float(csgraph.maximum_flow(
            graph, stream.s, stream.t).flow_value))
    return values


def effective_resistances(stream: UpdateStream) -> list[float]:
    """s-t effective resistance after every event, by a sparse solve."""
    values = []
    for k in range(len(stream.events) + 1):
        specs = _prefix_specs(stream, k)
        tails, heads = _edge_arrays(specs)
        conductance = 1.0 / np.asarray([x.resistance() for x in specs])
        rhs = np.zeros(stream.n)
        rhs[stream.s] = 1.0
        phi = _grounded_solve(stream.n, tails, heads, conductance, rhs,
                              stream.s, stream.t)
        values.append(math.inf if phi is None else float(phi[stream.s]))
    return values


# --- verdict checks ------------------------------------------------------------

def _pnorm_flow_ok(stream: UpdateStream, k: int, flow: np.ndarray) -> bool:
    specs = _prefix_specs(stream, k)
    if flow.shape != (len(specs),) or not np.all(np.isfinite(flow)):
        return False
    tails, heads = _edge_arrays(specs)
    d = stream.demand_vector()
    net = np.zeros(stream.n)
    np.add.at(net, heads, flow)
    np.subtract.at(net, tails, flow)
    if np.max(np.abs(net - d)) > PNORM_RTOL * (1.0 + np.max(np.abs(d))):
        return False
    g, r, w = (np.asarray(a) for a in zip(*(x.pnorm_attrs() for x in specs)))
    energy = float(g @ flow + np.sum((r * flow) ** 2)
                   + np.sum(np.abs(w * flow) ** stream.p))
    F, eps = stream.threshold, stream.eps
    return energy <= F + eps + PNORM_RTOL * (abs(F) + eps)


def _maxflow_ok(stream: UpdateStream, k: int, exact: float, value,
                flow) -> bool:
    specs = _prefix_specs(stream, k)
    flow = np.asarray(flow, dtype=float)
    if flow.shape != (len(specs),):
        return False
    caps = np.asarray([x.capacity() for x in specs], dtype=float)
    tails, heads = _edge_arrays(specs)
    net = np.zeros(stream.n)
    np.add.at(net, heads, flow)
    np.subtract.at(net, tails, flow)
    expected = np.zeros(stream.n)
    expected[stream.s], expected[stream.t] = -value, value
    return (value >= (1.0 - stream.eps) * exact - 1e-9
            and value <= exact + 1e-9
            and not np.any(np.abs(flow) > caps * (1 + 1e-9))
            and np.max(np.abs(net - expected), initial=0.0)
            <= 1e-7 * (1.0 + value))


def check_stream(job: Job, verdicts: list) -> list[bool]:
    """Per-event correctness of one pass over a job's stream, in order.

    `verdicts[k]` is what event k returned, or the exception it raised;
    an exception always fails.
    """
    stream, oracle = job.stream, job.oracle
    ok: list[bool] = []
    below_seen = False
    for k, verdict in enumerate(verdicts):
        if isinstance(verdict, BaseException):
            ok.append(False)
        elif job.kind == "pnorm":
            if isinstance(verdict, refine.Flow):
                ok.append(_pnorm_flow_ok(stream, k, verdict.flow))
            else:
                F = stream.threshold
                ok.append(isinstance(verdict, refine.CertifiedAbove)
                          and oracle[k] > F - PNORM_RTOL * (1.0 + abs(F)))
        elif job.kind == "maxflow":
            value, flow = verdict
            ok.append(_maxflow_ok(stream, k, oracle[k], value, flow))
        else:
            true, theta, eps = oracle[k], stream.threshold, stream.eps
            if isinstance(verdict, drivers.Below):
                below_seen = True
                ok.append(verdict.r_est >= true * (1 - 1e-6)
                          and verdict.r_est <= theta * (1 + eps) * (1 + 1e-9))
            else:
                ok.append(isinstance(verdict, drivers.AboveThreshold)
                          and not below_seen
                          and true > theta / (1 + eps) * (1 - 1e-9)
                          and not true < theta * (1 - eps))
    return ok


def verdict_token(verdict) -> str:
    """Verdict kind for fingerprints; maxflow adds its published value."""
    if isinstance(verdict, BaseException):
        return "X"
    if isinstance(verdict, tuple):
        return f"{verdict[0]:g}"
    return {"Flow": "F", "CertifiedAbove": "C", "Below": "B",
            "AboveThreshold": "A"}[type(verdict).__name__]


# --- workloads -----------------------------------------------------------------

def _job(kind: str, stream: UpdateStream, options: dict,
         make_oracle: Callable[[], list[float]]) -> Job:
    return Job(kind=kind, text=streams.print_stream(stream), stream=stream,
               options=options, make_oracle=make_oracle)


def drivers_desk(seed: int, streams_per_seed: int = 64, n: int = 12,
                 maxflow_events: int = 36, effres_events: int = 16
                 ) -> list[Job]:
    """Maxflow phase-stress streams (eps = 0.25) alternating with effres
    streams cut off at a late crossing; both drivers use their default
    event budget."""
    jobs = []
    for i in range(streams_per_seed):
        stream_seed = derive_seed(seed, 2, i)
        if i % 2 == 0:
            stream = streams.generate_stream(
                "phase-stress", "maxflow", n=n, initial=n - 1,
                events=maxflow_events, eps=0.25, seed=stream_seed)
            jobs.append(_job("maxflow", stream, {"seed": stream_seed},
                             functools.partial(maxflow_values, stream)))
            continue
        stream = streams.generate_stream(
            "random", "effres", n=n, initial=n - 1, events=effres_events,
            seed=stream_seed)
        values = effective_resistances(stream)
        # Largest relative drop in the second half of the stream.
        half = len(values) // 2
        k = max(range(max(half, 1), len(values)),
                key=lambda j: (values[j - 1] / values[j]
                               if math.isfinite(values[j - 1]) else 0.0))
        stream.threshold = math.sqrt(values[k - 1] * values[k]) \
            if math.isfinite(values[k - 1]) else 2.0 * values[k]
        stream.events = stream.events[:k]
        jobs.append(_job("effres", stream, {"seed": stream_seed},
                         functools.partial(list, values[:k + 1])))
    return jobs


def scale(seed: int, n: int = 500, m: int = 5000, events: int = 2,
          budget: int = 30) -> list[Job]:
    """One n = 500, m = 5000, p = 2 stream as in acceptance check 11, on
    the trees backend with kappa = 4: the last `events` edges of a
    generated stream become insertions and the threshold sits 1% below
    the final optimum, so every event certifies above after its inner
    budget runs out and a materialization."""
    stream_seed = derive_seed(seed, 3)
    stream = streams.generate_stream("random", "pnorm", n=n, initial=m,
                                     events=0, p=2, seed=stream_seed)
    stream.events = stream.initial_edges[m - events:]
    stream.initial_edges = stream.initial_edges[:m - events]
    final = quadratic_optimum(stream, events)
    stream.threshold = final - 1e-2 * (1.0 + abs(final))
    stream.eps = 1e-3 * (1.0 + abs(stream.threshold))
    options = {"seed": stream_seed, "backend": "trees", "kappa": 4.0,
               "step_budget_per_event": budget}
    return [_job("pnorm", stream, options, lambda: [
        quadratic_optimum(stream, k) for k in range(events + 1)])]


@dataclass(frozen=True)
class Workload:
    """How to make the jobs for a seed, how many streams the traced run
    repeats exactly, and how often each stream's set-up is timed before
    the measured loop."""

    build: Callable[[int], list[Job]]
    traced_streams: int
    setup_repeats: int


WORKLOADS = {
    "drivers-desk": Workload(drivers_desk, traced_streams=6,
                             setup_repeats=20),
    "scale-trees": Workload(scale, traced_streams=1, setup_repeats=8),
}
