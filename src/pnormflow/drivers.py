"""End-user reductions built on the thresholded p-norm solver.

Incremental (1-eps)-approximate maxflow: work in phases. A phase publishes
an exact maxflow of value nu (desk-scale stand-in for a static solver). The
p-norm instance with per-edge weight 1/u_e, a small quadratic padding
delta/u_e, and demand nu*(chi_t - chi_s) is then watched with threshold
F = m_max * e^(-eps*p): as long as every routing of nu units costs more
than F, no flow routes nu at congestion near e^(-eps), so nu is still
(1-eps)-accurate. When the solver instead produces a flow of energy at most
2F, that flow routes nu at congestion at most e^(-eps/2), meaning the true
maxflow grew by at least e^(eps/2); the phase restarts with a fresh exact
maxflow. The published value therefore multiplies by at least e^(eps/2) per
restart, bounding the number of phases by the log of the total capacity.
Phases differ only in nu, so the driver keeps one instance and one solver,
built by start() at nu = 0, whose answer before the first phase is the
zero flow; every event is the solver's event, and a phase changes the
solver's demand. Its static solve starts Newton from the exact maxflow, or
from the tripped flow scaled to the new value when that has less energy.

Incremental effective-resistance thresholding is the p = 2 instance with
r_e = sqrt(resistance_e) and a tiny p-norm padding: its optimum is
(1 + gamma^2) * R_eff(s, t), so an above-threshold certificate at F = theta
is sound for R_eff > theta / (1 + gamma^2) and a flow of energy at most
theta * (1 + eps_rel) certifies R_eff below that.

Both drivers run the exact min-ratio-cycle oracle. event_calls turns a
parsed stream of any kind into its solver or driver and one call per event.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvariantViolation
from .graph import IncrementalGraph, PNormInstance
from .refine import (Flow, IncrementalPNormSolver, Verdict,
                     check_step_budget)
from .streams import (MAX_CAPACITY, EdgeSpec, UpdateStream,
                      build_pnorm_instance)
from .verify import exact_maxflow

# l2-to-lp weight ratio for the effective-resistance instance; its energy
# distortion (1 + gamma^2) is far below any useful eps_rel.
EFFRES_WEIGHT_RATIO = 1e-6
# Per-event inner-step budget for the drivers: one oracle query, which
# either stalls (CertifiedAbove) or finds a cycle, after which the event
# materializes and the new run's first query, at Newton's optimum, is
# usually a stall its seeded potential proves. No round can complete a
# run, whose T = 100*q*m_max is far out of reach. At budget 2 the second
# round pushed the stale length estimates and queried again; it decided
# only 6 of the 1,065 events that opened a cycle in the 64 drivers-desk
# benchmark streams of seed 1 (perfbench/workloads.py), with the same
# verdicts as budget 1.
DRIVER_STEP_BUDGET = 1
_MAX_PHASES_PER_EVENT = 2


class MaxflowDriver:
    """Incremental (1-eps)-approximate undirected maxflow.

    Feed the initial edges with add_initial_edge, call start() once, then
    insert() per event; each of the latter two returns the published
    (value, flow) pair. The flow is capacity-feasible and its value is the
    published value: the current phase's exact maxflow, or 0 with a zero
    flow before the first phase. start() builds `solver`, the one p-norm
    solver, which takes every event and keeps the event, query and
    iteration counts.
    """

    def __init__(self, n: int, m_max: int, s: int, t: int, eps: float,
                 seed: int | None = None,
                 step_budget_per_event: int | None = DRIVER_STEP_BUDGET,
                 trace=None):
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError(f"terminal out of range: s={s}, t={t}, n={n}")
        if s == t:
            raise ValueError("s and t must differ")
        if not 0 < eps <= 0.5:
            raise ValueError(f"eps must be in (0, 1/2], got {eps}")
        if m_max < 1:
            raise ValueError("m_max must be positive")
        if step_budget_per_event is not None:
            check_step_budget(step_budget_per_event)
        self.n, self.m_max, self.s, self.t = n, m_max, s, t
        self.eps = float(eps)
        self.p = math.ceil(2.0 * math.log(2 * m_max) / eps)
        self.delta = math.exp(-eps * self.p / 2) / (2.0 * math.sqrt(m_max))
        self.F = m_max * math.exp(-eps * self.p)
        # The one solver's options, until start() builds it.
        self._solver_options = {"seed": seed, "trace": trace,
                                "step_budget_per_event": step_budget_per_event}
        self.graph = IncrementalGraph(n)
        self.caps: list[int] = []
        self.value, self.flow = 0, np.zeros(0)
        self.solver: IncrementalPNormSolver | None = None
        self.phase_count = 0

    def _check_cap(self, cap) -> int:
        # Range first: int() fails on inf and nan, which the range rejects.
        if not cap >= 1:
            raise ValueError(f"capacities must be at least 1, got {cap}")
        if cap > MAX_CAPACITY:
            raise ValueError(f"capacities must be at most 2^53 = "
                             f"{MAX_CAPACITY}, got {cap}")
        if cap != int(cap):
            raise ValueError(f"capacities must be integral, got {cap}")
        return int(cap)

    def add_initial_edge(self, u: int, v: int, cap: int) -> None:
        if self.solver is not None:
            raise ValueError("initial edges must precede start()")
        if len(self.caps) >= self.m_max:
            raise ValueError("edge bound m_max exceeded")
        cap = self._check_cap(cap)
        self.graph.add_edge(u, v)
        self.caps.append(cap)

    def start(self) -> tuple[float, np.ndarray]:
        """Build the instance at zero demand and its solver, and publish
        (value, flow) for the initial graph."""
        if self.solver is not None:
            raise ValueError("start() may be called only once")
        caps = np.asarray(self.caps, dtype=float)
        instance = PNormInstance(self.graph, np.zeros(self.n), self.p,
                                 threshold=self.F, eps=self.F)
        instance.set_edge_attrs(np.zeros(caps.size), self.delta / caps,
                                1.0 / caps)
        self.solver = IncrementalPNormSolver(instance, m_max=self.m_max,
                                             **self._solver_options)
        return self._event(self.solver.start())

    def insert(self, u: int, v: int, cap: int) -> tuple[float, np.ndarray]:
        """Insert an edge and return the published (value, flow)."""
        if self.solver is None:
            raise ValueError("call start() before inserting events")
        cap = self._check_cap(cap)
        # The instance views self.graph: the solver adds the edge and
        # enforces m_max.
        verdict = self.solver.insert_edge(u, v, 0.0, self.delta / cap,
                                          1.0 / cap)
        self.caps.append(cap)
        return self._event(verdict)

    def phase_bound(self) -> int:
        """Largest phase count the restart argument allows right now."""
        total = max(sum(self.caps), 1)
        return math.ceil(math.log(total) / (self.eps / 2.0)) + 1

    def _event(self, verdict: Verdict):
        """Publish after an event, given the solver's answer to it. Before
        the first phase that answer is the zero flow of the zero demand."""
        before = self.phase_count
        if before == 0:
            if not self.graph.connected(self.s, self.t):
                return self._publish()
            verdict = self._begin_phase()
        while isinstance(verdict, Flow):
            self._check_trip(verdict)
            if self.phase_count - before >= _MAX_PHASES_PER_EVENT:
                raise InvariantViolation(
                    "phase restarted repeatedly within one event")
            verdict = self._begin_phase(verdict)
        return self._publish()

    def _check_trip(self, verdict: Flow) -> None:
        """A threshold trip must certify congestion <= e^(-eps/2)."""
        if verdict.energy > 2.0 * self.F * (1 + 1e-9):
            raise InvariantViolation(
                f"trip flow energy {verdict.energy} exceeds 2F={2 * self.F}")
        caps = np.asarray(self.caps[:verdict.flow.size], dtype=float)
        congestion = float(np.max(np.abs(verdict.flow) / caps))
        limit = math.exp(-self.eps / 2.0)
        if congestion > limit * (1 + 1e-9):
            raise InvariantViolation(
                f"trip flow congestion {congestion} exceeds {limit}")

    def _begin_phase(self, trip: Flow | None = None) -> Verdict:
        """Publish an exact maxflow and return the solver's verdict on its
        demand. After a trip, Newton starts from the lower-energy of Dinic's
        flow and the tripped flow scaled to the new value: the latter sits
        near the new optimum unless the value grew so much that its
        congestion passes 1, where its energy grows with the p-th power of
        the scale."""
        self.phase_count += 1
        bound = self.phase_bound()
        if self.phase_count > bound:
            raise InvariantViolation(
                f"phase {self.phase_count} exceeds the restart bound {bound}")
        caps = np.asarray(self.caps, dtype=float)
        value, flow = exact_maxflow(self.graph, caps, self.s, self.t)
        demand = np.zeros(self.n)
        demand[self.s] = -float(value)
        demand[self.t] = float(value)
        start = flow
        if trip is not None:
            scaled = trip.flow * (value / self.value)
            energy = self.solver.instance.energy
            if energy(scaled) < energy(flow):
                start = scaled
        self.value, self.flow = value, flow
        return self.solver.set_demand(demand, start)

    def _publish(self) -> tuple[float, np.ndarray]:
        flow = np.zeros(len(self.caps))
        flow[:self.flow.size] = self.flow
        caps = np.asarray(self.caps, dtype=float)
        if np.any(np.abs(flow) > caps * (1 + 1e-9)):
            raise InvariantViolation("published flow exceeds capacities")
        return float(self.value), flow


@dataclass
class AboveThreshold:
    """R_eff(s, t) certified above theta / (1 + gamma^2)."""


@dataclass
class Below:
    """A flow certifying R_eff(s, t) <= r_est <= theta * (1 + eps_rel)."""

    flow: np.ndarray
    r_est: float


class EffResDriver:
    """Incremental effective-resistance thresholding at p = 2."""

    def __init__(self, n: int, m_max: int, s: int, t: int, theta: float,
                 eps_rel: float, seed: int | None = None,
                 step_budget_per_event: int | None = DRIVER_STEP_BUDGET,
                 trace=None):
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError(f"terminal out of range: s={s}, t={t}, n={n}")
        if s == t:
            raise ValueError("s and t must differ")
        if not theta > 0:
            raise ValueError(f"theta must be positive, got {theta}")
        if not eps_rel > 0:
            raise ValueError(f"eps_rel must be positive, got {eps_rel}")
        self.theta = float(theta)
        self.eps_rel = float(eps_rel)
        self.gamma = EFFRES_WEIGHT_RATIO
        demand = np.zeros(n)
        demand[s] = -1.0
        demand[t] = 1.0
        graph = IncrementalGraph(n)
        self.instance = PNormInstance(graph, demand, 2, threshold=theta,
                                      eps=eps_rel * theta)
        self.solver = IncrementalPNormSolver(
            self.instance, m_max=m_max, seed=seed,
            step_budget_per_event=step_budget_per_event, trace=trace)
        self._below_seen = False

    def _attrs(self, resistance: float) -> tuple[float, float, float]:
        if not 0 < resistance < math.inf:
            raise ValueError(
                f"resistances must be positive and finite, got {resistance}")
        root = math.sqrt(resistance)
        return 0.0, root, self.gamma * root

    def add_initial_edge(self, u: int, v: int, resistance: float) -> None:
        if self.solver.started:
            raise ValueError("initial edges must precede start()")
        if self.instance.m >= self.solver.m_max:
            raise ValueError("edge bound m_max exceeded")
        self.instance.add_edge(u, v, *self._attrs(resistance))

    def start(self) -> AboveThreshold | Below:
        return self._map(self.solver.start())

    def insert(self, u: int, v: int,
               resistance: float) -> AboveThreshold | Below:
        return self._map(self.solver.insert_edge(u, v,
                                                 *self._attrs(resistance)))

    def _map(self, verdict) -> AboveThreshold | Below:
        if isinstance(verdict, Flow):
            self._below_seen = True
            r_est = verdict.energy / (1.0 + self.gamma ** 2)
            return Below(flow=verdict.flow, r_est=r_est)
        if self._below_seen:
            raise InvariantViolation(
                "verdict regressed from Below to AboveThreshold")
        return AboveThreshold()


def event_calls(
    stream: UpdateStream, **options,
) -> tuple[IncrementalPNormSolver | MaxflowDriver | EffResDriver,
           list[Callable[[], object]]]:
    """The stream's solver or driver, built with `options`, and one call per
    event (start first), each returning that event's answer. Only a p-norm
    stream's solver takes the oracle options `backend` and `kappa`."""
    if stream.kind == "pnorm":
        instance, events = build_pnorm_instance(stream)
        solver = IncrementalPNormSolver(instance, m_max=stream.m_max,
                                        **options)
        return solver, [solver.start] + [
            functools.partial(solver.insert_edge, *ev) for ev in events]
    if stream.kind == "maxflow":
        driver = MaxflowDriver(stream.n, stream.m_max, stream.s, stream.t,
                               stream.eps, **options)
        attr = EdgeSpec.capacity
    else:
        driver = EffResDriver(stream.n, stream.m_max, stream.s, stream.t,
                              stream.threshold, stream.eps, **options)
        attr = EdgeSpec.resistance
    for spec in stream.initial_edges:
        driver.add_initial_edge(spec.u, spec.v, attr(spec))
    return driver, [driver.start] + [
        functools.partial(driver.insert, spec.u, spec.v, attr(spec))
        for spec in stream.events]
