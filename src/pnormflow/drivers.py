"""End-user reductions built on the thresholded p-norm solver.

Incremental (1-eps)-approximate maxflow: work in phases. A phase starts by
computing an exact maxflow of value nu (desk-scale stand-in for a static
solver) and publishes it. The p-norm instance with per-edge weight 1/u_e, a
small quadratic padding delta/u_e, and demand nu*(chi_t - chi_s) is then
watched with threshold F = m_max * e^(-eps*p): as long as every routing of
nu units costs more than F, no flow routes nu at congestion near e^(-eps),
so nu is still (1-eps)-accurate. When the solver instead produces a flow of
energy at most 2F, that flow routes nu at congestion at most e^(-eps/2),
meaning the true maxflow grew by at least e^(eps/2); the phase restarts
with a fresh exact maxflow. The published value therefore multiplies by at
least e^(eps/2) per restart, bounding the number of phases by the log of
the total capacity.

Incremental effective-resistance thresholding is the p = 2 instance with
r_e = sqrt(resistance_e) and a tiny p-norm padding: its optimum is
(1 + gamma^2) * R_eff(s, t), so an above-threshold certificate at F = theta
is sound for R_eff > theta / (1 + gamma^2) and a flow of energy at most
theta * (1 + eps_rel) certifies R_eff below that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InvariantViolation
from .graph import IncrementalGraph, PNormInstance
from .refine import Flow, IncrementalPNormSolver, Verdict
from .streams import UpdateStream
from .verify import exact_maxflow

# l2-to-lp weight ratio for the effective-resistance instance; its energy
# distortion (1 + gamma^2) is far below any useful eps_rel.
EFFRES_WEIGHT_RATIO = 1e-6
# Per-event inner-step budget for the drivers. Driver events either stall
# quickly or cross the threshold, where materialization resolves them; a
# small budget keeps the per-event cost flat without affecting soundness.
DRIVER_STEP_BUDGET = 200
_MAX_PHASE_BUILDS_PER_EVENT = 2


@dataclass
class MaxflowPhase:
    """One maxflow phase: the published exact flow and its watching solver,
    whose instance views the driver's graph with this phase's demand."""

    value: int
    flow: np.ndarray
    solver: IncrementalPNormSolver
    instance: PNormInstance


class MaxflowDriver:
    """Incremental (1-eps)-approximate undirected maxflow.

    Feed the initial edges with add_initial_edge, call start() once, then
    insert() per event; each of the latter two returns the published
    (value, flow) pair. The flow is capacity-feasible and its value is the
    published value.
    """

    def __init__(self, n: int, m_max: int, s: int, t: int, eps: float,
                 kappa: float = 1.0, backend: str = "exact",
                 seed: int | None = None,
                 step_budget_per_event: int | None = DRIVER_STEP_BUDGET,
                 assert_invariants: bool = True, trace=None):
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError(f"terminal out of range: s={s}, t={t}, n={n}")
        if s == t:
            raise ValueError("s and t must differ")
        if not 0 < eps <= 0.5:
            raise ValueError(f"eps must be in (0, 1/2], got {eps}")
        if m_max < 1:
            raise ValueError("m_max must be positive")
        self.n, self.m_max, self.s, self.t = n, m_max, s, t
        self.eps = float(eps)
        self.p = math.ceil(2.0 * math.log(2 * m_max) / eps)
        self.delta = math.exp(-eps * self.p / 2) / (2.0 * math.sqrt(m_max))
        self.F = m_max * math.exp(-eps * self.p)
        self.kappa = kappa
        self.backend = backend
        self.step_budget = step_budget_per_event
        self.assert_invariants = assert_invariants
        self.trace = trace
        self._rng = np.random.Generator(np.random.Philox(seed))
        self.graph = IncrementalGraph(n)
        self.caps: list[int] = []
        self.phase: MaxflowPhase | None = None
        self.phase_count = 0
        self._started = False
        self._queries_base = 0
        self._iterations_base = 0

    @property
    def queries(self) -> int:
        live = self.phase.solver.queries if self.phase is not None else 0
        return self._queries_base + live

    @property
    def iterations(self) -> int:
        live = self.phase.solver.iterations if self.phase is not None else 0
        return self._iterations_base + live

    def _check_cap(self, cap) -> int:
        if cap != int(cap):
            raise ValueError(f"capacities must be integral, got {cap}")
        cap = int(cap)
        if cap < 1:
            raise ValueError(f"capacities must be at least 1, got {cap}")
        return cap

    def add_initial_edge(self, u: int, v: int, cap: int) -> None:
        if self._started:
            raise ValueError("initial edges must precede start()")
        if len(self.caps) >= self.m_max:
            raise ValueError("edge bound m_max exceeded")
        self.graph.add_edge(u, v)
        self.caps.append(self._check_cap(cap))

    def start(self) -> tuple[float, np.ndarray]:
        """Published (value, flow) for the initial graph."""
        self._started = True
        return self._event(None)

    def insert(self, u: int, v: int, cap: int) -> tuple[float, np.ndarray]:
        """Insert an edge and return the published (value, flow)."""
        if not self._started:
            raise ValueError("call start() before inserting events")
        if len(self.caps) >= self.m_max:
            raise ValueError("edge bound m_max exceeded")
        cap = self._check_cap(cap)
        if self.phase is None:
            self.graph.add_edge(u, v)
            self.caps.append(cap)
            return self._event(None)
        # The phase instance views self.graph: the solver adds the edge.
        verdict = self.phase.solver.insert_edge(
            u, v, 0.0, self.delta / cap, 1.0 / cap)
        self.caps.append(cap)
        return self._event(verdict)

    def phase_bound(self) -> int:
        """Largest phase count the restart argument allows right now."""
        total = max(sum(self.caps), 1)
        return math.ceil(math.log(total) / (self.eps / 2.0)) + 1

    def _event(self, verdict: Verdict | None):
        """Publish after an event; `verdict` is the running phase's answer
        to an insertion, or None to start a phase's solver."""
        builds = 0
        if verdict is None:
            if self.phase is None:
                if not self.graph.connected(self.s, self.t):
                    return self._publish()
                self._begin_phase()
                builds += 1
            verdict = self.phase.solver.start()
        while isinstance(verdict, Flow):
            self._check_trip(verdict)
            if builds >= _MAX_PHASE_BUILDS_PER_EVENT:
                raise InvariantViolation(
                    "phase restarted repeatedly within one event")
            self._begin_phase()
            builds += 1
            verdict = self.phase.solver.start()
        return self._publish()

    def _check_trip(self, verdict: Flow) -> None:
        """A threshold trip must certify congestion <= e^(-eps/2)."""
        if not self.assert_invariants:
            return
        if verdict.energy > 2.0 * self.F * (1 + 1e-9):
            raise InvariantViolation(
                f"trip flow energy {verdict.energy} exceeds 2F={2 * self.F}")
        caps = np.asarray(self.caps[:verdict.flow.size], dtype=float)
        congestion = float(np.max(np.abs(verdict.flow) / caps))
        limit = math.exp(-self.eps / 2.0)
        if congestion > limit * (1 + 1e-9):
            raise InvariantViolation(
                f"trip flow congestion {congestion} exceeds {limit}")

    def _begin_phase(self) -> None:
        if self.phase is not None:
            self._queries_base += self.phase.solver.queries
            self._iterations_base += self.phase.solver.iterations
        caps = np.asarray(self.caps, dtype=float)
        value, flow = exact_maxflow(self.graph, caps, self.s, self.t)
        demand = np.zeros(self.n)
        demand[self.s] = -float(value)
        demand[self.t] = float(value)
        instance = PNormInstance(self.graph, demand, self.p,
                                 threshold=self.F, eps=self.F)
        instance.set_edge_attrs(np.zeros(len(self.caps)),
                                self.delta / caps, 1.0 / caps)
        solver = IncrementalPNormSolver(
            instance, m_max=self.m_max, kappa=self.kappa,
            backend=self.backend, seed=int(self._rng.integers(2 ** 63)),
            step_budget_per_event=self.step_budget,
            assert_invariants=self.assert_invariants,
            start_flow=flow, trace=self.trace)
        self.phase = MaxflowPhase(value=int(value), flow=flow.astype(float),
                                  solver=solver, instance=instance)
        self.phase_count += 1

    def _publish(self) -> tuple[float, np.ndarray]:
        m = len(self.caps)
        if self.phase is None:
            return 0.0, np.zeros(m)
        flow = np.zeros(m)
        flow[:self.phase.flow.size] = self.phase.flow
        if self.assert_invariants:
            caps = np.asarray(self.caps, dtype=float)
            if np.any(np.abs(flow) > caps * (1 + 1e-9)):
                raise InvariantViolation("published flow exceeds capacities")
        return float(self.phase.value), flow


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
                 eps_rel: float, kappa: float = 1.0, backend: str = "exact",
                 seed: int | None = None,
                 step_budget_per_event: int | None = DRIVER_STEP_BUDGET,
                 assert_invariants: bool = True, trace=None):
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError(f"terminal out of range: s={s}, t={t}, n={n}")
        if s == t:
            raise ValueError("s and t must differ")
        if theta <= 0:
            raise ValueError(f"theta must be positive, got {theta}")
        if eps_rel <= 0:
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
            self.instance, m_max=m_max, kappa=kappa, backend=backend,
            seed=seed, step_budget_per_event=step_budget_per_event,
            assert_invariants=assert_invariants, trace=trace)
        self.assert_invariants = assert_invariants
        self._below_seen = False
        self._started = False

    def _attrs(self, resistance: float) -> tuple[float, float, float]:
        if resistance <= 0:
            raise ValueError(
                f"resistances must be positive, got {resistance}")
        root = math.sqrt(resistance)
        return 0.0, root, self.gamma * root

    def add_initial_edge(self, u: int, v: int, resistance: float) -> None:
        if self._started:
            raise ValueError("initial edges must precede start()")
        self.instance.add_edge(u, v, *self._attrs(resistance))

    def start(self) -> AboveThreshold | Below:
        self._started = True
        return self._map(self.solver.start())

    def insert(self, u: int, v: int,
               resistance: float) -> AboveThreshold | Below:
        if not self._started:
            raise ValueError("call start() before inserting events")
        return self._map(self.solver.insert_edge(u, v,
                                                 *self._attrs(resistance)))

    def _map(self, verdict) -> AboveThreshold | Below:
        if isinstance(verdict, Flow):
            self._below_seen = True
            r_est = verdict.energy / (1.0 + self.gamma ** 2)
            return Below(flow=verdict.flow, r_est=r_est)
        if self._below_seen and self.assert_invariants:
            raise InvariantViolation(
                "verdict regressed from Below to AboveThreshold")
        return AboveThreshold()


def incremental_maxflow(stream: UpdateStream,
                        **kwargs) -> Iterator[tuple[float, np.ndarray]]:
    """Published (value, flow) per event of a maxflow stream."""
    if stream.kind != "maxflow":
        raise ValueError(f"not a maxflow stream: {stream.kind}")
    driver = MaxflowDriver(stream.n, stream.m_max, stream.s, stream.t,
                           stream.eps, **kwargs)
    for spec in stream.initial_edges:
        driver.add_initial_edge(spec.u, spec.v, spec.capacity())
    yield driver.start()
    for spec in stream.events:
        yield driver.insert(spec.u, spec.v, spec.capacity())


def incremental_effres(stream: UpdateStream,
                       **kwargs) -> Iterator[AboveThreshold | Below]:
    """AboveThreshold | Below per event of an effres stream."""
    if stream.kind != "effres":
        raise ValueError(f"not an effres stream: {stream.kind}")
    driver = EffResDriver(stream.n, stream.m_max, stream.s, stream.t,
                          stream.threshold, stream.eps, **kwargs)
    for spec in stream.initial_edges:
        driver.add_initial_edge(spec.u, spec.v, spec.resistance())
    yield driver.start()
    for spec in stream.events:
        yield driver.insert(spec.u, spec.v, spec.resistance())
