"""Iterative refinement for thresholded smoothed p-norm flow.

The solver maintains a feasible flow f and, while its energy sits above the
threshold F by more than eps, repeatedly solves the residual problem around
f approximately with the multiplicative-weights solver. A completed inner
run yields a circulation whose scaled step provably contracts the gap
E(f) - F; a stalled inner run proves that no circulation could cut the gap
at all, which certifies that every feasible flow has energy above F.

Edge insertions are absorbed mid-run: the new edge joins the flow with zero
flow and joins the active inner run with residual attributes evaluated at
zero. Each event (the initial graph, then every insertion) produces exactly
one verdict: CertifiedAbove or Flow.

Inner runs are capped by a per-event step budget. A crossing of the
threshold can require more inner work than any desk-scale budget allows, so
on exhaustion the event is resolved by recomputing an optimal flow from the
current point (a materialization) and restarting refinement there; above
verdicts still come only from genuine stalls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import InvariantViolation
from .graph import PNormInstance, pnorm, residual_value
from .mwu import (
    MIN_EDGE_BOUND,
    MwuState,
    mwu_init,
    mwu_insert_edge,
    mwu_solution,
    mwu_step,
)
from .verify import static_pnorm_opt

DEFAULT_LAMBDA_FACTOR = 16
LAMBDA_DOUBLINGS = 40
SANDWICH_SAMPLES = 8
CONTRACT_RTOL = 1e-9
# Internal re-optimizations only feed verdicts whose margins are on the
# scale of eps; the energy error is quadratic in the gradient norm, so this
# looser target is safe and stays reachable at the large p the maxflow
# driver uses.
MATERIALIZE_TOL = 1e-8
MATERIALIZE_MAX_ITERATIONS = 2000


@dataclass
class ResidualProblem:
    """Local model of the energy change around a base flow.

    R_f(x) = <g, x> + ||R x||_2^2 + ||W x||_p^p with g the energy gradient
    at f, r_e = sqrt(r0_e^2 + 2 p^2 w0_e^p |f_e|^(p-2)) and w_e = p w0_e.
    For p = 2 the factor |f_e|^(p-2) is 1 everywhere, including f_e = 0.
    """

    g: np.ndarray
    r: np.ndarray
    w: np.ndarray
    p: int

    def value(self, x: np.ndarray) -> float:
        return residual_value(self, x)


def build_residual(instance: PNormInstance, f: np.ndarray) -> ResidualProblem:
    """The residual problem of the instance's energy around the flow f."""
    f = np.asarray(f, dtype=float)
    if f.shape != (instance.m,):
        raise ValueError(f"flow length {f.shape} does not match m={instance.m}")
    p = instance.p
    r0, w0 = instance.r, instance.w
    curve = np.ones_like(f) if p == 2 else np.abs(f) ** (p - 2)
    return ResidualProblem(
        g=instance.energy_gradient(f),
        r=np.sqrt(r0 ** 2 + 2.0 * p ** 2 * w0 ** p * curve),
        w=p * w0,
        p=p,
    )


def residual_edge_attrs(p: int, g0: float, r0: float,
                        w0: float) -> tuple[float, float, float]:
    """Residual attributes for an edge whose base flow is zero."""
    curve = 1.0 if p == 2 else 0.0
    return (float(g0),
            math.sqrt(r0 ** 2 + 2.0 * p ** 2 * w0 ** p * curve),
            p * w0)


def residual_scaled_weights(residual: ResidualProblem,
                            R: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights (2 sqrt(R) r, R^((p-1)/p) w) handed to the inner solver.

    With these weights, a circulation of residual value at most -R scales to
    unit negative gradient with both scaled norms at most 1.
    """
    if R <= 0:
        raise ValueError(f"residual threshold must be positive, got {R}")
    exponent = (residual.p - 1) / residual.p
    return 2.0 * math.sqrt(R) * residual.r, R ** exponent * residual.w


def sandwich_holds(instance: PNormInstance, f: np.ndarray, x: np.ndarray,
                   lam: float, rtol: float = CONTRACT_RTOL) -> bool:
    """Check both refinement inequalities at (f, x) for the scale lam:
    E(f+x) - E(f) <= R_f(x) and E(f + lam x) - E(f) >= lam R_f(x)."""
    base = instance.energy(f)
    rx = build_residual(instance, f).value(x)
    upper_lhs = instance.energy(f + x) - base
    lower_lhs = instance.energy(f + lam * x) - base
    upper_slack = rtol * (abs(upper_lhs) + abs(rx) + abs(base))
    lower_slack = rtol * (abs(lower_lhs) + lam * abs(rx) + abs(base))
    return (upper_lhs <= rx + upper_slack
            and lower_lhs >= lam * rx - lower_slack)


@dataclass
class CertifiedAbove:
    """Every feasible flow on the current graph has energy above F."""


@dataclass
class Flow:
    """A feasible flow meeting the threshold: energy <= F + eps."""

    flow: np.ndarray
    energy: float


Verdict = CertifiedAbove | Flow


class IncrementalPNormSolver:
    """Per-event threshold certification over an append-only instance.

    Call start() once for the initial graph, then insert_edge() per
    insertion; each call returns one verdict. While the demand is not
    routable every verdict is vacuously CertifiedAbove; the first routable
    event computes the starting flow with the static oracle and validates
    the refinement scale lambda on sampled sandwich triples.

    The solver owns the flow f and the active run's residual g, r, w, in
    columns of m_max entries that f and the residual problem view.
    """

    def __init__(self, instance: PNormInstance, m_max: int | None = None,
                 kappa: float = 1.0, backend: str = "exact",
                 seed: int | None = None,
                 step_budget_per_event: int | None = None,
                 lam: float | None = None, assert_invariants: bool = True,
                 start_flow: np.ndarray | None = None,
                 trace: Callable[[dict], None] | None = None):
        m_max = max(instance.m, MIN_EDGE_BOUND) if m_max is None else m_max
        if m_max < instance.m:
            raise ValueError("m_max is below the current edge count")
        self.instance = instance
        self.m_max = m_max
        self.p = instance.p
        self.F = instance.threshold
        self.eps = instance.eps
        self.kappa = float(kappa)
        self.backend = backend
        self.degenerate = m_max < MIN_EDGE_BOUND
        self.q = min(int(math.floor(math.log2(max(m_max, 2)))), self.p)
        # K is the norm bound the inner solver certifies (twice its own
        # weight constant); all step-size and budget formulas use it.
        self.K = 2.0 * 100 * self.q * self.kappa
        self.T = 100 * self.q * m_max
        self.lam = float(lam) if lam is not None else \
            float(DEFAULT_LAMBDA_FACTOR * self.p)
        self.step_budget = (2 * self.T if step_budget_per_event is None
                            else int(step_budget_per_event))
        self.assert_invariants = assert_invariants
        self.trace = trace
        self._rng = np.random.Generator(np.random.Philox(seed))
        # The flow column holds the warm start until the first bootstrap.
        self._flow = np.zeros(m_max)
        self._warm = start_flow is not None
        if self._warm:
            warm = np.asarray(start_flow, dtype=float)
            self._flow[:warm.size] = warm
        self._has_flow = False
        self._energy = math.inf
        self.mwu: MwuState | None = None
        self._residual_columns = np.zeros((3, m_max))
        self._residual: ResidualProblem | None = None
        self._run_R = 0.0
        self._steps_remaining = 0
        self._lambda_checked = False
        self._queries_base = 0
        self._iterations_base = 0
        self.events = 0
        self.refinement_steps = 0
        self.materializations = 0

    @property
    def f(self) -> np.ndarray | None:
        """The current flow; None until the first routable event."""
        return self._flow[:self.instance.m] if self._has_flow else None

    def _adopt_flow(self, flow: np.ndarray) -> None:
        # Zero past the current edges, so every later edge joins with zero
        # flow without writing its slot.
        self._flow[:flow.size] = flow
        self._flow[flow.size:] = 0.0
        self._has_flow = True
        self._energy = self.instance.energy(self.f)

    def _residual_view(self) -> ResidualProblem:
        g, r, w = self._residual_columns[:, :self.instance.m]
        return ResidualProblem(g=g, r=r, w=w, p=self.p)

    @property
    def queries(self) -> int:
        live = self.mwu.mrc.queries if self.mwu is not None else 0
        return self._queries_base + live

    @property
    def iterations(self) -> int:
        live = self.mwu.iteration if self.mwu is not None else 0
        return self._iterations_base + live

    def _next_seed(self) -> int:
        return int(self._rng.integers(0, 2 ** 63))

    def start(self) -> Verdict:
        """Verdict for the initial graph."""
        return self._verdict()

    def insert_edge(self, u: int, v: int, g: float, r: float,
                    w: float) -> Verdict:
        """Insert an edge and return the verdict for the grown graph."""
        if self.instance.m >= self.m_max:
            raise ValueError("edge bound m_max exceeded")
        e = self.instance.add_edge(u, v, g, r, w)
        if self.mwu is not None:
            g_res, r_res, w_res = residual_edge_attrs(self.p, g, r, w)
            self._residual_columns[:, e] = g_res, r_res, w_res
            self._residual = self._residual_view()
            r_s = 2.0 * math.sqrt(self._run_R) * r_res
            w_s = self._run_R ** ((self.p - 1) / self.p) * w_res
            mwu_insert_edge(self.mwu, e, g_res, r_s, w_s)
        return self._verdict()

    def _verdict(self) -> Verdict:
        self.events += 1
        verdict = self._compute_verdict()
        if self.trace is not None:
            kind = type(verdict).__name__
            self.trace({"kind": "verdict", "event": self.events,
                        "verdict": kind, "queries": self.queries,
                        "iterations": self.iterations})
        return verdict

    def _compute_verdict(self) -> Verdict:
        instance = self.instance
        if not instance.routable():
            return CertifiedAbove()
        if not self._has_flow:
            self._bootstrap()
        if self.degenerate:
            return self._materialized_verdict()

        budget = self.step_budget if self.step_budget > 0 else None
        used = 0
        materialized = False
        while True:
            self._energy = instance.energy(self.f)
            if self._energy <= self.F + self.eps:
                self._end_run()
                return Flow(flow=self.f.copy(), energy=self._energy)
            if self.mwu is None:
                self._start_run()
            while (self.mwu.iteration < self.T
                   and (budget is None or used < budget)):
                used += 1
                if mwu_step(self.mwu) is None:
                    return CertifiedAbove()
            if self.mwu.iteration >= self.T:
                solution = mwu_solution(self.mwu)
                self._flow[:instance.m] = refinement_step(
                    self, solution.circulation)
                self._end_run()
                continue
            if materialized:
                raise InvariantViolation(
                    "event failed to resolve after a materialization")
            self._materialize()
            materialized = True
            used = 0

    def _bootstrap(self) -> None:
        warm = self._flow[:self.instance.m] if self._warm else None
        report = static_pnorm_opt(self.instance, start_flow=warm,
                                  tol=MATERIALIZE_TOL,
                                  max_iterations=MATERIALIZE_MAX_ITERATIONS,
                                  seed=self._next_seed())
        self._adopt_flow(report.flow)
        if not self._lambda_checked:
            self._validate_lambda()
            self._lambda_checked = True
        self._rebaseline_budget()

    def _validate_lambda(self) -> None:
        """Check the sandwich inequalities on sampled triples, doubling
        lambda until they hold (they do at 16p; this is a safety net)."""
        m = self.instance.m
        if m == 0:
            return
        rng = np.random.Generator(np.random.Philox(self._next_seed()))
        # Keep w*(f + lam*x) well below 1 so the p-th powers cannot
        # overflow at the large exponents the maxflow reduction uses.
        w_max = float(np.max(self.instance.w)) if m else 1.0
        sigma = 1.0 / (self.p * (1.0 + w_max) * (1.0 + self.lam))
        triples = [(sigma * rng.normal(size=m), sigma * rng.normal(size=m))
                   for _ in range(SANDWICH_SAMPLES)]
        for _ in range(LAMBDA_DOUBLINGS):
            if all(sandwich_holds(self.instance, f, x, self.lam)
                   for f, x in triples):
                return
            self.lam *= 2.0
        raise InvariantViolation("no refinement scale passed the sandwich "
                                 "inequalities")

    def _rebaseline_budget(self) -> None:
        gap = self._energy - self.F
        if gap > self.eps:
            self._steps_remaining = math.ceil(
                6.0 * self.K ** 2 * self.lam * math.log(gap / self.eps)) + 1
        else:
            self._steps_remaining = 1

    def _start_run(self) -> None:
        built = build_residual(self.instance, self.f)
        self._residual_columns[:, :self.instance.m] = built.g, built.r, built.w
        self._residual = self._residual_view()
        self._run_R = (self._energy - self.F) / self.lam
        r_s, w_s = residual_scaled_weights(self._residual, self._run_R)
        self.mwu = mwu_init(self.instance.graph, self._residual.g, r_s, w_s,
                            self.p, kappa=self.kappa, m_max=self.m_max,
                            seed=self._next_seed(), backend=self.backend,
                            assert_invariants=self.assert_invariants,
                            trace=self.trace)

    def _end_run(self) -> None:
        if self.mwu is not None:
            self._queries_base += self.mwu.mrc.queries
            self._iterations_base += self.mwu.iteration
        self.mwu = None
        self._residual = None

    def _materialize(self) -> None:
        """Resolve a budget-exhausted event by re-optimizing from the
        current flow and restarting refinement at the optimum."""
        self._end_run()
        report = static_pnorm_opt(self.instance, start_flow=self.f,
                                  tol=MATERIALIZE_TOL,
                                  max_iterations=MATERIALIZE_MAX_ITERATIONS,
                                  seed=self._next_seed())
        self._adopt_flow(report.flow)
        self.materializations += 1
        self._rebaseline_budget()

    def _materialized_verdict(self) -> Verdict:
        """Tiny edge bounds (m_max < 4) degrade the inner solver to a
        permanently stalled one; every event is resolved by the oracle."""
        report = static_pnorm_opt(self.instance, start_flow=self.f,
                                  tol=MATERIALIZE_TOL,
                                  max_iterations=MATERIALIZE_MAX_ITERATIONS,
                                  seed=self._next_seed())
        self._adopt_flow(report.flow)
        if self._energy <= self.F + self.eps:
            return Flow(flow=self.f.copy(), energy=self._energy)
        return CertifiedAbove()


def refinement_step(solver: IncrementalPNormSolver,
                    c: np.ndarray) -> np.ndarray:
    """Apply the step f + (R / 2K^2) c and assert its guarantees.

    Requires the inner-solver output contract: <g, c> = -1 and both
    residual-scaled norms at most K. Asserts that the step's residual value
    is at most -R/(6K^2) and that the energy gap to F contracts by the
    factor (1 - 1/(6 K^2 lambda)).
    """
    residual = solver._residual
    if residual is None:
        raise ValueError("no active residual problem")
    c = np.asarray(c, dtype=float)
    gradient = float(residual.g @ c)
    if abs(gradient + 1.0) > 1e-6:
        raise ValueError(
            f"circulation must have unit negative gradient, got {gradient}")
    K, lam, R = solver.K, solver.lam, solver._run_R
    if solver.assert_invariants:
        r_s, w_s = residual_scaled_weights(residual, R)
        norm2 = float(np.linalg.norm(r_s * c))
        normp = pnorm(w_s * c, solver.p)
        if norm2 > K * (1 + CONTRACT_RTOL) or normp > K * (1 + CONTRACT_RTOL):
            raise InvariantViolation(
                "circulation violates the scaled-norm contract")
    step = (R / (2.0 * K ** 2)) * c
    if solver.assert_invariants:
        value = residual.value(step)
        bound = -R / (6.0 * K ** 2)
        if value > bound + CONTRACT_RTOL * (abs(value) + abs(bound)):
            raise InvariantViolation(
                f"step value {value} misses the guarantee {bound}")
    new_flow = solver.f + step
    new_energy = solver.instance.energy(new_flow)
    old_energy = solver._energy
    factor = 1.0 - 1.0 / (6.0 * K ** 2 * lam)
    if solver.assert_invariants:
        limit = factor * (old_energy - solver.F) + CONTRACT_RTOL * abs(old_energy)
        if new_energy - solver.F > limit:
            raise InvariantViolation(
                f"refinement step failed to contract: gap "
                f"{new_energy - solver.F} > {limit}")
    solver._steps_remaining -= 1
    if solver._steps_remaining < 0:
        raise InvariantViolation("refinement exceeded its step budget")
    solver.refinement_steps += 1
    solver._energy = new_energy
    return new_flow


def incremental_pnorm(
    instance: PNormInstance,
    events: Iterable[tuple[int, int, float, float, float]] = (),
    **kwargs,
) -> Iterator[Verdict]:
    """Yield one verdict for the initial graph and one per inserted edge.

    Events are (u, v, g, r, w) tuples appended to the instance in order.
    """
    solver = IncrementalPNormSolver(instance, **kwargs)
    yield solver.start()
    for u, v, g, r, w in events:
        yield solver.insert_edge(u, v, g, r, w)
