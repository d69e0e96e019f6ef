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
one verdict: CertifiedAbove or Flow; a demand change answers it again.

The solver owns only the flow f. The residual problem is a pure function of
(instance, f), and f does not change during an inner run, so the solver
keeps no copy of it: the run holds the scaled r and w, its oracle holds g,
and an insertion or a refinement step rebuilds the residual from f.

Inner runs are capped by a per-event step budget, and the solver hands
each inner call the rounds left to it (the budget's rest, capped by the
run's T), so one call takes a run to its end or the budget to its last
round, unless it stalls. A crossing of the threshold can require more
inner work than any desk-scale budget allows, so on exhaustion the event
is resolved by recomputing an optimal flow from the current point (a
materialization) and restarting refinement there; above verdicts still
come only from genuine stalls. The solver's static solves run to Newton's
one tolerance (verify.NEWTON_TOL), far below the eps-scale margins of the
verdicts, and carry one Newton set-up (verify.NewtonSetup), which each
solve extends by the edges inserted since the last one instead of building
it afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvariantViolation
from .graph import (
    PNormInstance,
    _curvature,
    pnorm,
    smoothed_gradient,
    smoothed_value,
)
from .mrc import check_oracle_options
from .mwu import (
    MIN_EDGE_BOUND,
    MwuState,
    mwu_init,
    mwu_insert_edge,
    mwu_schedule,
    mwu_solution,
    mwu_step,
)
from .verify import NewtonSetup, static_pnorm_opt

DEFAULT_LAMBDA_FACTOR = 16
SANDWICH_SAMPLES = 8
CONTRACT_RTOL = 1e-9


@dataclass
class ResidualProblem:
    """Local model of the energy change around a base flow.

    R_f(x) = <g, x> + ||R x||_2^2 + ||W x||_p^p with g the energy gradient
    at f, r_e = sqrt(r0_e^2 + 2 p^2 w0_e^p |f_e|^(p-2)) and w_e = p w0_e.
    """

    g: np.ndarray
    r: np.ndarray
    w: np.ndarray
    p: int

    def value(self, x: np.ndarray) -> float:
        return smoothed_value(self.g, self.r, self.w, self.p, x)


def build_residual(instance: PNormInstance, f: np.ndarray,
                   edges: slice = slice(None)) -> ResidualProblem:
    """The residual problem of the instance's energy around the flow f,
    on the edges `edges` (all by default). A (k, m) stack f gives g and r
    as (k, m) stacks, one row per flow. The formulas are elementwise, so
    an edge's entries do not depend on which other edges are built."""
    f = np.asarray(f, dtype=float)
    if f.ndim > 2 or f.shape[-1:] != (instance.m,):
        raise ValueError(f"flow length {f.shape} does not match m={instance.m}")
    p, r0, w0 = instance.p, instance.r[edges], instance.w[edges]
    f = f[..., edges]
    curv = _curvature(w0, p, f)
    return ResidualProblem(
        g=smoothed_gradient(instance.g[edges], r0, w0, p, f, curv),
        r=np.sqrt(r0 ** 2 + 2.0 * p ** 2 * curv),
        w=p * w0,
        p=p,
    )


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
                   lam: float) -> bool:
    """Check both refinement inequalities at (f, x) for the scale lam:
    E(f+x) - E(f) <= R_f(x) and E(f + lam x) - E(f) >= lam R_f(x).

    f and x are flows or (k, m) stacks of them, checked row by row in one
    vectorized pass; True only if every row holds, each with its own slack
    of CONTRACT_RTOL relative to its terms.
    """
    f = np.atleast_2d(np.asarray(f, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if f.shape != x.shape:
        raise ValueError(f"flow stacks {f.shape} and {x.shape} differ")
    residual = build_residual(instance, f)
    points = np.concatenate((f, f + x, f + lam * x))
    if not np.all(np.isfinite(points)):
        raise ValueError("flow entries must be finite")
    base, plus_x, plus_lam_x = np.split(
        smoothed_value(instance.g, instance.r, instance.w, instance.p,
                       points), 3)
    rx = smoothed_value(residual.g, residual.r, residual.w, residual.p, x)
    upper_lhs = plus_x - base
    lower_lhs = plus_lam_x - base
    upper_slack = CONTRACT_RTOL * (abs(upper_lhs) + abs(rx) + abs(base))
    lower_slack = CONTRACT_RTOL * (abs(lower_lhs) + lam * abs(rx) + abs(base))
    return bool(np.all((upper_lhs <= rx + upper_slack)
                       & (lower_lhs >= lam * rx - lower_slack)))


@dataclass
class CertifiedAbove:
    """Every feasible flow on the current graph has energy above F."""


@dataclass
class Flow:
    """A feasible flow meeting the threshold: energy <= F + eps."""

    flow: np.ndarray
    energy: float


Verdict = CertifiedAbove | Flow


def check_step_budget(budget) -> int:
    """The per-event step budget as an int; raise ValueError unless it is
    an integer of at least 1 (a float such as 2.0 is accepted)."""
    # The remainder is nan for inf and nan, so both fail like 2.5 does.
    if not (budget >= 1 and budget % 1 == 0):
        raise ValueError(f"step_budget_per_event must be an integer of at "
                         f"least 1, got {budget}")
    return int(budget)


class IncrementalPNormSolver:
    """Per-event threshold certification over an append-only instance.

    Call start() once for the initial graph, then insert_edge() per
    insertion, or set_demand() to answer the current event again under a
    new demand; each call returns one verdict, and any other order raises
    ValueError. While the demand is not routable every verdict is
    vacuously CertifiedAbove; the first routable event computes the
    starting flow with the static oracle. The first adopted flow on at
    least one edge validates the refinement scale lambda on sampled
    sandwich triples. An event that runs out of its budget of inner rounds
    materializes and refines again on a fresh budget; running out twice
    raises InvariantViolation.

    The solver owns only the flow f, in a column of m_max entries that f
    views; the active inner run (`mwu`) holds the residual problem.
    `setup` carries Newton's set-up across all its static solves.
    `queries` counts inner rounds (oracle queries, however many one
    mwu_step call takes) and `iterations` the progress rounds among them,
    over all runs. An edge bound below 4 runs the same loop: its inner
    runs are scheduled on 4 slots, while insert_edge still enforces the
    caller's m_max.
    """

    def __init__(self, instance: PNormInstance, m_max: int | None = None,
                 kappa: float = 1.0, backend: str = "exact",
                 seed: int | None = None,
                 step_budget_per_event: int | None = None,
                 trace: Callable[[dict], None] | None = None):
        m_max = max(instance.m, MIN_EDGE_BOUND) if m_max is None else m_max
        if m_max < instance.m:
            raise ValueError("m_max is below the current edge count")
        check_oracle_options(kappa, backend)
        self.instance = instance
        self.m_max = m_max
        self.p = instance.p
        self.F = instance.threshold
        self.eps = instance.eps
        self.kappa = float(kappa)
        self.backend = backend
        self._slots = max(m_max, MIN_EDGE_BOUND)
        # K is the norm bound the inner solver certifies (twice its own
        # weight constant); all step-size and budget formulas use it.
        _, run_K, self.T = mwu_schedule(self._slots, self.p, self.kappa)
        self.K = 2.0 * run_K
        self.lam = float(DEFAULT_LAMBDA_FACTOR * self.p)
        self.step_budget = (2 * self.T if step_budget_per_event is None
                            else check_step_budget(step_budget_per_event))
        self.trace = trace
        self.setup = NewtonSetup(instance.graph)
        self._rng = np.random.Generator(np.random.Philox(seed))
        self._flow = np.zeros(m_max)
        self._has_flow = False
        self._lambda_checked = False
        self._energy = math.inf
        self.mwu: MwuState | None = None
        self._run_R = 0.0
        self._steps_remaining = 0
        self.started = False
        self.queries = 0
        self.iterations = 0
        self.events = 0
        self.refinement_steps = 0
        self.materializations = 0

    @property
    def f(self) -> np.ndarray | None:
        """The current flow; None until the first routable event."""
        return self._flow[:self.instance.m] if self._has_flow else None

    def _next_seed(self) -> int:
        return int(self._rng.integers(0, 2 ** 63))

    def start(self) -> Verdict:
        """Verdict for the initial graph."""
        if self.started:
            raise ValueError("start() may be called only once")
        self.started = True
        self.events += 1
        return self._verdict()

    def insert_edge(self, u: int, v: int, g: float, r: float,
                    w: float) -> Verdict:
        """Insert an edge and return the verdict for the grown graph."""
        if not self.started:
            raise ValueError("call start() before inserting events")
        if self.instance.m >= self.m_max:
            raise ValueError("edge bound m_max exceeded")
        e = self.instance.add_edge(u, v, g, r, w)
        if self.mwu is not None:
            # The edge joins the run's residual problem with zero flow.
            residual = build_residual(self.instance, self.f, slice(e, e + 1))
            r_s, w_s = residual_scaled_weights(residual, self._run_R)
            mwu_insert_edge(self.mwu, e, residual.g[0], r_s[0], w_s[0])
        if self._has_flow:
            # The new edge's zero flow adds no energy, but the longer sum
            # can round differently.
            self._energy = self.instance.energy(self.f)
        self.events += 1
        return self._verdict()

    def set_demand(self, d: np.ndarray, start_flow: np.ndarray) -> Verdict:
        """Replace the demand with d, materialize from start_flow, which
        must route d, and answer the current event again. A failed check
        raises ValueError and keeps the old demand."""
        if not self.started:
            raise ValueError("call start() before changing the demand")
        old = self.instance.d
        self.instance.set_demand(d)
        try:
            self._reoptimize(start_flow)
        except ValueError:
            self.instance.set_demand(old)
            raise
        return self._verdict()

    def _verdict(self) -> Verdict:
        verdict = self._compute_verdict()
        if self.trace is not None:
            kind = type(verdict).__name__
            self.trace({"kind": "verdict", "event": self.events,
                        "verdict": kind, "queries": self.queries,
                        "iterations": self.iterations})
        return verdict

    def _compute_verdict(self) -> Verdict:
        if not self.instance.routable():
            return CertifiedAbove()
        if not self._has_flow:
            self._reoptimize(None)
        verdict = self._refine()
        if verdict is None:
            # Materialize: refine again from the optimum, on a fresh budget.
            self._reoptimize(self.f)
            self.materializations += 1
            verdict = self._refine()
            if verdict is None:
                raise InvariantViolation(
                    "event failed to resolve after a materialization")
        return verdict

    def _refine(self) -> Verdict | None:
        """The verdict refined from the current flow on one event budget,
        or None if it runs out. A refinement step that takes the budget's
        last round starts no next run, since the materialization would
        discard it. self._energy holds E(f) throughout: a static solve, a
        refinement step and insert_edge each set it."""
        used = 0
        while True:
            if self._energy <= self.F + self.eps:
                self.mwu = None
                return Flow(flow=self.f.copy(), energy=self._energy)
            if used == self.step_budget:
                return None
            if self.mwu is None:
                self._start_run()
            begin = self.mwu.iteration
            cycle = mwu_step(self.mwu, min(self.step_budget - used,
                                           self.T - begin))
            rounds = self.mwu.iteration - begin
            used += rounds
            self.iterations += rounds
            self.queries += rounds
            if cycle is None:
                self.queries += 1
                return CertifiedAbove()
            if self.mwu.iteration < self.T:
                return None
            self._flow[:self.instance.m] = refinement_step(
                self, mwu_solution(self.mwu))
            self.mwu = None

    def _reoptimize(self, start_flow: np.ndarray | None) -> None:
        """End the active run and adopt an optimal flow computed by the
        static oracle from start_flow (tree routing when None); the
        refinement-step count restarts from the adopted flow's gap. The
        first adoption on at least one edge validates lambda, which no
        demand change affects."""
        self.mwu = None
        report = static_pnorm_opt(self.instance, start_flow=start_flow,
                                  setup=self.setup)
        # Zero past the current edges, so every later edge joins with zero
        # flow without writing its slot.
        self._flow[:report.flow.size] = report.flow
        self._flow[report.flow.size:] = 0.0
        self._has_flow = True
        # The report's value is the instance energy of its flow, finite.
        self._energy = report.value
        gap = self._energy - self.F
        self._steps_remaining = 1 if gap <= self.eps else math.ceil(
            6.0 * self.K ** 2 * self.lam * math.log(gap / self.eps)) + 1
        if not self._lambda_checked:
            self._validate_lambda()

    def _validate_lambda(self) -> None:
        """Check the sandwich inequalities on SANDWICH_SAMPLES sampled
        pairs (f, x) at lambda = 16p, where a lemma says they hold, in one
        batched sandwich_holds call; a failure raises. On no edges there is
        nothing to sample, and the check waits for the next adoption."""
        m = self.instance.m
        if m == 0:
            return
        rng = np.random.Generator(np.random.Philox(self._next_seed()))
        # Keep w*(f + lam*x) well below 1 so the p-th powers cannot
        # overflow at the large exponents the maxflow reduction uses.
        w_max = float(np.max(self.instance.w))
        sigma = 1.0 / (self.p * (1.0 + w_max) * (1.0 + self.lam))
        # Sample i draws f then x, as SANDWICH_SAMPLES separate draws would.
        pairs = sigma * rng.normal(size=(SANDWICH_SAMPLES, 2, m))
        if not sandwich_holds(self.instance, pairs[:, 0], pairs[:, 1],
                              self.lam):
            raise InvariantViolation(
                f"the sandwich inequalities fail at lambda = {self.lam}")
        self._lambda_checked = True

    def _start_run(self) -> None:
        """Start an inner run on the residual problem at f. On the exact
        backend, when the carried Newton set-up holds every edge, its
        forest's tree potentials of the gradient seed the oracle's
        potential: tree edges then have reduced costs alpha l, and an
        off-tree edge alpha l plus or minus its fundamental cycle's
        gradient sum, which is about zero at a Newton optimum."""
        residual = build_residual(self.instance, self.f)
        self._run_R = (self._energy - self.F) / self.lam
        r_s, w_s = residual_scaled_weights(residual, self._run_R)
        self.mwu = mwu_init(self.instance.graph, residual.g, r_s, w_s,
                            self.p, kappa=self.kappa, m_max=self._slots,
                            seed=self._next_seed(), backend=self.backend,
                            trace=self.trace)
        forest = (self.setup.current_forest() if self.backend == "exact"
                  else None)
        if forest is not None:
            self.mwu.mrc.potential = forest.prefix_sums(residual.g,
                                                        signed=True)


def refinement_step(solver: IncrementalPNormSolver,
                    c: np.ndarray) -> np.ndarray:
    """Apply the step f + (R / 2K^2) c and assert its guarantees.

    Requires the inner-solver output contract: <g, c> = -1 and both
    residual-scaled norms at most K. Asserts that the step's residual value
    is at most -R/(6K^2) and that the energy gap to F contracts by the
    factor (1 - 1/(6 K^2 lambda)).
    """
    if solver.mwu is None:
        raise ValueError("no active residual problem")
    residual = build_residual(solver.instance, solver.f)
    c = np.asarray(c, dtype=float)
    gradient = float(residual.g @ c)
    if abs(gradient + 1.0) > 1e-6:
        raise ValueError(
            f"circulation must have unit negative gradient, got {gradient}")
    K, lam, R = solver.K, solver.lam, solver._run_R
    r_s, w_s = residual_scaled_weights(residual, R)
    norm2 = float(np.linalg.norm(r_s * c))
    normp = pnorm(w_s * c, solver.p)
    if norm2 > K * (1 + CONTRACT_RTOL) or normp > K * (1 + CONTRACT_RTOL):
        raise InvariantViolation(
            "circulation violates the scaled-norm contract")
    step = (R / (2.0 * K ** 2)) * c
    value = residual.value(step)
    bound = -R / (6.0 * K ** 2)
    if value > bound + CONTRACT_RTOL * (abs(value) + abs(bound)):
        raise InvariantViolation(
            f"step value {value} misses the guarantee {bound}")
    new_flow = solver.f + step
    new_energy = solver.instance.energy(new_flow)
    old_energy = solver._energy
    factor = 1.0 - 1.0 / (6.0 * K ** 2 * lam)
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

