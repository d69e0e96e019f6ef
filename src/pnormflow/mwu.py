"""Incremental approximate residual solver.

Multiplicative weights over the monotone min-ratio oracle: each progress
step asks the oracle for a cycle of ratio at most -alpha/kappa, rescales it
to unit negative gradient, and folds a 1/T fraction into the running
circulation and the per-edge weights a and b. After T progress steps the
average satisfies <g, c> = -1 with the scaled 2-norm and p-norm both at most
2K. When the oracle stalls instead, no circulation with unit negative
gradient and both scaled norms at most 1 can exist on the current graph,
which is the certificate the refinement layer turns into a threshold
verdict; the solver then waits for the next edge insertion. The caller
owns the loop: mwu_step takes one round, mwu_insert_edge admits an edge,
and mwu_solution reads the average once T progress steps are done.

Potentials Phi = ||R a||_2^2 and Psi = ||W b||_q^q are padded with the
contribution K^2/m_max (resp. K^q/m_max) per not-yet-inserted edge slot, so
Phi starts at exactly K^2, Psi at exactly K^q, and insertions leave both
unchanged. Per-step increases are the same padded or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvariantViolation
from .graph import IncrementalGraph
from .mrc import (
    CycleSolution,
    IncreaseLength,
    InsertEdge,
    MonotoneMrcState,
    MrcInstance,
)

MIN_EDGE_BOUND = 4
POTENTIAL_RTOL = 1e-9


def mwu_schedule(m_max: int, p: int, kappa: float) -> tuple[int, float, int]:
    """The run's constants (q, K, T) for the edge bound m_max: the norm
    exponent q = min(floor(log2 m_max), p), the weight constant
    K = 100 q kappa and the progress-step count T = 100 q m_max. A bound
    below 2 (a solver too small for a run) counts as 2 in q."""
    q = min(int(math.floor(math.log2(max(m_max, 2)))), int(p))
    return q, 100 * q * float(kappa), 100 * q * m_max


@dataclass
class Solution:
    """Completed run: circulation with <g, c> = -1 and scaled norms <= 2K."""

    circulation: np.ndarray


class MwuState:
    """State of one multiplicative-weights run over a fixed residual problem.

    The run lives as long as one refinement step; edges inserted while the
    oracle is stalled join with freshly initialized weights. All constants
    are derived from the final edge bound m_max, which therefore must not be
    exceeded. The run keeps its weights, lengths and running circulation;
    its oracle (`mrc`) keeps the gradients and the length estimates. An
    admitted edge's estimate changes only by the monotone pushes made at
    the start of each step.
    """

    def __init__(self, graph: IncrementalGraph, g: np.ndarray, r: np.ndarray,
                 w: np.ndarray, p: int, kappa: float = 1.0,
                 m_max: int | None = None, seed: int | None = None,
                 backend: str = "exact", assert_invariants: bool = True,
                 trace: Callable[[dict], None] | None = None):
        m = graph.m
        m_max = m if m_max is None else m_max
        if m_max < m:
            raise ValueError("m_max is below the current edge count")
        if m_max < MIN_EDGE_BOUND:
            raise ValueError(
                f"the weight schedule needs m_max >= {MIN_EDGE_BOUND}")
        if p < 2 or p != int(p):
            raise ValueError("p must be an integer >= 2")
        g = np.asarray(g, dtype=float)
        r = np.asarray(r, dtype=float)
        w = np.asarray(w, dtype=float)
        if g.shape != (m,) or r.shape != (m,) or w.shape != (m,):
            raise ValueError("g, r, w must match the current edge count")
        if not (np.all(r > 0) and np.all(w > 0)):
            raise ValueError("r and w must be strictly positive")

        self.graph = graph
        self.p = int(p)
        self.kappa = float(kappa)
        self.q, self.K, self.T = mwu_schedule(m_max, p, kappa)
        self.alpha = self.K ** (1 - self.q) / (40 * self.q)
        self.m_max = m_max
        self.m = m
        self.iteration = 0
        self.assert_invariants = assert_invariants
        self.trace = trace

        self._r = np.zeros(m_max)
        self._w = np.zeros(m_max)
        self._a = np.zeros(m_max)
        self._b = np.zeros(m_max)
        self._ell = np.zeros(m_max)
        self._c = np.zeros(m_max)
        self._r[:m], self._w[:m] = r, w
        self._a[:m] = self.K * m_max ** -0.5 / r
        self._b[:m] = self.K * m_max ** (-1.0 / self.q) / w
        self._ell[:m] = self._edge_lengths(np.arange(m))

        pad = (m_max - m) / m_max
        self.phi = float(np.sum((r * self._a[:m]) ** 2)) + pad * self.K ** 2
        self.psi = (float(np.sum((w * self._b[:m]) ** self.q))
                    + pad * self.K ** self.q)

        # The oracle owns the gradients and the length estimates, which
        # start at the lengths.
        instance = MrcInstance(graph, g, self._ell[:m])
        self.mrc = MonotoneMrcState(instance, self.alpha, kappa=self.kappa,
                                    backend=backend, seed=seed,
                                    capacity=m_max)

    def _edge_lengths(self, edges: np.ndarray) -> np.ndarray:
        r, w = self._r[edges], self._w[edges]
        a, b = self._a[edges], self._b[edges]
        return (self.K ** (self.q - 2) * r ** 2 * a
                + w ** self.q * b ** (self.q - 1))

    @property
    def gradients(self) -> np.ndarray:
        return self.mrc.gradients

    @property
    def circulation(self) -> np.ndarray:
        return self._c[:self.m]

    @property
    def lengths(self) -> np.ndarray:
        return self._ell[:self.m]

    @property
    def length_estimates(self) -> np.ndarray:
        return self.mrc.lengths


def mwu_init(graph: IncrementalGraph, g: np.ndarray, r: np.ndarray,
             w: np.ndarray, p: int, kappa: float = 1.0,
             m_max: int | None = None, seed: int | None = None,
             backend: str = "exact", assert_invariants: bool = True,
             trace: Callable[[dict], None] | None = None) -> MwuState:
    """Start a run on the current graph; potentials begin at K^2 and K^q."""
    return MwuState(graph, g, r, w, p, kappa=kappa, m_max=m_max, seed=seed,
                    backend=backend, assert_invariants=assert_invariants,
                    trace=trace)


def mwu_insert_edge(state: MwuState, e: int, g_e: float, r_e: float,
                    w_e: float) -> None:
    """Admit edge e (already added to the graph) with fresh initial weights.

    The new edge's potential contributions equal the padding they replace,
    so Phi and Psi are unchanged.
    """
    if e != state.m:
        raise ValueError(
            f"edges must arrive in id order (got {e}, expected {state.m})")
    if e >= state.graph.m:
        raise ValueError(f"edge {e} is not present in the graph")
    if state.m >= state.m_max:
        raise ValueError("edge bound m_max exceeded")
    if not (r_e > 0 and w_e > 0):
        raise ValueError("r and w must be strictly positive")
    state._r[e] = r_e
    state._w[e] = w_e
    state._a[e] = state.K * state.m_max ** -0.5 / r_e
    state._b[e] = state.K * state.m_max ** (-1.0 / state.q) / w_e
    state.m += 1
    length = float(state._edge_lengths(np.asarray([e]))[0])
    state._ell[e] = length
    state.mrc.insert(InsertEdge(edge=e, gradient=g_e, length=length))


def _push_length_estimates(state: MwuState) -> int:
    """Recompute lengths and push doubled estimates for every edge whose
    length outgrew its estimate; returns the number of pushed edges."""
    m = state.m
    previous = state._ell[:m].copy()
    state._ell[:m] = state._edge_lengths(np.arange(m))
    if state.assert_invariants and np.any(
            state._ell[:m] < previous * (1 - 1e-12)):
        raise InvariantViolation("edge length decreased between iterations")
    stale = np.flatnonzero(state._ell[:m] > state.length_estimates)
    if stale.size == 0:
        return 0
    for e in stale.tolist():
        state.mrc.increase_length(
            IncreaseLength(edge=e, length=2.0 * float(state._ell[e])))
    if state.assert_invariants:
        ell = state._ell[:m]
        tilde = state.length_estimates
        if not (np.all(tilde >= ell * (1 - 1e-12)) and
                np.all(tilde <= 2 * ell * (1 + 1e-12))):
            raise InvariantViolation("length estimate left the [l, 2l] window")
    return int(stale.size)


def mwu_step(state: MwuState) -> CycleSolution | None:
    """One oracle round: None when stalled, otherwise the oracle's cycle,
    which the step applied scaled to unit negative gradient.

    A progress step asserts the potential increase bounds and the domination
    of the running circulation by a and b. With a trace, the step's
    `progress` or `stall` record says in `solved` whether the oracle solved
    or answered from its memo.
    """
    if state.iteration >= state.T:
        raise ValueError("the run is complete; no steps remain")
    pushes = _push_length_estimates(state)
    solves = state.mrc.solves
    cycle = state.mrc.query()
    solved = state.mrc.solves > solves
    if cycle is None:
        if state.trace is not None:
            state.trace({"kind": "stall", "iteration": state.iteration,
                         "phi": state.phi, "psi": state.psi,
                         "pushes": pushes, "solved": solved})
        return None

    if cycle.gradient >= 0:
        raise InvariantViolation(
            "oracle returned a nonnegative-gradient cycle")
    if state.assert_invariants:
        bound = state.kappa / state.alpha
        if cycle.length / -cycle.gradient > bound * (1 + POTENTIAL_RTOL):
            raise InvariantViolation(
                "scaled cycle exceeds the l1-length bound kappa/alpha")

    scale = -1.0 / cycle.gradient
    edges = cycle.edges
    signed = cycle.signs.astype(float) * scale
    step = np.abs(signed) / state.T

    q, T = state.q, state.T
    r_e, w_e = state._r[edges], state._w[edges]
    a_old, b_old = state._a[edges], state._b[edges]
    dphi = float(np.sum(r_e ** 2 * ((a_old + step) ** 2 - a_old ** 2)))
    dpsi = float(np.sum(w_e ** q * ((b_old + step) ** q - b_old ** q)))
    np.add.at(state._c, edges, signed / T)
    np.add.at(state._a, edges, step)
    np.add.at(state._b, edges, step)
    state.phi += dphi
    state.psi += dpsi
    state.iteration += 1

    if state.assert_invariants:
        K = state.K
        if dphi > 3 * K ** 2 / T * (1 + POTENTIAL_RTOL):
            raise InvariantViolation(
                f"potential increase {dphi} exceeds 3K^2/T")
        if dpsi > 4 * q * K ** q / T * (1 + POTENTIAL_RTOL):
            raise InvariantViolation(
                f"potential increase {dpsi} exceeds 4qK^q/T")
        m = state.m
        slack = 1e-12 * (1.0 + np.abs(state._c[:m]))
        if (np.any(state._a[:m] < np.abs(state._c[:m]) - slack) or
                np.any(state._b[:m] < np.abs(state._c[:m]) - slack)):
            raise InvariantViolation("weights no longer dominate |c|")

    if state.trace is not None:
        state.trace({"kind": "progress", "iteration": state.iteration,
                     "phi": state.phi, "psi": state.psi,
                     "ratio": cycle.ratio, "pushes": pushes,
                     "solved": solved})
    return cycle


def mwu_solution(state: MwuState) -> Solution:
    """The averaged circulation after T progress steps, contract-checked."""
    if state.iteration != state.T:
        raise ValueError("the run has not completed T progress steps")
    m = state.m
    c = state._c[:m].copy()
    if state.assert_invariants:
        K, q = state.K, state.q
        if state.phi > 4 * K ** 2 * (1 + POTENTIAL_RTOL):
            raise InvariantViolation("final potential exceeds 4K^2")
        if state.psi > 5 * q * K ** q * (1 + POTENTIAL_RTOL):
            raise InvariantViolation("final potential exceeds 5qK^q")
        gradient = float(state.gradients @ c)
        if abs(gradient + 1.0) > POTENTIAL_RTOL:
            raise InvariantViolation(f"<g, c> = {gradient}, expected -1")
        norm2 = float(np.linalg.norm(state._r[:m] * c))
        normp = float(np.sum(np.abs(state._w[:m] * c) ** state.p)
                      ** (1.0 / state.p))
        if norm2 > 2 * K * (1 + POTENTIAL_RTOL):
            raise InvariantViolation(f"||Rc||_2 = {norm2} exceeds 2K")
        if normp > 2 * K * (1 + POTENTIAL_RTOL):
            raise InvariantViolation(f"||Wc||_p = {normp} exceeds 2K")
    return Solution(circulation=c)
