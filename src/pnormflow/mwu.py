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
owns the loop: mwu_step(state, limit) takes up to `limit` rounds (stopping
early at T or at a stall), mwu_insert_edge admits an edge, and
mwu_solution reads the average once T progress steps are done.

Potentials Phi = ||R a||_2^2 and Psi = ||W b||_q^q are padded with the
contribution K^2/m_max (resp. K^q/m_max) per not-yet-inserted edge slot, so
Phi starts at exactly K^2, Psi at exactly K^q, and insertions leave both
unchanged. Per-step increases are the same padded or not.

Lengths only grow, so the oracle answers from its memo, with the same
CycleSolution object, until an estimate is pushed or an edge inserted; most
rounds apply the previous round's cycle again. So each cycle is taken a
segment at a time: one vectorized pass builds the next J repetitions of
its step (16 at first, doubled while the oracle returns the same cycle,
capped by the rounds the call has left and a memory bound) and takes
them. The rows come from np.add.accumulate over [start; inc; inc; ...],
which adds in the order of J in-place `+=` steps, and each row's potential
increase sums the same per-edge terms in the same order as a single step
would, so every row is bit-identical to the round it stands for. The rows
stop at the first round after which some cycle edge outgrows its
estimate, since that push ends the memo. The potentials add each row's
increases, and each round is checked and traced, in turn; a, b and c are
written once, for the last row. Its lengths and stale edges wait for the
next round, which writes and pushes them in edge order, so between calls
the lengths trail a and b by one round, as after single rounds. Between
calls the run keeps only that pending round and the last cycle with its
segment's row count.

Only mwu_step and mwu_insert_edge write the weight columns, and an inserted
edge is never on the current cycle. So a round changes a, b, c and the
lengths of its cycle's edges alone, and every other edge still meets the
length, window and domination checks it met at the previous round; the
checks therefore run on the cycle's edges only, at every round.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import InvariantViolation
from .graph import IncrementalGraph, pnorm
from .mrc import CycleSolution, MonotoneMrcState

# The weight schedule needs at least 4 slots; a solver with a smaller edge
# bound runs the same loop on 4 slots, the unfilled ones padded.
MIN_EDGE_BOUND = 4
POTENTIAL_RTOL = 1e-9
# Rows of the first segment built for a cycle; each further segment for the
# same cycle doubles it, up to the rounds the call has left and to at most
# MAX_SEGMENT_CELLS rows times cycle edges, which keeps a long-lived cycle
# on a large graph at a few MB.
FIRST_SEGMENT_ROWS = 16
MAX_SEGMENT_CELLS = 1 << 16


def mwu_schedule(m_max: int, p: int, kappa: float) -> tuple[int, float, int]:
    """The run's constants (q, K, T) for the edge bound m_max: the norm
    exponent q = min(floor(log2 m_max), p), the weight constant
    K = 100 q kappa and the progress-step count T = 100 q m_max; m_max is
    at least MIN_EDGE_BOUND."""
    q = min(int(math.floor(math.log2(m_max))), int(p))
    return q, 100 * q * float(kappa), 100 * q * m_max


def _edge_lengths(K: float, q: int, r: np.ndarray, w: np.ndarray,
                  a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Edge lengths K^(q-2) r^2 a + w^q b^(q-1), elementwise."""
    return K ** (q - 2) * r ** 2 * a + w ** q * b ** (q - 1)


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
                 backend: str = "exact",
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
        self.trace = trace

        self._r = np.zeros(m_max)
        self._w = np.zeros(m_max)
        self._a = np.zeros(m_max)
        self._b = np.zeros(m_max)
        self._ell = np.zeros(m_max)
        self._c = np.zeros(m_max)
        self._r[:m], self._w[:m] = r, w
        self._admit(slice(0, m))
        # The last cycle with its segment's row count; the last round's
        # lengths, decrease flag and stale edges wait for the next push.
        self._cycle: CycleSolution | None = None
        self._rows = 0
        self._pending_ell: np.ndarray | None = None
        self._pending_decreased = False
        self._pending_push = np.empty(0, dtype=np.int64)

        pad = (m_max - m) / m_max
        self.phi = float(np.sum((r * self._a[:m]) ** 2)) + pad * self.K ** 2
        self.psi = (float(np.sum((w * self._b[:m]) ** self.q))
                    + pad * self.K ** self.q)

        # The oracle owns the gradients and the length estimates, which
        # start at the lengths.
        self.mrc = MonotoneMrcState(graph, g, self._ell[:m], self.alpha,
                                    kappa=self.kappa, backend=backend,
                                    seed=seed)

    def _admit(self, edges: slice) -> None:
        """Initial a, b and length of the edges `edges`, from their r and w."""
        r, w = self._r[edges], self._w[edges]
        a = self._a[edges] = self.K * self.m_max ** -0.5 / r
        b = self._b[edges] = self.K * self.m_max ** (-1.0 / self.q) / w
        self._ell[edges] = _edge_lengths(self.K, self.q, r, w, a, b)

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
             backend: str = "exact",
             trace: Callable[[dict], None] | None = None) -> MwuState:
    """Start a run on the current graph; potentials begin at K^2 and K^q."""
    return MwuState(graph, g, r, w, p, kappa=kappa, m_max=m_max, seed=seed,
                    backend=backend, trace=trace)


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
    state._admit(slice(e, e + 1))
    state.m += 1
    state.mrc.insert(e, g_e, float(state._ell[e]))


def _push_length_estimates(state: MwuState) -> int:
    """Write the pending lengths of the last round's cycle edges and push
    doubled estimates, in edge order, for those that outgrew their
    estimate; returns the number of pushed edges."""
    ell = state._pending_ell
    if ell is None:
        return 0
    state._pending_ell = None
    edges = state._cycle.edges
    state._ell[edges] = ell
    if state._pending_decreased:
        raise InvariantViolation("edge length decreased between iterations")
    if state._pending_push.size == 0:
        return 0
    for e in state._pending_push.tolist():
        state.mrc.increase_length(e, 2.0 * float(state._ell[e]))
    tilde = state.length_estimates[edges]
    if not (np.all(tilde >= ell * (1 - 1e-12)) and
            np.all(tilde <= 2 * ell * (1 + 1e-12))):
        raise InvariantViolation("length estimate left the [l, 2l] window")
    return int(state._pending_push.size)


def _repeat_add(start: np.ndarray, inc: np.ndarray, n: int) -> np.ndarray:
    """Rows start, start + inc, (start + inc) + inc, ... (n + 1 of them),
    added in the order n in-place `+= inc` steps add."""
    rows = np.empty((n + 1, start.size))
    rows[0] = start
    rows[1:] = inc
    return np.add.accumulate(rows, axis=0)


def mwu_step(state: MwuState, limit: int = 1) -> CycleSolution | None:
    """Up to `limit` oracle rounds, fewer when the run reaches T: None
    when a round stalled, otherwise the last cycle applied, each round
    scaled to unit negative gradient.

    Each progress round asserts the potential increase bounds and the
    domination of the running circulation by a and b. With a trace, every
    round writes its `progress` or `stall` record, which says in `solved`
    whether the oracle solved or answered from its memo; a stall record
    says in `certified` whether the oracle's potential proved it.
    """
    if state.iteration >= state.T:
        raise ValueError("the run is complete; no steps remain")
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    end = min(state.T, state.iteration + limit)
    while True:
        pushes = _push_length_estimates(state)
        solves, certified = state.mrc.solves, state.mrc.certified
        cycle = state.mrc.query()
        solved = state.mrc.solves > solves
        if cycle is None:
            if state.trace is not None:
                state.trace({"kind": "stall", "iteration": state.iteration,
                             "phi": state.phi, "psi": state.psi,
                             "pushes": pushes, "solved": solved,
                             "certified": state.mrc.certified > certified})
            return None

        if cycle.gradient >= 0:
            raise InvariantViolation(
                "oracle returned a nonnegative-gradient cycle")
        bound = state.kappa / state.alpha
        if cycle.length / -cycle.gradient > bound * (1 + POTENTIAL_RTOL):
            raise InvariantViolation(
                "scaled cycle exceeds the l1-length bound kappa/alpha")
        if np.unique(cycle.edges).size != cycle.edges.size:
            raise InvariantViolation("oracle returned a cycle that repeats "
                                     "an edge")

        # The last cycle's rows were all taken: calls end with a cycle's
        # last row, and rounds stop before it only at a failed check.
        rows = (2 * state._rows if cycle is state._cycle
                else FIRST_SEGMENT_ROWS)
        rows = min(rows, end - state.iteration,
                   max(1, MAX_SEGMENT_CELLS // cycle.edges.size))
        state._cycle, state._rows = cycle, rows
        _take_rows(state, cycle, rows, pushes, solved)
        if state.iteration == end:
            return cycle


def _take_rows(state: MwuState, cycle: CycleSolution, rows: int,
               pushes: int, solved: bool) -> None:
    """Build the next `rows` repetitions of the cycle's step in one
    vectorized pass, cut after the first that outgrows an estimate, and
    take them, one round each, with one write of a, b and c. The
    potentials add each round's increases in turn, and each round is
    checked and traced as it is taken; a failed check raises with the
    failing round written, and a decreased length stops the rounds for
    the next push to raise."""
    K, q, T = state.K, state.q, state.T
    edges = cycle.edges
    signed = cycle.signs.astype(float) * (-1.0 / cycle.gradient)
    step = np.abs(signed) / T
    r_e, w_e = state._r[edges], state._w[edges]
    # Row 0 of a, b, c and ell is the state before the first round.
    a = _repeat_add(state._a[edges], step, rows)
    b = _repeat_add(state._b[edges], step, rows)
    c = _repeat_add(state._c[edges], signed / T, rows)
    a2, bq = a ** 2, b ** q
    dphis = np.sum(r_e ** 2 * (a2[1:] - a2[:-1]), axis=1).tolist()
    dpsis = np.sum(w_e ** q * (bq[1:] - bq[:-1]), axis=1).tolist()
    ell = np.empty((rows + 1, edges.size))
    ell[0] = state._ell[edges]
    ell[1:] = _edge_lengths(K, q, r_e, w_e, a[1:], b[1:])
    decreased = np.any(ell[1:] < ell[:-1] * (1 - 1e-12), axis=1).tolist()
    stale = ell[1:] > state.length_estimates[edges]
    stale_rows = np.flatnonzero(np.any(stale, axis=1))
    cut = int(stale_rows[0]) + 1 if stale_rows.size else rows
    abs_c = np.abs(c[1:cut + 1])
    floor = abs_c - 1e-12 * (1.0 + abs_c)
    undominated = np.any((a[1:cut + 1] < floor) | (b[1:cut + 1] < floor),
                         axis=1).tolist()

    phi_cap = 3 * K ** 2 / T * (1 + POTENTIAL_RTOL)
    psi_cap = 4 * q * K ** q / T * (1 + POTENTIAL_RTOL)
    phi, psi = state.phi, state.psi
    trace, ratio = state.trace, cycle.ratio
    failure = None
    for i in range(cut):
        dphi, dpsi = dphis[i], dpsis[i]
        phi += dphi
        psi += dpsi
        if dphi > phi_cap:
            failure = f"potential increase {dphi} exceeds 3K^2/T"
        elif dpsi > psi_cap:
            failure = f"potential increase {dpsi} exceeds 4qK^q/T"
        elif undominated[i]:
            failure = "weights no longer dominate |c|"
        if failure is not None:
            break
        if trace is not None:
            trace({"kind": "progress",
                   "iteration": state.iteration + i + 1,
                   "phi": phi, "psi": psi, "ratio": ratio,
                   "pushes": pushes if i == 0 else 0,
                   "solved": solved and i == 0})
        if decreased[i]:
            break
    stop = i + 1
    # The lengths the pushes of the rounds after the first wrote; the
    # last round's stay pending, with the edges it makes stale (none
    # unless it is the cut row).
    state._ell[edges] = ell[stop - 1]
    state._a[edges] = a[stop]
    state._b[edges] = b[stop]
    state._c[edges] = c[stop]
    state.phi, state.psi = phi, psi
    state.iteration += stop
    state._pending_ell = ell[stop]
    state._pending_decreased = decreased[stop - 1]
    state._pending_push = np.sort(edges[stale[stop - 1]])
    if failure is not None:
        raise InvariantViolation(failure)


def mwu_solution(state: MwuState) -> np.ndarray:
    """The averaged circulation after T progress steps, contract-checked:
    <g, c> = -1 and both scaled norms at most 2K."""
    if state.iteration != state.T:
        raise ValueError("the run has not completed T progress steps")
    m = state.m
    c = state._c[:m].copy()
    K, q = state.K, state.q
    if state.phi > 4 * K ** 2 * (1 + POTENTIAL_RTOL):
        raise InvariantViolation("final potential exceeds 4K^2")
    if state.psi > 5 * q * K ** q * (1 + POTENTIAL_RTOL):
        raise InvariantViolation("final potential exceeds 5qK^q")
    gradient = float(state.gradients @ c)
    if abs(gradient + 1.0) > POTENTIAL_RTOL:
        raise InvariantViolation(f"<g, c> = {gradient}, expected -1")
    norm2 = float(np.linalg.norm(state._r[:m] * c))
    normp = pnorm(state._w[:m] * c, state.p)
    if norm2 > 2 * K * (1 + POTENTIAL_RTOL):
        raise InvariantViolation(f"||Rc||_2 = {norm2} exceeds 2K")
    if normp > 2 * K * (1 + POTENTIAL_RTOL):
        raise InvariantViolation(f"||Wc||_p = {normp} exceeds 2K")
    return c
