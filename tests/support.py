"""Proof tools the tests share: reference oracles and outside watchers.

Nothing in the package imports this module. It holds

  * brute_force_min_ratio_cycle, an exhaustive simple-cycle oracle;
  * update logs (UpdateLog, LogInsert, LogDelete) with the stability
    witness checker and the canonical witness for monotone logs;
  * LogRecorder, which builds an inner run's update log by watching its
    length estimates from outside;
  * run_to_end, a loop that drives an inner run until it completes or
    stalls with no insertion left;
  * the good-solution l1 bound that a probe circulation must meet;
  * finite_diff_check, a central-difference gradient check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from pnormflow.graph import smoothed_gradient, smoothed_value
from pnormflow.mrc import CycleSolution, MrcInstance, _solution_from_cycle
from pnormflow.mwu import (
    MwuState,
    Solution,
    mwu_insert_edge,
    mwu_solution,
    mwu_step,
)

BRUTE_FORCE_VERTEX_LIMIT = 16
BRUTE_FORCE_EDGE_LIMIT = 24


def brute_force_min_ratio_cycle(instance: MrcInstance) -> CycleSolution | None:
    """Minimum-ratio simple cycle by exhaustive enumeration.

    Each simple cycle is visited once, anchored at its smallest vertex with
    the smaller-id endpoint edge first; both orientations are scored. Returns
    None when the multigraph is acyclic. Only meant for small instances.
    """
    graph = instance.graph
    n, m = graph.n, graph.m
    if n > BRUTE_FORCE_VERTEX_LIMIT and m > BRUTE_FORCE_EDGE_LIMIT:
        raise ValueError(
            f"instance too large to enumerate (n={n}, m={m}; "
            f"need n <= {BRUTE_FORCE_VERTEX_LIMIT} or m <= {BRUTE_FORCE_EDGE_LIMIT})"
        )
    g, lengths = instance.gradients, instance.lengths
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(zip(graph.tails.tolist(), graph.heads.tolist())):
        adj[u].append((e, v, 1))
        adj[v].append((e, u, -1))

    best: CycleSolution | None = None
    edges_stack: list[int] = []
    signs_stack: list[int] = []
    used = np.zeros(m, dtype=bool)
    visited = np.zeros(n, dtype=bool)

    def extend(at: int, anchor: int, grad: float, length: float) -> None:
        nonlocal best
        for e, to, sign in adj[at]:
            if used[e]:
                continue
            if to == anchor:
                if edges_stack and edges_stack[0] > e:
                    continue
                total_grad = grad + sign * g[e]
                total_len = length + lengths[e]
                ratio = -abs(total_grad) / total_len
                if best is None or ratio < best.ratio:
                    edges = np.asarray(edges_stack + [e], dtype=np.int64)
                    signs = np.asarray(signs_stack + [sign], dtype=np.int64)
                    if total_grad > 0:
                        signs = -signs
                    best = _solution_from_cycle(edges, signs, g, lengths)
            elif not visited[to] and to > anchor:
                used[e] = True
                visited[to] = True
                edges_stack.append(e)
                signs_stack.append(sign)
                extend(to, anchor, grad + sign * g[e], length + lengths[e])
                edges_stack.pop()
                signs_stack.pop()
                visited[to] = False
                used[e] = False

    for anchor in range(n):
        visited[anchor] = True
        extend(anchor, anchor, 0.0, 0.0)
        visited[anchor] = False
    return best


# --- update logs and stability witnesses ---------------------------------------


@dataclass
class LogInsert:
    """Insertion of edge id `edge` with endpoints and attributes."""

    edge: int
    tail: int
    head: int
    gradient: float
    length: float


@dataclass
class LogDelete:
    edge: int


class UpdateLog:
    """Batches of edge insertions and deletions with stable edge ids.

    Stage t is the graph after batches[0..t]. A length increase is encoded
    as a deletion followed by a re-insertion of the same edge id within one
    batch, so untouched presence intervals are exactly the spans the width
    stability condition quantifies over.
    """

    def __init__(self, n: int):
        self.n = n
        self.batches: list[list[LogInsert | LogDelete]] = []

    def append_batch(self, ops: Iterable[LogInsert | LogDelete]) -> None:
        self.batches.append(list(ops))

    def replay(self):
        """Yields (present, touched) per stage; `present` maps edge id to its
        LogInsert and `touched` is the set of ids updated by the batch."""
        present: dict[int, LogInsert] = {}
        for index, batch in enumerate(self.batches):
            touched: set[int] = set()
            for op in batch:
                if isinstance(op, LogInsert):
                    if op.edge in present:
                        raise ValueError(
                            f"batch {index}: edge {op.edge} inserted twice")
                    if op.length <= 0:
                        raise ValueError(
                            f"batch {index}: nonpositive length on {op.edge}")
                    present[op.edge] = op
                elif isinstance(op, LogDelete):
                    if op.edge not in present:
                        raise ValueError(
                            f"batch {index}: edge {op.edge} deleted but absent")
                    del present[op.edge]
                else:
                    raise TypeError(f"unsupported log entry {op!r}")
                touched.add(op.edge)
            yield present, touched


def _support(c_star) -> dict[int, float]:
    if isinstance(c_star, Mapping):
        items = c_star.items()
    else:
        items = enumerate(np.asarray(c_star, dtype=float).tolist())
    return {int(e): float(c) for e, c in items if c != 0.0}


def check_stability_witness(log: UpdateLog, c_star,
                            widths: Sequence[Mapping[int, float]]) -> bool:
    """Verify the per-stage witness conditions for an update log.

    The hidden circulation at stage t is c_star when its whole support is
    present and zero otherwise. Checks, at every stage: (1) that hidden
    circulation balances at every vertex, (2) widths dominate |length *
    coefficient| on every present edge, (3) no width grows above twice its
    minimum over the edge's untouched presence interval, and (4) the total
    width never decreases. Width mappings may omit edges, which count as
    width zero; a key for an absent edge is an indexing error.
    """
    if len(widths) != len(log.batches):
        raise ValueError(
            f"got {len(widths)} width stages for {len(log.batches)} batches")
    supp = _support(c_star)
    scale = max([abs(c) for c in supp.values()], default=0.0)
    running_min: dict[int, float] = {}
    prev_total = 0.0
    for t, (present, touched) in enumerate(log.replay()):
        stage = widths[t]
        for e in stage:
            if e not in present:
                raise ValueError(f"stage {t}: width given for absent edge {e}")
        supported = all(e in present for e in supp)
        if supported and supp:
            net = np.zeros(log.n)
            for e, coef in supp.items():
                op = present[e]
                net[op.tail] -= coef
                net[op.head] += coef
            if float(np.max(np.abs(net))) > 1e-8 * (1.0 + scale):
                return False
        total = 0.0
        for e, op in present.items():
            w = float(stage.get(e, 0.0))
            if w < 0:
                return False
            total += w
            coef = supp.get(e, 0.0) if supported else 0.0
            if abs(op.length * coef) > w * (1 + 1e-9) + 1e-12:
                return False
            if e in touched or e not in running_min:
                running_min[e] = w
            else:
                if w > 2.0 * running_min[e] * (1 + 1e-9) + 1e-12:
                    return False
                running_min[e] = min(running_min[e], w)
        running_min = {e: running_min[e] for e in present}
        if total < prev_total * (1 - 1e-9) - 1e-12:
            return False
        prev_total = total
    return True


def canonical_stability_widths(log: UpdateLog, c_star
                               ) -> list[dict[int, float]]:
    """The witness that always works for monotone updates: on the support of
    c_star, each width is |current length * coefficient|; zero elsewhere."""
    supp = _support(c_star)
    stages = []
    for present, _ in log.replay():
        stages.append({e: abs(op.length * supp[e])
                       for e, op in present.items() if e in supp})
    return stages


# --- watching an inner run from outside ----------------------------------------


class LogRecorder:
    """The update log of an inner run, seen through its oracle's input.

    Make it right after mwu_init and call it with the state after every
    mwu_step and every mwu_insert_edge. The first batch inserts the
    initial edges at their starting estimates. Each call then appends one
    batch when something changed since the last call: an admitted edge
    becomes one insertion, and each raised length estimate becomes a
    deletion and re-insertion of its edge at the new estimate, in edge
    order. Calls that see no change append nothing.
    """

    def __init__(self, state: MwuState):
        self.log = UpdateLog(state.graph.n)
        self._m = state.m
        self._estimates = state.length_estimates.copy()
        self.log.append_batch(self._insert(state, e) for e in range(state.m))

    @staticmethod
    def _insert(state: MwuState, e: int) -> LogInsert:
        return LogInsert(edge=e, tail=int(state.graph.tails[e]),
                         head=int(state.graph.heads[e]),
                         gradient=float(state.gradients[e]),
                         length=float(state.length_estimates[e]))

    def __call__(self, state: MwuState) -> None:
        known = self._m
        estimates = state.length_estimates
        ops: list[LogInsert | LogDelete] = []
        for e in np.flatnonzero(estimates[:known] != self._estimates).tolist():
            ops += [LogDelete(edge=e), self._insert(state, e)]
        ops += [self._insert(state, e) for e in range(known, state.m)]
        if ops:
            self.log.append_batch(ops)
        self._m = state.m
        self._estimates = estimates.copy()


def run_to_end(state: MwuState,
               events: Iterable[tuple[int, int, float, float, float]] = (),
               after: Callable[[MwuState], None] | None = None
               ) -> Solution | None:
    """Step a run until it completes, admitting insertions while stalled.

    `events` yields (tail, head, g, r, w) tuples; at each stall the next
    one is added to the graph and admitted into the run. `after(state)`
    runs after every step and every admission. Returns the finished
    Solution, or None when the oracle stalls with no events left.
    """
    events = iter(events)
    while state.iteration < state.T:
        stalled = mwu_step(state) is None
        if after is not None:
            after(state)
        if stalled:
            event = next(events, None)
            if event is None:
                return None
            tail, head, g_e, r_e, w_e = event
            e = state.graph.add_edge(tail, head)
            mwu_insert_edge(state, e, g_e, r_e, w_e)
            if after is not None:
                after(state)
    return mwu_solution(state)


def good_solution_l1_bound(state: MwuState) -> float:
    """20 q K^(q-1): while a run has not stalled, a circulation with unit
    negative gradient and both scaled norms at most 1 has at most this
    l1 length under the run's current lengths."""
    return 20 * state.q * state.K ** (state.q - 1)


def probe_l1_length(state: MwuState, probe: np.ndarray) -> float:
    """l1 length of the probe circulation under the run's current lengths;
    the probe must lie on the admitted edges."""
    return float(state.lengths @ np.abs(probe))


def finite_diff_check(problem, f: np.ndarray, h: float = 1e-6) -> float:
    """Largest guarded relative error between the analytic gradient of the
    smoothed objective and central differences.

    `problem` is anything with g, r, w, p attributes (an instance or a
    residual problem).
    """
    f = np.asarray(f, dtype=float)
    g, r, w, p = problem.g, problem.r, problem.w, problem.p
    analytic = smoothed_gradient(g, r, w, p, f)
    worst = 0.0
    for e in range(f.size):
        bump = np.zeros_like(f)
        bump[e] = h
        upper = smoothed_value(g, r, w, p, f + bump)
        lower = smoothed_value(g, r, w, p, f - bump)
        numeric = (upper - lower) / (2.0 * h)
        err = abs(analytic[e] - numeric) / max(1.0, abs(analytic[e]))
        worst = max(worst, err)
    return worst
