"""Proof tools the tests share: reference oracles and outside watchers.

Nothing in the package imports this module. It holds

  * brute_force_min_ratio_cycle, an exhaustive simple-cycle oracle,
    full_negative_cycle, Bellman-Ford run for all n rounds before it
    looks for a cycle, and exact_min_ratio_cycle, a parametric search
    over it;
  * is_circulation, the zero-demand check with a scale-aware tolerance;
  * update logs (UpdateLog, LogInsert, LogDelete) with the stability
    witness checker and the canonical witness for monotone logs;
  * LogRecorder, which builds an inner run's update log by watching its
    length estimates from outside;
  * run_to_end, a loop that drives an inner run until it completes or
    stalls with no insertion left;
  * the good-solution l1 bound that a probe circulation must meet;
  * finite_diff_check, a central-difference gradient check;
  * reference_step, the inner step computed from scratch over all edges,
    which mwu_step must match bit for bit;
  * reference_forest, Kruskal and the orienting traversal on numpy arrays
    over the whole edge order, which SpanningForest must match exactly;
  * reference_cycle, one fundamental cycle walked edge by edge, which each
    cycle of SpanningForest.fundamental_cycle must match in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

import pnormflow.mwu as mwu_module
from pnormflow.errors import InvariantViolation, OracleError
from pnormflow.graph import (
    IncrementalGraph,
    _curvature,
    net_demand,
    smoothed_gradient,
    smoothed_value,
)
from pnormflow.mrc import CycleSolution, _solution_from_cycle
from pnormflow.mwu import MwuState, mwu_insert_edge, mwu_solution, mwu_step
from pnormflow.trees import SpanningForest

BRUTE_FORCE_VERTEX_LIMIT = 16
BRUTE_FORCE_EDGE_LIMIT = 24
# A vector c is a circulation when ||net_demand(c)||_inf <= this * (1 + ||c||_inf).
CIRCULATION_RTOL = 1e-8


def is_circulation(graph: IncrementalGraph, c: np.ndarray) -> bool:
    """True iff c routes the zero demand, within scale-aware tolerance."""
    c = np.asarray(c, dtype=float)
    imbalance = net_demand(graph, c)
    scale = 1.0 + (float(np.max(np.abs(c))) if c.size else 0.0)
    return float(np.max(np.abs(imbalance))) <= CIRCULATION_RTOL * scale


def brute_force_min_ratio_cycle(graph: IncrementalGraph, g: np.ndarray,
                                lengths: np.ndarray) -> CycleSolution | None:
    """Minimum-ratio simple cycle by exhaustive enumeration.

    Each simple cycle is visited once, anchored at its smallest vertex with
    the smaller-id endpoint edge first; both orientations are scored. Returns
    None when the multigraph is acyclic. Only meant for small instances.
    """
    n, m = graph.n, graph.m
    if n > BRUTE_FORCE_VERTEX_LIMIT and m > BRUTE_FORCE_EDGE_LIMIT:
        raise ValueError(
            f"instance too large to enumerate (n={n}, m={m}; "
            f"need n <= {BRUTE_FORCE_VERTEX_LIMIT} or m <= {BRUTE_FORCE_EDGE_LIMIT})"
        )
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


def _cancel_opposing(edges: np.ndarray, signs: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Drop edges traversed once in each direction."""
    coef: dict[int, int] = {}
    for e, s in zip(edges.tolist(), signs.tolist()):
        coef[e] = coef.get(e, 0) + s
    kept = [(e, s) for e, s in coef.items() if s != 0]
    if len(kept) == len(edges):
        return edges, signs
    out_edges = np.asarray([e for e, _ in kept], dtype=np.int64)
    out_signs = np.asarray([s for _, s in kept], dtype=np.int64)
    return out_edges, out_signs


def full_negative_cycle(n: int, tails: np.ndarray, heads: np.ndarray,
                        forward_cost: np.ndarray, backward_cost: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray] | None:
    """A strictly negative cycle in the bidirected arc graph, or None:
    Bellman-Ford from a virtual source with simultaneous relaxation, run
    for all n rounds, then a walk of n parent steps from a vertex the last
    round improved, which ends on a parent cycle. Returns (edge ids,
    orientation signs)."""
    m = tails.size
    if m == 0 or n == 0:
        return None
    arc_tail = np.concatenate((tails, heads))
    arc_head = np.concatenate((heads, tails))
    cost = np.concatenate((forward_cost, backward_cost))
    dist = np.zeros(n)
    parent = np.full(n, -1, dtype=np.int64)
    improved = np.empty(0, dtype=np.int64)
    for _ in range(n):
        cand = dist[arc_tail] + cost
        new = dist.copy()
        np.minimum.at(new, arc_head, cand)
        improved = np.flatnonzero(new < dist)
        if improved.size == 0:
            return None
        winners = np.flatnonzero((cand == new[arc_head]) &
                                 (new[arc_head] < dist[arc_head]))
        parent[arc_head[winners]] = winners
        dist = new

    v = int(improved[0])
    for _ in range(n):
        v = int(arc_tail[parent[v]])
    seen: dict[int, int] = {}
    arcs: list[int] = []
    u = v
    while u not in seen:
        seen[u] = len(arcs)
        a = int(parent[u])
        arcs.append(a)
        u = int(arc_tail[a])
    cycle_arcs = np.asarray(arcs[seen[u]:], dtype=np.int64)
    edges = np.where(cycle_arcs < m, cycle_arcs, cycle_arcs - m)
    signs = np.where(cycle_arcs < m, 1, -1).astype(np.int64)
    return edges, signs


def exact_min_ratio_cycle(graph: IncrementalGraph, g: np.ndarray,
                          lengths: np.ndarray, tol: float = 1e-9
                          ) -> CycleSolution | None:
    """Minimum-ratio cycle to additive tolerance via parametric search.

    Bisects the shift mu over [-(m * max|g| / min(l) + 1), 0]: a negative
    cycle under arc costs g - mu*l exists exactly when some cycle has ratio
    below mu. Returns None when the multigraph is acyclic; when no cycle has
    negative gradient at all, every cycle gradient is zero and any
    fundamental cycle attains the minimum ratio 0.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    g = np.asarray(g, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    n, m = graph.n, graph.m
    tails, heads = graph.tails, graph.heads
    forest = SpanningForest(n, tails, heads, range(m))
    off_tree = np.flatnonzero(~forest.tree_edge_mask(m))
    if off_tree.size == 0:
        return None

    found = full_negative_cycle(n, tails, heads, g, -g)
    if found is None:
        edges, signs = reference_cycle(forest, int(off_tree[0]), tails,
                                       heads)
        return _solution_from_cycle(edges, signs, g, lengths)

    lo = -(m * float(np.max(np.abs(g))) / float(np.min(lengths)) + 1.0)
    hi = 0.0
    best = found
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        probe = full_negative_cycle(n, tails, heads, g - mid * lengths,
                                    -g - mid * lengths)
        if probe is None:
            lo = mid
        else:
            hi = mid
            best = probe
    edges, signs = _cancel_opposing(*best)
    solution = _solution_from_cycle(edges, signs, g, lengths)
    if solution.ratio > 0:
        raise OracleError("parametric search extracted a non-negative cycle")
    return solution


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
               ) -> np.ndarray | None:
    """Step a run until it completes, admitting insertions while stalled.

    `events` yields (tail, head, g, r, w) tuples; at each stall the next
    one is added to the graph and admitted into the run. `after(state)`
    runs after every step and every admission. Returns the finished run's
    circulation, or None when the oracle stalls with no events left.
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
    residual problem). The objective is a sum of per-edge terms, so each
    edge differences its own term: differencing the whole objective would
    add every other edge's roundoff, about eps * |E| / h.
    """
    f = np.asarray(f, dtype=float)
    g, r, w, p = problem.g, problem.r, problem.w, problem.p
    analytic = smoothed_gradient(g, r, w, p, f, _curvature(w, p, f))
    worst = 0.0
    for e in range(f.size):
        term = slice(e, e + 1)
        upper = smoothed_value(g[term], r[term], w[term], p, f[term] + h)
        lower = smoothed_value(g[term], r[term], w[term], p, f[term] - h)
        numeric = (upper - lower) / (2.0 * h)
        err = abs(analytic[e] - numeric) / max(1.0, abs(analytic[e]))
        worst = max(worst, err)
    return worst


# --- the inner step from scratch -------------------------------------------


def _reference_push(state: MwuState) -> int:
    """Recompute every length and push doubled estimates for every edge
    whose length outgrew its estimate; returns the number of pushed edges."""
    m = state.m
    previous = state._ell[:m].copy()
    r, w = state._r[:m], state._w[:m]
    a, b = state._a[:m], state._b[:m]
    q = state.q
    state._ell[:m] = state.K ** (q - 2) * r ** 2 * a + w ** q * b ** (q - 1)
    if np.any(state._ell[:m] < previous * (1 - 1e-12)):
        raise InvariantViolation("edge length decreased between iterations")
    stale = np.flatnonzero(state._ell[:m] > state.length_estimates)
    if stale.size == 0:
        return 0
    for e in stale.tolist():
        state.mrc.increase_length(e, 2.0 * float(state._ell[e]))
    ell = state._ell[:m]
    tilde = state.length_estimates
    if not (np.all(tilde >= ell * (1 - 1e-12)) and
            np.all(tilde <= 2 * ell * (1 + 1e-12))):
        raise InvariantViolation("length estimate left the [l, 2l] window")
    return int(stale.size)


def reference_step(state: MwuState) -> CycleSolution | None:
    """mwu_step as one self-contained O(m) pass per call: recompute every
    length, push, query, apply the scaled cycle with np.add.at and check
    every edge. Drive a state with this alone, never mixed with mwu_step."""
    if state.iteration >= state.T:
        raise ValueError("the run is complete; no steps remain")
    rtol = mwu_module.POTENTIAL_RTOL
    pushes = _reference_push(state)
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
    if cycle.length / -cycle.gradient > bound * (1 + rtol):
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

    K = state.K
    if dphi > 3 * K ** 2 / T * (1 + rtol):
        raise InvariantViolation(f"potential increase {dphi} exceeds 3K^2/T")
    if dpsi > 4 * q * K ** q / T * (1 + rtol):
        raise InvariantViolation(f"potential increase {dpsi} exceeds 4qK^q/T")
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


def reference_forest(n: int, tails: Sequence[int], heads: Sequence[int],
                     edge_order: Sequence[int]) -> SimpleNamespace:
    """SpanningForest's fields built element by element on numpy arrays,
    scanning the whole edge order; SpanningForest must equal it exactly."""
    parent_vertex = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    parent_sign = np.zeros(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)

    # An edge is a tree edge when inserting it joins two components.
    graph = IncrementalGraph(n)
    tree_edges: list[int] = []
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in edge_order:
        u, v = tails[e], heads[e]
        components = graph.components
        graph.add_edge(u, v)
        if graph.components < components:
            tree_edges.append(e)
            adj[u].append((e, v))
            adj[v].append((e, u))

    # Orient the forest by depth-first search: a vertex joins `order` when
    # popped and its children are pushed last to first, so `order` is a
    # preorder with children in the order their edges were taken.
    order: list[int] = []
    seen = np.zeros(n, dtype=bool)
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            x = stack.pop()
            order.append(x)
            for e, y in reversed(adj[x]):
                if not seen[y]:
                    seen[y] = True
                    parent_vertex[y] = x
                    parent_edge[y] = e
                    parent_sign[y] = 1 if tails[e] == y else -1
                    depth[y] = depth[x] + 1
                    stack.append(y)

    return SimpleNamespace(
        parent_vertex=parent_vertex, parent_edge=parent_edge,
        parent_sign=parent_sign, depth=depth,
        order=np.asarray(order, dtype=np.int64),
        tree_edges=np.asarray(tree_edges, dtype=np.int64))


def reference_cycle(forest: SpanningForest, e: int, tails: Sequence[int],
                    heads: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Cycle closed by off-tree edge e, one vertex step at a time: e
    traversed tail -> head, then the path from the head up to the meeting
    vertex, then the path from the tail up to it, traversed downwards.
    Returns (edge ids, orientation signs)."""
    u, v = int(tails[e]), int(heads[e])
    depth, pv, pe, ps = (forest.depth, forest.parent_vertex,
                         forest.parent_edge, forest.parent_sign)
    ev, sv, eu, su = [], [], [], []
    # The deeper endpoint climbs (the head on ties) until they meet.
    while u != v:
        if depth[v] >= depth[u]:
            ev.append(int(pe[v]))
            sv.append(int(ps[v]))
            v = int(pv[v])
        else:
            eu.append(int(pe[u]))
            su.append(-int(ps[u]))
            u = int(pv[u])
    return (np.asarray([e] + ev + eu, dtype=np.int64),
            np.asarray([1] + sv + su, dtype=np.int64))
