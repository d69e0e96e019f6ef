"""Min-ratio cycle solvers.

A min-ratio cycle instance assigns each edge a gradient and a positive
length; the goal is the circulation minimizing <g, c> / ||L c||_1, which is
always attained at a simple oriented cycle. Two solvers live here:

  * exact_min_ratio_cycle: parametric search with negative-cycle detection.
  * MonotoneMrcState: the incremental oracle used by the multiplicative
    weights loop. Lengths only ever increase and edges only arrive, which is
    what makes the incremental contract achievable; queries ask for any
    cycle of ratio at most -alpha/kappa. Its input changes only through
    insert and increase_length, so a query answers from the last solve
    until one of them comes; both backends are deterministic between
    updates, so the stored answer is the one a new solve would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleError
from .graph import IncrementalGraph, grow_column
from .trees import SpanningForest


class MrcInstance:
    """Static instance: a graph plus per-edge gradients and positive lengths."""

    def __init__(self, graph: IncrementalGraph, gradients: np.ndarray,
                 lengths: np.ndarray):
        gradients = np.asarray(gradients, dtype=float)
        lengths = np.asarray(lengths, dtype=float)
        if gradients.shape != (graph.m,) or lengths.shape != (graph.m,):
            raise ValueError("gradient/length arrays must match the edge count")
        if not np.all(np.isfinite(gradients)):
            raise ValueError("gradients must be finite")
        if not np.all(lengths > 0):
            raise ValueError("edge lengths must be strictly positive")
        self.graph = graph
        self.gradients = gradients
        self.lengths = lengths


@dataclass
class CycleSolution:
    """An oriented cycle with its gradient sum, length sum, and ratio.

    `edges` lists edge ids, `signs` is +1 where the cycle traverses the edge
    along its stored orientation. ratio = gradient / length.
    """

    edges: np.ndarray
    signs: np.ndarray
    gradient: float
    length: float
    ratio: float

    def circulation(self, m: int) -> np.ndarray:
        c = np.zeros(m)
        np.add.at(c, self.edges, self.signs.astype(float))
        return c


def _solution_from_cycle(edges: np.ndarray, signs: np.ndarray, g: np.ndarray,
                         lengths: np.ndarray) -> CycleSolution:
    gradient = float(signs.astype(float) @ g[edges])
    length = float(lengths[edges].sum())
    return CycleSolution(edges=edges, signs=signs, gradient=gradient,
                         length=length, ratio=gradient / length)


def _negative_cycle(n: int, tails: np.ndarray, heads: np.ndarray,
                    forward_cost: np.ndarray, backward_cost: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray] | None:
    """A strictly negative cycle in the bidirected arc graph, or None.

    Bellman-Ford from a virtual source (all distances start at zero) with
    simultaneous relaxation; any cycle in the resulting parent graph has
    strictly negative weight. Returns (edge ids, orientation signs).
    """
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

    # Walk n parent steps to guarantee we are inside a parent cycle, then
    # collect it. Parent cycles are vertex-simple, so no edge repeats.
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


def _cancel_opposing(edges: np.ndarray, signs: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Drop edges traversed once in each direction (defensive; the extracted
    parent cycles are vertex-simple and should never contain such pairs)."""
    coef: dict[int, int] = {}
    for e, s in zip(edges.tolist(), signs.tolist()):
        coef[e] = coef.get(e, 0) + s
    kept = [(e, s) for e, s in coef.items() if s != 0]
    if len(kept) == len(edges):
        return edges, signs
    out_edges = np.asarray([e for e, _ in kept], dtype=np.int64)
    out_signs = np.asarray([s for _, s in kept], dtype=np.int64)
    return out_edges, out_signs


def exact_min_ratio_cycle(instance: MrcInstance, tol: float = 1e-9
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
    graph, g, lengths = instance.graph, instance.gradients, instance.lengths
    n, m = graph.n, graph.m
    tails, heads = graph.tails, graph.heads
    forest = SpanningForest(n, tails, heads, range(m))
    off_tree = np.flatnonzero(~forest.tree_edge_mask(m))
    if off_tree.size == 0:
        return None

    found = _negative_cycle(n, tails, heads, g, -g)
    if found is None:
        edges, signs = forest.fundamental_cycle(int(off_tree[0]), tails, heads)
        return _solution_from_cycle(edges, signs, g, lengths)

    lo = -(m * float(np.max(np.abs(g))) / float(np.min(lengths)) + 1.0)
    hi = 0.0
    best = found
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        probe = _negative_cycle(n, tails, heads, g - mid * lengths,
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


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


@dataclass
class InsertEdge:
    """Admission of the graph's newest edge with its gradient and initial
    length."""

    edge: int
    gradient: float
    length: float


@dataclass
class IncreaseLength:
    """Monotone length update; `length` must not be below the current one."""

    edge: int
    length: float


class MonotoneMrcState:
    """Incremental min-ratio oracle under insertions and length increases.

    Queries return a CycleSolution with ratio <= -alpha/kappa whenever the
    backend can find one and None otherwise. The exact backend (kappa = 1)
    misses a qualifying cycle only when none exists; the tree-collection
    backend trades completeness for cheap queries and is configured with the
    empirical kappa it is trusted for.

    The state views its graph's topology and owns the gradients and length
    estimates of the edges admitted so far; insert admits the edge most
    recently added to the graph. `gradients` and `lengths` are read-only
    views, so insert and increase_length are the only ways to change the
    oracle's input (for the trees backend they are also the only triggers
    of a forest rebuild).

    Queries are memoized: a query solves only when an insert or a length
    increase has come since the last solve, and otherwise returns the
    stored answer (the same CycleSolution object, with read-only edges and
    signs, or None). `queries` counts every query and `solves` the ones
    that solved, so `queries - solves` is the number of memo hits.
    """

    def __init__(self, instance: MrcInstance, alpha: float, kappa: float = 1.0,
                 backend: str = "exact", seed: int | None = None,
                 capacity: int | None = None):
        if alpha <= 0:
            raise ValueError("target ratio alpha must be positive")
        if kappa < 1:
            raise ValueError("kappa must be at least 1")
        if backend not in ("exact", "trees"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "exact" and kappa != 1.0:
            raise ValueError("the exact backend is exactly kappa = 1")
        self.graph = instance.graph
        self.n, self.m = self.graph.n, self.graph.m
        capacity = max(capacity or 0, self.m)
        self.alpha = alpha
        self.kappa = kappa
        self.backend = backend
        self.queries = 0
        self.solves = 0
        self._fresh = False
        self._answer: CycleSolution | None = None
        self._grads = np.zeros(capacity)
        self._lengths = np.zeros(capacity)
        self._grads[:self.m] = instance.gradients
        self._lengths[:self.m] = instance.lengths
        self._trees = (_TreeCollection(self, seed) if backend == "trees"
                       else None)

    @property
    def tails(self) -> np.ndarray:
        return self.graph.tails[:self.m]

    @property
    def heads(self) -> np.ndarray:
        return self.graph.heads[:self.m]

    @property
    def gradients(self) -> np.ndarray:
        return _read_only(self._grads[:self.m])

    @property
    def lengths(self) -> np.ndarray:
        return _read_only(self._lengths[:self.m])

    def insert(self, update: InsertEdge) -> int:
        e = update.edge
        if e != self.m or e != self.graph.m - 1:
            raise ValueError(
                f"edge {e} is not the graph's newest edge {self.graph.m - 1} "
                f"following the admitted {self.m}")
        if update.length <= 0:
            raise ValueError("edge length must be strictly positive")
        if not math.isfinite(update.gradient):
            raise ValueError("edge gradient must be finite")
        self._grads = grow_column(self._grads, e)
        self._lengths = grow_column(self._lengths, e)
        self._grads[e] = update.gradient
        self._lengths[e] = update.length
        self.m += 1
        self._fresh = False
        if self._trees is not None:
            self._trees.note_insert(e)
        return e

    def increase_length(self, update: IncreaseLength) -> None:
        e = update.edge
        if not 0 <= e < self.m:
            raise ValueError(f"edge {e} does not exist")
        old = self._lengths[e]
        if update.length < old:
            raise ValueError(
                f"length of edge {e} may not decrease ({old} -> {update.length})"
            )
        self._lengths[e] = update.length
        self._fresh = False
        if self._trees is not None:
            self._trees.note_increase(update.length - old)

    def query(self) -> CycleSolution | None:
        """Any cycle with ratio <= -alpha/kappa; None when unavailable.

        Solves only when the input changed since the last solve."""
        self.queries += 1
        if not self._fresh:
            if self.m < 2:
                self._answer = None
            elif self._trees is not None:
                self._answer = self._trees.query()
            else:
                self._answer = self._exact_query()
            if self._answer is not None:
                _read_only(self._answer.edges)
                _read_only(self._answer.signs)
            self._fresh = True
            self.solves += 1
        return self._answer

    def _exact_query(self) -> CycleSolution | None:
        g = self.gradients
        lengths = self.lengths
        found = _negative_cycle(self.n, self.tails, self.heads,
                                g + self.alpha * lengths,
                                -g + self.alpha * lengths)
        if found is None:
            return None
        edges, signs = _cancel_opposing(*found)
        solution = _solution_from_cycle(edges, signs, g, lengths)
        if solution.ratio > -self.alpha:
            # Float-boundary extraction; treat as no qualifying cycle.
            return None
        return solution


class _TreeCollection:
    """Spanning-tree backend: fundamental-cycle candidates over a collection
    of randomized minimum-length trees, rebuilt when the total length doubles
    or an insertion connects components."""

    def __init__(self, state: MonotoneMrcState, seed: int | None):
        self.state = state
        self.rng = np.random.Generator(np.random.Philox(key=seed or 0))
        self.count = 4 * max(1, math.ceil(math.log2(max(state.n, 2))))
        self.forests: list[SpanningForest] = []
        self._cycles: list[tuple[np.ndarray, ...]] = []
        self.total = float(state.lengths.sum())
        self.checkpoint = 0.0
        self.rebuild()

    def rebuild(self) -> None:
        state = self.state
        m = state.m
        self.forests = []
        for _ in range(self.count):
            keys = state.lengths * self.rng.uniform(1.0, 4.0, m)
            order = np.argsort(keys, kind="stable")
            self.forests.append(
                SpanningForest(state.n, state.tails, state.heads, order))
        self.checkpoint = max(self.total, 1e-300)
        self.components = state.graph.components
        self._cycles_m = -1

    def _forest_cycles(self, forest: SpanningForest) -> tuple[np.ndarray, ...]:
        """Off-tree edges of a forest, their endpoints and meeting vertices,
        and their fundamental-cycle gradients. Forests change only on
        rebuild and existing gradients never change, so these hold until
        the next rebuild or insertion."""
        state = self.state
        g = state.gradients
        off = np.flatnonzero(~forest.tree_edge_mask(state.m))
        gsum = forest.prefix_sums(g, signed=True)
        u, v = state.tails[off], state.heads[off]
        meet = forest.lca_many(u, v)
        return off, u, v, meet, g[off] + gsum[u] - gsum[v]

    def note_insert(self, e: int) -> None:
        self.total += float(self.state.lengths[e])
        connected = self.state.graph.components < self.components
        if connected or self.total >= 2.0 * self.checkpoint:
            self.rebuild()

    def note_increase(self, delta: float) -> None:
        self.total += delta
        if self.total >= 2.0 * self.checkpoint:
            self.rebuild()

    def query(self) -> CycleSolution | None:
        state = self.state
        m = state.m
        g, lengths = state.gradients, state.lengths
        threshold = -state.alpha / state.kappa
        best_ratio = 0.0
        best: tuple[SpanningForest, int] | None = None
        if self._cycles_m != m:
            self._cycles = [self._forest_cycles(forest)
                            for forest in self.forests]
            self._cycles_m = m
        for forest, (off, u, v, meet, grads) in zip(self.forests,
                                                    self._cycles):
            if off.size == 0:
                continue
            lsum = forest.prefix_sums(lengths, signed=False)
            lens = lengths[off] + lsum[u] + lsum[v] - 2.0 * lsum[meet]
            ratios = -np.abs(grads) / lens
            pick = int(np.argmin(ratios))
            if ratios[pick] < best_ratio:
                best_ratio = float(ratios[pick])
                best = (forest, int(off[pick]))
        if best is None or best_ratio > threshold:
            return None
        forest, e = best
        edges, signs = forest.fundamental_cycle(e, state.tails, state.heads)
        solution = _solution_from_cycle(edges, signs, g, lengths)
        if solution.gradient > 0:
            solution = _solution_from_cycle(edges, -signs, g, lengths)
        if solution.ratio > threshold:
            return None
        return solution
