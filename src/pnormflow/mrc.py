"""The monotone min-ratio cycle oracle of the multiplicative weights loop.

A min-ratio cycle instance assigns each edge a gradient and a positive
length; the goal is the circulation minimizing <g, c> / ||L c||_1, which is
always attained at a simple oriented cycle. MonotoneMrcState answers the
incremental version the inner loop needs: lengths only ever increase and
edges only arrive, which is what makes the incremental contract
achievable, and a query asks for any cycle of ratio at most -alpha/kappa.
Its input changes only through insert and increase_length, so a query
answers from the last solve until one of them comes; both backends (one
Bellman-Ford negative-cycle search at the threshold, or fundamental cycles
over randomized spanning forests, built and searched as one stacked forest)
are deterministic between updates, so
the stored answer is the one a new solve would give.

The exact backend can prove a stall without a search. A vertex potential
under which both arcs of every edge keep a non-negative reduced cost shows
that no cycle of ratio at most -alpha exists, and a length increase only
raises arc costs, so such a potential stays valid until an insertion,
whose two arcs the next check covers. The state carries a candidate
potential, which only its caller sets (the solver takes tree potentials
of the gradient over Newton's forest). Each exact solve first checks the
candidate in one vectorized pass, which answers None on success; the
check demands a margin over the rounding of the potential and the arc
costs, so a proved stall is one Bellman-Ford finds too ("Negative-cycle
detection algorithms", Cherkassky-Goldberg). Bellman-Ford's final
distances are not kept: they are tight on their shortest-path arcs,
which the margin declines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleError
from .graph import IncrementalGraph, grow_column
from .trees import SpanningForest


def check_oracle_options(kappa: float, backend: str) -> None:
    """Raise ValueError unless the backend is known and kappa is finite,
    at least 1, and exactly 1 on the exact backend."""
    if backend not in ("exact", "trees"):
        raise ValueError(f"unknown backend {backend!r}")
    if not 1 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and at least 1, got {kappa}")
    if backend == "exact" and kappa != 1.0:
        raise ValueError("the exact backend is exactly kappa = 1")


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


# Relative margin by which a potential's reduced arc costs must clear zero
# for it to prove a stall. It is far above the rounding of the reduced
# costs, which stays within twice the potential's largest magnitude of
# zero, and far below what the solver's potentials clear: on the
# drivers-desk benchmark streams of seeds 1 and 2, every proved stall
# cleared 1e-9.
CERTIFY_RTOL = 1e-12


def _certifies(potential: np.ndarray, tails: np.ndarray, heads: np.ndarray,
               forward_cost: np.ndarray, backward_cost: np.ndarray) -> bool:
    """Whether the vertex potential proves that the bidirected arc graph
    holds no negative cycle: each arc's reduced cost,
    cost + potential[tail] - potential[head], is at least CERTIFY_RTOL
    times the sum of the cost's magnitude and twice the potential's
    largest magnitude. Every cycle's cost is then the positive sum of its
    reduced costs."""
    lift = potential[tails] - potential[heads]
    scale = 2.0 * float(np.max(np.abs(potential), initial=0.0))
    for cost, reduced in ((forward_cost, forward_cost + lift),
                          (backward_cost, backward_cost - lift)):
        if not np.all(reduced >= CERTIFY_RTOL * (np.abs(cost) + scale)):
            return False
    return True


def _negative_cycle(n: int, tails: np.ndarray, heads: np.ndarray,
                    forward_cost: np.ndarray, backward_cost: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray] | None:
    """A strictly negative cycle in the bidirected arc graph, or None.

    Bellman-Ford from a virtual source (all distances start at zero) with
    simultaneous relaxation. Every cycle of the parent graph has strictly
    negative weight, so after each round that improved a distance the
    search looks for one and returns the first it finds ("Negative-cycle
    detection algorithms", Cherkassky-Goldberg); a negative cycle shows up
    there within n rounds, and often within a few. Returns (edge ids,
    orientation signs).
    """
    m = tails.size
    arc_tail = np.concatenate((tails, heads))
    arc_head = np.concatenate((heads, tails))
    cost = np.concatenate((forward_cost, backward_cost))
    dist = np.zeros(n)
    parent = np.full(n, -1, dtype=np.int64)
    # Each vertex's parent vertex, with n standing for none and mapping to
    # itself; 2^doublings >= n + 1 steps along it leave every path that
    # does not end at n on a cycle.
    up = np.full(n + 1, n, dtype=np.int64)
    doublings = max(1, math.ceil(math.log2(n + 1)))
    for _ in range(n):
        cand = dist[arc_tail] + cost
        new = dist.copy()
        np.minimum.at(new, arc_head, cand)
        if not np.any(new < dist):
            return None
        winners = np.flatnonzero((cand == new[arc_head]) &
                                 (new[arc_head] < dist[arc_head]))
        parent[arc_head[winners]] = winners
        dist = new
        up[:n] = np.where(parent >= 0, arc_tail[parent], n)
        far = up
        for _ in range(doublings):
            far = far[far]
        on_cycle = np.flatnonzero(far[:n] < n)
        if on_cycle.size:
            return _parent_cycle(int(far[on_cycle[0]]), parent, arc_tail, m)
    raise OracleError("Bellman-Ford improved for n rounds without a cycle "
                      "in its parent graph")


def _parent_cycle(v: int, parent: np.ndarray, arc_tail: np.ndarray,
                  m: int) -> tuple[np.ndarray, np.ndarray]:
    """The parent-graph cycle through v, as (edge ids, signs). Parent
    cycles are vertex-simple, so an edge could repeat only as one edge
    traversed both ways, a cycle of positive weight."""
    arcs = [int(parent[v])]
    u = int(arc_tail[arcs[0]])
    while u != v:
        arcs.append(int(parent[u]))
        u = int(arc_tail[arcs[-1]])
    cycle_arcs = np.asarray(arcs, dtype=np.int64)
    edges = np.where(cycle_arcs < m, cycle_arcs, cycle_arcs - m)
    signs = np.where(cycle_arcs < m, 1, -1).astype(np.int64)
    return edges, signs


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


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

    On the exact backend `potential` holds a candidate vertex potential
    (None at first; only a caller sets one, and the state never replaces
    it). An exact solve answers None without a search when the candidate
    proves the stall, counted in `certified` (and in `solves`), so
    `solves - certified` is the number of Bellman-Ford runs. The
    candidate only saves searches: every answer is the one a state
    without it gives.
    """

    def __init__(self, graph: IncrementalGraph, gradients: np.ndarray,
                 lengths: np.ndarray, alpha: float, kappa: float = 1.0,
                 backend: str = "exact", seed: int | None = None):
        gradients = np.array(gradients, dtype=float)
        lengths = np.array(lengths, dtype=float)
        if gradients.shape != (graph.m,) or lengths.shape != (graph.m,):
            raise ValueError("gradient/length arrays must match the edge count")
        if not np.all(np.isfinite(gradients)):
            raise ValueError("gradients must be finite")
        if not np.all(lengths > 0):
            raise ValueError("edge lengths must be strictly positive")
        if alpha <= 0:
            raise ValueError("target ratio alpha must be positive")
        check_oracle_options(kappa, backend)
        self.graph = graph
        self.n, self.m = graph.n, graph.m
        self.alpha = alpha
        self.kappa = kappa
        self.backend = backend
        self.queries = 0
        self.solves = 0
        self.certified = 0
        self.potential: np.ndarray | None = None
        self._fresh = False
        self._answer: CycleSolution | None = None
        self._grads = gradients
        self._lengths = lengths
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

    def insert(self, e: int, gradient: float, length: float) -> int:
        """Admit edge e, the graph's newest, with its gradient and initial
        length estimate."""
        if e != self.m or e != self.graph.m - 1:
            raise ValueError(
                f"edge {e} is not the graph's newest edge {self.graph.m - 1} "
                f"following the admitted {self.m}")
        if length <= 0:
            raise ValueError("edge length must be strictly positive")
        if not math.isfinite(gradient):
            raise ValueError("edge gradient must be finite")
        self._grads = grow_column(self._grads, e)
        self._lengths = grow_column(self._lengths, e)
        self._grads[e] = gradient
        self._lengths[e] = length
        self.m += 1
        self._fresh = False
        if self._trees is not None:
            self._trees.note_insert(self, e)
        return e

    def increase_length(self, e: int, length: float) -> None:
        """Raise edge e's length estimate to `length`, which must not be
        below the current one."""
        if not 0 <= e < self.m:
            raise ValueError(f"edge {e} does not exist")
        old = self._lengths[e]
        if length < old:
            raise ValueError(
                f"length of edge {e} may not decrease ({old} -> {length})"
            )
        self._lengths[e] = length
        self._fresh = False
        if self._trees is not None:
            self._trees.note_increase(self, length - old)

    def query(self) -> CycleSolution | None:
        """Any cycle with ratio <= -alpha/kappa; None when unavailable.

        Solves only when the input changed since the last solve."""
        self.queries += 1
        if not self._fresh:
            if self._trees is not None:
                self._answer = self._trees.query(self)
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
        costs = (self.tails, self.heads, g + self.alpha * lengths,
                 -g + self.alpha * lengths)
        if self.potential is not None and _certifies(self.potential, *costs):
            self.certified += 1
            return None
        found = _negative_cycle(self.n, *costs)
        if found is None:
            return None
        edges, signs = found
        if np.unique(edges).size != edges.size:
            raise OracleError("negative-cycle search returned a cycle that "
                              "repeats an edge")
        solution = _solution_from_cycle(edges, signs, g, lengths)
        if solution.ratio > -self.alpha:
            # Float-boundary extraction; treat as no qualifying cycle.
            return None
        return solution


def _edge_orders(keys: np.ndarray) -> np.ndarray:
    """Each row's edge ids by increasing key, ties to the lowest id.

    One default-kind argsort sorts all rows; it need not keep tied keys in
    id order, so a row that holds a tie is sorted again stably. Keys
    drawn from a continuous distribution rarely tie."""
    order = np.argsort(keys, axis=1)
    ranked = np.take_along_axis(keys, order, axis=1)
    for i in np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1)):
        order[i] = np.argsort(keys[i], kind="stable")
    return order


class _TreeCollection:
    """Spanning-tree backend: fundamental-cycle candidates over a collection
    of randomized minimum-length trees, rebuilt when the total length doubles
    or an insertion connects components.

    A rebuild draws all the forests' random keys at once, one row per
    forest (the same numbers as one draw per forest), orders each row's
    edges by key, ties to the lowest edge id, and builds the forests in one
    stacked SpanningForest (forest i's vertex v at i * n + v). The rebuild
    takes the signed gradient prefix sums over it once; each query takes
    the length prefix sums over it once.

    The cycle cache holds one row per forest: its off-tree edges in
    increasing id order, with their endpoints and meeting vertices in the
    stacked numbering and their cycle gradients. Every forest spans the
    same components, so the rows have the same length. A rebuild drops the
    cache and the next query computes it in one LCA batch; an insertion
    that does not rebuild appends the new edge, which is off-tree in every
    forest and has the largest id, as a column. A query takes the first
    entry of least ratio in row-major order: ties go to the earliest
    forest, then to the earliest entry.

    The collection keeps no reference to its state: every method takes it,
    so a dropped state and its forests are freed without waiting for the
    cyclic garbage collector."""

    def __init__(self, state: MonotoneMrcState, seed: int | None):
        self.rng = np.random.Generator(np.random.Philox(key=seed or 0))
        self.count = 4 * max(1, math.ceil(math.log2(max(state.n, 2))))
        self._cycles: tuple[np.ndarray, ...] | None = None
        self.total = float(state.lengths.sum())
        self.checkpoint = 0.0
        self.rebuild(state)

    def rebuild(self, state: MonotoneMrcState) -> None:
        keys = self.rng.uniform(1.0, 4.0, (self.count, state.m))
        keys *= state.lengths
        self.stacked = SpanningForest(state.n, state.tails, state.heads,
                                      _edge_orders(keys))
        # Tree edges keep their gradients, so these stay valid until the
        # next rebuild.
        self.gsum = self.stacked.prefix_sums(state.gradients, signed=True)
        self.checkpoint = max(self.total, 1e-300)
        self.components = state.graph.components
        self._cycles = None

    def _entries(self, state: MonotoneMrcState,
                 off: np.ndarray) -> tuple[np.ndarray, ...]:
        """Cache entries of the off-tree edges `off`, one row per forest:
        the edges, their endpoints and meeting vertices in the stacked
        numbering, and their fundamental-cycle gradients
        g[off] + gsum[u] - gsum[v]."""
        shift = np.arange(0, self.count * state.n, state.n)[:, None]
        u, v = state.tails[off], state.heads[off]
        u += shift
        v += shift
        grads = state.gradients[off]
        grads += self.gsum[u]
        grads -= self.gsum[v]
        meet = self.stacked.lca_many(u.ravel(), v.ravel()).reshape(off.shape)
        return off, u, v, meet, grads

    def _all_entries(self, state: MonotoneMrcState) -> tuple[np.ndarray, ...]:
        """Cache entries of every forest's off-tree edges."""
        k, tree_edges = self.count, self.stacked.tree_edges
        off_tree = np.ones((k, state.m), dtype=bool)
        off_tree[np.repeat(np.arange(k), tree_edges.size // k),
                 tree_edges] = False
        return self._entries(state, np.broadcast_to(
            np.arange(state.m), off_tree.shape)[off_tree].reshape(k, -1))

    def note_insert(self, state: MonotoneMrcState, e: int) -> None:
        self.total += float(state.lengths[e])
        connected = state.graph.components < self.components
        if connected or self.total >= 2.0 * self.checkpoint:
            self.rebuild(state)
        elif self._cycles is not None:
            # Forests and existing gradients are unchanged, so only the new
            # edge's cycles are computed.
            new = self._entries(state, np.full((self.count, 1), e))
            # One column at a time, so that at most one is held twice.
            cycles, self._cycles = list(self._cycles), None
            for j, added in enumerate(new):
                cycles[j] = np.concatenate((cycles[j], added), axis=1)
            self._cycles = tuple(cycles)

    def note_increase(self, state: MonotoneMrcState, delta: float) -> None:
        self.total += delta
        if self.total >= 2.0 * self.checkpoint:
            self.rebuild(state)

    def query(self, state: MonotoneMrcState) -> CycleSolution | None:
        g, lengths = state.gradients, state.lengths
        threshold = -state.alpha / state.kappa
        if self._cycles is None:
            self._cycles = self._all_entries(state)
        off, u, v, meet, grads = (col.ravel() for col in self._cycles)
        if off.size == 0:
            return None
        lsum = self.stacked.prefix_sums(lengths, signed=False)
        # The least ratio -|grads| / lens is the first greatest
        # |grads| / lens, formed in place in `steep`, where lens adds the
        # terms of lengths[off] + lsum[u] + lsum[v] - 2.0 * lsum[meet] in
        # that order.
        steep = lengths[off]
        steep += lsum[u]
        steep += lsum[v]
        steep -= 2.0 * lsum[meet]
        np.divide(np.abs(grads), steep, out=steep)
        pick = int(np.argmax(steep))
        if not -steep[pick] <= threshold:
            return None
        at = slice(pick, pick + 1)
        _, edges, signs = self.stacked.fundamental_cycle(off[at], u[at],
                                                         v[at])
        solution = _solution_from_cycle(edges, signs, g, lengths)
        if solution.gradient > 0:
            solution = _solution_from_cycle(edges, -signs, g, lengths)
        if solution.ratio > threshold:
            return None
        return solution
