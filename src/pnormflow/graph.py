"""Append-only multigraph and the smoothed l_p-norm objective.

The solver works on undirected multigraphs whose edges carry an orientation
purely for bookkeeping: an edge e = (u, v) with flow f_e moves f_e units from
u to v when f_e > 0.  Net demand follows the incidence convention that one
unit of flow on (u, v) contributes -1 at u and +1 at v.

Vertices are dense integers 0..n-1, edge ids are dense in insertion order,
self-loops are rejected and parallel edges are allowed.

Edges only arrive, so each per-edge fact has one owner that keeps it in a
numpy column grown by doubling (grow_column), and every other layer reads
the live [:m] view: the graph owns tails, heads and connectivity, a
PNormInstance its g, r, w, the solver its flow, an inner run its scaled
residual weights, and the min-ratio oracle its gradients and length
estimates.

Connectivity is one set of component labels, which Kruskal reuses, and the
objective has one evaluation, for a flow or a (k, m) stack of flows.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GraphError

# Per-component demand sums are "zero" within this fraction of ||d||_1.
DEMAND_SUM_RTOL = 1e-9


def grow_column(column: np.ndarray, e: int) -> np.ndarray:
    """`column` when it has slot e; otherwise a copy of its first e entries
    in twice the room, so appending m entries costs O(m) in total."""
    if e < column.size:
        return column
    fresh = np.zeros(max(2 * column.size, e + 1), dtype=column.dtype)
    fresh[:e] = column[:e]
    return fresh


class _Components:
    """Disjoint sets over 0..n-1 as labels: `label[v]` names the set of v
    and `members[a]` lists the set named a. A merge relabels the smaller
    set, so `label` answers a find in one list read and each vertex is
    relabelled at most log2(n) times.

    The graph's connectivity and Kruskal's forests both use it. It is
    module-private, which also keeps its per-edge calls out of the spans
    perfbench records for public functions.
    """

    __slots__ = ("label", "members")

    def __init__(self, n: int):
        self.label = list(range(n))
        self.members = [[v] for v in range(n)]

    def union(self, u: int, v: int) -> bool:
        """Merge the sets of u and v; False when they were already one."""
        label, members = self.label, self.members
        a, b = label[u], label[v]
        if a == b:
            return False
        if len(members[a]) < len(members[b]):
            a, b = b, a
        for x in members[b]:
            label[x] = a
        members[a] += members[b]
        members[b] = []
        return True


class IncrementalGraph:
    """Undirected multigraph supporting edge insertion only.

    Keeps each vertex's component label, so `find` is one list read and an
    insertion that merges two components relabels the smaller one.
    `components` counts the connected components.
    """

    def __init__(self, n: int):
        if n < 1:
            raise GraphError(f"vertex count must be positive, got {n}")
        self.n = n
        self.m = 0
        self._tails = np.zeros(0, dtype=np.int64)
        self._heads = np.zeros(0, dtype=np.int64)
        self._sets = _Components(n)
        self.components = n

    @property
    def tails(self) -> np.ndarray:
        return self._tails[:self.m]

    @property
    def heads(self) -> np.ndarray:
        return self._heads[:self.m]

    def add_edge(self, u: int, v: int) -> int:
        """Insert an edge and return its dense id.

        Rejects self-loops and out-of-range endpoints; parallel edges are
        fine and get fresh ids.
        """
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError(f"vertex out of range: ({u}, {v}) with n={self.n}")
        if u == v:
            raise GraphError(f"self-loop rejected at vertex {u}")
        e = self.m
        self._tails = grow_column(self._tails, e)
        self._heads = grow_column(self._heads, e)
        self._tails[e] = u
        self._heads[e] = v
        self.m += 1
        if self._sets.union(u, v):
            self.components -= 1
        return e

    def find(self, v: int) -> int:
        """The label of v's component, one of its vertices."""
        return self._sets.label[v]

    def connected(self, u: int, v: int) -> bool:
        return self.find(u) == self.find(v)


def net_demand(graph: IncrementalGraph, flow: np.ndarray) -> np.ndarray:
    """Vertex imbalance of a flow: +f_e at the head of e, -f_e at the tail."""
    flow = np.asarray(flow)
    if flow.shape != (graph.m,):
        raise GraphError(f"flow length {flow.shape} does not match m={graph.m}")
    out = np.zeros(graph.n, dtype=flow.dtype if flow.dtype.kind == "f" else float)
    np.add.at(out, graph.heads, flow)
    np.subtract.at(out, graph.tails, flow)
    return out


def demand_routable(graph: IncrementalGraph, d: np.ndarray) -> bool:
    """True iff every connected component's demand entries sum to zero
    (within DEMAND_SUM_RTOL of ||d||_1), recomputed in O(n) by one sum per
    component label."""
    d = np.asarray(d, dtype=float)
    tol = DEMAND_SUM_RTOL * float(np.abs(d).sum())
    sums = np.bincount(graph._sets.label, weights=d)
    return bool((np.abs(sums) <= tol).all())


def pnorm(values: np.ndarray, p: float) -> float:
    """||values||_p via a power sum normalized by the peak: at p up to
    about 200 a finite norm can have a p-th power past the float range.
    pnorm_pow returns that power itself, so only the norm normalizes."""
    values = np.abs(np.asarray(values, dtype=float))
    if values.size == 0:
        return 0.0
    peak = float(values.max())
    if peak == 0.0 or not math.isfinite(peak):
        return peak
    return peak * pnorm_pow(values / peak, p) ** (1.0 / p)


def pnorm_pow(values: np.ndarray, p: float) -> float:
    """Sum of |values|^p, inf when it overflows. It is not normalized by
    the peak: peak^p * sum((v / peak)^p) overflows exactly when the plain
    sum does, so normalizing never rescues a finite result."""
    with np.errstate(over="ignore"):
        return float((np.abs(values) ** p).sum())


def smoothed_value(
    g: np.ndarray, r: np.ndarray, w: np.ndarray, p: float, x: np.ndarray
) -> float | np.ndarray:
    """<g, x> + ||R x||_2^2 + ||W x||_p^p, the objective both the instance
    energy and the residual problem share, as a float for a flow x. For a
    (k, m) stack x it is an array of each row's value, equal to that row's
    own value bit for bit; g and r may be (k, m) stacks too, one row per
    row of x. Its power sums are plain, like pnorm_pow's, and an
    overflowing one gives inf."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        value = ((g * x).sum(axis=-1) + ((r * x) ** 2).sum(axis=-1)
                 + (np.abs(w * x) ** p).sum(axis=-1))
    return value if x.ndim > 1 else float(value)


def smoothed_gradient(
    g: np.ndarray, r: np.ndarray, w: np.ndarray, p: float, x: np.ndarray,
    curv: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of smoothed_value at x: g + 2 r^2 x + p w^p |x|^(p-2) x.
    curv, when given, is _curvature(w, p, x), already formed by the caller."""
    x = np.asarray(x, dtype=float)
    if curv is None:
        curv = _curvature(w, p, x)
    return g + 2.0 * r * r * x + p * curv * x


def smoothed_hessian_diag(
    r: np.ndarray, w: np.ndarray, p: float, x: np.ndarray,
    curv: np.ndarray | None = None,
) -> np.ndarray:
    """Diagonal Hessian of smoothed_value at x (the objective is separable);
    curv as for smoothed_gradient."""
    if curv is None:
        curv = _curvature(w, p, np.asarray(x, dtype=float))
    return 2.0 * r * r + p * (p - 1) * curv


def _curvature(w: np.ndarray, p: float, x: np.ndarray) -> np.ndarray:
    """w^p |x|^(p-2) as w^2 (w |x|)^(p-2): at large p, w^p alone underflows
    to 0 and |x|^(p-2) overflows, and their product is NaN. At p = 2 the
    power is exactly 1, also at x = 0."""
    return w * w * (w * np.abs(x)) ** (p - 2)


class PNormInstance:
    """A smoothed l_p-norm flow problem over an incremental graph.

    Minimizes  E(f) = <g, f> + ||R f||_2^2 + ||W f||_p^p  over flows f with
    net_demand(f) = d.  The instance owns the edge attributes g, r, w; its
    graph, which several instances may view in turn, owns the topology.

    Attributes:
        graph: the underlying multigraph.
        d: demand vector, fixed for the life of the instance.
        p: integer exponent >= 2.
        threshold: the certification threshold F.
        eps: absolute energy accuracy for flow outputs.
    """

    def __init__(
        self,
        graph: IncrementalGraph,
        d: np.ndarray,
        p: int,
        threshold: float = 0.0,
        eps: float = 1e-6,
    ):
        if p < 2 or int(p) != p:
            raise ValueError(f"exponent must be an integer >= 2, got {p}")
        d = np.asarray(d, dtype=float)
        if d.shape != (graph.n,):
            raise ValueError(f"demand length {d.shape} does not match n={graph.n}")
        if abs(float(d.sum())) > DEMAND_SUM_RTOL * (1.0 + float(np.abs(d).sum())):
            raise ValueError("demand entries must sum to zero")
        if not eps > 0:
            raise ValueError(f"accuracy must be positive, got {eps}")
        if math.isnan(threshold):
            raise ValueError("threshold must be a number, got nan")
        self.graph = graph
        self.d = d
        self.p = int(p)
        self.threshold = float(threshold)
        self.eps = float(eps)
        self._g = np.zeros(graph.m)
        self._r = np.zeros(graph.m)
        self._w = np.zeros(graph.m)

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def g(self) -> np.ndarray:
        return self._g[:self.graph.m]

    @property
    def r(self) -> np.ndarray:
        return self._r[:self.graph.m]

    @property
    def w(self) -> np.ndarray:
        return self._w[:self.graph.m]

    def set_edge_attrs(self, g: np.ndarray, r: np.ndarray, w: np.ndarray) -> None:
        """Set attributes for all current edges at once (initial build)."""
        g = np.asarray(g, dtype=float)
        r = np.asarray(r, dtype=float)
        w = np.asarray(w, dtype=float)
        if not (g.shape == r.shape == w.shape == (self.graph.m,)):
            raise ValueError("attribute arrays must match the edge count")
        self._check_attrs(bool(np.all(np.isfinite(g))),
                          bool(np.all((0 < r) & (r < math.inf))),
                          bool(np.all((0 < w) & (w < math.inf))))
        self._g, self._r, self._w = g.copy(), r.copy(), w.copy()

    def add_edge(self, u: int, v: int, g: float, r: float, w: float) -> int:
        """Insert an edge with its gradient, resistance and weight."""
        self._check_attrs(math.isfinite(g), 0 < r < math.inf,
                          0 < w < math.inf)
        e = self.graph.add_edge(u, v)
        self._g = grow_column(self._g, e)
        self._r = grow_column(self._r, e)
        self._w = grow_column(self._w, e)
        self._g[e], self._r[e], self._w[e] = g, r, w
        return e

    @staticmethod
    def _check_attrs(finite_g: bool, good_r: bool, good_w: bool) -> None:
        """Raise on the first failed attribute check (NaN r or w fails its
        comparisons, so it counts as not positive)."""
        if not finite_g:
            raise ValueError("edge gradients must be finite")
        if not good_r:
            raise ValueError(
                "edge resistances must be strictly positive and finite")
        if not good_w:
            raise ValueError(
                "edge weights must be strictly positive and finite")

    def energy(self, f: np.ndarray) -> float:
        """E(f) for a flow on the current edge set."""
        f = np.asarray(f, dtype=float)
        if f.shape != (self.graph.m,):
            raise ValueError(f"flow length {f.shape} does not match m={self.graph.m}")
        if not np.all(np.isfinite(f)):
            raise ValueError("flow entries must be finite")
        return smoothed_value(self.g, self.r, self.w, self.p, f)

    def energy_gradient(self, f: np.ndarray) -> np.ndarray:
        return smoothed_gradient(self.g, self.r, self.w, self.p, f)

    def routable(self) -> bool:
        return demand_routable(self.graph, self.d)

