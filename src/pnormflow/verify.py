"""Static solvers: static optimum, exact maxflow, effective resistance.

Nothing here depends on the incremental solver. The solver calls
static_pnorm_opt to bootstrap and materialize, and the maxflow driver calls
exact_maxflow to start each phase; tests use all three as ground truth, and
the CLI's verify command the first and the last. The static optimizer
runs Newton in fundamental cycle coordinates and solves each step through
a grounded vertex Laplacian, maxflow is Dinic's, and effective resistance
is a direct Laplacian solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import OracleError
from .graph import (
    IncrementalGraph,
    PNormInstance,
    _curvature,
    demand_routable,
    net_demand,
    smoothed_gradient,
    smoothed_hessian_diag,
    smoothed_value,
)
from .trees import SpanningForest

DEFAULT_ORACLE_TOL = 1e-9
_EPS = float(np.finfo(float).eps)
# Exit thresholds for iterates pinned at the energy evaluation noise floor.
# The objective is strongly convex on the cycle space (curvature >= 2 r^2),
# so repeated noise-level progress with a machine-precision-scale gradient
# means the iterate is the numerical optimum even when `tol` is unreachable.
_STAGNATION_ITERATIONS = 8
_STAGNATION_GNORM = 100.0 * math.sqrt(_EPS)


# Largest number of free (non-root) vertices whose grounded Laplacian is
# factored densely; below it scipy.sparse call overhead outweighs the work.
_DENSE_LAPLACIAN_LIMIT = 64
# Largest forcing term of the inexact Newton step (Eisenstat and Walker):
# far from the optimum a rough step suffices, and the forcing term
# min(_FORCING_MAX, ||C^T grad||) keeps convergence fast near it.
_FORCING_MAX = 1e-2


class _LaplacianNewton:
    """Newton steps in cycle coordinates through vertex-space solves.

    The step x solves C^T H C x = -C^T grad, where the columns of C are the
    fundamental cycles and H = diag(h) is the Hessian. Delta = C x is the
    circulation minimizing Delta^T H Delta / 2 + grad^T Delta, so
    Delta = -(grad + B phi) / h, where B is the edge-vertex incidence
    matrix and phi solves L phi = -B^T (grad / h) for the Laplacian
    L = B^T diag(1/h) B grounded at every forest root. C is the identity
    on the off-tree edges, so x is Delta read off there. No k x k matrix
    is formed. Each step factors the Laplacian once; iterative refinement
    feeds the cycle-space residual back through that factorization until
    the residual is within the forcing term eta = min(_FORCING_MAX,
    ||C^T grad||) of ||C^T grad|| (machine precision at the least), or it
    stops shrinking. Newton's stopping rule reads the true gradient, so a
    rough step only costs an iteration, never accuracy.

    With at most _DENSE_LAPLACIAN_LIMIT free vertices the Laplacian is
    factored densely by LAPACK getrf and solved by getrs, and C is held
    as its (cycle, edge, sign) triplets, sorted by cycle and then edge as
    scipy's compressed arrays store them (one argsort of the unique keys
    cycle * m + edge): np.bincount then forms C x and C^T y adding the same
    terms in the same order as scipy's products, so they are bit-identical
    to them without a sparse matrix per solve.
    Above the limit the Laplacian is factored by splu, C is a scipy CSC
    matrix and C^T its CSR copy.
    """

    def __init__(self, graph: IncrementalGraph, forest: SpanningForest,
                 off_tree: np.ndarray, cycle: np.ndarray, edges: np.ndarray,
                 signs: np.ndarray):
        n, m = graph.n, graph.m
        self.n, self.m = n, m
        self.tails, self.heads = graph.tails, graph.heads
        self.off_tree = off_tree
        self.off_tails = self.tails[off_tree]
        self.off_heads = self.heads[off_tree]
        self.free = np.flatnonzero(forest.parent_vertex >= 0)
        size = self.free.size
        local = np.full(n, -1, dtype=np.int64)
        local[self.free] = np.arange(size)
        lt, lh = local[self.tails], local[self.heads]
        # Per edge: +1/h at (tail, tail) and (head, head), -1/h at
        # (tail, head) and (head, tail); entries at grounded vertices drop.
        rows = np.concatenate((lt, lh, lt, lh))
        cols = np.concatenate((lt, lh, lh, lt))
        keep = (rows >= 0) & (cols >= 0)
        self.entry_edge = np.tile(np.arange(m), 4)[keep]
        self.entry_sign = np.repeat([1.0, 1.0, -1.0, -1.0], m)[keep]
        self.size = size
        self.dense = size <= _DENSE_LAPLACIAN_LIMIT
        signs = signs.astype(float)
        if self.dense:
            self.entry_flat = rows[keep] * size + cols[keep]
            order = np.argsort(cycle * m + edges)
            self.cycle, self.edge = cycle[order], edges[order]
            self.sign = signs[order]
        else:
            self.rows, self.cols = rows[keep], cols[keep]
            self.basis = sp.csc_matrix((signs, (edges, cycle)),
                                       shape=(m, off_tree.size))
            self.basis_t = self.basis.T.tocsr()

    def to_edges(self, x: np.ndarray) -> np.ndarray:
        """C x: the circulation with cycle coordinates x."""
        if self.dense:
            return np.bincount(self.edge, self.sign * x[self.cycle], self.m)
        return self.basis @ x

    def to_cycles(self, y: np.ndarray) -> np.ndarray:
        """C^T y: the edge vector y summed around each cycle."""
        if self.dense:
            return np.bincount(self.cycle, self.sign * y[self.edge],
                               self.off_tree.size)
        return self.basis_t @ y

    def _potentials(self, solve, tails, heads, y):
        rhs = np.bincount(tails, y, self.n) - np.bincount(heads, y, self.n)
        phi = np.zeros(self.n)
        phi[self.free] = solve(rhs[self.free])
        return phi

    def step(self, h: np.ndarray, edge_grad: np.ndarray, grad: np.ndarray,
             gnorm: float) -> np.ndarray:
        """Cycle coordinates of the Newton step for the cycle-space
        gradient grad of norm gnorm, to within the forcing term; NaN when
        the Laplacian cannot be factored."""
        cond = 1.0 / h
        values = self.entry_sign * cond[self.entry_edge]
        if self.dense:
            size = self.size
            lap = np.bincount(self.entry_flat, values,
                              size * size).reshape(size, size)
            lu, piv, info = dgetrf(lap, overwrite_a=True)
            if info != 0:
                return np.full(self.off_tree.size, np.nan)

            def solve(b):
                return dgetrs(lu, piv, b)[0]
        else:
            lap = sp.csc_matrix((values, (self.rows, self.cols)),
                                shape=(self.size, self.size))
            try:
                solve = spla.splu(lap).solve
            except RuntimeError:
                return np.full(self.off_tree.size, np.nan)
        off_t, off_h = self.off_tails, self.off_heads
        off_cond = cond[self.off_tree]
        phi = self._potentials(solve, self.tails, self.heads, edge_grad * cond)
        x = -(edge_grad[self.off_tree] + phi[off_h] - phi[off_t]) * off_cond
        residual = -grad - self.to_cycles(h * self.to_edges(x))
        rnorm = float(np.linalg.norm(residual))
        target = max(_EPS, min(_FORCING_MAX, gnorm)) * gnorm
        while rnorm > target:
            # Refinement: gamma = -residual on the off-tree edges, zero on
            # the tree, gives the correction C^T H C dx = residual.
            phi = self._potentials(solve, off_t, off_h, -residual * off_cond)
            candidate = x + (residual - phi[off_h] + phi[off_t]) * off_cond
            cand_residual = -grad - self.to_cycles(
                h * self.to_edges(candidate))
            cand_norm = float(np.linalg.norm(cand_residual))
            if not cand_norm < rnorm:
                break
            stalled = cand_norm > 0.5 * rnorm
            x, residual, rnorm = candidate, cand_residual, cand_norm
            if stalled:
                break
        return x


@dataclass
class OracleReport:
    """Result of a static optimization: value, optimizer, and how it ended."""

    value: float
    flow: np.ndarray
    iterations: int
    gradient_norm: float


def static_pnorm_opt(
    instance: PNormInstance,
    tol: float = DEFAULT_ORACLE_TOL,
    start_flow: np.ndarray | None = None,
    seed: int | None = None,
    max_iterations: int = 500,
) -> OracleReport:
    """Minimize the smoothed objective over flows routing the demand.

    Parameterizes feasible flows as f0 + C x where f0 routes the demand on a
    spanning forest and the columns of C are fundamental circulations, then
    runs damped Newton with backtracking until the cycle-space gradient norm
    drops to tol * (1 + |E(f)|), checked before each of max_iterations
    steps and once after the last. On a forest (no cycles) the gradient
    norm is 0.0, so the tree-routed flow returns at iteration 0. Each
    Newton system C^T H C x = -C^T grad is solved through the n-vertex
    Laplacian B^T H^-1 B (see _LaplacianNewton), so the k x k cycle-space
    Hessian is never formed; the step is solved only to within a forcing
    term, while the stopping rule reads the true gradient. Each iterate
    forms the curvature term w^p |f|^(p-2) once, for both the gradient and
    the Hessian diagonal.
    Iterates that stop improving at the energy evaluation noise floor while
    the gradient norm sits at machine-precision scale are returned as
    converged with their achieved gradient_norm; the value error at such a
    plateau is quadratic in the gradient norm and far below any comparison
    the report feeds. A step whose line search finds no decrease ends the
    solve at the current iterate: converged when its gradient norm is within
    max(tol, the stagnation scale) * (1 + |E(f)|), an OracleError otherwise.

    Args:
        instance: the problem; demand must be routable on the current graph.
        tol: gradient-norm tolerance, relative to 1 + |energy|.
        start_flow: optional feasible starting flow (overrides tree routing).
        seed: randomizes the spanning forest, for self-consistency checks.
        max_iterations: Newton iteration cap before giving up.

    Raises:
        ValueError: demand not routable, or start_flow infeasible.
        OracleError: tolerance not reached within the iteration cap, or
            the line search stalled short of it.
    """
    graph = instance.graph
    m = graph.m
    if not demand_routable(graph, instance.d):
        raise ValueError("demand is not routable on the current graph")

    edge_order: np.ndarray | list[int]
    if seed is None:
        edge_order = range(m)
    else:
        edge_order = np.random.Generator(np.random.Philox(key=seed)).permutation(m)
    forest = SpanningForest(graph.n, graph.tails, graph.heads, edge_order)

    if start_flow is not None:
        f = np.array(start_flow, dtype=float)
        imbalance = net_demand(graph, f) - instance.d
        scale = 1.0 + float(np.abs(instance.d).max(initial=0.0))
        scale += float(np.abs(f).max(initial=0.0))
        if float(np.max(np.abs(imbalance))) > 1e-7 * scale:
            raise ValueError("start_flow does not route the instance demand")
    else:
        f = forest.route_demand(instance.d, m)

    off_tree = np.flatnonzero(~forest.tree_edge_mask(m))
    g, r, w, p = instance.g, instance.r, instance.w, instance.p
    newton = _LaplacianNewton(graph, forest, off_tree,
                              *forest.fundamental_cycle(
                                  off_tree, graph.tails[off_tree],
                                  graph.heads[off_tree]))

    energy = smoothed_value(g, r, w, p, f)
    last_energy = math.inf
    stagnant = 0
    for iteration in range(max_iterations + 1):
        curv = _curvature(w, p, f)
        edge_grad = smoothed_gradient(g, r, w, p, f, curv)
        grad = newton.to_cycles(edge_grad)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol * (1.0 + abs(energy)):
            return OracleReport(value=energy, flow=f, iterations=iteration,
                                gradient_norm=gnorm)
        if iteration == max_iterations:
            break
        if last_energy - energy <= 4.0 * _EPS * (1.0 + abs(energy)):
            stagnant += 1
            if (stagnant >= _STAGNATION_ITERATIONS
                    and gnorm <= _STAGNATION_GNORM * (1.0 + abs(energy))):
                return OracleReport(value=energy, flow=f,
                                    iterations=iteration, gradient_norm=gnorm)
        else:
            stagnant = 0
        last_energy = energy
        step = newton.step(smoothed_hessian_diag(r, w, p, f, curv),
                           edge_grad, grad, gnorm)
        direction = newton.to_edges(step)
        slope = float(grad @ step)
        if not slope < 0:
            # Numerical degeneracy; fall back to steepest descent.
            step = -grad
            direction = newton.to_edges(step)
            slope = float(grad @ step)
        t = 1.0
        accepted = False
        for _ in range(80):
            candidate = f + t * direction
            cand_energy = smoothed_value(g, r, w, p, candidate)
            if np.isfinite(cand_energy) and cand_energy <= energy + 1e-4 * t * slope:
                f, energy = candidate, cand_energy
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # f did not move, so gnorm is still its gradient norm.
            if gnorm <= max(tol, _STAGNATION_GNORM) * (1.0 + abs(energy)):
                return OracleReport(value=energy, flow=f, iterations=iteration,
                                    gradient_norm=gnorm)
            raise OracleError(
                f"line search stalled at gradient norm {gnorm:.3e}"
            )
    raise OracleError(
        f"no convergence in {max_iterations} iterations "
        f"(gradient norm {gnorm:.3e}, target {tol * (1.0 + abs(energy)):.3e})"
    )


def exact_maxflow(
    graph: IncrementalGraph, capacities: np.ndarray, s: int, t: int
) -> tuple[int, np.ndarray]:
    """Exact undirected maxflow by Dinic's algorithm.

    Capacities must be positive integers; the returned value is integral and
    the per-edge flow is signed (positive along the stored orientation).
    """
    caps = np.asarray(capacities)
    if caps.shape != (graph.m,):
        raise ValueError("capacity length does not match the edge count")
    if not np.all(caps == np.floor(caps)) or not np.all(caps >= 1):
        raise ValueError("capacities must be integers >= 1")
    if s == t:
        raise ValueError("source equals sink")
    n, m = graph.n, graph.m
    # Two arcs per undirected edge, each with the full capacity; pushing on
    # one adds residual to the other, which realizes the undirected model.
    cap = np.empty(2 * m, dtype=np.int64)
    cap[0::2] = caps.astype(np.int64)
    cap[1::2] = caps.astype(np.int64)
    head = np.empty(2 * m, dtype=np.int64)
    head[0::2] = graph.heads
    head[1::2] = graph.tails
    adj: list[list[int]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(zip(graph.tails.tolist(), graph.heads.tolist())):
        adj[u].append(2 * e)
        adj[v].append(2 * e + 1)

    value = 0
    level = np.empty(n, dtype=np.int64)
    while True:
        level[:] = -1
        level[s] = 0
        queue = [s]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            for a in adj[x]:
                y = int(head[a])
                if cap[a] > 0 and level[y] < 0:
                    level[y] = level[x] + 1
                    queue.append(y)
        if level[t] < 0:
            break
        # Blocking flow by depth-first search with an explicit stack of
        # arcs from s. Arcs are tried in adjacency order, and it[x] moves
        # past an arc only once the search behind it has failed, so each
        # augmenting path is the one a recursive search would find.
        it = [0] * n
        limit = int(caps.sum())
        path: list[int] = []
        x = s
        while True:
            if x == t:
                got = min(limit, min(int(cap[a]) for a in path))
                for a in path:
                    cap[a] -= got
                    cap[a ^ 1] += got
                value += got
                path.clear()
                x = s
            elif it[x] < len(adj[x]):
                a = adj[x][it[x]]
                y = int(head[a])
                if cap[a] > 0 and level[y] == level[x] + 1:
                    path.append(a)
                    x = y
                else:
                    it[x] += 1
            elif path:
                # Dead end: retreat to the arc's tail and skip the arc.
                x = int(head[path.pop() ^ 1])
                it[x] += 1
            else:
                break

    flow = (cap[1::2] - cap[0::2]) / 2.0
    return value, flow


def effective_resistance(
    graph: IncrementalGraph, resistances: np.ndarray, s: int, t: int
) -> float:
    """s-t effective resistance from a direct Laplacian solve."""
    res = np.asarray(resistances, dtype=float)
    if res.shape != (graph.m,):
        raise ValueError("resistance length does not match the edge count")
    if not np.all(res > 0):
        raise ValueError("resistances must be strictly positive")
    if s == t:
        raise ValueError("source equals sink")
    if not graph.connected(s, t):
        raise ValueError("s and t are disconnected; resistance is infinite")

    component = np.array([graph.find(v) == graph.find(s) for v in range(graph.n)])
    verts = np.flatnonzero(component)
    index = -np.ones(graph.n, dtype=np.int64)
    index[verts] = np.arange(verts.size)
    tails, heads = graph.tails, graph.heads
    keep = component[tails]
    ti, hi = index[tails[keep]], index[heads[keep]]
    cond = 1.0 / res[keep]

    k = verts.size
    lap = np.zeros((k, k))
    np.add.at(lap, (ti, ti), cond)
    np.add.at(lap, (hi, hi), cond)
    np.add.at(lap, (ti, hi), -cond)
    np.add.at(lap, (hi, ti), -cond)

    ground = index[t]
    keep_rows = np.arange(k) != ground
    reduced = lap[np.ix_(keep_rows, keep_rows)]
    rhs = np.zeros(k)
    rhs[index[s]] = 1.0
    rhs = rhs[keep_rows]
    potentials = np.linalg.solve(reduced, rhs)
    full = np.zeros(k)
    full[keep_rows] = potentials
    return float(full[index[s]] - full[ground])
