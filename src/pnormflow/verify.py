"""Static solvers: static optimum, exact maxflow, effective resistance.

Nothing here depends on the incremental solver. The solver calls
static_pnorm_opt to bootstrap and materialize, and the maxflow driver calls
exact_maxflow to start each phase; tests use all three as ground truth, and
the verdict checker (pnormflow.check) the first and the last. The static
optimizer runs Newton in fundamental cycle coordinates, maxflow is Dinic's,
and effective resistance is a direct Laplacian solve. The cycle count k
chooses how a Newton step is solved: up to _DENSE_CYCLE_LIMIT cycles by
one dense Cholesky factorization of the k x k cycle-space Hessian, above
it through a grounded vertex Laplacian, factored by dense Cholesky when
there are at least as many cycles as free vertices and by sparse splu
otherwise. From iteration _QR_AFTER_ITERATIONS or a failed line search on,
a solve takes each step by its space's one fallback: QR of H^(1/2) C, or
a sparse solve of the vertex space's KKT system, which a vertex-space step
that refinement leaves short of the loosest forcing term also takes.

A solve builds its spanning forest and cycle basis for itself, unless the
caller carries them in a NewtonSetup: the solver keeps one and the maxflow
driver shares one across its phases, so a solve after insertions inside
components only appends their cycles. Every solve runs to one tolerance,
NEWTON_TOL, within one iteration cap, NEWTON_MAX_ITERATIONS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import qr, solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import OracleError
from .graph import (
    IncrementalGraph,
    PNormInstance,
    _curvature,
    _smoothed_sum,
    demand_routable,
    net_demand,
    smoothed_gradient,
    smoothed_hessian_diag,
)
from .trees import SpanningForest

# Newton stops at a decrement of NEWTON_TOL^2 (1 + |E|), an energy error of
# about 5e-17 (1 + |E|): far below the eps-scale margins of the verdicts
# its optima feed, and still reachable at the large p the maxflow driver
# uses.
NEWTON_TOL = 1e-8
NEWTON_MAX_ITERATIONS = 2000
_EPS = float(np.finfo(float).eps)
# Exit thresholds for iterates pinned at the energy evaluation noise floor.
# The objective is strongly convex on the cycle space (curvature >= 2 r^2),
# so repeated noise-level progress with a machine-precision-scale gradient
# means the iterate is the numerical optimum even when NEWTON_TOL is
# unreachable.
_STAGNATION_ITERATIONS = 8
_STAGNATION_GNORM = 100.0 * math.sqrt(_EPS)


# Largest cycle count k whose Newton steps are solved in the cycle space
# with a dense Cholesky factorization; above it each step is a sparse
# vertex-space solve. Both cost about linear in m, and with one BLAS
# thread the dense step takes 0.6-1.5 times the sparse one's time at
# k = 128 for n from 12 to 5,000 (0.2-0.3 times at k = 50, 1.4-4 times
# at k = 200). The dense basis holds k * m cells, at most 1 KiB per edge.
# Above it the grounded vertex Laplacian is factored densely when k is at
# least the free-vertex count, where its sparse factor fills in anyway. On
# random graphs with n = 500 and one BLAS thread, splu takes 11.5 ms and
# potrf 1.6 ms at k = 4,501 (213,618 of 249,001 factor cells filled),
# 2.5 ms and 1.4 ms at k = 501, and 0.8 ms and 1.4 ms at k = 130.
_DENSE_CYCLE_LIMIT = 128
# Largest forcing term of the inexact sparse Newton step (Eisenstat and
# Walker): far from the optimum a rough step suffices, and the forcing term
# min(_FORCING_MAX, ||C^T grad||) keeps convergence fast near it. A step
# that refinement leaves short of even this term is solved by _kkt_step.
_FORCING_MAX = 1e-2
# Iterations after which a solve takes its steps by its space's fallback
# (QR or KKT). Desk maxflow materializations take 10 iterations on average
# and 25 at most; a solve past 50 is one whose steps are inaccurate at
# widely spread curvature.
_QR_AFTER_ITERATIONS = 50


class _CycleNewton:
    """Newton steps in fundamental cycle coordinates.

    The step x solves C^T H C x = -C^T grad, where the columns of C are the
    fundamental cycles and H = diag(h) is the Hessian. The cycle count k
    chooses how:

    - k <= _DENSE_CYCLE_LIMIT: C^T is held as a dense k x m array, so C x
      and C^T y are matrix products, and each step factors C^T H C once by
      Cholesky (LAPACK potrf, potrs). A vanishing curvature h_e is a
      vanishing term there, where the vertex Laplacian below holds the
      huge conductance 1/h_e (at large p the maxflow reduction's h spans
      15 orders of magnitude). Forming C^T H C squares the conditioning,
      and where h spans about 20 orders of magnitude the Cholesky steps
      are no Newton steps. Its fallback step is instead the least squares
      solution of H^(1/2) C x = -H^(-1/2) g_E for the edge gradient g_E,
      whose normal equations are the same system, by economic QR of the
      m x k matrix H^(1/2) C, which never forms C^T H C (Golub and Van
      Loan, "Matrix Computations", on least squares); it costs about twice
      a Cholesky step.
    - Above it, in the vertex space, Delta = C x is the circulation
      minimizing Delta^T H Delta / 2 + grad^T Delta, so Delta =
      -(grad + B phi) / h, where B is the edge-vertex incidence matrix
      and phi solves L phi = -B^T (grad / h) for the Laplacian
      L = B^T diag(1/h) B grounded at every forest root. C is the
      identity on the off-tree edges, so x is Delta read off there. Each
      step factors L once: by dense Cholesky (potrf, potrs) when k is at
      least the number of free vertices, about two edges per non-root
      vertex, where a sparse factor fills in anyway, and by splu
      otherwise. Iterative refinement feeds the cycle-space residual back
      through that factorization until the residual is within the forcing
      term eta = min(_FORCING_MAX, ||C^T grad||) of ||C^T grad|| (machine
      precision at the least), or it stops shrinking. Where curvatures
      span many orders of magnitude, L's factor loses the small
      conductances to the huge ones and refinement stalls. A step whose
      residual stays above _FORCING_MAX ||C^T grad|| is then taken by
      this space's fallback, one sparse LU of the KKT system [H, B; B^T,
      0], which never forms L (_kkt_step). Newton stops on the
      decrement of this step, which the forcing term keeps within a factor
      of about 1 + eta of the exact one. np.bincount forms C x and C^T y
      from the (cycle, edge, sign) triplets, sorted by cycle and then edge
      as scipy's compressed arrays store them; it adds the same terms in
      the same order as scipy's CSC and CSR products, and each sign is
      +-1, so the results are bit-identical to scipy's. Each step
      assembles L from the edge endpoints in edge order, on either
      factorization, so an extended set-up sums its entries as a fresh
      one does.

    The triplets are kept at every k, so a set-up that grows past the
    limit, or to the free-vertex count, changes path or factorization. The
    forest and the grounded vertices are fixed at construction; extend
    appends edges that close cycles in it (see NewtonSetup).
    """

    def __init__(self, graph: IncrementalGraph, forest: SpanningForest):
        n, m = graph.n, graph.m
        self.n, self.m = n, m
        self.forest = forest
        self.tails, self.heads = graph.tails, graph.heads
        self.off_tree = np.flatnonzero(~forest.tree_edge_mask(m))
        self.off_tails = self.tails[self.off_tree]
        self.off_heads = self.heads[self.off_tree]
        self.free = np.flatnonzero(forest.parent_vertex >= 0)
        self._local = np.full(n, -1, dtype=np.int64)
        self._local[self.free] = np.arange(self.free.size)
        cycle, edges, signs = forest.fundamental_cycle(
            self.off_tree, self.off_tails, self.off_heads)
        order = np.argsort(cycle * m + edges)
        self.cycle, self.edge = cycle[order], edges[order]
        self.sign = signs[order].astype(float)
        self._tree: tuple[list[int], ...] | None = None
        self._set_basis()

    def _set_basis(self) -> None:
        """Choose the path by the cycle count, on the dense one build C^T
        from the triplets, and on the vertex-space one choose how L is
        factored."""
        k = self.off_tree.size
        self.dense = k <= _DENSE_CYCLE_LIMIT
        self.dense_laplacian = not self.dense and k >= self.free.size
        self.basis = None
        if self.dense:
            self.basis = np.zeros((k, self.m))
            self.basis[self.cycle, self.edge] = self.sign

    def extend(self, graph: IncrementalGraph) -> None:
        """Append the graph's edges from self.m on, each of which closes a
        cycle in the forest: per edge one cycle, found by the walk of
        SpanningForest.fundamental_cycle on Python ints, after the held
        ones."""
        if self._tree is None:
            forest = self.forest
            self._tree = tuple(a.tolist() for a in (
                forest.depth, forest.parent_vertex, forest.parent_edge,
                forest.parent_sign))
        depth, pv, pe, ps = self._tree
        off, cycle, edge, sign = [], [], [], []
        for e in range(self.m, graph.m):
            u, v = int(graph.tails[e]), int(graph.heads[e])
            steps = [(e, 1)]
            while u != v:
                up_u, up_v = depth[u] >= depth[v], depth[v] >= depth[u]
                if up_v:
                    steps.append((pe[v], ps[v]))
                    v = pv[v]
                if up_u:
                    steps.append((pe[u], -ps[u]))
                    u = pv[u]
            steps.sort()
            cycle += [self.off_tree.size + len(off)] * len(steps)
            edge += [s[0] for s in steps]
            sign += [float(s[1]) for s in steps]
            off.append(e)
        self.m = graph.m
        self.tails, self.heads = graph.tails, graph.heads
        self.off_tree = np.append(self.off_tree, off)
        self.off_tails = self.tails[self.off_tree]
        self.off_heads = self.heads[self.off_tree]
        self.cycle = np.append(self.cycle, cycle)
        self.edge = np.append(self.edge, edge)
        self.sign = np.append(self.sign, sign)
        self._set_basis()

    def to_edges(self, x: np.ndarray) -> np.ndarray:
        """C x: the circulation with cycle coordinates x."""
        if self.dense:
            return x @ self.basis
        return np.bincount(self.edge, self.sign * x[self.cycle], self.m)

    def to_cycles(self, y: np.ndarray) -> np.ndarray:
        """C^T y: the edge vector y summed around each cycle."""
        if self.dense:
            return self.basis @ y
        return np.bincount(self.cycle, self.sign * y[self.edge],
                           self.off_tree.size)

    def _potentials(self, solve, tails, heads, y):
        rhs = np.bincount(tails, y, self.n) - np.bincount(heads, y, self.n)
        phi = np.zeros(self.n)
        phi[self.free] = solve(rhs[self.free])
        return phi

    def step(self, h: np.ndarray, edge_grad: np.ndarray, grad: np.ndarray,
             gnorm: float, fallback: bool = False) -> np.ndarray:
        """Cycle coordinates of the Newton step for the cycle-space
        gradient grad of norm gnorm: exact in the cycle space, to within
        the forcing term in the vertex space, by the space's fallback when
        `fallback` is set; NaN when the factorization fails."""
        if fallback and not self.dense:
            return self._kkt_step(h, edge_grad)
        if fallback:
            root = np.sqrt(h)
            q, r = qr((self.basis * root).T, mode="economic",
                      overwrite_a=True, check_finite=False)
            try:
                return solve_triangular(r, q.T @ (-edge_grad / root),
                                        check_finite=False)
            except np.linalg.LinAlgError:
                return np.full(self.off_tree.size, np.nan)
        if self.dense:
            basis = self.basis
            chol, info = dpotrf((basis * h) @ basis.T, overwrite_a=True)
            if info != 0:
                return np.full(self.off_tree.size, np.nan)
            return dpotrs(chol, -grad)[0]
        cond = 1.0 / h
        # Per edge: +1/h at (tail, tail) and (head, head), -1/h at
        # (tail, head) and (head, tail); entries at grounded vertices drop.
        lt, lh = self._local[self.tails], self._local[self.heads]
        rows = np.concatenate((lt, lh, lt, lh))
        cols = np.concatenate((lt, lh, lh, lt))
        keep = (rows >= 0) & (cols >= 0)
        rows, cols = rows[keep], cols[keep]
        values = np.concatenate((cond, cond, -cond, -cond))[keep]
        size = self.free.size
        if self.dense_laplacian:
            lap = np.bincount(rows * size + cols, values, size * size)
            # L is symmetric, so its transpose is the F-ordered array that
            # potrf factors in place.
            chol, info = dpotrf(lap.reshape(size, size).T, overwrite_a=True)
            if info != 0:
                return np.full(self.off_tree.size, np.nan)

            def solve(b):
                return dpotrs(chol, b)[0]
        else:
            lap = sp.csc_matrix((values, (rows, cols)), shape=(size, size))
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
        if not rnorm <= _FORCING_MAX * gnorm:
            # At widely spread curvature L's factor loses the small
            # conductances to the huge ones, and refinement stalls short of
            # even the loosest forcing term.
            return self._kkt_step(h, edge_grad)
        return x

    def _kkt_step(self, h: np.ndarray, edge_grad: np.ndarray) -> np.ndarray:
        """The vertex-space step without forming L: Delta of the
        equality-constrained Newton (KKT) system [H, B; B^T, 0] [Delta;
        phi] = [-edge_grad; 0] over the free vertices, which holds h_e where
        L holds 1/h_e (Nocedal and Wright, "Numerical Optimization", ch.
        16), by one sparse LU in a symmetric ordering; NaN when it fails."""
        m = self.m
        ends = np.concatenate((self.heads, self.tails))
        incidence = sp.csc_matrix((np.repeat([1.0, -1.0], m), (
            np.tile(np.arange(m), 2), ends)), shape=(m, self.n))[:, self.free]
        kkt = sp.bmat([[sp.diags(h), incidence], [incidence.T, None]],
                      format="csc")
        try:
            lu = spla.splu(kkt, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.1,
                           options={"SymmetricMode": True})
        except RuntimeError:
            return np.full(self.off_tree.size, np.nan)
        rhs = np.concatenate((-edge_grad, np.zeros(self.free.size)))
        return lu.solve(rhs)[self.off_tree]


class NewtonSetup:
    """Newton's set-up for static_pnorm_opt, carried across solves on one
    growing graph: the spanning forest Kruskal takes over the edge order
    0..m-1, its off-tree edges and fundamental-cycle basis (also dense at
    small cycle counts).

    Before each solve it catches up with the graph. An edge inside a
    component leaves that forest as it is, so it appends its cycle; an
    edge that merges two components changes the forest, so the set-up is
    built afresh. An extended set-up equals a fresh one in every field, so
    a solve through it equals a solve without it bit for bit. Between solves
    the solver reads the forest (current_forest) for its oracle's tree
    potentials.
    """

    def __init__(self, graph: IncrementalGraph):
        self.graph = graph
        self._newton: _CycleNewton | None = None
        self._components = 0

    def current_forest(self) -> SpanningForest | None:
        """The carried forest when the set-up holds every edge of the
        graph, as right after a solve through it; otherwise None."""
        newton = self._newton
        if newton is None or newton.m != self.graph.m:
            return None
        return newton.forest

    def _caught_up(self) -> _CycleNewton:
        graph, newton = self.graph, self._newton
        if newton is None or self._components != graph.components:
            self._newton = _CycleNewton(graph, SpanningForest(
                graph.n, graph.tails, graph.heads, range(graph.m)))
            self._components = graph.components
        elif newton.m < graph.m:
            newton.extend(graph)
        return self._newton


@dataclass
class OracleReport:
    """Result of a static optimization: value, optimizer, and how it ended."""

    value: float
    flow: np.ndarray
    iterations: int
    gradient_norm: float


def static_pnorm_opt(
    instance: PNormInstance,
    start_flow: np.ndarray | None = None,
    seed: int | None = None,
    setup: NewtonSetup | None = None,
) -> OracleReport:
    """Minimize the smoothed objective over flows routing the demand.

    Parameterizes feasible flows as f0 + C x where f0 routes the demand on a
    spanning forest and the columns of C are fundamental circulations, then
    runs damped Newton with backtracking until the Newton decrement
    -(grad . step) drops to NEWTON_TOL^2 * (1 + |E(f)|), checked before
    each of NEWTON_MAX_ITERATIONS steps and once after the last; when its
    upper bound grad . (grad / h) over the off-tree edges already meets the
    target, the step is not computed. The decrement is in energy units
    (about twice the gain left), so the rule holds at any capacity scale,
    as a gradient norm in flow units would not. On a forest (no cycles)
    the bound is 0.0 and the tree-routed flow returns at iteration 0.
    Each Newton system C^T H C x = -C^T grad is solved densely in the cycle
    space while the cycle count is small, and through the grounded vertex
    Laplacian B^T H^-1 B to within a forcing term above it (see
    _CycleNewton). Each iterate forms the curvature term w^p |f|^(p-2)
    once, for both the gradient and the Hessian diagonal, and every energy
    is smoothed_value's sum, so the report's value is the instance energy
    of its flow bit for bit.
    A start flow whose energy overflows is replaced by the demand routed
    over the forest Kruskal takes in ascending order of w, which keeps
    large flows off heavy edges; the solve then runs in the set-up's cycle
    basis as before. The value returned is always finite.
    Iterates that stop improving at the energy evaluation noise floor while
    the gradient norm sits at machine-precision scale are returned as
    converged with their achieved gradient_norm; the value error at such a
    plateau is quadratic in the gradient norm and far below any comparison
    the report feeds. A step whose line search finds no decrease ends the
    solve at the current iterate when its gradient norm is within the
    stagnation scale times 1 + |E(f)|, as converged. In either space the
    steps switch to the space's fallback for the rest of the solve (see
    _CycleNewton) at iteration _QR_AFTER_ITERATIONS, or when a line search
    finds no decrease short of the stagnation scale; that iteration is then
    taken again by the fallback. A line search that still finds no decrease
    is an OracleError.

    Args:
        instance: the problem; demand must be routable on the current graph.
        start_flow: optional feasible starting flow (overrides tree routing).
        seed: randomizes the spanning forest, for self-consistency checks.
        setup: a NewtonSetup on the instance's graph, caught up and used
            in place of a set-up built for this solve alone; its forest is
            Kruskal's over the edge order, so it takes no seed.

    Raises:
        ValueError: demand not routable, start_flow infeasible, or a
            setup on another graph or together with a seed.
        OracleError: the lightest forest's start overflows too, the
            tolerance is not reached within the iteration cap, or the line
            search stalled short of it.
    """
    graph = instance.graph
    m = graph.m
    if not demand_routable(graph, instance.d):
        raise ValueError("demand is not routable on the current graph")

    if setup is None:
        edge_order: np.ndarray | range = range(m)
        if seed is not None:
            edge_order = np.random.Generator(
                np.random.Philox(key=seed)).permutation(m)
        newton = _CycleNewton(graph, SpanningForest(
            graph.n, graph.tails, graph.heads, edge_order))
    elif setup.graph is not graph or seed is not None:
        raise ValueError("a carried set-up must be on the instance's graph "
                         "and fixes the forest, so it takes no seed")
    else:
        newton = setup._caught_up()
    forest = newton.forest

    if start_flow is not None:
        f = np.array(start_flow, dtype=float)
        imbalance = net_demand(graph, f) - instance.d
        scale = 1.0 + float(np.abs(instance.d).max(initial=0.0))
        scale += float(np.abs(f).max(initial=0.0))
        if float(np.max(np.abs(imbalance))) > 1e-7 * scale:
            raise ValueError("start_flow does not route the instance demand")
    else:
        f = forest.route_demand(instance.d, m)

    off_tree = newton.off_tree
    terms = g, r, w, p = instance.g, instance.r, instance.w, instance.p
    with np.errstate(over="ignore"):
        energy = float(_smoothed_sum(g, r, w, p, f))
        if not math.isfinite(energy):
            # Route over the forest of the lightest weights instead; any
            # feasible start works in the set-up's cycle basis.
            f = SpanningForest(graph.n, graph.tails, graph.heads, np.argsort(
                w, kind="stable")).route_demand(instance.d, m)
            energy = float(_smoothed_sum(g, r, w, p, f))
        if not math.isfinite(energy):
            raise OracleError(f"energy of the start flow overflows ({energy})")
        last_energy = math.inf
        stagnant = 0
        fallback = False

        def newton_step() -> tuple[np.ndarray, float]:
            step = newton.step(h, edge_grad, grad, gnorm, fallback)
            if not float(grad @ step) < 0:
                # Numerical degeneracy; fall back to steepest descent.
                step = -grad
            return step, -float(grad @ step)

        for iteration in range(NEWTON_MAX_ITERATIONS + 1):
            fallback = fallback or iteration == _QR_AFTER_ITERATIONS
            curv = _curvature(w, p, f)
            edge_grad = smoothed_gradient(g, r, w, p, f, curv)
            grad = newton.to_cycles(edge_grad)
            gnorm = math.sqrt(float(grad @ grad))
            h = smoothed_hessian_diag(r, p, curv)
            target = NEWTON_TOL * NEWTON_TOL * (1.0 + abs(energy))
            # The Newton decrement -(grad . step), about twice the gain
            # left, is at most grad . (grad / h) over the off-tree edges,
            # where C^T H C dominates H; when that bound meets the target,
            # no step is needed.
            decrement = float(grad @ (grad / h[off_tree]))
            if not decrement <= target:
                step, decrement = newton_step()
            if decrement <= target:
                return OracleReport(value=energy, flow=f,
                                    iterations=iteration, gradient_norm=gnorm)
            if iteration == NEWTON_MAX_ITERATIONS:
                break
            if last_energy - energy <= 4.0 * _EPS * (1.0 + abs(energy)):
                stagnant += 1
                if (stagnant >= _STAGNATION_ITERATIONS
                        and gnorm <= _STAGNATION_GNORM * (1.0 + abs(energy))):
                    return OracleReport(value=energy, flow=f,
                                        iterations=iteration,
                                        gradient_norm=gnorm)
            else:
                stagnant = 0
            last_energy = energy
            moved = _line_search(terms, f, energy, newton.to_edges(step),
                                 decrement)
            # Where f did not move, gnorm is still its gradient norm.
            converged = gnorm <= _STAGNATION_GNORM * (1.0 + abs(energy))
            if moved is None and not converged and not fallback:
                # Inaccurate steps: this iteration again, and the rest of
                # the solve, by the fallback. A fallback step that meets the
                # target leaves f where it is, and the next iteration returns.
                fallback = True
                step, decrement = newton_step()
                moved = (f, energy) if decrement <= target else _line_search(
                    terms, f, energy, newton.to_edges(step), decrement)
            if moved is None:
                if converged:
                    return OracleReport(value=energy, flow=f,
                                        iterations=iteration,
                                        gradient_norm=gnorm)
                raise OracleError(
                    f"line search stalled at gradient norm {gnorm:.3e}"
                )
            f, energy = moved
    raise OracleError(
        f"no convergence in {NEWTON_MAX_ITERATIONS} iterations "
        f"(Newton decrement {decrement:.3e}, target {target:.3e})"
    )


def _line_search(terms: tuple, f: np.ndarray, energy: float,
                 direction: np.ndarray, decrement: float
                 ) -> tuple[np.ndarray, float] | None:
    """Backtracking from the full step: the first of f + t direction,
    t = 1, 1/2, ..., 2^-79, whose finite energy (of the instance terms
    g, r, w, p) drops by at least 1e-4 t decrement, with that energy;
    None when none does."""
    g, r, w, p = terms
    t = 1.0
    for _ in range(80):
        candidate = f + t * direction
        cand_energy = float(_smoothed_sum(g, r, w, p, candidate))
        if (math.isfinite(cand_energy)
                and cand_energy <= energy - 1e-4 * t * decrement):
            return candidate, cand_energy
        t *= 0.5
    return None


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
