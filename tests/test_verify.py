"""Tests for the reference oracles: convex optimum, maxflow, resistance."""

import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dpotrf, dpotrs

import pnormflow.verify as verify_module
from pnormflow.check import stream_checker
from pnormflow.drivers import event_calls
from pnormflow.graph import (IncrementalGraph, PNormInstance, _curvature,
                             net_demand, smoothed_gradient,
                             smoothed_hessian_diag, smoothed_value)
from pnormflow.errors import OracleError
from pnormflow.refine import CertifiedAbove, Flow
from pnormflow.streams import parse_stream
from pnormflow.trees import SpanningForest
from pnormflow.verify import (
    _DENSE_CYCLE_LIMIT,
    _EPS,
    _STAGNATION_GNORM,
    NEWTON_TOL,
    NewtonSetup,
    _CycleNewton,
    effective_resistance,
    exact_maxflow,
    static_pnorm_opt,
)
from support import finite_diff_check


FACTORIZATIONS = ("cycle-cholesky", "vertex-cholesky", "vertex-splu")
STREAMS = Path(__file__).parent / "streams"


@pytest.fixture(params=FACTORIZATIONS)
def factorization(request, monkeypatch):
    """How Newton steps are factored: the cycle-space Hessian by Cholesky,
    or the grounded vertex Laplacian by Cholesky or by splu. For the
    vertex-space cases the cycle limit is set below every cycle count; the
    graph's cycle and free-vertex counts then choose between them."""
    if request.param != "cycle-cholesky":
        monkeypatch.setattr(verify_module, "_DENSE_CYCLE_LIMIT", -1)
    return request.param


def factorization_of(newton):
    if newton.dense:
        return "cycle-cholesky"
    return "vertex-cholesky" if newton.dense_laplacian else "vertex-splu"


def build_instance(n, edges, d, p, g=None, r=None, w=None):
    graph = IncrementalGraph(n)
    for u, v in edges:
        graph.add_edge(u, v)
    m = len(edges)
    inst = PNormInstance(graph, np.asarray(d, dtype=float), p,
                         threshold=0.0, eps=1e-6)
    inst.set_edge_attrs(
        np.zeros(m) if g is None else np.asarray(g, dtype=float),
        np.ones(m) if r is None else np.asarray(r, dtype=float),
        np.ones(m) if w is None else np.asarray(w, dtype=float))
    return inst


def random_instance(rng, n_max=8, p_choices=(2, 3, 4)):
    n = int(rng.integers(2, n_max + 1))
    graph = IncrementalGraph(n)
    spine = rng.permutation(n)
    for i in range(n - 1):
        graph.add_edge(int(spine[i]), int(spine[i + 1]))
    for _ in range(int(rng.integers(0, n + 2))):
        u, v = rng.choice(n, size=2, replace=False)
        graph.add_edge(int(u), int(v))
    d = rng.normal(size=n)
    d -= d.mean()
    p = int(rng.choice(p_choices))
    inst = PNormInstance(graph, d, p, threshold=0.0, eps=1e-6)
    m = graph.m
    inst.set_edge_attrs(rng.normal(size=m), 0.2 + rng.random(m),
                        0.2 + rng.random(m))
    return inst


def quadratic_optimum(inst):
    """Closed-form optimum at p = 2: with c = r^2 + w^2 the optimal flow is
    f = (B phi - g) / 2c, where B is the incidence matrix (-1 at the tail,
    +1 at the head) and phi solves B^T diag(1/2c) B phi = d + B^T (g/2c)."""
    n = inst.graph.n
    tails, heads = inst.graph.tails, inst.graph.heads
    c = inst.r ** 2 + inst.w ** 2
    cond = 1.0 / (2.0 * c)
    lap = np.zeros((n, n))
    np.add.at(lap, (tails, tails), cond)
    np.add.at(lap, (heads, heads), cond)
    np.add.at(lap, (tails, heads), -cond)
    np.add.at(lap, (heads, tails), -cond)
    rhs = inst.d.copy()
    np.add.at(rhs, heads, inst.g * cond)
    np.subtract.at(rhs, tails, inst.g * cond)
    phi = np.zeros(n)
    phi[1:] = np.linalg.solve(lap[1:, 1:], rhs[1:])
    f = (phi[heads] - phi[tails] - inst.g) * cond
    return float(inst.g @ f + c @ f ** 2), f


def maxflow_instance(seed, eps):
    """The maxflow driver's p-norm instance at the exact maxflow value of a
    random 8-vertex multigraph, and the exact flow as a start."""
    rng = np.random.Generator(np.random.Philox(seed))
    n = 8
    graph = IncrementalGraph(n)
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    while graph.m < 3 * n:
        u, v = rng.choice(n, size=2, replace=False)
        graph.add_edge(int(u), int(v))
    m = graph.m
    caps = rng.integers(1, 9, size=m).astype(float)
    p = math.ceil(2.0 * math.log(2 * m) / eps)
    value, flow = exact_maxflow(graph, caps, 0, n - 1)
    d = np.zeros(n)
    d[0], d[-1] = -value, value
    inst = PNormInstance(graph, d, p, threshold=0.0, eps=1.0)
    delta = math.exp(-eps * p / 2) / (2.0 * math.sqrt(m))
    inst.set_edge_attrs(np.zeros(m), delta / caps, 1.0 / caps)
    return inst, flow


class TestStaticPNormOpt:
    """The Newton oracle for the smoothed objective: steps in cycle
    coordinates, solved densely in the cycle space at small cycle counts
    and through a grounded vertex Laplacian above them."""

    def test_parallel_edges_split_evenly(self):
        inst = build_instance(2, [(0, 1), (0, 1)], [-1.0, 1.0], 2,
                              w=[1e-6, 1e-6])
        report = static_pnorm_opt(inst, seed=0)
        assert np.allclose(report.flow, [0.5, 0.5], atol=1e-6)
        assert report.value == pytest.approx(0.5, abs=1e-6)

    def test_single_edge_unit_demand(self):
        inst = build_instance(2, [(0, 1)], [-1.0, 1.0], 2)
        report = static_pnorm_opt(inst, seed=0)
        assert np.allclose(report.flow, [1.0])
        assert report.value == pytest.approx(2.0, rel=1e-9)

    def test_forest_returns_the_tree_routed_flow(self):
        # No cycles: the gradient norm is 0.0 at iteration 0.
        inst = build_instance(5, [(0, 1), (1, 2), (1, 3)],
                              [-2.0, 0.5, 1.0, 0.5, 0.0], 3,
                              g=[0.3, -0.2, 0.1], w=[0.5, 2.0, 1.0])
        report = static_pnorm_opt(inst)
        graph = inst.graph
        routed = SpanningForest(graph.n, graph.tails, graph.heads,
                                range(graph.m)).route_demand(inst.d, graph.m)
        assert report.iterations == 0
        assert report.gradient_norm == 0.0
        assert report.flow.tobytes() == routed.tobytes()
        assert report.value == smoothed_value(inst.g, inst.r, inst.w, 3,
                                              routed)

    def test_zero_demand_zero_gradient_gives_zero(self):
        inst = build_instance(3, [(0, 1), (1, 2), (2, 0)], [0.0, 0.0, 0.0], 2)
        report = static_pnorm_opt(inst, seed=0)
        assert report.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(report.flow, 0.0, atol=1e-9)

    def test_unroutable_demand_rejected(self):
        graph = IncrementalGraph(3)
        graph.add_edge(0, 1)
        inst = PNormInstance(graph, np.array([-1.0, 0.0, 1.0]), 2,
                             threshold=0.0, eps=1e-6)
        inst.set_edge_attrs(np.zeros(1), np.ones(1), np.ones(1))
        with pytest.raises(ValueError):
            static_pnorm_opt(inst, seed=0)

    def test_optimizer_is_feasible_and_first_order_optimal(self):
        rng = np.random.Generator(np.random.Philox(11))
        inst = random_instance(rng)
        report = static_pnorm_opt(inst, seed=0)
        imbalance = net_demand(inst.graph, report.flow) - inst.d
        assert float(np.max(np.abs(imbalance))) < 1e-9 * (
            1 + float(np.max(np.abs(inst.d))))
        assert report.gradient_norm <= 1e-9 * (1.0 + abs(report.value))

    @pytest.mark.parametrize("p", [3, 4, 37])
    @pytest.mark.parametrize("seed", range(10))
    def test_inexact_steps_keep_the_optimum(self, p, seed):
        # Newton steps are solved only to the forcing term, but the solve
        # ends on the true gradient norm, and another forest (another
        # cycle basis, other iterates) reaches the same value. The bound
        # is the stagnation scale, which also admits the documented
        # noise-floor exit: the decrement rule bounds the gradient only
        # through the curvature, and two of these 60 solves (p = 3 and
        # p = 37, seed 2, forest 1) end at a gradient norm between
        # NEWTON_TOL and that scale.
        rng = np.random.Generator(np.random.Philox(seed))
        inst = random_instance(rng, p_choices=(p,))
        first = static_pnorm_opt(inst, seed=1)
        second = static_pnorm_opt(inst, seed=2)
        for report in (first, second):
            assert report.gradient_norm <= _STAGNATION_GNORM * (
                1.0 + abs(report.value))
        assert abs(second.value - first.value) <= 1e-10 * abs(first.value)

    def test_converged_solve_computes_no_step_past_its_last(self,
                                                            monkeypatch):
        # At the optimum the decrement's bound grad . (grad / h) meets the
        # target, so the solve ends without computing a step.
        steps = []
        step = _CycleNewton.step
        monkeypatch.setattr(_CycleNewton, "step", lambda self, *args: (
            steps.append(1), step(self, *args))[1])
        for seed in range(30):
            inst = random_instance(np.random.Generator(np.random.Philox(
                seed)), p_choices=(2, 3, 37))
            before = len(steps)
            report = static_pnorm_opt(inst)
            assert len(steps) - before == report.iterations

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_optimum_invariant_under_restart(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        inst = random_instance(rng)
        first = static_pnorm_opt(inst, seed=1)
        warm = first.flow + 0.0
        # A different feasible start: perturb along a circulation.
        second = static_pnorm_opt(inst, seed=2, start_flow=warm)
        third = static_pnorm_opt(inst, seed=3)
        scale = 1.0 + abs(first.value)
        assert abs(second.value - first.value) <= 1e-7 * scale
        assert abs(third.value - first.value) <= 1e-7 * scale

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_p2_zero_gradient_matches_effective_resistance(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(2, 7))
        graph = IncrementalGraph(n)
        spine = rng.permutation(n)
        for i in range(n - 1):
            graph.add_edge(int(spine[i]), int(spine[i + 1]))
        for _ in range(int(rng.integers(0, n))):
            u, v = rng.choice(n, size=2, replace=False)
            graph.add_edge(int(u), int(v))
        m = graph.m
        resistances = 0.5 + rng.random(m)
        s, t = int(spine[0]), int(spine[-1])
        scale = float(rng.uniform(0.5, 2.0))
        d = np.zeros(n)
        d[s], d[t] = -scale, scale
        inst = PNormInstance(graph, d, 2, threshold=0.0, eps=1e-6)
        inst.set_edge_attrs(np.zeros(m), np.sqrt(resistances),
                            np.full(m, 1e-7))
        report = static_pnorm_opt(inst, seed=0)
        expected = effective_resistance(graph, resistances, s, t) * scale ** 2
        assert report.value == pytest.approx(expected, rel=1e-6)

    # 901 cycles on 99 free vertices (vertex Cholesky), and 201 cycles on
    # 399 (splu).
    @pytest.mark.parametrize("n, m, factored", [
        (100, 1000, "vertex-cholesky"), (400, 600, "vertex-splu")])
    def test_vertex_laplacian_matches_closed_form(self, n, m, factored):
        rng = np.random.Generator(np.random.Philox(17))
        assert m - (n - 1) > _DENSE_CYCLE_LIMIT
        graph = IncrementalGraph(n)
        for i in range(n - 1):
            graph.add_edge(i, i + 1)
        while graph.m < m:
            u, v = rng.choice(n, size=2, replace=False)
            graph.add_edge(int(u), int(v))
        d = rng.normal(size=n)
        d -= d.mean()
        inst = PNormInstance(graph, d, 2, threshold=0.0, eps=1e-6)
        inst.set_edge_attrs(rng.normal(size=m), 0.2 + rng.random(m),
                            0.2 + rng.random(m))
        setup = NewtonSetup(graph)
        report = static_pnorm_opt(inst, setup=setup)
        assert factorization_of(setup._newton) == factored
        value, flow = quadratic_optimum(inst)
        assert report.value == pytest.approx(value, rel=1e-9)
        assert np.allclose(report.flow, flow, rtol=1e-7, atol=1e-9)

    @pytest.mark.parametrize("seed", [5, 6, 10])
    def test_large_p_maxflow_reduction_converges(self, seed):
        # p = 78 here; the Newton steps need refined Laplacian solves to
        # reach Newton's tolerance.
        inst, flow = maxflow_instance(seed, eps=0.1)
        report = static_pnorm_opt(inst, start_flow=flow, seed=0)
        assert report.gradient_norm <= NEWTON_TOL * (
            1.0 + abs(report.value))
        imbalance = net_demand(inst.graph, report.flow) - inst.d
        assert float(np.max(np.abs(imbalance))) <= 1e-9 * float(
            np.max(np.abs(inst.d)))

    @pytest.mark.parametrize("p", [2, 3, 37])
    def test_value_is_the_energy_of_the_flow(self, factorization, p):
        # The solver adopts report.value as the energy of report.flow. The
        # random graphs take either vertex-space factorization; each case
        # checks the ones that take its own.
        checked = 0
        for seed in range(40):
            inst = random_instance(np.random.Generator(np.random.Philox(
                seed)), p_choices=(p,))
            setup = NewtonSetup(inst.graph)
            report = static_pnorm_opt(inst, setup=setup)
            if factorization_of(setup._newton) == factorization:
                assert report.value == inst.energy(report.flow)
                checked += 1
        assert checked >= 10

    def test_overflowing_start_restarts_on_the_lightest_forest(self):
        # Routing 10 over the heavy edge costs (1e6 * 10)^60, past the
        # float range; the forest of the two light edges starts finite.
        inst = build_instance(3, [(0, 2), (0, 1), (1, 2)], [-10.0, 0.0, 10.0],
                              60, r=[1e-3] * 3, w=[1e6, 1e-2, 1e-2])
        report = static_pnorm_opt(inst, start_flow=[10.0, 0.0, 0.0])
        assert report.value == inst.energy(report.flow)
        assert report.value == pytest.approx(2.0e-4, rel=1e-6)

    def test_start_overflowing_on_every_forest_raises(self):
        inst = build_instance(3, [(0, 1), (1, 2), (0, 2)],
                              [-1e300, 0.0, 1e300], 2)
        with pytest.raises(OracleError, match="start flow overflows"):
            static_pnorm_opt(inst)


class TestCycleBasisProducts:
    """The Newton solver forms C x and C^T y by dense matrix products up to
    _DENSE_CYCLE_LIMIT cycles, which must agree with scipy's CSC and CSR
    products to rounding, and by np.bincount over sorted triplets above
    it, which must equal them bit for bit: the vertex-space path's iterates
    depend on them."""

    @pytest.mark.parametrize("n, dense", [(12, True), (80, True),
                                          (80, False)])
    @pytest.mark.parametrize("seed", range(10))
    def test_products_match_scipy(self, n, dense, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        graph = IncrementalGraph(n)
        # A random forest (odd seeds leave some vertices unattached), then
        # random and parallel extra edges.
        for v in range(1, n):
            if seed % 2 == 0 or rng.random() < 0.8:
                graph.add_edge(int(rng.integers(0, v)), v)
        want = int(rng.integers(1, min(2 * n, _DENSE_CYCLE_LIMIT))) if dense \
            else _DENSE_CYCLE_LIMIT + int(rng.integers(1, 2 * n))
        while graph.m - (n - graph.components) < want:
            u, v = rng.choice(n, size=2, replace=False)
            for _ in range(int(rng.integers(1, 3))):
                graph.add_edge(int(u), int(v))
        m = graph.m
        forest = SpanningForest(n, graph.tails, graph.heads,
                                rng.permutation(m))
        off_tree = np.flatnonzero(~forest.tree_edge_mask(m))
        cycle, edges, signs = forest.fundamental_cycle(
            off_tree, graph.tails[off_tree], graph.heads[off_tree])
        newton = _CycleNewton(graph, forest)
        assert newton.dense == dense
        if seed % 2 == 0:
            assert newton.free.size == n - 1
        basis = sp.csc_matrix((signs.astype(float), (edges, cycle)),
                              shape=(m, off_tree.size))
        # Entries over many magnitudes, so that any other summation order
        # would round differently.
        x = rng.normal(size=off_tree.size) * 10.0 ** rng.uniform(
            -6, 6, off_tree.size)
        y = rng.normal(size=m) * 10.0 ** rng.uniform(-6, 6, m)
        ours = (newton.to_edges(x), newton.to_cycles(y))
        theirs = (basis @ x, basis.T.tocsr() @ y)
        if dense:
            # A sum of at most m signed terms rounds by at most m * eps
            # times the sum of their magnitudes.
            bounds = (abs(basis) @ abs(x), abs(basis).T @ abs(y))
            for a, b, bound in zip(ours, theirs, bounds):
                assert np.all(np.abs(a - b) <= m * _EPS * bound)
        else:
            for a, b in zip(ours, theirs):
                assert np.array_equal(a, b)


def two_component_graph(n, rng):
    """A multigraph on n vertices with two components, vertices below
    2n/3 and the rest, each a random tree plus random extra edges."""
    graph = IncrementalGraph(n)
    cut = 2 * n // 3
    for lo, hi in ((0, cut), (cut, n)):
        for v in range(lo + 1, hi):
            graph.add_edge(int(rng.integers(lo, v)), v)
        for _ in range(hi - lo):
            u, v = rng.choice(np.arange(lo, hi), size=2, replace=False)
            graph.add_edge(int(u), int(v))
    return graph, cut


def add_inside(graph, rng, lo, hi, count):
    for _ in range(count):
        u, v = rng.choice(np.arange(lo, hi), size=2, replace=False)
        graph.add_edge(int(u), int(v))


class TestNewtonSetup:
    """A set-up carried across solves on a growing graph: extended by each
    edge inside a component, built afresh after a merge, and equal to a
    fresh build either way."""

    @staticmethod
    def assert_matches_fresh(newton, graph):
        fresh = _CycleNewton(graph, SpanningForest(
            graph.n, graph.tails, graph.heads, range(graph.m)))
        for field in ("parent_vertex", "parent_edge", "parent_sign",
                      "depth", "order", "tree_edges"):
            assert np.array_equal(getattr(newton.forest, field),
                                  getattr(fresh.forest, field)), field
        # Every other field, bar the forest (compared above) and _tree, the
        # walk's copy of the forest, which only extend makes.
        assert vars(newton).keys() == vars(fresh).keys()
        for field, theirs in vars(fresh).items():
            ours = getattr(newton, field)
            if field in ("forest", "_tree"):
                continue
            if isinstance(theirs, np.ndarray):
                assert ours.dtype == theirs.dtype, field
                assert np.array_equal(ours, theirs), field
            else:
                assert ours == theirs, field

    # Each component holds as many extra edges as vertices, so the set-up
    # starts with n cycles on n - 2 free vertices: at n = _DENSE_CYCLE_LIMIT
    # the first extension leaves the cycle space for vertex Cholesky.
    @pytest.mark.parametrize("n", [12, _DENSE_CYCLE_LIMIT, 240])
    @pytest.mark.parametrize("seed", range(3))
    def test_extended_and_rebuilt_set_up_match_a_fresh_build(self, n, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        graph, cut = two_component_graph(n, rng)
        setup = NewtonSetup(graph)
        newton = setup._caught_up()
        assert newton.off_tree.size == n
        assert newton.dense == (n <= _DENSE_CYCLE_LIMIT)
        for count in (1, 3):
            add_inside(graph, rng, 0, cut, count)
            add_inside(graph, rng, cut, n, 1)
            # Extended in place.
            assert setup._caught_up() is newton
            self.assert_matches_fresh(newton, graph)
        graph.add_edge(0, n - 1)
        add_inside(graph, rng, 0, n, 2)
        rebuilt = setup._caught_up()
        assert rebuilt is not newton
        self.assert_matches_fresh(rebuilt, graph)
        # Caught up already: nothing to do.
        m = rebuilt.m
        assert setup._caught_up() is rebuilt and rebuilt.m == m

    def test_vertex_laplacian_factorization_changes_at_the_free_count(self):
        # A tree on 140 vertices plus 138 chords: 138 cycles on 139 free
        # vertices take splu; the next chord extends the set-up to 139
        # cycles, which take vertex Cholesky.
        rng = np.random.Generator(np.random.Philox(3))
        n = 140
        graph = IncrementalGraph(n)
        for v in range(1, n):
            graph.add_edge(int(rng.integers(0, v)), v)
        add_inside(graph, rng, 0, n, n - 2)
        setup = NewtonSetup(graph)
        newton = setup._caught_up()
        assert (newton.off_tree.size, newton.free.size) == (n - 2, n - 1)
        assert factorization_of(newton) == "vertex-splu"
        add_inside(graph, rng, 0, n, 1)
        assert setup._caught_up() is newton
        assert factorization_of(newton) == "vertex-cholesky"
        self.assert_matches_fresh(newton, graph)

    # A tree on 12 vertices (cycle space), a tree on 60 vertices plus
    # _DENSE_CYCLE_LIMIT + 1 cycles (vertex Cholesky), and a tree on 200
    # vertices plus as many cycles (splu).
    @pytest.mark.parametrize("n, cycles, factored", [
        (12, 0, "cycle-cholesky"),
        (60, _DENSE_CYCLE_LIMIT + 1, "vertex-cholesky"),
        (200, _DENSE_CYCLE_LIMIT + 1, "vertex-splu")])
    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_solves_with_and_without_the_set_up_agree(self, n, cycles,
                                                      factored, p, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        graph = IncrementalGraph(n)
        d = rng.normal(size=n)
        d -= d.mean()
        inst = PNormInstance(graph, d, p, threshold=0.0, eps=1e-6)

        def add(u, v):
            inst.add_edge(u, v, *rng.normal(size=1), 0.2 + rng.random(),
                          0.2 + rng.random())

        for v in range(1, n):
            add(int(rng.integers(0, v)), v)
        for _ in range(cycles):
            add(*(int(u) for u in rng.choice(n, size=2, replace=False)))
        setup = NewtonSetup(graph)
        newton = None
        for _ in range(6):
            carried = static_pnorm_opt(inst, setup=setup)
            # The graph stays connected, so each solve extends the set-up.
            newton = newton or setup._newton
            assert setup._newton is newton and newton.m == inst.m
            assert factorization_of(newton) == factored
            fresh = static_pnorm_opt(inst)
            assert carried.value == fresh.value
            assert carried.flow.tobytes() == fresh.flow.tobytes()
            assert carried.iterations == fresh.iterations
            add(*(int(u) for u in rng.choice(n, size=2, replace=False)))

    def test_set_up_must_match_the_graph_and_take_no_seed(self):
        inst = build_instance(2, [(0, 1)], [-1.0, 1.0], 2)
        other = NewtonSetup(IncrementalGraph(2))
        with pytest.raises(ValueError, match="carried set-up"):
            static_pnorm_opt(inst, setup=other)
        with pytest.raises(ValueError, match="carried set-up"):
            static_pnorm_opt(inst, setup=NewtonSetup(inst.graph), seed=0)


# p = 2 and k = 5 cycles at event 2, where h spans 4.8e-11 to 6.6e10: the
# dense Cholesky factor of C^T H C exists but its steps are too inaccurate
# for Newton to converge; vertex-space steps (factored by Cholesky or by
# splu) answer C, C, F, F, F, F.
WIDE_CURVATURE = parse_stream("""\
problem pnorm n=3 mmax=10 p=2 F=0.002222564938627855 eps=2.222564938627855e-06
demand 3 -72.27264166306318
demand 2 72.27264166306318
edge 2 1 g=-1.5088382793575124 r=0.9827100919642952 w=113725.58709447771
edge 2 3 g=-0.09911279960030983 r=0.7266616507057861 w=227.8963964781598
edge 3 1 g=0.0011128436998968487 r=1243.179044197371 w=0.029656870969632956
edge 2 1 g=-0.05860441820447424 r=181831.98167282745 w=4.6625426321627255e-06
edge 1 2 g=0.00352244512813323 r=3.1508457997617153e-06 w=2.0788675900500816e-05
start
add 1 3 g=0.023069567459551743 r=86007.93959023143 w=0.00537763992093637
add 1 2 g=-73.11489632607973 r=1.3078387517512533e-06 w=4.711173308063378e-06
add 3 2 g=-0.04370505450520541 r=14.181789329013403 w=0.8456460354106067
add 1 3 g=-2.4284760176759703 r=9.891855076841525 w=0.0010576963616390307
add 1 2 g=-22.46629254239485 r=1.154349698491713e-05 w=0.0001866457069197257
""")


def newton_system(seed, p, factorization="cycle-cholesky"):
    """A _CycleNewton, the edge gradient, Hessian diagonal and cycle-space
    gradient of a random smoothed objective at a random flow, and the
    cycle-space Hessian C^T H C formed explicitly. The graph is a random
    12-vertex multigraph (24 cycles on 11 free vertices) or, for
    vertex-splu, a random tree on 30 vertices plus 15 chords; under the
    factorization fixture its case takes the named factorization."""
    rng = np.random.Generator(np.random.Philox(seed))
    n, chords = (30, 15) if factorization == "vertex-splu" else (12, 24)
    graph = IncrementalGraph(n)
    for v in range(1, n):
        graph.add_edge(int(rng.integers(0, v)), v)
    for _ in range(chords):
        u, v = rng.choice(n, size=2, replace=False)
        graph.add_edge(int(u), int(v))
    m = graph.m
    forest = SpanningForest(n, graph.tails, graph.heads, rng.permutation(m))
    newton = _CycleNewton(graph, forest)
    off_tree = newton.off_tree
    g, r, w = rng.normal(size=m), 0.2 + rng.random(m), 0.2 + rng.random(m)
    # w |f| stays near 1, so at p = 37 h spans a few orders of magnitude
    # and the explicit reference solve stays accurate.
    f = 0.4 * rng.normal(size=m)
    curv = _curvature(w, p, f)
    edge_grad = smoothed_gradient(g, r, w, p, f, curv)
    h = smoothed_hessian_diag(r, p, curv)
    basis = np.zeros((m, off_tree.size))
    np.add.at(basis, (newton.edge, newton.cycle), newton.sign)
    return (newton, h, edge_grad, newton.to_cycles(edge_grad),
            basis.T @ (h[:, None] * basis))


class TestNewtonStep:
    """One Newton step: one factorization on every path (the vertex-space
    path reuses it for every refinement pass), and a step accurate to the
    forcing term."""

    def test_factors_once_per_step(self, monkeypatch, factorization):
        factored, solved = [], []

        def counting(calls, fn):
            def counted(*args, **kwargs):
                calls.append(1)
                return fn(*args, **kwargs)
            return counted

        if factorization == "vertex-splu":
            splu = verify_module.spla.splu

            def counting_splu(*args, **kwargs):
                factored.append(1)
                lu = splu(*args, **kwargs)
                return SimpleNamespace(solve=counting(solved, lu.solve))

            monkeypatch.setattr(verify_module.spla, "splu", counting_splu)
        else:
            monkeypatch.setattr(verify_module, "dpotrf",
                                counting(factored, dpotrf))
            monkeypatch.setattr(verify_module, "dpotrs",
                                counting(solved, dpotrs))
        for seed in range(5):
            newton, h, edge_grad, grad, _ = newton_system(seed, 37,
                                                          factorization)
            assert factorization_of(newton) == factorization
            # A gradient norm of 1e-20 makes the forcing term machine
            # precision, so refinement runs as far as it can.
            scale = 1e-20 / float(np.linalg.norm(grad))
            before = len(solved)
            newton.step(h, scale * edge_grad, scale * grad, 1e-20)
            assert len(factored) == seed + 1
            assert len(solved) - before >= 1
        if factorization == "cycle-cholesky":
            assert len(solved) == len(factored)
        else:
            assert len(solved) > len(factored)

    @pytest.mark.parametrize("p", [2, 3, 37])
    @pytest.mark.parametrize("seed", range(5))
    def test_qr_step_matches_dense_solve(self, monkeypatch, p, seed):
        # QR of H^(1/2) C factors no C^T H C.
        monkeypatch.setattr(verify_module, "dpotrf", None)
        newton, h, edge_grad, grad, hessian = newton_system(seed, p)
        reference = np.linalg.solve(hessian, -grad)
        step = newton.step(h, edge_grad, grad, float(np.linalg.norm(grad)),
                           by_qr=True)
        assert np.linalg.norm(step - reference) <= 1e-10 * np.linalg.norm(
            reference)

    @pytest.mark.parametrize("p", [2, 3, 37])
    @pytest.mark.parametrize("seed", range(10))
    def test_step_matches_dense_solve(self, factorization, p, seed):
        newton, h, edge_grad, grad, hessian = newton_system(seed, p,
                                                            factorization)
        assert factorization_of(newton) == factorization
        gnorm = float(np.linalg.norm(grad))
        reference = np.linalg.solve(hessian, -grad)
        step = newton.step(h, edge_grad, grad, gnorm)
        assert np.linalg.norm(step - reference) <= 1e-10 * np.linalg.norm(
            reference)
        # Far from the optimum the step only has to meet the forcing term.
        assert np.linalg.norm(hessian @ step + grad) <= min(
            1e-2, gnorm) * gnorm
        # The decrement is at most its bound over the off-tree edges, where
        # C^T H C dominates H.
        assert -(grad @ reference) <= (grad @ (grad / h[newton.off_tree])
                                       * (1 + 1e-12))

    @pytest.mark.parametrize("p", [2, 3, 37])
    @pytest.mark.parametrize("seed", range(10))
    def test_paths_agree_to_rounding(self, monkeypatch, factorization, p,
                                     seed):
        newton, h, edge_grad, grad, _ = newton_system(seed, p, factorization)
        assert factorization_of(newton) == factorization
        # The same graph in the other space: the cycle space for a
        # vertex-space case, vertex Cholesky for the cycle-space one.
        monkeypatch.setattr(verify_module, "_DENSE_CYCLE_LIMIT",
                            -1 if newton.dense else newton.off_tree.size)
        other, *_ = newton_system(seed, p, factorization)
        assert other.dense != newton.dense
        # The forcing term at a gradient norm of 1e-20 is machine precision.
        scale = 1e-20 / float(np.linalg.norm(grad))
        steps = [solver.step(h, scale * edge_grad, scale * grad, 1e-20)
                 for solver in (newton, other)]
        assert np.linalg.norm(steps[1] - steps[0]) <= 1e-12 * np.linalg.norm(
            steps[0])

    def test_dense_steps_converge_at_widely_spread_curvature(self):
        # p = 2, k = 5 and h from 4.8e-11 to 6.6e10: the Cholesky steps of
        # C^T H C are inaccurate there, and the solve takes its steps by QR
        # of H^(1/2) C from iteration 50 on. Energies are
        # checked directly: stream_checker's flow-balance bound ignores
        # the flow's magnitude and rejects these flows.
        solver, calls = event_calls(WIDE_CURVATURE, seed=0)
        inst, kinds = solver.instance, []
        for call in calls:
            answer = call()
            kinds.append(type(answer))
            if isinstance(answer, Flow):
                assert inst.energy(answer.flow) <= inst.threshold + inst.eps
        assert kinds == [CertifiedAbove] * 2 + [Flow] * 4

    @pytest.mark.parametrize("factorization",
                             ["vertex-cholesky", "vertex-splu"], indirect=True)
    @pytest.mark.parametrize("seed", range(3))
    def test_stalled_refinement_falls_back_to_least_squares(
            self, monkeypatch, factorization, seed):
        newton, h, edge_grad, grad, hessian = newton_system(seed, 37,
                                                            factorization)
        assert factorization_of(newton) == factorization
        # A factorization that solves every system with zero: refinement
        # stalls far from the forcing term, so only the least-squares step
        # can match the reference.
        if factorization == "vertex-splu":
            monkeypatch.setattr(verify_module.spla, "splu", lambda lap:
                                SimpleNamespace(solve=np.zeros_like))
        else:
            monkeypatch.setattr(verify_module, "dpotrs",
                                lambda chol, b: (np.zeros_like(b), 0))
        reference = np.linalg.solve(hessian, -grad)
        step = newton.step(h, edge_grad, grad, float(np.linalg.norm(grad)))
        assert np.linalg.norm(step - reference) <= 1e-10 * np.linalg.norm(
            reference)

    @pytest.mark.parametrize("name", sorted(
        path.stem for path in STREAMS.glob("*.stream")))
    def test_committed_streams_verify(self, name):
        # Curvatures many orders of magnitude apart. dense-maxflow-*: p =
        # 25-122, capacities spread by up to 10^5, vertex-space steps
        # (129-202 cycles on 38-50 free vertices) at curvatures 18 to 22
        # orders apart; with steps from refinement through L alone, Newton
        # ran out of iterations on each. extreme-pnorm-*: n = 4-6, p = 4
        # and 8, r and w from 1e-6 to 1e6; with Cholesky steps alone the
        # dense path stalled a line search (0012, in the checker's
        # reference solve) or ran out of iterations (1164).
        stream = parse_stream((STREAMS / f"{name}.stream").read_text())
        check = stream_checker(stream)
        _, calls = event_calls(stream, seed=1)
        for k, call in enumerate(calls):
            assert check(k, call())["ok"]

    def test_failed_factorization_gives_a_nan_step(self, factorization):
        newton, h, edge_grad, grad, _ = newton_system(0, 2, factorization)
        assert factorization_of(newton) == factorization
        # h = 0 zeroes C^T H C, which potrf rejects at its first pivot;
        # h = inf zeroes the conductances 1/h, a singular Laplacian that
        # potrf and splu reject alike.
        h = np.full_like(h, 0.0 if newton.dense else np.inf)
        step = newton.step(h, edge_grad, grad, float(np.linalg.norm(grad)))
        assert step.shape == grad.shape
        assert np.all(np.isnan(step))


class TestExactMaxflow:
    """Integral maximum flow on undirected multigraphs."""

    def test_single_edge(self):
        g = IncrementalGraph(2)
        g.add_edge(0, 1)
        value, flow = exact_maxflow(g, np.array([5.0]), 0, 1)
        assert value == 5
        assert np.allclose(net_demand(g, flow),
                           [-5.0, 5.0])

    def test_triangle_two_disjoint_paths(self):
        g = IncrementalGraph(3)
        g.add_edge(0, 2)
        g.add_edge(2, 1)
        g.add_edge(0, 1)
        value, _ = exact_maxflow(g, np.ones(3), 0, 1)
        assert value == 2

    def test_disconnected_terminals(self):
        g = IncrementalGraph(3)
        g.add_edge(0, 2)
        value, flow = exact_maxflow(g, np.ones(1), 0, 1)
        assert value == 0 and np.all(flow == 0.0)

    def test_path_longer_than_the_recursion_limit(self):
        # The only augmenting path visits all 1,200 vertices, more than
        # Python's default limit of 1,000 nested calls.
        n = 1200
        g = IncrementalGraph(n)
        for v in range(n - 1):
            g.add_edge(v, v + 1)
        value, flow = exact_maxflow(g, np.full(n - 1, 3), 0, n - 1)
        assert value == 3
        assert np.all(flow == 3.0)

    def test_same_terminals_rejected(self):
        g = IncrementalGraph(2)
        g.add_edge(0, 1)
        with pytest.raises(ValueError):
            exact_maxflow(g, np.ones(1), 1, 1)

    def test_fractional_capacity_rejected(self):
        g = IncrementalGraph(2)
        g.add_edge(0, 1)
        with pytest.raises(ValueError):
            exact_maxflow(g, np.array([1.5]), 0, 1)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_flow_is_feasible_and_achieves_value(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(2, 9))
        g = IncrementalGraph(n)
        caps = []
        for _ in range(int(rng.integers(1, 3 * n))):
            u, v = rng.choice(n, size=2, replace=False)
            g.add_edge(int(u), int(v))
            caps.append(int(rng.integers(1, 9)))
        caps = np.asarray(caps, dtype=float)
        s, t = rng.choice(n, size=2, replace=False)
        value, flow = exact_maxflow(g, caps, int(s), int(t))
        assert np.all(np.abs(flow) <= caps + 1e-12)
        imbalance = net_demand(g, flow)
        expect = np.zeros(n)
        expect[int(s)], expect[int(t)] = -value, value
        assert np.allclose(imbalance, expect, atol=1e-9)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_value_matches_minimum_cut_on_small_graphs(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(2, 6))
        g = IncrementalGraph(n)
        caps = []
        for _ in range(int(rng.integers(1, 2 * n + 1))):
            u, v = rng.choice(n, size=2, replace=False)
            g.add_edge(int(u), int(v))
            caps.append(int(rng.integers(1, 6)))
        caps_arr = np.asarray(caps, dtype=float)
        s, t = rng.choice(n, size=2, replace=False)
        value, _ = exact_maxflow(g, caps_arr, int(s), int(t))
        best_cut = np.inf
        for mask in range(1 << n):
            if not (mask >> int(s)) & 1 or (mask >> int(t)) & 1:
                continue
            cut = sum(caps[e] for e in range(g.m)
                      if ((mask >> g.tails[e]) & 1) != ((mask >> g.heads[e]) & 1))
            best_cut = min(best_cut, cut)
        assert value == best_cut


class TestEffectiveResistance:
    """Laplacian-solve resistance with the classic composition laws."""

    def test_single_unit_resistor(self):
        g = IncrementalGraph(2)
        g.add_edge(0, 1)
        assert effective_resistance(g, np.ones(1), 0, 1) == pytest.approx(1.0)

    def test_parallel_law(self):
        g = IncrementalGraph(2)
        g.add_edge(0, 1)
        g.add_edge(0, 1)
        assert effective_resistance(g, np.ones(2), 0, 1) == pytest.approx(
            0.5, rel=1e-9)

    def test_series_law(self):
        g = IncrementalGraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        assert effective_resistance(g, np.ones(2), 0, 2) == pytest.approx(
            2.0, rel=1e-9)

    def test_balanced_wheatstone_bridge(self):
        g = IncrementalGraph(4)
        for u, v in ((0, 1), (0, 2), (1, 3), (2, 3), (1, 2)):
            g.add_edge(u, v)
        assert effective_resistance(g, np.ones(5), 0, 3) == pytest.approx(
            1.0, rel=1e-9)

    def test_disconnected_rejected(self):
        g = IncrementalGraph(3)
        g.add_edge(0, 1)
        with pytest.raises(ValueError):
            effective_resistance(g, np.ones(1), 0, 2)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rayleigh_monotonicity(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(2, 8))
        g = IncrementalGraph(n)
        spine = rng.permutation(n)
        for i in range(n - 1):
            g.add_edge(int(spine[i]), int(spine[i + 1]))
        res = list(0.5 + rng.random(n - 1))
        s, t = int(spine[0]), int(spine[-1])
        before = effective_resistance(g, np.asarray(res), s, t)
        u, v = rng.choice(n, size=2, replace=False)
        g.add_edge(int(u), int(v))
        res.append(float(0.5 + rng.random()))
        after = effective_resistance(g, np.asarray(res), s, t)
        assert after <= before * (1 + 1e-9)


class TestFiniteDiffCheck:
    """Gradient validation helper."""

    def test_smooth_point_high_accuracy(self):
        inst = build_instance(2, [(0, 1)], [-1.0, 1.0], 2, g=[1.0])
        assert finite_diff_check(inst, np.array([0.7])) < 1e-6

    def test_zero_flow_p3(self):
        inst = build_instance(2, [(0, 1)], [-1.0, 1.0], 3, w=[2.0])
        assert finite_diff_check(inst, np.zeros(1)) < 1e-6

    def test_random_p4(self):
        rng = np.random.Generator(np.random.Philox(5))
        inst = random_instance(rng, p_choices=(4,))
        f = rng.normal(size=inst.m)
        assert finite_diff_check(inst, f) < 1e-5
