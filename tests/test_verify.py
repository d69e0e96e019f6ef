"""Tests for the reference oracles: convex optimum, maxflow, resistance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnormflow.graph import IncrementalGraph, PNormInstance, net_demand
from pnormflow.refine import MATERIALIZE_MAX_ITERATIONS, MATERIALIZE_TOL
from pnormflow.verify import (
    _DENSE_LAPLACIAN_LIMIT,
    effective_resistance,
    exact_maxflow,
    static_pnorm_opt,
)
from support import finite_diff_check


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
    coordinates, each solved through a grounded vertex Laplacian."""

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

    def test_sparse_laplacian_matches_closed_form(self):
        rng = np.random.Generator(np.random.Philox(17))
        n, m = 100, 1000
        assert n - 1 > _DENSE_LAPLACIAN_LIMIT
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
        report = static_pnorm_opt(inst, seed=0)
        value, flow = quadratic_optimum(inst)
        assert report.value == pytest.approx(value, rel=1e-9)
        assert np.allclose(report.flow, flow, rtol=1e-7, atol=1e-9)

    @pytest.mark.parametrize("seed", [5, 6, 10])
    def test_large_p_maxflow_reduction_converges(self, seed):
        # p = 78 here; the Newton steps need refined Laplacian solves to
        # reach the materialization tolerance.
        inst, flow = maxflow_instance(seed, eps=0.1)
        report = static_pnorm_opt(inst, start_flow=flow, tol=MATERIALIZE_TOL,
                                  max_iterations=MATERIALIZE_MAX_ITERATIONS,
                                  seed=0)
        assert report.gradient_norm <= MATERIALIZE_TOL * (
            1.0 + abs(report.value))
        imbalance = net_demand(inst.graph, report.flow) - inst.d
        assert float(np.max(np.abs(imbalance))) <= 1e-9 * float(
            np.max(np.abs(inst.d)))


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
