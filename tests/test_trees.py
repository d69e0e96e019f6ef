"""Tests for spanning forests: routing, cycles, LCA, path aggregation."""

import numpy as np
from hypothesis import given, settings, strategies as st

from pnormflow.graph import IncrementalGraph, is_circulation, net_demand
from pnormflow.trees import SpanningForest


def random_graph(rng, n, m):
    g = IncrementalGraph(n)
    for _ in range(m):
        u, v = rng.choice(n, size=2, replace=False)
        g.add_edge(int(u), int(v))
    return g


def forest_of(g, rng=None):
    order = (np.arange(g.m) if rng is None
             else rng.permutation(g.m))
    return SpanningForest(g.n, g.tails, g.heads, order)


class TestConstruction:
    """Forest shape: acyclic, spanning within components, parents oriented."""

    def test_path_graph_forest_uses_all_edges(self):
        g = IncrementalGraph(4)
        for u, v in ((0, 1), (1, 2), (2, 3)):
            g.add_edge(u, v)
        forest = forest_of(g)
        assert sorted(forest.tree_edges.tolist()) == [0, 1, 2]
        assert np.sum(forest.parent_vertex < 0) == 1

    def test_parallel_edge_kept_off_tree(self):
        g = IncrementalGraph(2)
        g.add_edge(0, 1)
        g.add_edge(0, 1)
        forest = forest_of(g)
        assert forest.tree_edges.tolist() == [0]

    def test_disconnected_graph_gets_one_root_per_component(self):
        g = IncrementalGraph(5)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        forest = forest_of(g)
        assert np.sum(forest.parent_vertex < 0) == 3

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_tree_edge_count_matches_components(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(2, 12))
        g = random_graph(rng, n, int(rng.integers(1, 3 * n)))
        forest = forest_of(g, rng)
        roots = {g.find(v) for v in range(n)}
        assert forest.tree_edges.size == n - len(roots)


class TestRouteDemand:
    """route_demand produces the unique tree-supported routing."""

    def test_path_routing_by_hand(self):
        g = IncrementalGraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        forest = forest_of(g)
        d = np.array([-2.0, 0.0, 2.0])
        flow = forest.route_demand(d, g.m)
        assert np.allclose(net_demand(g, flow), d)
        assert np.allclose(flow, [2.0, 2.0])

    def test_orientation_respected(self):
        g = IncrementalGraph(2)
        g.add_edge(1, 0)
        forest = forest_of(g)
        d = np.array([-1.0, 1.0])
        flow = forest.route_demand(d, g.m)
        assert np.allclose(flow, [-1.0])
        assert np.allclose(net_demand(g, flow), d)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_routing_meets_demand_on_random_connected_graphs(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(2, 12))
        g = IncrementalGraph(n)
        spine = rng.permutation(n)
        for i in range(n - 1):
            g.add_edge(int(spine[i]), int(spine[i + 1]))
        for _ in range(int(rng.integers(0, n))):
            u, v = rng.choice(n, size=2, replace=False)
            g.add_edge(int(u), int(v))
        d = rng.normal(size=n)
        d -= d.mean()
        forest = forest_of(g, rng)
        flow = forest.route_demand(d, g.m)
        assert np.allclose(net_demand(g, flow), d, atol=1e-12)
        off_tree = ~forest.tree_edge_mask(g.m)
        assert np.all(flow[off_tree] == 0.0)


class TestFundamentalCycles:
    """Off-tree edges close circulations through the tree."""

    def test_triangle_cycle(self):
        g = IncrementalGraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 0)
        forest = SpanningForest(3, g.tails, g.heads, [0, 1, 2])
        off = [e for e in range(3) if e not in forest.tree_edges][0]
        edges, signs = forest.fundamental_cycle(off, g.tails, g.heads)
        c = np.zeros(3)
        np.add.at(c, edges, signs.astype(float))
        assert is_circulation(g, c)
        assert c[off] == 1.0

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_every_off_tree_edge_closes_a_circulation(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(3, 12))
        g = random_graph(rng, n, int(rng.integers(n, 3 * n)))
        forest = forest_of(g, rng)
        mask = forest.tree_edge_mask(g.m)
        for e in np.flatnonzero(~mask):
            edges, signs = forest.fundamental_cycle(int(e), g.tails, g.heads)
            c = np.zeros(g.m)
            np.add.at(c, edges, signs.astype(float))
            assert is_circulation(g, c)
            assert c[e] == 1.0

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_batch_matches_single_cycles(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(3, 12))
        g = random_graph(rng, n, int(rng.integers(1, 3 * n)))
        forest = forest_of(g, rng)
        tails, heads = g.tails, g.heads
        off = np.flatnonzero(~forest.tree_edge_mask(g.m))
        cycle, edges, signs = forest.fundamental_cycles(off, tails, heads)
        for j, e in enumerate(off):
            one_edges, one_signs = forest.fundamental_cycle(
                int(e), g.tails, g.heads)
            pick = cycle == j
            assert sorted(zip(edges[pick].tolist(), signs[pick].tolist())) \
                == sorted(zip(one_edges.tolist(), one_signs.tolist()))
        assert cycle.size == sum(
            forest.fundamental_cycle(int(e), g.tails, g.heads)[0].size
            for e in off)


class TestLca:
    """Binary-lifting LCA against the naive parent walk."""

    def naive_lca(self, forest, u, v):
        ancestors = set()
        while u >= 0:
            ancestors.add(u)
            u = int(forest.parent_vertex[u])
        while v not in ancestors:
            v = int(forest.parent_vertex[v])
        return v

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_lca_matches_naive_walk(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(2, 16))
        g = IncrementalGraph(n)
        spine = rng.permutation(n)
        for i in range(n - 1):
            g.add_edge(int(spine[i]), int(spine[i + 1]))
        forest = forest_of(g, rng)
        for _ in range(10):
            u, v = int(rng.integers(n)), int(rng.integers(n))
            assert forest.lca_many([u], [v])[0] == self.naive_lca(forest, u, v)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_lca_many_matches_scalar(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(2, 16))
        g = IncrementalGraph(n)
        spine = rng.permutation(n)
        for i in range(n - 1):
            g.add_edge(int(spine[i]), int(spine[i + 1]))
        forest = forest_of(g, rng)
        us = rng.integers(0, n, size=8)
        vs = rng.integers(0, n, size=8)
        batch = forest.lca_many(us, vs)
        for i in range(8):
            assert batch[i] == self.naive_lca(forest, int(us[i]), int(vs[i]))


class TestPrefixSums:
    """Root-to-vertex aggregates used by the tree query backend."""

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_prefix_sums_match_explicit_paths(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(2, 14))
        g = IncrementalGraph(n)
        spine = rng.permutation(n)
        for i in range(n - 1):
            g.add_edge(int(spine[i]), int(spine[i + 1]))
        forest = forest_of(g, rng)
        values = rng.normal(size=g.m)
        unsigned = forest.prefix_sums(values, signed=False)
        signed = forest.prefix_sums(values, signed=True)
        for v in range(n):
            # Walk v -> root; prefix sums run root -> v, so the signed
            # traversal flips.
            edges, signs = [], []
            x = v
            while forest.parent_vertex[x] >= 0:
                edges.append(int(forest.parent_edge[x]))
                signs.append(int(forest.parent_sign[x]))
                x = int(forest.parent_vertex[x])
            total = np.sum(values[edges]) if edges else 0.0
            assert np.isclose(unsigned[v], total, atol=1e-12)
            expect = -np.sum(values[edges] * np.asarray(signs)) if edges else 0.0
            assert np.isclose(signed[v], expect, atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_prefix_sums_equal_the_vertex_loop(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(2, 20))
        g = random_graph(rng, n, int(rng.integers(1, 3 * n)))
        forest = forest_of(g, rng)
        values = rng.normal(size=g.m) * 10.0 ** rng.uniform(-6, 6, g.m)
        for signed in (False, True):
            # The per-vertex loop in parent-first order is the reference;
            # the level-by-level sums add the same terms in the same order.
            expect = np.zeros(n)
            for v in forest.order:
                p = forest.parent_vertex[v]
                if p < 0:
                    continue
                val = values[forest.parent_edge[v]]
                expect[v] = expect[p] + (
                    -forest.parent_sign[v] * val if signed else val)
            assert np.array_equal(forest.prefix_sums(values, signed), expect)
