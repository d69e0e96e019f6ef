"""Tests for spanning forests: routing, cycles, LCA, path aggregation."""

import time

import numpy as np
from hypothesis import given, settings, strategies as st

from pnormflow.graph import IncrementalGraph, net_demand
from pnormflow.trees import _LCA_BLOCK, SpanningForest
from support import is_circulation, reference_cycle, reference_forest


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


def cycles_of(forest, g, edges):
    """forest.fundamental_cycle over `edges`, with their endpoints."""
    edges = np.asarray(edges, dtype=np.int64)
    return forest.fundamental_cycle(edges, g.tails[edges], g.heads[edges])


def assert_subtrees_contiguous(forest):
    """In `order`, each vertex's subtree is one block starting at it."""
    order = forest.order.tolist()
    assert sorted(order) == list(range(forest.n))
    subtree = [set() for _ in range(forest.n)]
    for x in range(forest.n):
        a = x
        while a >= 0:
            subtree[a].add(x)
            a = int(forest.parent_vertex[a])
    for at, v in enumerate(order):
        assert set(order[at:at + len(subtree[v])]) == subtree[v], v


def random_stack(rng, n):
    """A random multigraph, which often has several components, a (k, m)
    stack of random edge orders for one to four forests, their stacked
    build and each row's own build."""
    g = random_graph(rng, n, int(rng.integers(1, 3 * n)))
    orders = np.array([rng.permutation(g.m)
                       for _ in range(int(rng.integers(1, 5)))],
                      dtype=np.int64).reshape(-1, g.m)
    stacked = SpanningForest(n, g.tails, g.heads, orders)
    return g, stacked, [SpanningForest(n, g.tails, g.heads, row)
                        for row in orders]


def component_minima(g):
    """The smallest vertex of each component of g, increasing."""
    firsts = {}
    for v in range(g.n):
        firsts.setdefault(g.find(v), v)
    return sorted(firsts.values())


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


class TestStackedBuild:
    """A (k, m) edge order builds k forests stacked as one; each row's
    slice equals that row's own build."""

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_one_row_builds(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(2, 12))
        g, stacked, forests = random_stack(rng, n)
        assert stacked.n == n * len(forests)
        assert np.array_equal(stacked.tree_edges, np.concatenate(
            [f.tree_edges for f in forests]))
        for i, forest in enumerate(forests):
            part = slice(i * n, (i + 1) * n)
            pv = forest.parent_vertex
            assert np.array_equal(stacked.parent_vertex[part],
                                  np.where(pv >= 0, pv + i * n, -1))
            for name in ("parent_edge", "parent_sign", "depth"):
                assert np.array_equal(getattr(stacked, name)[part],
                                      getattr(forest, name)), name
            # Row i's forest is block i of the preorder, children in the
            # same order.
            assert np.array_equal(stacked.order[part], forest.order + i * n)
        for name in FOREST_FIELDS:
            assert getattr(stacked, name).dtype == np.int64, name
        # The range-minimum LCA relies on `order` being a preorder.
        for forest in forests + [stacked]:
            assert_subtrees_contiguous(forest)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_each_row_keeps_one_root_per_component(self, seed):
        """Roots are each component's smallest vertex, in every row, on
        graphs whose Kruskal scan runs to the end of the order."""
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(3, 30))
        g, stacked, forests = random_stack(rng, n)
        want = component_minima(g)
        for i in range(len(forests)):
            pv = stacked.parent_vertex[i * n:(i + 1) * n]
            assert np.flatnonzero(pv < 0).tolist() == want
            assert stacked.tree_edges.size == len(forests) * (n - len(want))

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_long_scans(self, seed):
        """Connected graphs with many edges, whose Kruskal scan converts the
        order a block at a time, and may stop within any block."""
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(5, 40))
        g = IncrementalGraph(n)
        for v in range(1, n):
            g.add_edge(int(rng.integers(v)), v)
        for _ in range(int(rng.integers(n, 12 * n))):
            u, v = rng.choice(n, size=2, replace=False)
            g.add_edge(int(u), int(v))
        orders = np.array([rng.permutation(g.m) for _ in range(3)])
        stacked = SpanningForest(n, g.tails, g.heads, orders)
        for i, row in enumerate(orders):
            want = reference_forest(n, g.tails, g.heads, row.tolist())
            part = slice(i * n, (i + 1) * n)
            for name in ("parent_edge", "parent_sign", "depth"):
                assert np.array_equal(getattr(stacked, name)[part],
                                      getattr(want, name)), name
        assert stacked.tree_edges.size == 3 * (n - 1)


    def test_hub_graph(self):
        """One vertex joined to all others: its stacked and one-row builds
        equal the reference and cost about what a path's do, where a search
        that rescans a vertex's neighbours on each return is quadratic."""
        n = 20_000
        hub = (np.zeros(n - 1, dtype=np.int64), np.arange(1, n))
        path = (np.arange(n - 1), np.arange(1, n))
        orders = np.array([np.arange(n - 1), np.arange(n - 1)[::-1]])

        def build_s(tails, heads, edge_order):
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                forest = SpanningForest(n, tails, heads, edge_order)
                best = min(best, time.perf_counter() - start)
            return forest, best

        wants = [reference_forest(n, *hub, row.tolist()) for row in orders]
        for edge_order in (orders, orders[0]):
            built, hub_s = build_s(*hub, edge_order)
            _, path_s = build_s(*path, edge_order)
            assert hub_s < 5 * path_s, (hub_s, path_s)
            for i in range(built.n // n):
                want, part = wants[i], slice(i * n, (i + 1) * n)
                assert np.array_equal(built.order[part], want.order + i * n)
                for name in ("parent_edge", "parent_sign", "depth"):
                    assert np.array_equal(getattr(built, name)[part],
                                          getattr(want, name)), name


FOREST_FIELDS = ("parent_vertex", "parent_edge", "parent_sign", "depth",
                 "order", "tree_edges")


def assert_forest_matches_reference(n, tails, heads, edge_order):
    forest = SpanningForest(n, tails, heads, edge_order)
    want = reference_forest(n, tails, heads, edge_order)
    for name in FOREST_FIELDS:
        got, expect = getattr(forest, name), getattr(want, name)
        assert got.dtype == expect.dtype, name
        assert np.array_equal(got, expect), name
    assert_subtrees_contiguous(forest)


def edge_orders(rng, m):
    """One edge order in each accepted form."""
    perm = rng.permutation(m)
    return [range(m), list(range(m)), np.arange(m), perm, perm.tolist()]


class TestReferenceForest:
    """SpanningForest equals the element-by-element build that scans the
    whole edge order: same tree edges in the same order, same orientation,
    whether or not Kruskal stops early."""

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_multigraphs(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(2, 14))
        g = random_graph(rng, n, int(rng.integers(1, 4 * n)))
        for _ in range(int(rng.integers(0, 4))):
            # Parallel copies of existing edges, in either orientation.
            e = int(rng.integers(g.m))
            u, v = int(g.tails[e]), int(g.heads[e])
            g.add_edge(*((u, v) if rng.random() < 0.5 else (v, u)))
        for order in edge_orders(rng, g.m):
            assert_forest_matches_reference(g.n, g.tails, g.heads, order)
            assert_forest_matches_reference(g.n, g.tails.tolist(),
                                            g.heads.tolist(), order)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_disconnected_graphs(self, seed):
        """Fewer than n - 1 tree edges exist, so the scan runs to the end."""
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(3, 14))
        # Edges only among the first k vertices leave the rest isolated.
        k = int(rng.integers(2, n))
        g = IncrementalGraph(n)
        for _ in range(int(rng.integers(1, 3 * k))):
            u, v = rng.choice(k, size=2, replace=False)
            g.add_edge(int(u), int(v))
        for order in edge_orders(rng, g.m):
            assert_forest_matches_reference(g.n, g.tails, g.heads, order)
        assert SpanningForest(g.n, g.tails, g.heads,
                              range(g.m)).tree_edges.size < n - 1

    def test_single_vertex(self):
        g = IncrementalGraph(1)
        for order in edge_orders(np.random.default_rng(0), 0):
            assert_forest_matches_reference(1, g.tails, g.heads, order)

    def test_two_vertices(self):
        g = IncrementalGraph(2)
        assert_forest_matches_reference(2, g.tails, g.heads, range(0))
        for u, v in ((1, 0), (0, 1), (1, 0)):
            g.add_edge(u, v)
        for order in edge_orders(np.random.default_rng(1), g.m):
            assert_forest_matches_reference(2, g.tails, g.heads, order)


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
        _, edges, signs = cycles_of(forest, g, [off])
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
        off = np.flatnonzero(~forest.tree_edge_mask(g.m))
        cycle, edges, signs = cycles_of(forest, g, off)
        for j, e in enumerate(off):
            c = np.zeros(g.m)
            np.add.at(c, edges[cycle == j], signs[cycle == j].astype(float))
            assert is_circulation(g, c)
            assert c[e] == 1.0

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_batch_matches_single_cycles(self, seed):
        """Each cycle's triplets equal the one-step-at-a-time walk in order,
        on a forest and on its slice of a stacked build."""
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(3, 12))
        g, stacked, forests = random_stack(rng, n)
        i = int(rng.integers(len(forests)))
        forest = forests[i]
        off = np.flatnonzero(~forest.tree_edge_mask(g.m))
        batch = cycles_of(forest, g, off)
        shifted = stacked.fundamental_cycle(off, g.tails[off] + i * n,
                                            g.heads[off] + i * n)
        for got in (batch, shifted):
            assert all(part.dtype == np.int64 for part in got)
            cycle, edges, signs = got
            total = 0
            for j, e in enumerate(off):
                one_edges, one_signs = reference_cycle(forest, int(e),
                                                       g.tails, g.heads)
                assert edges[cycle == j].tolist() == one_edges.tolist()
                assert signs[cycle == j].tolist() == one_signs.tolist()
                total += one_edges.size
            assert cycle.size == total


class TestLca:
    """Range-minimum LCA against the naive parent walk, on forests with
    several components and on stacked builds of them."""

    def naive_lca(self, forest, u, v):
        ancestors = set()
        while u >= 0:
            ancestors.add(u)
            u = int(forest.parent_vertex[u])
        while v not in ancestors:
            v = int(forest.parent_vertex[v])
        return v

    def same_component_pairs(self, forest, rng, size):
        root = np.arange(forest.n)
        while np.any(forest.parent_vertex[root] >= 0):
            root = np.where(forest.parent_vertex[root] >= 0,
                            forest.parent_vertex[root], root)
        us = rng.integers(0, forest.n, size=size)
        vs = np.array([rng.choice(np.flatnonzero(root == root[u]))
                       for u in us])
        return us, vs

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_lca_matches_naive_walk(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        _, stacked, forests = random_stack(rng, int(rng.integers(2, 16)))
        for forest in forests + [stacked]:
            for u, v in zip(*self.same_component_pairs(forest, rng, 10)):
                assert forest.lca_many([u], [v])[0] \
                    == self.naive_lca(forest, int(u), int(v))

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_lca_many_matches_scalar(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        _, stacked, forests = random_stack(rng, int(rng.integers(2, 16)))
        for forest in forests + [stacked]:
            us, vs = self.same_component_pairs(forest, rng, 8)
            batch = forest.lca_many(us, vs)
            assert batch.dtype == np.int64
            for i in range(8):
                assert batch[i] == self.naive_lca(forest, int(us[i]),
                                                  int(vs[i]))

    def test_batches_larger_than_a_block(self):
        """A batch of more than _LCA_BLOCK pairs, which lca_many answers a
        block at a time, equals the same pairs asked a few at a time."""
        rng = np.random.Generator(np.random.Philox(5))
        n = 50
        g = IncrementalGraph(n)
        for v in range(1, n):
            g.add_edge(int(rng.integers(v)), v)
        for _ in range(3 * n):
            u, v = rng.choice(n, size=2, replace=False)
            g.add_edge(int(u), int(v))
        stacked = SpanningForest(n, g.tails, g.heads, np.array(
            [rng.permutation(g.m) for _ in range(6)]))
        size = 2 * _LCA_BLOCK + 7
        us = rng.integers(0, stacked.n, size)
        vs = us - us % n + rng.integers(0, n, size)
        batch = stacked.lca_many(us, vs)
        assert np.array_equal(batch, np.concatenate([
            stacked.lca_many(us[at:at + 997], vs[at:at + 997])
            for at in range(0, size, 997)]))
        for i in range(0, size, 1009):
            assert batch[i] == self.naive_lca(stacked, int(us[i]),
                                              int(vs[i]))

    def test_lca_of_a_vertex_with_itself(self):
        g = IncrementalGraph(4)
        for u, v in ((0, 1), (1, 2), (1, 3)):
            g.add_edge(u, v)
        forest = forest_of(g)
        assert forest.lca_many([0, 2, 3, 1], [0, 2, 3, 1]).tolist() \
            == [0, 2, 3, 1]

    def test_lca_across_a_roots_children(self):
        """Pairs in different subtrees of the root meet at the root, at equal
        and at unequal depths, in either argument order."""
        g = IncrementalGraph(6)
        for u, v in ((0, 1), (0, 2), (1, 3), (2, 4), (4, 5)):
            g.add_edge(u, v)
        forest = forest_of(g)
        assert forest.parent_vertex[0] == -1
        us, vs = [1, 3, 3, 5, 1], [2, 4, 5, 3, 5]
        assert forest.lca_many(us, vs).tolist() == [0] * 5
        assert forest.lca_many(vs, us).tolist() == [0] * 5


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
        """Bit for bit, on each forest and on its slice of their stacked
        build."""
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(2, 20))
        g, stacked, forests = random_stack(rng, n)
        values = rng.normal(size=g.m) * 10.0 ** rng.uniform(-6, 6, g.m)
        for signed in (False, True):
            stacked_sums = stacked.prefix_sums(values, signed)
            for i, forest in enumerate(forests):
                # The per-vertex loop in parent-first order is the
                # reference; the level-by-level sums add the same terms in
                # the same order.
                expect = np.zeros(n)
                for v in forest.order:
                    p = forest.parent_vertex[v]
                    if p < 0:
                        continue
                    val = values[forest.parent_edge[v]]
                    expect[v] = expect[p] + (
                        -forest.parent_sign[v] * val if signed else val)
                assert np.array_equal(forest.prefix_sums(values, signed),
                                      expect)
                assert np.array_equal(stacked_sums[i * n:(i + 1) * n],
                                      expect)
