"""Tests for min-ratio-cycle oracles, the monotone state, and the witness
checker for update logs."""

import hashlib
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pnormflow.mrc as mrc
from pnormflow.errors import OracleError
from pnormflow.graph import IncrementalGraph
from pnormflow.mrc import MonotoneMrcState
from support import (
    LogDelete,
    LogInsert,
    UpdateLog,
    brute_force_min_ratio_cycle,
    canonical_stability_widths,
    check_stability_witness,
    exact_min_ratio_cycle,
    full_negative_cycle,
    is_circulation,
)


class MrcInput(NamedTuple):
    """A graph with per-edge gradients and lengths, unpacked into the
    oracles' leading arguments."""

    graph: IncrementalGraph
    gradients: np.ndarray
    lengths: np.ndarray


def triangle_instance():
    g = IncrementalGraph(3)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(2, 0)
    return MrcInput(g, np.array([-3.0, 1.0, 1.0]), np.ones(3))


def parallel_instance(g0=3.0, g1=1.0):
    g = IncrementalGraph(2)
    g.add_edge(0, 1)
    g.add_edge(0, 1)
    return MrcInput(g, np.array([g0, g1]), np.ones(2))


def random_mrc(rng, n_max=12):
    n = int(rng.integers(3, n_max + 1))
    g = IncrementalGraph(n)
    spine = rng.permutation(n)
    for i in range(n - 1):
        g.add_edge(int(spine[i]), int(spine[i + 1]))
    for _ in range(int(rng.integers(1, n + 3))):
        u, v = rng.choice(n, size=2, replace=False)
        g.add_edge(int(u), int(v))
    grads = rng.normal(size=g.m)
    lengths = 0.2 + rng.random(g.m)
    return MrcInput(g, grads, lengths)


class TestBruteForce:
    """Exhaustive enumeration over simple oriented cycles."""

    def test_triangle(self):
        sol = brute_force_min_ratio_cycle(*triangle_instance())
        assert sol.ratio == pytest.approx(-1.0 / 3.0, rel=1e-12)
        assert np.allclose(sol.circulation(3), [1.0, 1.0, 1.0])

    def test_acyclic_path(self):
        g = IncrementalGraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        inst = MrcInput(g, np.array([1.0, -1.0]), np.ones(2))
        assert brute_force_min_ratio_cycle(*inst) is None

    def test_parallel_pair(self):
        sol = brute_force_min_ratio_cycle(*parallel_instance())
        assert sol.ratio == pytest.approx(-1.0, rel=1e-12)
        assert sorted(sol.circulation(2).tolist()) == [-1.0, 1.0]

    def test_enumeration_bound_enforced(self):
        n = 20
        g = IncrementalGraph(n)
        for i in range(n):
            g.add_edge(i, (i + 1) % n)
        for i in range(n - 2):
            g.add_edge(i, i + 2)
        inst = MrcInput(g, np.zeros(g.m) - 1.0, np.ones(g.m))
        with pytest.raises(ValueError):
            brute_force_min_ratio_cycle(*inst)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_reported_ratio_matches_recomputation(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        inst = random_mrc(rng, n_max=8)
        sol = brute_force_min_ratio_cycle(*inst)
        if sol is None:
            return
        c = sol.circulation(inst.graph.m)
        assert is_circulation(inst.graph, c)
        num = float(inst.gradients @ c)
        den = float(np.abs(inst.lengths * c).sum())
        assert sol.ratio == pytest.approx(num / den, rel=1e-9)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_simple_cycles_dominate_random_circulations(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        inst = random_mrc(rng, n_max=7)
        sol = brute_force_min_ratio_cycle(*inst)
        if sol is None:
            return
        # Random circulation from two fundamental cycles of the brute oracle.
        other = brute_force_min_ratio_cycle(
            inst.graph, -inst.gradients, inst.lengths)
        c = sol.circulation(inst.graph.m)
        mix = c + rng.uniform(-1, 1) * other.circulation(inst.graph.m)
        den = float(np.abs(inst.lengths * mix).sum())
        if den > 1e-12:
            ratio = float(inst.gradients @ mix) / den
            assert sol.ratio <= ratio + 1e-9


class TestExactMinRatioCycle:
    """Parametric negative-cycle search against the enumeration oracle."""

    def test_triangle_within_tolerance(self):
        sol = exact_min_ratio_cycle(*triangle_instance(), tol=1e-9)
        assert sol.ratio == pytest.approx(-1.0 / 3.0, abs=1e-9)

    def test_nonnegative_minimum_reports_zero_ratio(self):
        sol = exact_min_ratio_cycle(*parallel_instance(1.0, 1.0))
        assert sol is not None
        assert sol.ratio == pytest.approx(0.0, abs=1e-9)

    def test_single_cycle_hand_sum(self):
        g = IncrementalGraph(4)
        for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
            g.add_edge(u, v)
        inst = MrcInput(g, np.array([-2.0, -1.0, -1.0, -1.0]),
                           np.array([2.0, 3.0, 2.0, 3.0]))
        sol = exact_min_ratio_cycle(*inst)
        assert sol.ratio == pytest.approx(-0.5, abs=1e-9)

    def test_acyclic_graph(self):
        g = IncrementalGraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        inst = MrcInput(g, np.array([-5.0, -5.0]), np.ones(2))
        assert exact_min_ratio_cycle(*inst) is None

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_brute_force(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        inst = random_mrc(rng, n_max=9)
        brute = brute_force_min_ratio_cycle(*inst)
        exact = exact_min_ratio_cycle(*inst, tol=1e-9)
        if brute is None:
            assert exact is None
            return
        assert exact is not None
        assert exact.ratio == pytest.approx(brute.ratio, abs=1e-7)
        c = exact.circulation(inst.graph.m)
        assert is_circulation(inst.graph, c)


@st.composite
def arc_costs(draw):
    """A connected multigraph on up to 40 vertices (a path through all of
    them plus drawn edges) with drawn parallel copies of its edges, and
    forward and backward arc costs g + alpha l and -g + alpha l.
    The gradients are free, zero, or differences of vertex potentials
    (every cycle sums to zero) plus a few twisted edges, so that negative
    cycles also run through long paths. Gradients are quarters and
    lengths and alpha dyadic, so every path sum is exact in floating
    point."""
    n = draw(st.integers(2, 40))
    spine = draw(st.permutations(range(n)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda uv: uv[0] != uv[1])
    ends = list(zip(spine, spine[1:]))
    ends += draw(st.lists(pair, min_size=1, max_size=2 * n))
    ends += draw(st.lists(st.sampled_from(ends), max_size=n // 4))
    m = len(ends)
    tails = np.asarray([u for u, _ in ends], dtype=np.int64)
    heads = np.asarray([v for _, v in ends], dtype=np.int64)
    quarter = st.integers(-12, 12).map(lambda k: k / 4)
    style = draw(st.sampled_from(["free", "zero", "potential"]))
    if style == "free":
        g = np.asarray(draw(st.lists(quarter, min_size=m, max_size=m)))
    else:
        g = np.zeros(m)
    if style == "potential":
        potential = np.asarray(draw(st.lists(quarter, min_size=n,
                                             max_size=n)))
        g = potential[heads] - potential[tails]
        for e in draw(st.lists(st.integers(0, m - 1), max_size=3)):
            g[e] += draw(quarter)
    lengths = np.asarray(draw(st.lists(
        st.integers(1, 8).map(lambda k: k / 4), min_size=m, max_size=m)))
    alpha = draw(st.sampled_from([0.0625, 0.25, 1.0]))
    return n, tails, heads, g + alpha * lengths, -g + alpha * lengths


class TestNegativeCycle:
    """The search that stops at the first parent-graph cycle against the
    one that runs all n rounds first."""

    @given(arc_costs())
    @settings(max_examples=200, deadline=None)
    def test_early_exit_agrees_with_the_full_search(self, arcs):
        n, tails, heads, forward, backward = arcs
        found = mrc._negative_cycle(*arcs)
        full = full_negative_cycle(*arcs)
        assert (found is None) == (full is None)
        for cycle in (found, full):
            if cycle is None:
                continue
            edges, signs = cycle
            assert np.unique(edges).size == edges.size
            # As arcs, the cycle leaves and enters each of its vertices
            # once and closes after all of them.
            arc_from = np.where(signs > 0, tails[edges], heads[edges])
            arc_to = np.where(signs > 0, heads[edges], tails[edges])
            succ = dict(zip(arc_from.tolist(), arc_to.tolist()))
            assert len(succ) == edges.size
            v, steps = int(arc_from[0]), 0
            while True:
                v, steps = succ[v], steps + 1
                if v == arc_from[0]:
                    break
            assert steps == edges.size
            weight = np.where(signs > 0, forward[edges], backward[edges])
            assert float(weight.sum()) < 0


class TestMonotoneMrcState:
    """The incremental oracle: contract queries under monotone updates."""

    def test_triangle_query_returns_good_cycle(self):
        state = MonotoneMrcState(*triangle_instance(), alpha=0.3)
        sol = state.query()
        assert sol is not None
        assert sol.ratio == pytest.approx(-1.0 / 3.0, rel=1e-9)
        assert sol.ratio <= -state.alpha / state.kappa

    def test_length_increase_kills_the_cycle(self):
        state = MonotoneMrcState(*triangle_instance(), alpha=0.3)
        state.increase_length(0, 10.0)
        assert state.query() is None
        # The survivor ratio is -1/12: same cycle, length 10 + 1 + 1.
        inst = MrcInput(
            _graph_of(state), state.gradients.copy(), state.lengths.copy())
        assert brute_force_min_ratio_cycle(*inst).ratio == pytest.approx(
            -1.0 / 12.0, rel=1e-12)

    def test_length_decrease_rejected(self):
        state = MonotoneMrcState(*triangle_instance(), alpha=0.3)
        with pytest.raises(ValueError):
            state.increase_length(0, 0.5)

    @pytest.mark.parametrize("backend, kappa", [("exact", 1.0),
                                                ("trees", 2.0)])
    def test_insert_into_empty_state(self, backend, kappa):
        # No cycle at m = 0; at m = 1 the edge's two arcs form a cycle of
        # weight 2 alpha len > 0, so there is none either.
        g = IncrementalGraph(4)
        inst = MrcInput(g, np.zeros(0), np.zeros(0))
        state = MonotoneMrcState(*inst, alpha=0.5, kappa=kappa,
                                 backend=backend, seed=1)
        assert state.query() is None
        state.insert(g.add_edge(0, 1), -1.0, 1.0)
        assert state.m == 1
        assert state.query() is None
        state.insert(g.add_edge(0, 1), 1.0, 1.0)
        sol = state.query()
        assert sol is not None
        assert sol.ratio == pytest.approx(-1.0, rel=1e-9)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            MonotoneMrcState(*triangle_instance(), alpha=0.0)

    def test_cycle_repeating_an_edge_is_an_oracle_error(self, monkeypatch):
        """A negative-cycle search that returns one edge traversed both ways
        fails as a typed oracle error, not as a zero division."""
        monkeypatch.setattr(
            mrc, "_negative_cycle",
            lambda *args: (np.array([0, 0]), np.array([1, -1])))
        state = MonotoneMrcState(*triangle_instance(), alpha=0.3)
        with pytest.raises(OracleError, match="repeats an edge"):
            state.query()

    def test_query_counter(self):
        state = MonotoneMrcState(*triangle_instance(), alpha=0.3)
        state.query()
        state.query()
        assert state.queries == 2

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           alpha=st.sampled_from([0.05, 0.2, 0.5]))
    @settings(max_examples=40, deadline=None)
    def test_exact_backend_query_iff_threshold_met(self, seed, alpha):
        rng = np.random.Generator(np.random.Philox(seed))
        inst = random_mrc(rng, n_max=8)
        best = brute_force_min_ratio_cycle(*inst)
        state = MonotoneMrcState(*inst, alpha=alpha)
        sol = state.query()
        if best is not None and best.ratio <= -alpha - 1e-9:
            assert sol is not None
            assert sol.ratio <= -alpha + 1e-12
            c = sol.circulation(state.m)
            assert is_circulation(inst.graph, c)
        elif best is None or best.ratio > -alpha + 1e-9:
            assert sol is None

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_updates_only_raise_the_minimum(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        inst = random_mrc(rng, n_max=7)
        state = MonotoneMrcState(*inst, alpha=0.05)
        previous = brute_force_min_ratio_cycle(*inst)
        for _ in range(4):
            e = int(rng.integers(state.m))
            new_len = float(state.lengths[e] * (1.0 + rng.random()))
            state.increase_length(e, new_len)
        current = MrcInput(_graph_of(state), state.gradients.copy(),
                              state.lengths.copy())
        now = brute_force_min_ratio_cycle(*current)
        if previous is not None and now is not None:
            assert now.ratio >= previous.ratio - 1e-12


class TestTreeBackend:
    """The spanning-tree collection as an approximate query backend."""

    def test_triangle_found_by_trees(self):
        state = MonotoneMrcState(*triangle_instance(), alpha=0.3, kappa=2.0,
                                 backend="trees", seed=1)
        sol = state.query()
        assert sol is not None
        assert sol.ratio <= -state.alpha / state.kappa
        assert is_circulation(_graph_of(state), sol.circulation(state.m))

    def test_exact_backend_requires_unit_kappa(self):
        with pytest.raises(ValueError):
            MonotoneMrcState(*triangle_instance(), alpha=0.3, kappa=2.0,
                             backend="exact")

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_returned_cycles_honor_the_contract(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        inst = random_mrc(rng, n_max=9)
        state = MonotoneMrcState(*inst, alpha=0.1, kappa=4.0,
                                 backend="trees", seed=int(seed))
        sol = state.query()
        if sol is None:
            return
        assert sol.ratio <= -state.alpha / state.kappa + 1e-12
        c = sol.circulation(state.m)
        assert is_circulation(inst.graph, c)
        num = float(state.gradients @ c)
        den = float(np.abs(state.lengths * c).sum())
        assert sol.ratio == pytest.approx(num / den, rel=1e-9)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_kappa_validation_on_small_instances(self, seed):
        """When a strongly negative cycle exists, some fundamental cycle in
        the collection comes within the configured kappa of it."""
        rng = np.random.Generator(np.random.Philox(seed))
        inst = random_mrc(rng, n_max=7)
        best = brute_force_min_ratio_cycle(*inst)
        alpha = 0.05
        if best is None or best.ratio > -alpha:
            return
        kappa = 4.0
        state = MonotoneMrcState(*inst, alpha=alpha, kappa=kappa,
                                 backend="trees", seed=int(seed))
        sol = state.query()
        assert sol is not None, (
            "tree collection missed every qualifying cycle: configured kappa "
            "is violated on this instance")
        assert sol.ratio <= best.ratio / kappa + 1e-12

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_cached_forest_cycles_match_fresh_ones(self, seed):
        """Queries on the per-forest cache equal queries that recompute
        every forest's cycles, across insertions and length increases."""
        rng = np.random.Generator(np.random.Philox(seed))
        inst = random_mrc(rng, n_max=9)
        cached = MonotoneMrcState(*inst, alpha=0.05, kappa=4.0,
                                  backend="trees", seed=int(seed))
        fresh = MonotoneMrcState(*inst, alpha=0.05, kappa=4.0,
                                 backend="trees", seed=int(seed))
        for _ in range(6):
            if rng.random() < 0.5:
                u, v = rng.choice(cached.n, size=2, replace=False)
                # Large gradient, small length: a cycle the query must see.
                e = inst.graph.add_edge(int(u), int(v))
                update = (e, float(rng.normal() * 10), 0.01)
                cached.insert(*update)
                fresh.insert(*update)
            else:
                e = int(rng.integers(cached.m))
                update = (e, float(cached.lengths[e] * (1 + rng.random())))
                cached.increase_length(*update)
                fresh.increase_length(*update)
            fresh._trees._cycles = None
            got, want = cached.query(), fresh.query()
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got.edges, want.edges)
                assert np.array_equal(got.signs, want.signs)
                assert got.ratio == want.ratio


    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_appended_cycle_cache_equals_a_fresh_one(self, seed):
        """An insertion that does not rebuild appends to each forest's
        cached cycles; the entries equal a from-scratch computation after
        every insertion, across rebuilds by a joining insertion and by a
        doubling of the total length."""
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(6, 11))
        k = n // 2
        g = IncrementalGraph(n)
        for lo, hi in ((0, k), (k, n)):
            spine = lo + rng.permutation(hi - lo)
            for i in range(hi - lo - 1):
                g.add_edge(int(spine[i]), int(spine[i + 1]))
            for _ in range(int(rng.integers(1, 4))):
                u, v = lo + rng.choice(hi - lo, size=2, replace=False)
                g.add_edge(int(u), int(v))
        state = MonotoneMrcState(
            g, rng.normal(size=g.m), 0.2 + rng.random(g.m),
            alpha=0.05, kappa=4.0, backend="trees", seed=int(seed))
        trees = state._trees

        def insert(u, v):
            e = g.add_edge(int(u), int(v))
            state.insert(e, float(rng.normal()), 0.01)

        def insert_within_first_component():
            stacked = trees.stacked
            insert(*rng.choice(k, size=2, replace=False))
            assert trees.stacked is stacked
            assert_cache_is_fresh(state)

        state.query()
        assert_cache_is_fresh(state)
        for _ in range(3):
            insert_within_first_component()

        stacked = trees.stacked
        insert(rng.integers(k), rng.integers(k, n))
        assert trees.stacked is not stacked
        state.query()
        assert_cache_is_fresh(state)
        insert_within_first_component()

        stacked = trees.stacked
        e = int(rng.integers(state.m))
        state.increase_length(
            e, float(state.lengths[e] + 2.0 * trees.total))
        assert trees.stacked is not stacked
        state.query()
        assert_cache_is_fresh(state)
        insert_within_first_component()


class TestEdgeOrders:
    """The trees backend orders each forest's edges by key, ties to the
    lowest edge id."""

    def test_ties_go_to_the_lowest_edge_id(self):
        rng = np.random.Generator(np.random.Philox(3))
        keys = rng.integers(0, 4, size=(5, 2000)).astype(float)
        keys[2] = rng.random(2000)
        got = mrc._edge_orders(keys)
        assert got.dtype == np.int64
        for row, order in zip(keys, got):
            assert np.array_equal(order, np.argsort(row, kind="stable"))
        # The one default-kind sort breaks these ties otherwise, so a
        # missing stable re-sort fails the check above.
        plain = np.argsort(keys, axis=1)
        assert not all(np.array_equal(order, np.argsort(row, kind="stable"))
                       for row, order in zip(keys, plain))

    def test_rows_without_ties_are_sorted(self):
        keys = np.random.Generator(np.random.Philox(4)).random((3, 500))
        assert np.array_equal(mrc._edge_orders(keys),
                              np.argsort(keys, axis=1, kind="stable"))


def trees_answer_digest(seed):
    """A digest of the trees backend's answers (edges, signs, ratio) over a
    seeded run on a 48-vertex graph of two components: queries between
    inserts within a component, an insert that joins them, and length
    increases, some of which double the total length."""
    rng = np.random.Generator(np.random.Philox(seed))
    n, half = 48, 24
    g = IncrementalGraph(n)
    for lo in (0, half):
        spine = lo + rng.permutation(half)
        for i in range(half - 1):
            g.add_edge(int(spine[i]), int(spine[i + 1]))
        for _ in range(4 * half):
            u, v = lo + rng.choice(half, size=2, replace=False)
            g.add_edge(int(u), int(v))
    state = MonotoneMrcState(g, 0.02 * rng.normal(size=g.m),
                             0.2 + rng.random(g.m), alpha=1.0, kappa=4.0,
                             backend="trees", seed=seed)
    digest = hashlib.sha256()
    for step in range(40):
        answer = state.query()
        if answer is None:
            digest.update(b"none")
        else:
            digest.update(answer.edges.tobytes())
            digest.update(answer.signs.tobytes())
            digest.update(repr(answer.ratio).encode())
        action = rng.random()
        if step == 20:
            u, v = rng.integers(half), rng.integers(half, n)
        elif action < 0.4:
            lo = half * int(rng.integers(2)) if step > 20 else 0
            u, v = lo + rng.choice(half, size=2, replace=False)
        else:
            e = int(rng.choice(answer.edges) if answer is not None
                    and action < 0.8 else rng.integers(state.m))
            grow = 1.0 + (300.0 if action > 0.95 else 2.0) * rng.random()
            state.increase_length(e, float(state.lengths[e] * grow))
            continue
        state.insert(g.add_edge(int(u), int(v)), float(rng.normal()),
                     0.05 + float(rng.random()))
    return digest.hexdigest()[:16]


def test_trees_answers_match_the_golden_digest():
    """Pinned answers of the trees backend over seeded runs with inserts
    (appended cycles and a joining rebuild) and length increases (some
    rebuilding by doubling)."""
    got = [trees_answer_digest(seed) for seed in (1, 2, 3)]
    assert got == GOLDEN_TREES_DIGESTS


GOLDEN_TREES_DIGESTS = ["a78e9a3188ed1a7d", "daa7c3da48397e80",
                        "17927d9a5ee44631"]


def assert_cache_is_fresh(state):
    """The cycle cache (off, u, v, meet, grads), one row per forest, equals
    a fresh computation element by element and dtype by dtype."""
    trees = state._trees
    fresh = trees._all_entries(state)
    assert len(trees._cycles) == len(fresh) == 5
    for got, want in zip(trees._cycles, fresh):
        assert got.shape[0] == trees.count
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def direct_solve(state):
    """The un-memoized answer: a backend solve on the state's current input."""
    if state.backend == "trees":
        return state._trees.query(state)
    return state._exact_query()


class TestQueryMemo:
    """query() answers from the last solve until insert or increase_length
    changes the oracle's input, and the answer is the one a solve gives."""

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           backend=st.sampled_from(["exact", "trees"]),
           alpha=st.sampled_from([0.05, 0.3]))
    @settings(max_examples=40, deadline=None)
    def test_memoized_answers_match_direct_solves(self, seed, backend, alpha):
        rng = np.random.Generator(np.random.Philox(seed))
        inst = random_mrc(rng, n_max=8)
        state = MonotoneMrcState(*inst, alpha=alpha,
                                 kappa=4.0 if backend == "trees" else 1.0,
                                 backend=backend, seed=int(seed))
        changed, answer = True, None
        for _ in range(12):
            queries, solves = state.queries, state.solves
            k = int(rng.integers(1, 4))
            got = [state.query() for _ in range(k)]
            assert state.queries == queries + k
            assert state.solves == solves + int(changed)
            assert all(other is got[0] for other in got)
            answer = got[0]
            want = direct_solve(state)
            assert (answer is None) == (want is None)
            if answer is not None:
                assert np.array_equal(answer.edges, want.edges)
                assert np.array_equal(answer.signs, want.signs)
                assert answer.ratio == want.ratio
            action = rng.random()
            changed = action < 0.8
            if action < 0.3:
                u, v = rng.choice(state.n, size=2, replace=False)
                e = inst.graph.add_edge(int(u), int(v))
                state.insert(e, float(rng.normal() * 5),
                             0.05 + float(rng.random()))
            elif changed:
                # Half the time lengthen an edge of the current answer.
                pool = (answer.edges if answer is not None and
                        rng.random() < 0.5 else np.arange(state.m))
                e = int(rng.choice(pool))
                state.increase_length(
                    e, float(state.lengths[e] * (1 + 3 * rng.random())))

    @pytest.mark.parametrize("backend, kappa", [("exact", 1.0),
                                                ("trees", 2.0)])
    def test_back_to_back_queries_solve_once(self, backend, kappa):
        state = MonotoneMrcState(*triangle_instance(), alpha=0.3, kappa=kappa,
                                 backend=backend, seed=1)
        first = state.query()
        assert first is not None
        for _ in range(4):
            assert state.query() is first
        assert (state.queries, state.solves) == (5, 1)
        state.increase_length(1, 2.0)
        state.query()
        state.query()
        assert (state.queries, state.solves) == (7, 2)

    def test_unavailable_answer_is_memoized_too(self):
        g = IncrementalGraph(3)
        state = MonotoneMrcState(g, np.zeros(0), np.zeros(0), alpha=0.5)
        assert state.query() is None and state.query() is None
        assert (state.queries, state.solves) == (2, 1)
        state.insert(g.add_edge(0, 1), 1.0, 1.0)
        state.insert(g.add_edge(0, 1), -1.0, 1.0)
        assert state.query() is not None
        assert (state.queries, state.solves) == (3, 2)

    @pytest.mark.parametrize("backend, kappa", [("exact", 1.0),
                                                ("trees", 2.0)])
    def test_oracle_input_and_answer_are_read_only(self, backend, kappa):
        state = MonotoneMrcState(*triangle_instance(), alpha=0.3, kappa=kappa,
                                 backend=backend, seed=1)
        answer = state.query()
        for view in (state.gradients, state.lengths, answer.edges,
                     answer.signs):
            with pytest.raises(ValueError):
                view[0] = 7


def _graph_of(state):
    g = IncrementalGraph(state.n)
    for u, v in zip(state.tails.tolist(), state.heads.tolist()):
        g.add_edge(u, v)
    return g


def length_increase_log(rng, n=4, m=4, stages=4):
    """A log over a fixed small cycle plus noise edges, lengths only rising."""
    graph = IncrementalGraph(n)
    tails = [0, 1, 2, 3]
    heads = [1, 2, 3, 0]
    lengths = 1.0 + rng.random(m)
    grads = rng.normal(size=m)
    log = UpdateLog(n)
    log.append_batch([LogInsert(e, tails[e], heads[e], float(grads[e]),
                                float(lengths[e])) for e in range(m)])
    for _ in range(stages - 1):
        e = int(rng.integers(m))
        lengths[e] *= 1.0 + rng.random()
        log.append_batch([LogDelete(e),
                          LogInsert(e, tails[e], heads[e], float(grads[e]),
                                    float(lengths[e]))])
    for u, v in zip(tails, heads):
        graph.add_edge(u, v)
    c_star = np.ones(m)
    return log, c_star


class TestWitnessChecker:
    """Replay update logs and verify the hidden-circulation conditions."""

    def test_canonical_witness_accepted(self):
        rng = np.random.Generator(np.random.Philox(3))
        log, c_star = length_increase_log(rng)
        widths = canonical_stability_widths(log, c_star)
        assert check_stability_witness(log, c_star, widths)

    def test_width_below_coefficient_rejected(self):
        rng = np.random.Generator(np.random.Philox(4))
        log, c_star = length_increase_log(rng)
        widths = canonical_stability_widths(log, c_star)
        stage = len(widths) // 2
        edge = next(iter(widths[stage]))
        widths[stage][edge] *= 0.25
        assert not check_stability_witness(log, c_star, widths)

    def test_halving_untouched_width_rejected(self):
        rng = np.random.Generator(np.random.Philox(5))
        log, c_star = length_increase_log(rng)
        widths = canonical_stability_widths(log, c_star)
        # Halve one untouched edge's width at the final stage; the total
        # width shrinks, which the monotone-width condition forbids.
        final_batch = {op.edge for op in log.batches[-1]}
        edge = next(e for e in widths[-1] if e not in final_batch)
        widths[-1][edge] *= 0.5
        assert not check_stability_witness(log, c_star, widths)

    def test_more_than_doubling_untouched_width_rejected(self):
        rng = np.random.Generator(np.random.Philox(6))
        log, c_star = length_increase_log(rng)
        widths = canonical_stability_widths(log, c_star)
        untouched = None
        for t in range(1, len(widths)):
            batch_edges = {op.edge for op in log.batches[t]}
            for e in widths[t]:
                if e not in batch_edges:
                    untouched = (t, e)
                    break
            if untouched:
                break
        assert untouched is not None
        t, e = untouched
        for s in range(t, len(widths)):
            widths[s] = dict(widths[s])
        widths[t][e] *= 2.5
        # Keep the total monotone by inflating later stages too.
        for s in range(t + 1, len(widths)):
            widths[s][e] = max(widths[s].get(e, 0.0), widths[t][e])
        assert not check_stability_witness(log, c_star, widths)

    def test_non_circulation_rejected(self):
        rng = np.random.Generator(np.random.Philox(7))
        log, c_star = length_increase_log(rng)
        bad = c_star.copy()
        bad[0] = 2.0
        widths = canonical_stability_widths(log, bad)
        assert not check_stability_witness(log, bad, widths)

    def test_stage_count_mismatch_rejected(self):
        rng = np.random.Generator(np.random.Philox(8))
        log, c_star = length_increase_log(rng)
        widths = canonical_stability_widths(log, c_star)
        with pytest.raises(ValueError):
            check_stability_witness(log, c_star, widths[:-1])

    def test_width_for_absent_edge_rejected(self):
        rng = np.random.Generator(np.random.Philox(9))
        log, c_star = length_increase_log(rng)
        widths = canonical_stability_widths(log, c_star)
        widths[0] = dict(widths[0])
        widths[0][99] = 1.0
        with pytest.raises(ValueError):
            check_stability_witness(log, c_star, widths)
