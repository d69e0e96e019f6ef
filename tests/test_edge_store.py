"""Tests for the one edge store: each per-edge fact has one owner, in
columns grown by doubling, and every other layer reads [:m] views."""

import numpy as np
from hypothesis import given, settings, strategies as st

from pnormflow.drivers import MaxflowDriver
from pnormflow.graph import IncrementalGraph, PNormInstance, net_demand
from pnormflow.mrc import InsertEdge, MonotoneMrcState, MrcInstance
from pnormflow.refine import CertifiedAbove, IncrementalPNormSolver


def _random_specs(rng, n, m):
    """A spanning path first, so the s-t demand is routable from the
    start, then random edges; each spec is (u, v, g, r, w)."""
    path = rng.permutation(n)
    pairs = [(int(a), int(b)) for a, b in zip(path[:-1], path[1:])]
    while len(pairs) < m:
        u, v = rng.choice(n, size=2, replace=False)
        pairs.append((int(u), int(v)))
    return [(u, v, float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2)),
             float(rng.uniform(0.5, 2))) for u, v in pairs]


@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       p=st.sampled_from([2, 3]))
@settings(max_examples=8, deadline=None)
def test_views_track_insertions_across_doublings(seed, p):
    """Insert up to 33 edges one at a time, past the 1, 2, 4, 8, 16 and 32
    slot boundaries of the growable columns; after every event each layer's
    view has length m and holds what was inserted."""
    rng = np.random.Generator(np.random.Philox(seed))
    n = int(rng.integers(3, 7))
    m_total = int(rng.integers(17, 34))
    specs = _random_specs(rng, n, m_total)
    d = np.zeros(n)
    d[0], d[n - 1] = -1.0, 1.0
    graph = IncrementalGraph(n)
    # The energy is bounded below by -m/2 here, so every verdict is
    # CertifiedAbove and the solver keeps an inner run (and its oracle)
    # alive across insertions.
    instance = PNormInstance(graph, d, p, threshold=-100.0, eps=1e-3)
    initial = n - 1
    for spec in specs[:initial]:
        instance.add_edge(*spec)
    solver = IncrementalPNormSolver(instance, m_max=m_total, seed=seed,
                                    step_budget_per_event=20)
    # A second oracle on the same graph, with no capacity hint, so its own
    # columns grow by doubling too.
    oracle = MonotoneMrcState(
        MrcInstance(graph, instance.g, np.ones(initial)), alpha=0.1)

    def check(m):
        tails, heads, g, r, w = (np.asarray(col) for col in zip(*specs[:m]))
        assert graph.m == instance.m == m
        assert np.array_equal(graph.tails, tails)
        assert np.array_equal(graph.heads, heads)
        for view, want in ((instance.g, g), (instance.r, r), (instance.w, w)):
            assert np.array_equal(view, want)
        assert solver.f.shape == (m,)
        assert np.allclose(net_demand(graph, solver.f), d, atol=1e-6)
        assert oracle.m == m
        assert np.array_equal(oracle.tails, tails)
        assert np.array_equal(oracle.gradients, g)
        assert np.array_equal(oracle.lengths, np.ones(m))
        run = solver.mwu
        if run is None:
            return
        assert run.m == run.mrc.m == m
        assert np.array_equal(run.mrc.tails, tails)
        assert np.array_equal(run.mrc.heads, heads)
        assert np.array_equal(run.gradients, solver._residual.g)
        for view in (run.length_estimates, run.lengths, run.circulation,
                     solver._residual.r, solver._residual.w):
            assert view.shape == (m,)

    assert isinstance(solver.start(), CertifiedAbove)
    check(initial)
    for m, spec in enumerate(specs[initial:], start=initial + 1):
        assert isinstance(solver.insert_edge(*spec), CertifiedAbove)
        oracle.insert(InsertEdge(m - 1, spec[2], 1.0))
        check(m)


def test_maxflow_phases_view_the_driver_graph():
    """Phase restarts build no graph: every phase's instance views the
    driver's one graph, which holds each inserted edge once."""
    driver = MaxflowDriver(2, 8, 0, 1, 0.25, seed=0)
    driver.add_initial_edge(0, 1, 1)
    driver.start()
    for cap in (2, 4, 8, 16, 32, 64):
        driver.insert(0, 1, cap)
        assert driver.phase.instance.graph is driver.graph
        assert driver.phase.solver.f.shape == (driver.graph.m,)
    assert driver.phase_count >= 4
    assert driver.graph.m == 7


def test_tree_backend_rebuilds_when_an_insert_joins_components():
    """Two triangles joined by a bridge: the graph's component count drops,
    which alone must rebuild the forests (the total length stays far from
    doubling), and the bridge is then a tree edge of every forest."""
    graph = IncrementalGraph(6)
    for u, v in ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)):
        graph.add_edge(u, v)
    state = MonotoneMrcState(
        MrcInstance(graph, np.arange(6.0), np.ones(6)), alpha=0.1,
        kappa=4.0, backend="trees", seed=3)
    forests = state._trees.forests
    state.insert(InsertEdge(graph.add_edge(0, 1), 1.0, 0.5))
    assert state._trees.forests is forests
    bridge = graph.add_edge(2, 3)
    state.insert(InsertEdge(bridge, -1.0, 0.5))
    assert state._trees.forests is not forests
    for forest in state._trees.forests:
        assert bridge in forest.tree_edges
