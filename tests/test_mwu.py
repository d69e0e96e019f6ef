"""Tests for the multiplicative-weights inner loop over the cycle oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnormflow.errors import InvariantViolation
from pnormflow.graph import IncrementalGraph, is_circulation
from pnormflow.mrc import CycleSolution, MrcInstance, exact_min_ratio_cycle
from pnormflow.mwu import (
    MwuState,
    Solution,
    mwu_init,
    mwu_insert_edge,
    mwu_solution,
    mwu_step,
)
from support import (
    LogDelete,
    LogInsert,
    LogRecorder,
    canonical_stability_widths,
    check_stability_witness,
    good_solution_l1_bound,
    probe_l1_length,
    run_to_end,
)


def parallel_pair_state(m_max=4, p=2, g=(1.0, -1.0), r=(1.0, 1.0),
                        w=(1.0, 1.0), **kwargs):
    """Two parallel edges supporting the planted circulation (-1/2, +1/2),
    which has unit negative gradient and both scaled norms below 1."""
    graph = IncrementalGraph(2)
    graph.add_edge(0, 1)
    graph.add_edge(0, 1)
    return mwu_init(graph, np.asarray(g, dtype=float),
                    np.asarray(r, dtype=float), np.asarray(w, dtype=float),
                    p, m_max=m_max, **kwargs)


class TestConstants:
    """The weight schedule constants, straight from their formulas."""

    def test_q_is_floored_log_capped_by_p(self):
        state = parallel_pair_state(m_max=4, p=2)
        assert state.q == 2
        graph = IncrementalGraph(2)
        graph.add_edge(0, 1)
        graph.add_edge(0, 1)
        wide = mwu_init(graph, np.array([1.0, -1.0]), np.ones(2), np.ones(2),
                        3, m_max=64)
        assert wide.q == 3  # floor(log2 64) = 6, capped by p = 3

    def test_schedule_constants(self):
        state = parallel_pair_state(m_max=8, p=2, kappa=1.0)
        assert state.q == 2
        assert state.K == 200
        assert state.T == 100 * 2 * 8
        assert state.alpha == pytest.approx(200 ** -1 / 80, rel=1e-12)

    def test_kappa_scales_K(self):
        state = parallel_pair_state(m_max=4, p=2, kappa=2.0,
                                    backend="trees", seed=0)
        assert state.K == 400

    def test_single_edge_formula_substitution(self):
        # The closed forms evaluated at m_max=1, q=p=2, kappa=1. The state
        # itself requires m_max >= 4, so this pins the formulas, not a run.
        m_max, q, kappa = 1, 2, 1.0
        K = 100 * q * kappa
        a0 = K * m_max ** -0.5 / 1.0
        b0 = K * m_max ** (-1.0 / q) / 1.0
        ell0 = K ** (q - 2) * 1.0 ** 2 * a0 + 1.0 ** q * b0 ** (q - 1)
        assert (K, a0, b0, ell0) == (200, 200.0, 200.0, 400.0)

    def test_small_edge_bound_rejected(self):
        graph = IncrementalGraph(2)
        graph.add_edge(0, 1)
        with pytest.raises(ValueError):
            mwu_init(graph, np.array([1.0]), np.ones(1), np.ones(1), 2,
                     m_max=3)

    def test_nonpositive_weights_rejected(self):
        graph = IncrementalGraph(2)
        graph.add_edge(0, 1)
        with pytest.raises(ValueError):
            mwu_init(graph, np.array([1.0]), np.zeros(1), np.ones(1), 2,
                     m_max=4)


class TestInitialPotentials:
    """Padded potentials start at exactly K^2 and K^q."""

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           p=st.sampled_from([2, 3, 4]))
    @settings(max_examples=30, deadline=None)
    def test_phi_and_psi_at_init(self, seed, p):
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(2, 8))
        graph = IncrementalGraph(n)
        m = int(rng.integers(1, 7))
        for _ in range(m):
            u, v = rng.choice(n, size=2, replace=False)
            graph.add_edge(int(u), int(v))
        m_max = m + int(rng.integers(0, 6))
        m_max = max(m_max, 4)
        state = mwu_init(graph, rng.normal(size=m), 0.2 + rng.random(m),
                         0.2 + rng.random(m), p, m_max=m_max)
        assert state.phi == pytest.approx(state.K ** 2, rel=1e-12)
        assert state.psi == pytest.approx(state.K ** state.q, rel=1e-12)

    def test_full_capacity_matches_too(self):
        graph = IncrementalGraph(2)
        for _ in range(4):
            graph.add_edge(0, 1)
        state = mwu_init(graph, np.array([1.0, -1.0, 1.0, -1.0]),
                         np.full(4, 0.7), np.full(4, 1.3), 2, m_max=4)
        assert state.phi == pytest.approx(state.K ** 2, rel=1e-12)
        assert state.psi == pytest.approx(state.K ** state.q, rel=1e-12)


class TestInsertEdge:
    """Mid-run insertions join with fresh weights, potential-neutrally."""

    def test_insert_is_potential_neutral(self):
        state = parallel_pair_state(m_max=6)
        phi, psi = state.phi, state.psi
        e = state.graph.add_edge(0, 1)
        mwu_insert_edge(state, e, 0.5, 2.0, 3.0)
        assert state.phi == pytest.approx(phi, rel=1e-12)
        assert state.psi == pytest.approx(psi, rel=1e-12)

    def test_new_edge_contribution_is_padding_share(self):
        state = parallel_pair_state(m_max=6)
        e = state.graph.add_edge(0, 1)
        mwu_insert_edge(state, e, 0.5, 2.0, 3.0)
        contribution = (state._r[e] * state._a[e]) ** 2
        assert contribution == pytest.approx(state.K ** 2 / state.m_max,
                                             rel=1e-12)

    def test_initialization_is_iteration_independent(self):
        first = parallel_pair_state(m_max=6)
        e = first.graph.add_edge(0, 1)
        mwu_insert_edge(first, e, 0.0, 1.5, 2.5)
        fresh_a, fresh_b = first._a[e], first._b[e]

        second = parallel_pair_state(m_max=6)
        for _ in range(5):
            assert isinstance(mwu_step(second), CycleSolution)
        e = second.graph.add_edge(0, 1)
        mwu_insert_edge(second, e, 0.0, 1.5, 2.5)
        assert second._a[e] == fresh_a and second._b[e] == fresh_b

    def test_parallel_edges_with_equal_attrs_match(self):
        state = parallel_pair_state(m_max=6)
        e1 = state.graph.add_edge(0, 1)
        mwu_insert_edge(state, e1, 0.0, 1.5, 2.5)
        e2 = state.graph.add_edge(0, 1)
        mwu_insert_edge(state, e2, 0.0, 1.5, 2.5)
        assert state._a[e1] == state._a[e2]
        assert state._b[e1] == state._b[e2]
        assert state._ell[e1] == state._ell[e2]

    def test_out_of_order_insert_rejected(self):
        state = parallel_pair_state(m_max=6)
        state.graph.add_edge(0, 1)
        with pytest.raises(ValueError):
            mwu_insert_edge(state, 5, 0.0, 1.0, 1.0)

    def test_capacity_overflow_rejected(self):
        state = parallel_pair_state(m_max=4)
        for _ in range(2):
            e = state.graph.add_edge(0, 1)
            mwu_insert_edge(state, e, 0.0, 1.0, 1.0)
        e = state.graph.add_edge(0, 1)
        with pytest.raises(ValueError):
            mwu_insert_edge(state, e, 0.0, 1.0, 1.0)


class TestStep:
    """Single oracle rounds: scaling, stalls, monotone bookkeeping."""

    def test_scaled_cycle_arithmetic(self):
        # A raw cycle with gradient -2 and l1-length 4 scales to delta = c/2
        # with unit negative gradient and l1-length 2.
        graph = IncrementalGraph(2)
        graph.add_edge(0, 1)
        graph.add_edge(0, 1)
        inst = MrcInstance(graph, np.array([1.0, -1.0]), np.array([2.0, 2.0]))
        cycle = exact_min_ratio_cycle(inst)
        assert cycle.gradient == pytest.approx(-2.0)
        assert cycle.length == pytest.approx(4.0)
        assert cycle.ratio == pytest.approx(-0.5)
        scale = -1.0 / cycle.gradient
        delta = cycle.circulation(2) * scale
        assert float(inst.gradients @ delta) == pytest.approx(-1.0)
        assert float(np.abs(inst.lengths * delta).sum()) == pytest.approx(2.0)

    def test_progress_applies_scaled_delta(self):
        state = parallel_pair_state()
        step = mwu_step(state)
        assert isinstance(step, CycleSolution)
        delta = step.circulation(state.m) / -step.gradient
        assert float(state.gradients @ delta) == pytest.approx(
            -1.0, rel=1e-12)
        assert np.allclose(state.circulation, delta / state.T)
        assert step.ratio <= -state.alpha

    def test_stall_leaves_weights_untouched(self):
        # Parallel gradients of equal sign admit no negative cycle.
        state = parallel_pair_state(g=(1.0, 1.0))
        a = state._a.copy()
        b = state._b.copy()
        c = state._c.copy()
        assert mwu_step(state) is None
        assert mwu_step(state) is None
        assert np.array_equal(state._a, a)
        assert np.array_equal(state._b, b)
        assert np.array_equal(state._c, c)
        assert state.iteration == 0

    def test_oracle_views_are_read_only(self):
        state = parallel_pair_state()
        for view in (state.gradients, state.length_estimates):
            with pytest.raises(ValueError):
                view[0] = 5.0

    def test_trace_says_whether_the_oracle_solved(self):
        records = []
        state = parallel_pair_state(trace=records.append)
        for _ in range(5):
            mwu_step(state)
        assert [r["kind"] for r in records] == ["progress"] * 5
        assert sum(r["solved"] for r in records) == state.mrc.solves < 5
        # After the first step, only a pushed length estimate changes the
        # oracle's input, so only such steps solve.
        assert [r["solved"] for r in records] == [
            r["iteration"] == 1 or r["pushes"] > 0 for r in records]

    def test_weights_and_lengths_are_monotone(self):
        state = parallel_pair_state()
        snapshots = []
        for _ in range(40):
            before = (state._a.copy(), state._b.copy(), state._ell.copy(),
                      state.length_estimates.copy())
            step = mwu_step(state)
            assert isinstance(step, CycleSolution)
            snapshots.append(before)
            assert np.all(state._a >= before[0])
            assert np.all(state._b >= before[1])
            m = state.m
            assert np.all(state._ell[:m] >= before[2][:m] * (1 - 1e-12))
            assert np.all(state.length_estimates[:m] >= before[3][:m])
            assert np.all(state._ell[:m] <= state.length_estimates[:m]
                          * (1 + 1e-12))
            assert np.all(state.length_estimates[:m] <= 2 * state._ell[:m]
                          * (1 + 1e-12))

    def test_potential_step_bounds_by_recomputation(self):
        state = parallel_pair_state()
        phi, psi = state.phi, state.psi
        mwu_step(state)
        assert state.phi - phi <= 3 * state.K ** 2 / state.T * (1 + 1e-9)
        assert state.psi - psi <= (4 * state.q * state.K ** state.q / state.T
                                   * (1 + 1e-9))
        m = state.m
        live_phi = float(np.sum((state._r[:m] * state._a[:m]) ** 2))
        pad = (state.m_max - m) / state.m_max
        assert state.phi == pytest.approx(live_phi + pad * state.K ** 2,
                                          rel=1e-9)


class TestRun:
    """Full runs: solutions, certificates, and resume-on-insert."""

    def test_planted_circulation_run_completes(self):
        state = parallel_pair_state(m_max=4)
        probe = np.array([-0.5, 0.5])
        probe_lengths = []
        outcome = run_to_end(state, after=lambda run: probe_lengths.append(
            probe_l1_length(run, probe)))
        assert isinstance(outcome, Solution)
        c = outcome.circulation
        assert float(state.gradients @ c) == pytest.approx(-1.0, rel=1e-9)
        assert float(np.linalg.norm(state._r[:2] * c)) <= 2 * state.K
        assert float(np.sum(np.abs(state._w[:2] * c) ** state.p)
                     ** (1 / state.p)) <= 2 * state.K
        assert is_circulation(state.graph, c)
        assert max(probe_lengths) <= good_solution_l1_bound(state)
        assert state.phi <= 4 * state.K ** 2 * (1 + 1e-9)
        assert state.psi <= 5 * state.q * state.K ** state.q * (1 + 1e-9)

    def test_no_negative_cycle_certifies_forever(self):
        state = parallel_pair_state(g=(1.0, 1.0))
        assert run_to_end(state) is None

    def test_stall_then_resume_on_insert(self):
        graph = IncrementalGraph(2)
        graph.add_edge(0, 1)
        state = mwu_init(graph, np.array([1.0]), np.ones(1), np.ones(1), 2,
                         m_max=4)
        assert run_to_end(state) is None
        # The planted partner edge makes (-1/2, +1/2) a good circulation.
        outcome = run_to_end(state, events=[(0, 1, -1.0, 1.0, 1.0)])
        assert isinstance(outcome, Solution)
        assert float(state.gradients @ outcome.circulation) == pytest.approx(
            -1.0, rel=1e-9)

    def test_solution_before_completion_rejected(self):
        state = parallel_pair_state()
        mwu_step(state)
        with pytest.raises(ValueError):
            mwu_solution(state)

    def test_step_after_completion_rejected(self):
        state = parallel_pair_state()
        assert isinstance(run_to_end(state), Solution)
        with pytest.raises(ValueError):
            mwu_step(state)

    def test_update_log_supports_canonical_witness(self):
        state = parallel_pair_state()
        recorder = LogRecorder(state)
        outcome = run_to_end(state, after=recorder)
        assert isinstance(outcome, Solution)
        c_star = {0: -0.5, 1: 0.5}
        widths = canonical_stability_widths(recorder.log, c_star)
        assert check_stability_witness(recorder.log, c_star, widths)

    def test_recorded_log_follows_insertions_and_pushes(self):
        records = []
        graph = IncrementalGraph(2)
        graph.add_edge(0, 1)
        state = mwu_init(graph, np.array([1.0]), np.ones(1), np.ones(1), 2,
                         m_max=4, trace=records.append)
        recorder = LogRecorder(state)
        outcome = run_to_end(state, events=[(0, 1, -1.0, 1.0, 1.0)],
                             after=recorder)
        assert isinstance(outcome, Solution)
        batches = recorder.log.batches
        assert batches[0] == [LogInsert(0, 0, 1, 1.0, 200.0)]
        assert batches[1] == [LogInsert(1, 0, 1, -1.0, 200.0)]
        # Every later batch is one step's estimate pushes, as delete and
        # re-insert pairs in edge order.
        pushes = [r["pushes"] for r in records if r["pushes"]]
        assert [len(batch) for batch in batches[2:]] == [
            2 * k for k in pushes]
        for batch in batches[2:]:
            deleted = [op.edge for op in batch[0::2]]
            assert all(isinstance(op, LogDelete) for op in batch[0::2])
            assert [op.edge for op in batch[1::2]] == deleted
            assert deleted == sorted(deleted)
        *_, (present, _) = recorder.log.replay()
        assert [present[e].length for e in range(2)] == \
            state.length_estimates.tolist()
        c_star = {0: -0.5, 1: 0.5}
        widths = canonical_stability_widths(recorder.log, c_star)
        assert check_stability_witness(recorder.log, c_star, widths)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_tree_backend_run_also_satisfies_contract(self, seed):
        state = parallel_pair_state(backend="trees", seed=int(seed),
                                    kappa=2.0)
        outcome = run_to_end(state)
        if isinstance(outcome, Solution):
            c = outcome.circulation
            assert float(state.gradients @ c) == pytest.approx(-1.0, rel=1e-9)
            assert float(np.linalg.norm(state._r[:2] * c)) <= 2 * state.K
