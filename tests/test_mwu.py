"""Tests for the multiplicative-weights inner loop over the cycle oracle."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pnormflow.mwu as mwu_module
from pnormflow.errors import InvariantViolation
from pnormflow.graph import IncrementalGraph, pnorm
from pnormflow.mrc import CycleSolution
from pnormflow.mwu import (
    FIRST_SEGMENT_ROWS,
    MwuState,
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
    exact_min_ratio_cycle,
    good_solution_l1_bound,
    is_circulation,
    probe_l1_length,
    reference_step,
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
        gradients, lengths = np.array([1.0, -1.0]), np.array([2.0, 2.0])
        cycle = exact_min_ratio_cycle(graph, gradients, lengths)
        assert cycle.gradient == pytest.approx(-2.0)
        assert cycle.length == pytest.approx(4.0)
        assert cycle.ratio == pytest.approx(-0.5)
        scale = -1.0 / cycle.gradient
        delta = cycle.circulation(2) * scale
        assert float(gradients @ delta) == pytest.approx(-1.0)
        assert float(np.abs(lengths * delta).sum()) == pytest.approx(2.0)

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
        assert isinstance(outcome, np.ndarray)
        c = outcome
        assert float(state.gradients @ c) == pytest.approx(-1.0, rel=1e-9)
        assert float(np.linalg.norm(state._r[:2] * c)) <= 2 * state.K
        assert float(np.sum(np.abs(state._w[:2] * c) ** state.p)
                     ** (1 / state.p)) <= 2 * state.K
        assert is_circulation(state.graph, c)
        assert max(probe_lengths) <= good_solution_l1_bound(state)
        assert state.phi <= 4 * state.K ** 2 * (1 + 1e-9)
        assert state.psi <= 5 * state.q * state.K ** state.q * (1 + 1e-9)

    def test_large_p_norm_check_does_not_overflow(self):
        # At p = 200 a plain power sum overflows for entries above
        # e^(709/200), about 35, yet the contract allows up to 2K = 400.
        state = parallel_pair_state(m_max=4, p=200, w=(70.0, 70.0), seed=0)
        outcome = run_to_end(state)
        assert isinstance(outcome, np.ndarray)
        normp = pnorm(state._w[:2] * outcome, state.p)
        assert 35.0 < normp <= 2 * state.K == 400

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
        assert isinstance(outcome, np.ndarray)
        assert float(state.gradients @ outcome) == pytest.approx(
            -1.0, rel=1e-9)

    def test_solution_before_completion_rejected(self):
        state = parallel_pair_state()
        mwu_step(state)
        with pytest.raises(ValueError):
            mwu_solution(state)

    def test_step_after_completion_rejected(self):
        state = parallel_pair_state()
        assert isinstance(run_to_end(state), np.ndarray)
        with pytest.raises(ValueError):
            mwu_step(state)

    def test_limit_below_one_rejected(self):
        state = parallel_pair_state()
        with pytest.raises(ValueError, match="limit"):
            mwu_step(state, 0)
        assert state.iteration == 0

    def test_call_stops_at_T(self):
        state = parallel_pair_state()
        assert isinstance(mwu_step(state, 10 * state.T), CycleSolution)
        assert state.iteration == state.T
        assert isinstance(mwu_solution(state), np.ndarray)

    def test_update_log_supports_canonical_witness(self):
        state = parallel_pair_state()
        recorder = LogRecorder(state)
        outcome = run_to_end(state, after=recorder)
        assert isinstance(outcome, np.ndarray)
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
        assert isinstance(outcome, np.ndarray)
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
        if isinstance(outcome, np.ndarray):
            c = outcome
            assert float(state.gradients @ c) == pytest.approx(-1.0, rel=1e-9)
            assert float(np.linalg.norm(state._r[:2] * c)) <= 2 * state.K

    def test_a_dropped_tree_backend_run_is_freed_without_the_collector(self):
        """No reference cycle keeps a finished run's forests and cycle
        caches alive until the cyclic garbage collector reaches them."""
        gc.disable()
        try:
            state = parallel_pair_state(backend="trees", seed=1, kappa=2.0)
            run_to_end(state)
            collection = weakref.ref(state.mrc._trees)
            del state
            assert collection() is None
        finally:
            gc.enable()


def _lockstep_state(kind, p, m_max, backend, seed, trace):
    """A seeded run: a parallel pair with the planted circulation, a faint
    pair whose cycle, at p = 2 and m_max = 16, has ratio 1.5 times the
    threshold until its first estimate push doubles its length (so the
    run stalls in its second round), a ring of ten edges (one cycle past
    numpy's 8-wide pairwise-sum block) or a path on six vertices, which
    stalls until insertions close cycles."""
    rng = np.random.Generator(np.random.Philox(seed))
    ends = {"pair": [(0, 1), (0, 1)], "faint": [(0, 1), (0, 1), (1, 2)],
            "ring": [(i, (i + 1) % 10) for i in range(10)],
            "path": [(i, i + 1) for i in range(5)]}[kind]
    graph = IncrementalGraph(max(max(uv) for uv in ends) + 1)
    for u, v in ends:
        graph.add_edge(u, v)
    m = len(ends)
    if kind == "faint":
        return mwu_init(graph, np.array([0.0094, -0.0094, 0.0]), np.ones(m),
                        np.ones(m), p, m_max=m_max, seed=seed, trace=trace)
    g = (np.array([1.0, -1.0]) if kind == "pair"
         else -1.0 - rng.random(m) if kind == "ring" else rng.normal(size=m))
    kwargs = ({"backend": "trees", "kappa": 2.0} if backend == "trees"
              else {})
    return mwu_init(graph, g, 0.5 + rng.random(m), 0.5 + rng.random(m), p,
                    m_max=m_max, seed=seed, trace=trace, **kwargs)


def _assert_same_state(fast, ref):
    for name in ("_a", "_b", "_c", "_ell"):
        assert np.array_equal(getattr(fast, name), getattr(ref, name)), name
    assert np.array_equal(fast.length_estimates, ref.length_estimates)
    assert (fast.phi, fast.psi, fast.iteration, fast.m, fast.mrc.solves) \
        == (ref.phi, ref.psi, ref.iteration, ref.m, ref.mrc.solves)


def _same_cycle(got, want):
    if got is None or want is None:
        return got is want
    return (np.array_equal(got.edges, want.edges)
            and np.array_equal(got.signs, want.signs)
            and (got.gradient, got.length, got.ratio)
            == (want.gradient, want.length, want.ratio))


def _reference_rounds(state, limit):
    """reference_step repeated up to `limit` rounds, stopping at T or at a
    stall; returns the last round's result, as mwu_step(state, limit)."""
    end = min(state.T, state.iteration + limit)
    while True:
        got = reference_step(state)
        if got is None or state.iteration == end:
            return got


def _run_lockstep(kind, p, m_max, backend, calls):
    """Drive a run with mwu_step calls of random limits (1 at every fourth
    call, else 1..300) and its twin with as many reference_step rounds,
    admitting the same random edge into both at every stall and every
    third call, and compare them after every call; returns the mwu_step
    run and a tally: the most rows built for one cycle, its stalls, the calls that
    stalled after progress rounds, and the insertions that followed a
    call its limit ended while the oracle still held its cycle."""
    seed = 7 * p + m_max
    fast_trace, ref_trace = [], []
    fast = _lockstep_state(kind, p, m_max, backend, seed, fast_trace.append)
    ref = _lockstep_state(kind, p, m_max, backend, seed, ref_trace.append)
    assert fast.q == min(int(math.log2(m_max)), p)
    rng = np.random.Generator(np.random.Philox(seed + 1))
    n = fast.graph.n
    tally = dict.fromkeys(("largest", "stalls", "mid_call_stalls",
                           "cut_segment_inserts"), 0)
    call = 0
    while fast.iteration < fast.T and (calls is None or call < calls):
        call += 1
        limit = 1 if call % 4 == 0 else int(rng.integers(1, 301))
        begin = fast.iteration
        got, want = mwu_step(fast, limit), _reference_rounds(ref, limit)
        assert _same_cycle(got, want)
        _assert_same_state(fast, ref)
        assert fast_trace == ref_trace
        tally["largest"] = max(tally["largest"], fast._rows)
        tally["stalls"] += got is None
        tally["mid_call_stalls"] += got is None and fast.iteration > begin
        if (got is None or call % 3 == 0) and fast.m < fast.m_max:
            # The limit, not a push, ended the call: the oracle still
            # holds the call's last cycle.
            tally["cut_segment_inserts"] += (
                got is not None and fast._pending_push.size == 0)
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            attrs = (float(rng.normal()), 0.5 + float(rng.random()),
                     0.5 + float(rng.random()))
            for state in (fast, ref):
                e = state.graph.add_edge(u, v)
                mwu_insert_edge(state, e, *attrs)
            _assert_same_state(fast, ref)
        elif got is None:
            break
    if fast.iteration == fast.T:
        assert np.array_equal(mwu_solution(fast),
                              mwu_solution(ref))
    return fast, tally


class TestMatchesReference:
    """mwu_step(state, k), which replays precomputed rows along a memoized
    cycle, leaves every state the caller can read, its trace records and
    its answer bit-identical to k rounds of the step computed from scratch
    over all edges."""

    @pytest.mark.parametrize("backend", ["exact", "trees"])
    @pytest.mark.parametrize("kind, p, m_max, calls", [
        ("pair", 2, 4, None),
        ("ring", 3, 16, None),
        ("path", 4, 16, 60),
        ("path", 37, 32, 60),
    ])
    def test_lockstep_with_reference(self, kind, p, m_max, calls, backend):
        fast, tally = _run_lockstep(kind, p, m_max, backend, calls)
        assert tally["largest"] > FIRST_SEGMENT_ROWS
        assert tally["cut_segment_inserts"] > 0
        if kind == "path":
            assert tally["stalls"] > 0
        if calls is None:
            assert fast.iteration == fast.T

    def test_lockstep_stalls_inside_a_call(self):
        fast, tally = _run_lockstep("faint", 2, 16, "exact", None)
        assert tally["mid_call_stalls"] > 0
        assert fast.iteration == fast.T

    def test_lockstep_with_capped_segments(self, monkeypatch):
        monkeypatch.setattr(mwu_module, "MAX_SEGMENT_CELLS", 64)
        fast, tally = _run_lockstep("ring", 3, 16, "exact", None)
        assert fast.iteration == fast.T
        # Every cycle has at least 2 edges; uncapped, this run's segments
        # grow to 120 rows.
        assert tally["largest"] <= 64 // 2

    @pytest.mark.parametrize("limit", [1, 50])
    @pytest.mark.parametrize("memo_hit", [False, True])
    def test_negative_rtol_raises_at_first_progress_step(self, monkeypatch,
                                                         memo_hit, limit):
        # The twin takes one round per call; both raise in the same round.
        state, twin = parallel_pair_state(), parallel_pair_state()
        if memo_hit:
            assert isinstance(mwu_step(state, 20), CycleSolution)
            for _ in range(20):
                assert isinstance(mwu_step(twin), CycleSolution)
        solves = state.mrc.solves
        monkeypatch.setattr(mwu_module, "POTENTIAL_RTOL", -1.0)
        with pytest.raises(InvariantViolation) as raised:
            mwu_step(state, limit)
        with pytest.raises(InvariantViolation) as twin_raised:
            mwu_step(twin)
        assert str(raised.value) == str(twin_raised.value)
        assert (state.iteration, state.mrc.solves) == (twin.iteration,
                                                       twin.mrc.solves)
        assert (state.mrc.solves == solves) == memo_hit
