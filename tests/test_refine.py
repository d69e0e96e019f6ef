"""Tests for iterative refinement and the per-event threshold solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnormflow.graph import IncrementalGraph, PNormInstance, net_demand
from pnormflow.refine import (
    CertifiedAbove,
    Flow,
    IncrementalPNormSolver,
    build_residual,
    incremental_pnorm,
    refinement_step,
    residual_scaled_weights,
    sandwich_holds,
)
from pnormflow.streams import build_pnorm_instance, generate_stream
from pnormflow.verify import static_pnorm_opt


def fresh_instance(n, d, p=2, threshold=0.0, eps=1e-6):
    graph = IncrementalGraph(n)
    return PNormInstance(graph, np.asarray(d, dtype=float), p,
                         threshold=threshold, eps=eps)


def random_instance(rng, n, m, p):
    """A connected instance: a path spine plus random extra edges."""
    graph = IncrementalGraph(n)
    d = rng.normal(size=n)
    d[-1] -= d.sum()
    instance = PNormInstance(graph, d, p, threshold=0.0, eps=1e-6)
    for e in range(m):
        if e < n - 1:
            u, v = e, e + 1
        else:
            u, v = rng.choice(n, size=2, replace=False)
        instance.add_edge(int(u), int(v), float(rng.normal()),
                          float(0.2 + rng.random()),
                          float(0.2 + rng.random()))
    return instance


class TestBuildResidual:
    """Residual attributes around a base flow."""

    def test_quadratic_example(self):
        instance = fresh_instance(2, [-2.0, 2.0], p=2)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        res = build_residual(instance, np.array([2.0]))
        assert res.g[0] == pytest.approx(8.0)
        assert res.r[0] == pytest.approx(3.0)
        assert res.w[0] == pytest.approx(2.0)

    def test_quadratic_zero_flow_keeps_curvature(self):
        instance = fresh_instance(2, [0.0, 0.0], p=2)
        instance.add_edge(0, 1, 0.5, 1.0, 1.0)
        res = build_residual(instance, np.zeros(1))
        assert res.g[0] == pytest.approx(0.5)
        assert res.r[0] == pytest.approx(3.0)

    def test_higher_order_zero_flow_is_flat(self):
        instance = fresh_instance(2, [0.0, 0.0], p=3)
        instance.add_edge(0, 1, 0.7, 1.3, 0.9)
        res = build_residual(instance, np.zeros(1))
        assert res.g[0] == pytest.approx(0.7)
        assert res.r[0] == pytest.approx(1.3)
        assert res.w[0] == pytest.approx(3 * 0.9)

    def test_shape_mismatch_rejected(self):
        instance = fresh_instance(2, [0.0, 0.0], p=2)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_residual(instance, np.zeros(3))

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           p=st.sampled_from([2, 3, 4]))
    @settings(max_examples=25, deadline=None)
    def test_gradient_of_residual_at_zero_matches_energy_gradient(
            self, seed, p):
        rng = np.random.Generator(np.random.Philox(seed))
        instance = random_instance(rng, 4, 6, p)
        f = rng.normal(size=6)
        res = build_residual(instance, f)
        assert res.value(np.zeros(6)) == 0.0
        h = 1e-7
        for e in range(6):
            x = np.zeros(6)
            x[e] = h
            slope = (res.value(x) - res.value(-x)) / (2 * h)
            assert slope == pytest.approx(res.g[e], rel=1e-4, abs=1e-4)


class TestScaledWeights:
    """The weight scaling handed to the inner solver."""

    def test_quadratic_examples(self):
        instance = fresh_instance(2, [0.0, 0.0], p=2)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        res = build_residual(instance, np.zeros(1))
        res.r = np.array([3.0])
        res.w = np.array([2.0])
        r_s, w_s = residual_scaled_weights(res, 4.0)
        assert (r_s[0], w_s[0]) == pytest.approx((12.0, 4.0))
        res.r = np.array([1.0])
        res.w = np.array([1.0])
        r_s, w_s = residual_scaled_weights(res, 0.25)
        assert (r_s[0], w_s[0]) == pytest.approx((1.0, 0.5))

    def test_unit_threshold_only_doubles_resistance(self):
        instance = fresh_instance(2, [0.0, 0.0], p=3)
        instance.add_edge(0, 1, 0.0, 1.5, 0.5)
        res = build_residual(instance, np.zeros(1))
        r_s, w_s = residual_scaled_weights(res, 1.0)
        assert np.allclose(r_s, 2 * res.r)
        assert np.allclose(w_s, res.w)

    def test_nonpositive_threshold_rejected(self):
        instance = fresh_instance(2, [0.0, 0.0], p=2)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        res = build_residual(instance, np.zeros(1))
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                residual_scaled_weights(res, bad)


class TestSandwich:
    """The two-sided bound linking residual value to energy change."""

    def test_holds_on_a_plain_quadratic(self):
        instance = fresh_instance(2, [-1.0, 1.0], p=2)
        instance.add_edge(0, 1, 0.3, 1.0, 1.0)
        assert sandwich_holds(instance, np.array([1.0]), np.array([0.2]), 32.0)

    def test_small_scale_fails_when_curvature_dominates(self):
        # With r0 << w0 the residual quadratic term is near 8x the true one,
        # so a scale of 2 cannot satisfy the lower inequality.
        instance = fresh_instance(2, [0.0, 0.0], p=2)
        instance.add_edge(0, 1, 0.0, 0.1, 1.0)
        f = np.zeros(1)
        x = np.array([1.0])
        assert not sandwich_holds(instance, f, x, 2.0)
        assert sandwich_holds(instance, f, x, 32.0)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           p=st.sampled_from([2, 3, 4, 8]))
    @settings(max_examples=60, deadline=None)
    def test_default_scale_on_random_triples(self, seed, p):
        rng = np.random.Generator(np.random.Philox(seed))
        instance = random_instance(rng, 4, 6, p)
        lam = 16.0 * p
        sigma = 1.0 / (p * (1.0 + lam))
        f = sigma * rng.normal(size=6)
        x = sigma * rng.normal(size=6)
        assert sandwich_holds(instance, f, x, lam)


class TestRefinementStep:
    """The scaled step applied after a completed inner run."""

    def test_step_coefficient_formula(self):
        K = 400.0
        R = 6.0 * K ** 2
        assert R / (2.0 * K ** 2) == pytest.approx(3.0)

    def test_requires_active_residual(self):
        instance = fresh_instance(2, [-1.0, 1.0], p=2, threshold=10.0)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        solver = IncrementalPNormSolver(instance, seed=0)
        assert isinstance(solver.start(), Flow)
        with pytest.raises(ValueError, match="no active residual problem"):
            refinement_step(solver, np.zeros(1))

    def test_requires_unit_negative_gradient(self):
        instance = fresh_instance(2, [-1.0, 1.0], p=2, threshold=0.5,
                                  eps=0.05)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        solver = IncrementalPNormSolver(instance, seed=0)
        assert isinstance(solver.start(), CertifiedAbove)
        assert solver.mwu is not None
        with pytest.raises(ValueError, match="unit negative gradient"):
            refinement_step(solver, np.zeros(1))


def crossing_ladder(threshold=0.6, eps=0.05, **kwargs):
    """Parallel unit edges (0, 1) under unit demand. Optimal energy is 2/k
    for k edges, crossing the 0.6 threshold at the fourth edge."""
    instance = fresh_instance(2, [-1.0, 1.0], p=2, threshold=threshold,
                              eps=eps)
    instance.add_edge(0, 1, 0.0, 1.0, 1.0)
    solver = IncrementalPNormSolver(instance, m_max=4, seed=7, **kwargs)
    return instance, solver


class TestSolverVerdicts:
    """One verdict per event, sound against the static oracle."""

    def test_immediate_flow_when_threshold_is_loose(self):
        instance = fresh_instance(2, [-1.0, 1.0], p=2, threshold=10.0)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        solver = IncrementalPNormSolver(instance, seed=0)
        verdict = solver.start()
        assert isinstance(verdict, Flow)
        assert verdict.energy == pytest.approx(2.0)
        assert np.allclose(net_demand(instance.graph, verdict.flow),
                           instance.d)
        assert verdict.energy <= instance.threshold + instance.eps

    def test_certified_above_is_sound(self):
        instance = fresh_instance(2, [-1.0, 1.0], p=2, threshold=0.6,
                                  eps=0.05)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        solver = IncrementalPNormSolver(instance, seed=0)
        assert isinstance(solver.start(), CertifiedAbove)
        assert static_pnorm_opt(instance).value > instance.threshold

    def test_unroutable_demand_is_vacuously_above(self):
        instance = fresh_instance(3, [-1.0, 0.0, 1.0], p=2, threshold=100.0)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        solver = IncrementalPNormSolver(instance, seed=0)
        assert isinstance(solver.start(), CertifiedAbove)
        verdict = solver.insert_edge(1, 2, 0.0, 1.0, 1.0)
        assert isinstance(verdict, Flow)

    def test_flow_is_sticky_across_inserts(self):
        instance = fresh_instance(2, [-1.0, 1.0], p=2, threshold=10.0)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        solver = IncrementalPNormSolver(instance, m_max=8, seed=0)
        assert isinstance(solver.start(), Flow)
        queries = solver.queries
        verdict = solver.insert_edge(0, 1, 0.0, 1.0, 1.0)
        assert isinstance(verdict, Flow)
        assert solver.queries == queries

    def test_crossing_ladder_resolves_each_event(self):
        instance, solver = crossing_ladder()
        verdicts = [solver.start()]
        for _ in range(3):
            verdicts.append(solver.insert_edge(0, 1, 0.0, 1.0, 1.0))
        kinds = [type(v).__name__ for v in verdicts]
        assert kinds == ["CertifiedAbove", "CertifiedAbove",
                         "CertifiedAbove", "Flow"]
        final = verdicts[-1]
        assert final.energy <= instance.threshold + instance.eps + 1e-9
        assert np.allclose(net_demand(instance.graph, final.flow),
                           instance.d, atol=1e-8)
        opt = static_pnorm_opt(instance).value
        assert opt == pytest.approx(0.5)

    def test_tight_budget_resolves_by_materializing(self):
        instance, solver = crossing_ladder(step_budget_per_event=1)
        solver.start()
        for _ in range(2):
            solver.insert_edge(0, 1, 0.0, 1.0, 1.0)
        before = solver.materializations
        verdict = solver.insert_edge(0, 1, 0.0, 1.0, 1.0)
        assert isinstance(verdict, Flow)
        assert solver.materializations == before + 1
        assert solver.refinement_steps == 0

    def test_unhelpful_insert_stalls_quickly(self):
        instance = fresh_instance(2, [-1.0, 1.0], p=2, threshold=0.6,
                                  eps=0.05)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        solver = IncrementalPNormSolver(instance, m_max=4, seed=0)
        assert isinstance(solver.start(), CertifiedAbove)
        verdict = solver.insert_edge(0, 1, 0.0, 100.0, 100.0)
        assert isinstance(verdict, CertifiedAbove)
        assert static_pnorm_opt(instance).value > instance.threshold

    def test_edge_bound_enforced(self):
        instance = fresh_instance(2, [-1.0, 1.0], p=2, threshold=10.0)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        solver = IncrementalPNormSolver(instance, m_max=1, seed=0)
        solver.start()
        with pytest.raises(ValueError):
            solver.insert_edge(0, 1, 0.0, 1.0, 1.0)

    def test_tiny_edge_bound_uses_oracle_lane(self):
        instance = fresh_instance(2, [-1.0, 1.0], p=2, threshold=1.2,
                                  eps=0.05)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        solver = IncrementalPNormSolver(instance, m_max=2, seed=0)
        assert solver.degenerate
        assert isinstance(solver.start(), CertifiedAbove)
        verdict = solver.insert_edge(0, 1, 0.0, 1.0, 1.0)
        assert isinstance(verdict, Flow)
        assert verdict.energy == pytest.approx(1.0)

    def test_generator_yields_one_verdict_per_event(self):
        instance = fresh_instance(2, [-1.0, 1.0], p=2, threshold=0.6,
                                  eps=0.05)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        events = [(0, 1, 0.0, 1.0, 1.0)] * 3
        verdicts = list(incremental_pnorm(instance, events, m_max=4, seed=7))
        assert len(verdicts) == 4
        assert isinstance(verdicts[-1], Flow)

    def test_warm_start_flow_is_used(self):
        instance = fresh_instance(2, [-1.0, 1.0], p=2, threshold=10.0)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        solver = IncrementalPNormSolver(instance, seed=0,
                                        start_flow=np.array([1.0]))
        verdict = solver.start()
        assert isinstance(verdict, Flow)
        assert verdict.energy == pytest.approx(2.0)

    def test_trace_records_one_record_per_event(self):
        records = []
        instance = fresh_instance(2, [-1.0, 1.0], p=2, threshold=10.0)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        solver = IncrementalPNormSolver(instance, m_max=8, seed=0,
                                        trace=records.append)
        solver.start()
        solver.insert_edge(0, 1, 0.0, 1.0, 1.0)
        verdicts = [r for r in records if r["kind"] == "verdict"]
        assert [r["event"] for r in verdicts] == [1, 2]
        assert all(r["verdict"] == "Flow" for r in verdicts)

    def test_step_counts_match_trace_records(self):
        """After every event, queries equals the inner steps traced
        (progress plus stall records) and iterations the progress records,
        across completed runs, materializations and mid-run insertions."""
        stream = generate_stream("planted-threshold", "pnorm", n=5,
                                 initial=5, events=4, p=3, seed=0)
        instance, events = build_pnorm_instance(stream)
        records = []
        solver = IncrementalPNormSolver(instance, m_max=stream.m_max,
                                        seed=0, trace=records.append)

        def check():
            kinds = [r["kind"] for r in records]
            progress = kinds.count("progress")
            assert solver.queries == progress + kinds.count("stall")
            assert solver.iterations == progress

        solver.start()
        check()
        mid_run = 0
        for event in events:
            mid_run += solver.mwu is not None
            solver.insert_edge(*event)
            check()
        assert mid_run >= 1
        assert solver.refinement_steps >= 1
        assert solver.materializations >= 1

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_verdicts_match_static_oracle(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        instance = random_instance(rng, 4, 5, 2)
        opt = static_pnorm_opt(instance, seed=1).value
        margin = 0.3 * (1.0 + abs(opt))
        for threshold in (opt - margin, opt + margin):
            # The trial inserts no edges, so it can view the same graph.
            trial = PNormInstance(instance.graph, instance.d.copy(),
                                  2, threshold=threshold, eps=1e-3)
            trial.set_edge_attrs(instance.g.copy(), instance.r.copy(),
                                 instance.w.copy())
            solver = IncrementalPNormSolver(trial, seed=3)
            verdict = solver.start()
            if threshold < opt:
                assert isinstance(verdict, CertifiedAbove)
            else:
                assert isinstance(verdict, Flow)
                assert verdict.energy <= threshold + trial.eps + 1e-9
