"""Tests for iterative refinement and the per-event threshold solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnormflow import mrc, refine
from pnormflow.drivers import event_calls
from pnormflow.errors import InvariantViolation, OracleError
from pnormflow.graph import IncrementalGraph, PNormInstance, net_demand
from pnormflow.mwu import mwu_init
from pnormflow.refine import (
    CertifiedAbove,
    Flow,
    IncrementalPNormSolver,
    build_residual,
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

    def test_quadratic_residual_is_closed_form(self):
        # At p = 2, r = sqrt(r0^2 + 8 w0^2) bit for bit, whatever the flow.
        rng = np.random.default_rng(3)
        instance = random_instance(rng, 4, 8, 2)
        f = np.concatenate(([0.0, -0.0], rng.normal(size=6)))
        r0, w0 = instance.r, instance.w
        res = build_residual(instance, f)
        assert res.r.tobytes() == np.sqrt(r0 ** 2 + 8.0 * w0 * w0).tobytes()
        assert res.w.tobytes() == (2 * w0).tobytes()

    def test_residual_is_finite_at_large_p(self):
        # w0^p underflows and |f|^(p-2) overflows at this p and flow.
        instance = fresh_instance(2, [-1.1e12, 1.1e12], p=359)
        instance.add_edge(0, 1, 0.0, 1.0, 1e-13)
        res = build_residual(instance, np.array([1.1e12]))
        assert np.all(np.isfinite(res.g)) and np.all(np.isfinite(res.r))
        assert res.r[0] >= 1.0

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

    @staticmethod
    def scaled_rows(rng, k, m):
        """k random flows of length m, each at its own scale."""
        return rng.normal(size=(k, m)) * 10.0 ** rng.uniform(-2, 0.5, (k, 1))

    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("lam", [2.0, 4.0, 8.0])
    def test_row_stack_holds_iff_every_row_holds(self, p, lam):
        rng = np.random.Generator(np.random.Philox(3))
        instance = random_instance(rng, 4, 6, p)
        f, x = self.scaled_rows(rng, 12, 6), self.scaled_rows(rng, 12, 6)
        rows = [sandwich_holds(instance, f[i], x[i], lam) for i in range(12)]
        assert sandwich_holds(instance, f, x, lam) == all(rows)
        for i in range(12):
            assert sandwich_holds(instance, f[i:i + 1], x[i:i + 1],
                                  lam) == rows[i]

    def test_one_failing_row_fails_the_stack(self):
        rng = np.random.Generator(np.random.Philox(3))
        instance = random_instance(rng, 4, 6, 3)
        f, x = self.scaled_rows(rng, 12, 6), self.scaled_rows(rng, 12, 6)
        rows = np.array([sandwich_holds(instance, f[i], x[i], 4.0)
                         for i in range(12)])
        assert rows.any() and not rows.all()
        holding = np.flatnonzero(rows)
        assert sandwich_holds(instance, f[holding], x[holding], 4.0)
        stack = np.append(holding, np.flatnonzero(~rows)[0])
        assert not sandwich_holds(instance, f[stack], x[stack], 4.0)

    def test_stack_shapes_must_match(self):
        instance = fresh_instance(2, [-1.0, 1.0], p=2)
        instance.add_edge(0, 1, 0.3, 1.0, 1.0)
        with pytest.raises(ValueError):
            sandwich_holds(instance, np.zeros((2, 1)), np.zeros((3, 1)), 8.0)

    def test_failure_at_default_scale_raises(self, monkeypatch):
        # The inequalities are a lemma at 16p, so the solver checks that
        # scale alone and does not retry a larger one.
        rng = np.random.Generator(np.random.Philox(5))
        instance = random_instance(rng, 4, 6, 3)
        monkeypatch.setattr(refine, "sandwich_holds",
                            lambda inst, f, x, lam: lam != 16.0 * 3)
        solver = IncrementalPNormSolver(instance, seed=1)
        with pytest.raises(InvariantViolation, match="lambda = 48"):
            solver.start()

    def test_empty_first_adoption_leaves_the_check_to_the_next(
            self, monkeypatch):
        """The zero-demand start on no edges adopts the empty flow, where
        there is nothing to sample; the adoption after set_demand checks
        lambda, once."""
        calls_made = []
        monkeypatch.setattr(refine, "sandwich_holds",
                            lambda *args: calls_made.append(1) or True)
        solver = IncrementalPNormSolver(fresh_instance(2, [0.0, 0.0]),
                                        m_max=4, seed=1)
        solver.start()
        assert solver.f is not None and calls_made == []
        solver.insert_edge(0, 1, 0.0, 1.0, 1.0)
        solver.insert_edge(0, 1, 0.0, 1.0, 1.0)
        solver.set_demand(np.array([-1.0, 1.0]), np.array([1.0, 0.0]))
        assert len(calls_made) == 1


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

    def test_overflowing_energy_is_an_oracle_error(self):
        instance = fresh_instance(3, [-1e300, 0.0, 1e300], p=2)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        instance.add_edge(1, 2, 0.0, 1.0, 1.0)
        solver = IncrementalPNormSolver(instance, seed=0)
        with pytest.raises(OracleError, match="overflows"):
            solver.start()

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

    def test_budget_ending_with_a_run_draws_no_seed(self, monkeypatch):
        """A budget of T rounds runs out on the round that completes the
        event's inner run: the refinement step is taken, no next run is
        built or seeded, since the materialization would discard it, and
        after the materialization one more run stalls at the optimum."""
        seeds = []

        def recording_init(*args, **kwargs):
            seeds.append(kwargs["seed"])
            return mwu_init(*args, **kwargs)

        monkeypatch.setattr(refine, "mwu_init", recording_init)
        T = crossing_ladder()[1].T
        _, solver = crossing_ladder(step_budget_per_event=T)
        assert isinstance(solver.start(), CertifiedAbove)
        assert isinstance(solver.insert_edge(0, 1, 0.0, 1.0, 1.0),
                          CertifiedAbove)
        assert solver.iterations == T
        assert (solver.refinement_steps, solver.materializations) == (1, 1)
        # Draws: start's lambda check and run, then the run after the
        # materialization; static solves draw nothing.
        rng = np.random.Generator(np.random.Philox(7))
        draws = [int(rng.integers(0, 2 ** 63)) for _ in range(4)]
        assert seeds == [draws[1], draws[2]]
        assert solver._next_seed() == draws[3]

    def test_adopted_flow_is_not_evaluated_again(self, monkeypatch):
        """A static solve's value is the energy of the flow it returns, so
        no energy call from the solve to the end of its event evaluates
        that flow again."""
        adopted, repeats = [], []
        static, energy = refine.static_pnorm_opt, PNormInstance.energy

        def recording_static(*args, **kwargs):
            report = static(*args, **kwargs)
            adopted.append(report.flow.copy())
            return report

        def recording_energy(instance, f):
            repeats.extend(1 for flow in adopted if np.array_equal(f, flow))
            return energy(instance, f)

        monkeypatch.setattr(refine, "static_pnorm_opt", recording_static)
        monkeypatch.setattr(PNormInstance, "energy", recording_energy)
        stream = generate_stream("phase-stress", "maxflow", n=12, initial=11,
                                 events=36, seed=2, eps=0.25)
        _, calls = event_calls(stream, seed=1)
        solves = 0
        for call in calls:
            call()
            solves += len(adopted)
            adopted.clear()
        assert solves >= 10
        assert repeats == []

    def test_budget_below_one_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            crossing_ladder(step_budget_per_event=0)

    def test_event_order_enforced(self):
        instance = fresh_instance(2, [-1.0, 1.0], p=2, threshold=10.0)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        solver = IncrementalPNormSolver(instance, m_max=4, seed=0)
        with pytest.raises(ValueError, match="before inserting"):
            solver.insert_edge(0, 1, 0.0, 1.0, 1.0)
        assert (instance.m, solver.events) == (1, 0)
        solver.start()
        with pytest.raises(ValueError, match="only once"):
            solver.start()
        assert solver.events == 1
        solver.insert_edge(0, 1, 0.0, 1.0, 1.0)
        assert solver.events == 2

    @pytest.mark.parametrize("kappa, backend, message", [
        (0.0, "exact", "at least 1"),
        (0.5, "trees", "at least 1"),
        (math.inf, "trees", "finite"),
        (math.nan, "trees", "finite"),
        (1.0, "nope", "unknown backend"),
        (2.0, "exact", "exactly kappa = 1"),
    ])
    def test_oracle_options_checked_at_construction(self, kappa, backend,
                                                    message):
        # The demand is never routable, so a bad option could otherwise
        # go unnoticed for the whole stream.
        instance = fresh_instance(3, [-1.0, 0.0, 1.0], p=2, threshold=1.0)
        with pytest.raises(ValueError, match=message):
            IncrementalPNormSolver(instance, m_max=4, kappa=kappa,
                                   backend=backend)

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

    def test_tiny_edge_bound_runs_the_inner_loop(self):
        instance = fresh_instance(2, [-1.0, 1.0], p=2, threshold=1.2,
                                  eps=0.05)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        solver = IncrementalPNormSolver(instance, m_max=2, seed=0)
        assert isinstance(solver.start(), CertifiedAbove)
        verdict = solver.insert_edge(0, 1, 0.0, 1.0, 1.0)
        assert isinstance(verdict, Flow)
        assert verdict.energy == pytest.approx(1.0)

    def test_edge_bound_below_four_matches_four(self):
        # Inner runs schedule on max(m_max, 4) slots, so m_max = 3 and 4
        # take the same steps to the same verdicts.
        def run(m_max):
            instance = fresh_instance(3, [-1.0, 0.0, 1.0], p=3,
                                      threshold=2.0, eps=0.05)
            instance.add_edge(0, 1, 0.0, 1.0, 1.0)
            instance.add_edge(1, 2, 0.0, 1.0, 1.0)
            solver = IncrementalPNormSolver(instance, m_max=m_max, seed=5)
            verdicts = [solver.start(),
                        solver.insert_edge(0, 2, 0.0, 1.0, 1.0)]
            return solver, verdicts

        small, small_verdicts = run(3)
        full, full_verdicts = run(4)
        assert ([type(v) for v in small_verdicts]
                == [type(v) for v in full_verdicts]
                == [CertifiedAbove, Flow])
        assert small_verdicts[1].energy == full_verdicts[1].energy
        assert np.array_equal(small_verdicts[1].flow, full_verdicts[1].flow)
        assert (small.queries, small.iterations) == (full.queries,
                                                     full.iterations)
        assert (full.queries, full.iterations) == (1601, 1600)

    def test_tree_runs_after_a_static_solve_build_no_forests(
            self, monkeypatch):
        """A scale-style stream (p = 2, trees backend, kappa 4, budget 30,
        start plus two insertions, the threshold 1% below the final
        optimum) certifies above at every event. Each of its three runs
        starts at Newton's optimum, and each first query there is a stall
        that the tree potential proves; the runs of the start and the first
        insertion go on to meet an insertion, whose query builds the
        forests. So 2 stacked builds, where building at every rebuild took
        one per run, 3."""
        builds = []

        class CountingForest(mrc.SpanningForest):
            def __init__(self, *args):
                builds.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(mrc, "SpanningForest", CountingForest)
        n, m = 60, 600
        stream = generate_stream("random", "pnorm", n=n, initial=m, events=0,
                                 p=2, seed=0)
        final = static_pnorm_opt(build_pnorm_instance(stream)[0]).value
        stream.events = stream.initial_edges[m - 2:]
        stream.initial_edges = stream.initial_edges[:m - 2]
        stream.threshold = final - 1e-2 * (1.0 + abs(final))
        stream.eps = 1e-3 * (1.0 + abs(stream.threshold))
        records = []
        solver, calls = event_calls(stream, seed=1, backend="trees",
                                    kappa=4.0, step_budget_per_event=30,
                                    trace=records.append)
        assert all(isinstance(call(), CertifiedAbove) for call in calls)
        assert builds == [n, n]
        stalls = [r["certified"] for r in records if r["kind"] == "stall"]
        assert stalls == [True] * 3
        assert (solver.queries, solver.iterations) == (63, 60)

    def test_generator_yields_one_verdict_per_event(self):
        instance = fresh_instance(2, [-1.0, 1.0], p=2, threshold=0.6,
                                  eps=0.05)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        solver = IncrementalPNormSolver(instance, m_max=4, seed=7)
        verdicts = [solver.start()] + [solver.insert_edge(0, 1, 0.0, 1.0, 1.0)
                                       for _ in range(3)]
        assert len(verdicts) == 4
        assert isinstance(verdicts[-1], Flow)

    def test_set_demand_answers_from_the_given_flow(self):
        instance = fresh_instance(2, [-1.0, 1.0], p=2, threshold=10.0)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        solver = IncrementalPNormSolver(instance, seed=0)
        solver.start()
        verdict = solver.set_demand(np.array([-1.0, 1.0]), np.array([1.0]))
        assert isinstance(verdict, Flow)
        assert verdict.energy == pytest.approx(2.0)

    def test_set_demand_adopts_the_static_optimum_from_its_start(self):
        """The adopted flow is the static oracle's from the same start,
        byte for byte, and the event is answered again under its number."""
        rng = np.random.default_rng(5)
        instance = random_instance(rng, 6, 10, 3)
        instance.threshold = 1e6
        records = []
        solver = IncrementalPNormSolver(instance, m_max=12, seed=0,
                                        trace=records.append)
        solver.start()
        solver.insert_edge(0, 5, 0.5, 1.0, 1.0)
        start = rng.normal(size=instance.m)
        demand = net_demand(instance.graph, start)
        verdict = solver.set_demand(demand, start)
        assert np.array_equal(instance.d, demand)
        expected = static_pnorm_opt(instance, start_flow=start)
        assert isinstance(verdict, Flow)
        assert verdict.flow.tobytes() == expected.flow.tobytes()
        assert verdict.energy == expected.value
        assert [r["event"] for r in records if r["kind"] == "verdict"] \
            == [1, 2, 2]

    def test_set_demand_checks_keep_the_old_demand(self):
        instance = fresh_instance(3, [-1.0, 0.0, 1.0], p=2, threshold=10.0)
        instance.add_edge(0, 1, 0.0, 1.0, 1.0)
        instance.add_edge(1, 2, 0.0, 1.0, 1.0)
        solver = IncrementalPNormSolver(instance, m_max=4, seed=0)
        with pytest.raises(ValueError, match="call start"):
            solver.set_demand(np.array([-2.0, 0.0, 2.0]), np.full(2, 2.0))
        solver.start()
        old = instance.d
        for demand, start, message in (
                ([-1.0, 1.0], np.ones(2), "length"),
                ([-1.0, 0.0, 2.0], np.ones(2), "sum to zero"),
                ([-2.0, 0.0, 2.0], np.ones(2), "does not route")):
            with pytest.raises(ValueError, match=message):
                solver.set_demand(np.array(demand), start)
            assert instance.d is old
        assert isinstance(solver.insert_edge(0, 2, 0.0, 1.0, 1.0), Flow)

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
