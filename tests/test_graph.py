"""Tests for the incremental multigraph core and the smoothed objective."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from pnormflow.errors import GraphError
from pnormflow.graph import (
    IncrementalGraph,
    _curvature,
    PNormInstance,
    demand_routable,
    net_demand,
    pnorm,
    pnorm_pow,
    smoothed_gradient,
    smoothed_hessian_diag,
    smoothed_value,
)
from pnormflow.refine import ResidualProblem
from support import finite_diff_check, is_circulation


class TestIncrementalGraph:
    """Edge bookkeeping, identifiers, and connectivity tracking."""

    def test_first_insertion_gets_id_zero(self):
        g = IncrementalGraph(3)
        assert g.add_edge(1, 2) == 0

    def test_parallel_edges_coexist_with_fresh_ids(self):
        g = IncrementalGraph(3)
        assert g.add_edge(1, 2) == 0
        assert g.add_edge(1, 2) == 1
        assert g.m == 2

    def test_self_loop_rejected(self):
        g = IncrementalGraph(3)
        with pytest.raises(GraphError):
            g.add_edge(2, 2)

    def test_out_of_range_vertex_rejected(self):
        g = IncrementalGraph(3)
        with pytest.raises(GraphError):
            g.add_edge(0, 3)

    def test_connectivity_merges_under_insertions(self):
        g = IncrementalGraph(4)
        assert not g.connected(0, 3)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        assert g.connected(0, 1) and not g.connected(1, 2)
        g.add_edge(1, 2)
        assert g.connected(0, 3)


class TestNetDemand:
    """Incidence convention: flow 1 on (u, v) takes one unit from u to v."""

    def test_single_edge_convention(self):
        g = IncrementalGraph(3)
        g.add_edge(1, 2)
        d = net_demand(g, np.array([1.0]))
        assert d[1] == -1.0 and d[2] == 1.0 and d[0] == 0.0

    def test_zero_flow_zero_demand(self):
        g = IncrementalGraph(3)
        g.add_edge(0, 1)
        assert np.all(net_demand(g, np.zeros(1)) == 0.0)

    def test_directed_triangle_is_circulation(self):
        g = IncrementalGraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 0)
        d = net_demand(g, np.ones(3))
        assert np.all(d == 0.0)
        assert is_circulation(g, np.ones(3))

    def test_dimension_mismatch_rejected(self):
        g = IncrementalGraph(2)
        g.add_edge(0, 1)
        with pytest.raises(GraphError):
            net_demand(g, np.ones(2))

    @given(t=st.floats(min_value=-10, max_value=10, allow_nan=False),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_linearity_in_the_flow(self, t, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        g = IncrementalGraph(5)
        for _ in range(7):
            u, v = rng.choice(5, size=2, replace=False)
            g.add_edge(int(u), int(v))
        f = rng.normal(size=7)
        assert np.allclose(net_demand(g, t * f), t * net_demand(g, f),
                           rtol=1e-12, atol=1e-12)


class TestDemandRoutable:
    """Per-component demand sums across insertions."""

    def test_disconnected_pair_not_routable(self):
        g = IncrementalGraph(2)
        d = np.array([-1.0, 1.0])
        assert not demand_routable(g, d)

    def test_connecting_edge_makes_routable(self):
        g = IncrementalGraph(2)
        d = np.array([-1.0, 1.0])
        assert not demand_routable(g, d)
        g.add_edge(0, 1)
        assert demand_routable(g, d)

    def test_zero_demand_always_routable(self):
        g = IncrementalGraph(4)
        assert demand_routable(g, np.zeros(4))

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_connected_component_sums(self, seed):
        """After every insertion, the component count, the partition
        `find` induces and routability agree with scipy's connected
        components and the per-component demand sums taken from them."""
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(3, 10))
        d = rng.normal(size=n)
        d -= d.mean()
        g = IncrementalGraph(n)
        for _ in range(int(rng.integers(1, 2 * n))):
            u, v = rng.choice(n, size=2, replace=False)
            g.add_edge(int(u), int(v))
            adjacency = coo_matrix((np.ones(g.m), (g.tails, g.heads)),
                                   shape=(n, n))
            k, labels = connected_components(adjacency, directed=False)
            assert g.components == k
            found = np.array([g.find(v) for v in range(n)])
            # Two vertices share a find label iff they share scipy's.
            assert np.array_equal(found[:, None] == found[None, :],
                                  labels[:, None] == labels[None, :])
            sums = np.bincount(labels, weights=d, minlength=k)
            expected = bool(np.all(np.abs(sums) <= 1e-9 * np.abs(d).sum()))
            assert demand_routable(g, d) == expected


class TestEnergy:
    """The smoothed objective and its gradient."""

    def test_single_edge_substitution(self):
        g = IncrementalGraph(2)
        g.add_edge(0, 1)
        inst = PNormInstance(g, np.array([-1.0, 1.0]), 2, threshold=1.0,
                             eps=0.1)
        inst.set_edge_attrs(np.array([1.0]), np.array([1.0]), np.array([1.0]))
        assert inst.energy(np.array([1.0])) == pytest.approx(3.0, rel=1e-12)

    def test_zero_flow_zero_energy(self):
        g = IncrementalGraph(2)
        g.add_edge(0, 1)
        inst = PNormInstance(g, np.zeros(2), 3, threshold=1.0, eps=0.1)
        inst.set_edge_attrs(np.array([1.0]), np.array([1.0]), np.array([2.0]))
        assert inst.energy(np.zeros(1)) == 0.0

    def test_cubic_term_substitution(self):
        g = IncrementalGraph(2)
        g.add_edge(0, 1)
        inst = PNormInstance(g, np.zeros(2), 3, threshold=1.0, eps=0.1)
        inst.set_edge_attrs(np.array([0.0]), np.array([1.0]), np.array([2.0]))
        assert inst.energy(np.array([1.0])) == pytest.approx(9.0, rel=1e-12)

    def test_nonfinite_flow_rejected(self):
        g = IncrementalGraph(2)
        g.add_edge(0, 1)
        inst = PNormInstance(g, np.zeros(2), 2, threshold=1.0, eps=0.1)
        inst.set_edge_attrs(np.zeros(1), np.ones(1), np.ones(1))
        with pytest.raises(ValueError):
            inst.energy(np.array([np.inf]))

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           p=st.sampled_from([2, 3, 4]))
    @settings(max_examples=40, deadline=None)
    def test_max_normalized_power_sum_matches_naive(self, seed, p):
        rng = np.random.Generator(np.random.Philox(seed))
        f = rng.normal(size=6) * rng.choice([1.0, 1e3, 1e-3])
        g, r, w = rng.normal(size=6), 1 + rng.random(6), 1 + rng.random(6)
        naive = float(g @ f + np.sum((r * f) ** 2) + np.sum(np.abs(w * f) ** p))
        assert smoothed_value(g, r, w, p, f) == pytest.approx(naive, rel=1e-10)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           exponent=st.sampled_from([2, 3, 4, 8]))
    # A draw with energy near 1e7: differencing the whole energy, not each
    # edge's term, would carry roundoff past the bound.
    @example(seed=28691, exponent=8)
    @settings(max_examples=40, deadline=None)
    def test_gradient_matches_finite_differences(self, seed, exponent):
        rng = np.random.Generator(np.random.Philox(seed))
        f = rng.normal(size=5)

        class Problem:
            g = rng.normal(size=5)
            r = 1 + rng.random(5)
            w = 1 + rng.random(5)
            p = exponent

        assert finite_diff_check(Problem(), f) < 1e-4

    def test_pnorm_is_overflow_safe(self):
        values = np.array([1e200, 1e200])
        assert np.isfinite(pnorm(values, 2))
        assert pnorm(values, 2) == pytest.approx(np.sqrt(2) * 1e200, rel=1e-12)
        assert pnorm_pow(np.array([0.0, 0.0]), 3) == 0.0

    @pytest.mark.parametrize("p", [2, 3, 37, 2.5])
    def test_pnorm_matches_its_own_power_sum_bit_for_bit(self, p):
        # pnorm reuses pnorm_pow on the max-normalized values; the
        # normalized peak is exactly 1.0, so the result equals the direct
        # formula exactly.
        rng = np.random.default_rng(int(p * 10))
        for scale in (1e-150, 1e-3, 1.0, 1e5, 1e150):
            values = scale * rng.normal(size=int(rng.integers(1, 40)))
            peak = float(np.max(np.abs(values)))
            direct = peak * float(np.sum((np.abs(values) / peak) ** p)) \
                ** (1.0 / p)
            assert pnorm(values, p) == direct
        assert pnorm(np.array([]), p) == 0.0
        assert pnorm(np.zeros(3), p) == 0.0
        assert pnorm(np.array([1.0, -np.inf]), p) == np.inf
        assert np.isnan(pnorm(np.array([1.0, np.nan]), p))

    def test_quadratic_gradient_and_hessian_are_closed_forms(self):
        # At p = 2 the curvature's power is exactly 1, also at x = 0 and
        # x = -0.0, so both equal their closed forms bit for bit.
        rng = np.random.default_rng(7)
        x = np.concatenate(([0.0, -0.0], rng.normal(size=6)))
        g, r, w = rng.normal(size=8), 0.1 + rng.random(8), 0.1 + rng.random(8)
        curv = _curvature(w, 2, x)
        gradient = smoothed_gradient(g, r, w, 2, x, curv)
        hessian = smoothed_hessian_diag(r, 2, curv)
        assert gradient.tobytes() == (
            g + 2.0 * r * r * x + 2.0 * w * w * x).tobytes()
        assert hessian.tobytes() == (2.0 * r * r + 2.0 * w * w).tobytes()

    def test_curvature_is_finite_at_large_p(self):
        # w^p underflows to 0 and |x|^(p-2) overflows to inf here, so the
        # product of the two is NaN; w^2 (w |x|)^(p-2) is not.
        w, p, x = np.array([1e-13]), 359, np.array([1.1e12])
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(w ** p * np.abs(x) ** (p - 2))
        assert np.isfinite(_curvature(1e-13, 359, 1.1e12))
        curv = _curvature(w, p, x)
        assert np.all(np.isfinite(smoothed_gradient(np.zeros(1), np.ones(1),
                                                    w, p, x, curv)))
        assert np.all(np.isfinite(smoothed_hessian_diag(np.ones(1), p,
                                                        curv)))

    def test_overflowing_power_sum_is_inf(self):
        # 1e10**80 overflows a float; callers such as the static solver's
        # line search expect inf, with no OverflowError and no warning.
        x = np.array([1e10, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert pnorm_pow(x, 80) == np.inf
            assert smoothed_value(np.zeros(2), np.ones(2), np.ones(2), 80,
                                  x) == np.inf

    @pytest.mark.parametrize("p", [2, 3, 37])
    def test_stack_rows_evaluate_as_each_row_alone(self, p):
        # sandwich_holds evaluates (k, m) stacks; each row must get the
        # value the same flow gets alone, also where g and r are stacks.
        rng = np.random.default_rng(p)
        k, m = 5, 23
        x = rng.normal(size=(k, m)) * rng.choice([1e-3, 1.0, 1e3], size=(k, 1))
        x[0] = 0.0
        x[1, 0] = 1e12
        g, r, w = rng.normal(size=m), 1 + rng.random(m), 1 + rng.random(m)
        gs, rs = rng.normal(size=(k, m)), 1 + rng.random((k, m))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for gg, rr in ((g, r), (gs, rs)):
                values = smoothed_value(gg, rr, w, p, x)
                assert values.shape == (k,)
                for i in range(k):
                    alone = smoothed_value(gg if gg.ndim == 1 else gg[i],
                                           rr if rr.ndim == 1 else rr[i],
                                           w, p, x[i])
                    assert type(alone) is float
                    assert values[i].tobytes() == np.float64(alone).tobytes()
        assert np.isinf(smoothed_value(g, r, w, 37, x)[1])


class TestPNormInstance:
    """Validation and bookkeeping of the full problem instance."""

    def test_demand_must_sum_to_zero(self):
        g = IncrementalGraph(2)
        with pytest.raises(ValueError):
            PNormInstance(g, np.array([1.0, 1.0]), 2, threshold=1.0, eps=0.1)

    def test_p_below_two_rejected(self):
        g = IncrementalGraph(2)
        with pytest.raises(ValueError):
            PNormInstance(g, np.zeros(2), 1, threshold=1.0, eps=0.1)

    def test_nonpositive_eps_rejected(self):
        g = IncrementalGraph(2)
        with pytest.raises(ValueError):
            PNormInstance(g, np.zeros(2), 2, threshold=1.0, eps=0.0)

    def test_nan_eps_and_threshold_rejected(self):
        g = IncrementalGraph(2)
        with pytest.raises(ValueError, match="accuracy must be positive"):
            PNormInstance(g, np.zeros(2), 2, threshold=1.0, eps=np.nan)
        with pytest.raises(ValueError, match="threshold"):
            PNormInstance(g, np.zeros(2), 2, threshold=np.nan, eps=0.1)

    @pytest.mark.parametrize("r, w, message", [
        (np.inf, 1.0, "resistances must be strictly positive and finite"),
        (1.0, np.inf, "weights must be strictly positive and finite"),
    ])
    def test_set_edge_attrs_rejects_infinite_attributes(self, r, w, message):
        g = IncrementalGraph(2)
        g.add_edge(0, 1)
        inst = PNormInstance(g, np.zeros(2), 2, threshold=1.0, eps=0.1)
        with pytest.raises(ValueError, match=message):
            inst.set_edge_attrs(np.zeros(1), np.array([r]), np.array([w]))

    def test_nonpositive_resistance_rejected(self):
        g = IncrementalGraph(2)
        inst = PNormInstance(g, np.zeros(2), 2, threshold=1.0, eps=0.1)
        with pytest.raises(ValueError):
            inst.add_edge(0, 1, 0.0, 0.0, 1.0)

    def test_nonpositive_weight_rejected(self):
        g = IncrementalGraph(2)
        inst = PNormInstance(g, np.zeros(2), 2, threshold=1.0, eps=0.1)
        with pytest.raises(ValueError):
            inst.add_edge(0, 1, 0.0, 1.0, -1.0)

    @pytest.mark.parametrize("attrs, message", [
        ((np.nan, 1.0, 1.0), "gradients must be finite"),
        ((np.inf, 1.0, 1.0), "gradients must be finite"),
        ((-np.inf, 1.0, 1.0), "gradients must be finite"),
        ((0.0, 0.0, 1.0), "resistances must be strictly positive"),
        ((0.0, -1.0, 1.0), "resistances must be strictly positive"),
        ((0.0, np.nan, 1.0), "resistances must be strictly positive"),
        ((0.0, np.inf, 1.0), "resistances must be strictly positive and finite"),
        ((0.0, 1.0, 0.0), "weights must be strictly positive"),
        ((0.0, 1.0, -1.0), "weights must be strictly positive"),
        ((0.0, 1.0, np.nan), "weights must be strictly positive"),
        ((0.0, 1.0, np.inf), "weights must be strictly positive and finite"),
    ])
    def test_add_edge_rejects_bad_attributes(self, attrs, message):
        g = IncrementalGraph(2)
        inst = PNormInstance(g, np.zeros(2), 2, threshold=1.0, eps=0.1)
        with pytest.raises(ValueError, match=message):
            inst.add_edge(0, 1, *attrs)
        assert g.m == inst.m == 0

    def test_routable_follows_connectivity(self):
        g = IncrementalGraph(3)
        inst = PNormInstance(g, np.array([-1.0, 1.0, 0.0]), 2, threshold=1.0,
                             eps=0.1)
        assert not inst.routable()
        inst.add_edge(0, 2, 0.0, 1.0, 1.0)
        assert not inst.routable()
        inst.add_edge(2, 1, 0.0, 1.0, 1.0)
        assert inst.routable()


class TestResidualValue:
    """The residual objective shares the smoothed evaluation path."""

    def test_substitution(self):
        residual = ResidualProblem(g=np.array([8.0]), r=np.array([3.0]),
                                   w=np.array([2.0]), p=2)

        assert residual.value(np.array([1.0])) == pytest.approx(
            21.0, rel=1e-12)

    def test_zero_input(self):
        residual = ResidualProblem(g=np.array([8.0]), r=np.array([3.0]),
                                   w=np.array([2.0]), p=2)

        assert residual.value(np.zeros(1)) == 0.0

    def test_negative_value_possible(self):
        residual = ResidualProblem(g=np.array([-1.0]), r=np.array([1.0]),
                                   w=np.array([1.0]), p=2)

        assert residual.value(np.array([0.25])) == pytest.approx(
            -0.125, rel=1e-12)


class TestCirculationTolerance:
    """The circulation test uses a relative infinity-norm tolerance."""

    def test_exact_circulation_accepted(self):
        g = IncrementalGraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 0)
        assert is_circulation(g, np.array([2.0, 2.0, 2.0]))

    def test_clear_violation_rejected(self):
        g = IncrementalGraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        assert not is_circulation(g, np.array([1.0, 0.0]))

    def test_tolerance_scales_with_magnitude(self):
        g = IncrementalGraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 0)
        c = np.array([1e8, 1e8, 1e8 + 0.5])
        assert is_circulation(g, c)
