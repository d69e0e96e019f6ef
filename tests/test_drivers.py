"""Tests for the maxflow and effective-resistance drivers."""

import math

import numpy as np
import pytest

import pnormflow.refine as refine
from pnormflow.check import stream_checker
from pnormflow.drivers import (
    AboveThreshold,
    Below,
    EffResDriver,
    MaxflowDriver,
    event_calls,
)
from pnormflow.errors import GraphError, InvariantViolation
from pnormflow.graph import net_demand
from pnormflow.streams import generate_stream, parse_stream
from pnormflow.verify import exact_maxflow


def maxflow_driver(n=2, m_max=4, s=0, t=1, eps=0.25, **kwargs):
    kwargs.setdefault("seed", 0)
    return MaxflowDriver(n, m_max, s, t, eps, **kwargs)


WIDE_SPREAD_STREAM = """\
problem maxflow n=6 mmax=15 s=1 t=2 eps=0.1
edge 5 6 cap=61318676
edge 2 5 cap=3
edge 4 6 cap=1655
edge 4 2 cap=1508
edge 2 5 cap=10
edge 1 5 cap=42807
edge 5 3 cap=1
edge 6 4 cap=976
edge 3 6 cap=3
start
add 3 2 cap=3880
add 6 2 cap=1492687
add 1 3 cap=9
add 4 3 cap=450877
add 5 4 cap=26
add 1 4 cap=142
"""

# At p = 24 an edge of large capacity that carries almost no flow has
# curvature near 2 (delta / u)^2, and h spans 3.8e-16 to 1.87; as
# conductances 1 / h in a grounded vertex Laplacian factored densely
# (LAPACK getrf), Newton's steps lost their accuracy and stalled.
VANISHING_CURVATURE_STREAM = """\
problem maxflow n=7 mmax=9 s=1 t=2 eps=0.25
edge 5 4 cap=22583
edge 4 6 cap=605563
edge 2 3 cap=457375
edge 7 1 cap=1
edge 7 3 cap=15062
start
add 4 3 cap=102
add 4 1 cap=20641
add 2 5 cap=464
add 6 3 cap=426
"""

# Capacities from 1 to 86,701,949: here the vertex-space steps stall
# whether the Laplacian is factored densely or by splu, and only the dense
# cycle-space step verifies every event.
CYCLE_SPACE_STREAM = """\
problem maxflow n=5 mmax=13 s=1 t=2 eps=0.1
edge 5 2 cap=2
edge 2 4 cap=1
edge 3 1 cap=2
edge 2 3 cap=40
edge 4 3 cap=4793
edge 2 5 cap=401
start
add 1 4 cap=1631
add 3 1 cap=86701949
add 5 4 cap=141
add 4 3 cap=12107798
add 2 5 cap=11870092
add 4 1 cap=42256
add 4 5 cap=1
"""


class TestMaxflowValidation:
    def test_bad_terminals_rejected(self):
        with pytest.raises(ValueError):
            MaxflowDriver(3, 4, 1, 1, 0.25)
        with pytest.raises(ValueError):
            MaxflowDriver(3, 4, 0, 5, 0.25)

    def test_eps_range_enforced(self):
        for eps in (0.0, -0.1, 0.6, 1.0):
            with pytest.raises(ValueError):
                MaxflowDriver(2, 4, 0, 1, eps)
        MaxflowDriver(2, 4, 0, 1, 0.5)

    def test_capacities_must_be_positive_integers(self):
        driver = maxflow_driver()
        with pytest.raises(ValueError):
            driver.add_initial_edge(0, 1, 0)
        with pytest.raises(ValueError):
            driver.add_initial_edge(0, 1, 2.5)

    def test_capacities_are_bounded_by_two_to_the_53(self):
        driver = maxflow_driver()
        for cap in (2 ** 53 + 1, 10 ** 400, math.inf, math.nan):
            with pytest.raises(ValueError, match="2\\^53|at least 1"):
                driver.add_initial_edge(0, 1, cap)
        assert driver.caps == []
        driver.add_initial_edge(0, 1, 2 ** 53)
        driver.add_initial_edge(0, 1, float(2 ** 53))
        assert driver.caps == [2 ** 53, 2 ** 53]

    @pytest.mark.parametrize("cap", [0, 2.5, math.nan, 2 ** 53 + 1])
    def test_rejected_initial_capacity_leaves_the_driver_unchanged(self, cap):
        driver = MaxflowDriver(3, 4, 0, 2, 0.25, seed=0)
        driver.add_initial_edge(0, 1, 1)
        with pytest.raises(ValueError):
            driver.add_initial_edge(1, 2, cap)
        assert driver.graph.m == len(driver.caps) == 1
        driver.add_initial_edge(1, 2, 3)
        assert driver.graph.m == len(driver.caps) == 2
        value, _ = driver.start()
        exact, _ = exact_maxflow(driver.graph, np.asarray(driver.caps), 0, 2)
        assert value == exact == 1

    def test_event_ordering_enforced(self):
        driver = maxflow_driver()
        with pytest.raises(ValueError):
            driver.insert(0, 1, 1)
        driver.add_initial_edge(0, 1, 1)
        driver.start()
        with pytest.raises(ValueError):
            driver.add_initial_edge(0, 1, 1)
        with pytest.raises(ValueError, match="only once"):
            driver.start()
        assert driver.solver.events == 1
        driver.insert(0, 1, 1)
        assert driver.solver.events == 2

    def test_edge_bound_enforced(self):
        driver = maxflow_driver(m_max=1)
        driver.add_initial_edge(0, 1, 1)
        driver.start()
        with pytest.raises(ValueError):
            driver.insert(0, 1, 1)

    @pytest.mark.parametrize("initial", [[(0, 1)], [(0, 1), (1, 2)]],
                             ids=["no-phase", "phase"])
    def test_rejected_insertion_is_not_an_event(self, initial):
        """Without a phase (s-t disconnected) and with one, a rejected
        insertion leaves the event count, the capacities and the graph as
        they were, and the next event's verdict records carry its own
        number."""
        records = []
        driver = MaxflowDriver(3, 4, 0, 2, 0.25, seed=0,
                               trace=records.append)
        for u, v in initial:
            driver.add_initial_edge(u, v, 1)
        driver.start()
        for u, v in ((1, 1), (0, 5)):
            with pytest.raises(GraphError):
                driver.insert(u, v, 1)
            assert driver.solver.events == 1
            assert len(driver.caps) == driver.graph.m == len(initial)
        driver.insert(0, 2, 1)
        assert driver.solver.events == 2
        events = [r["event"] for r in records if r["kind"] == "verdict"]
        assert events and set(events) <= {1, 2} and events[-1] == 2

    def test_instance_constants(self):
        driver = maxflow_driver(m_max=8, eps=0.25)
        assert driver.p == math.ceil(2.0 * math.log(16) / 0.25)
        assert driver.F == pytest.approx(8 * math.exp(-0.25 * driver.p))
        assert driver.delta == pytest.approx(
            math.exp(-0.25 * driver.p / 2) / (2.0 * math.sqrt(8)))


class TestMaxflowPublishing:
    def test_disconnected_publishes_zero(self):
        driver = maxflow_driver(n=3, s=0, t=2)
        driver.add_initial_edge(0, 1, 4)
        value, flow = driver.start()
        assert value == 0.0
        assert np.array_equal(flow, np.zeros(1))
        assert driver.phase_count == 0

    def test_single_edge_publishes_its_capacity(self):
        driver = maxflow_driver()
        driver.add_initial_edge(0, 1, 5)
        value, flow = driver.start()
        assert value == 5.0
        assert np.allclose(flow, [5.0])

    def test_parallel_edges_publish_their_sum(self):
        driver = maxflow_driver()
        driver.add_initial_edge(0, 1, 5)
        driver.add_initial_edge(0, 1, 5)
        value, flow = driver.start()
        assert value == 10.0
        assert np.allclose(np.abs(flow), [5.0, 5.0])

    def test_growth_restarts_phases(self):
        driver = maxflow_driver(m_max=6)
        driver.add_initial_edge(0, 1, 3)
        assert driver.start()[0] == 3.0
        published = [driver.insert(0, 1, 6)[0], driver.insert(0, 1, 8)[0]]
        exact = [9.0, 17.0]
        for got, true in zip(published, exact):
            assert got >= (1 - driver.eps) * true - 1e-9
            assert got <= true + 1e-9
        assert driver.phase_count <= driver.phase_bound()

    def test_published_flow_is_capacity_feasible(self):
        driver = maxflow_driver(n=4, m_max=8, s=0, t=3)
        caps = [(0, 1, 3), (1, 3, 2), (0, 2, 1), (2, 3, 4)]
        for u, v, cap in caps:
            driver.add_initial_edge(u, v, cap)
        value, flow = driver.start()
        assert np.all(np.abs(flow) <= np.array([3, 2, 1, 4]) + 1e-9)
        imbalance = net_demand(driver.graph, flow)
        assert imbalance[0] == pytest.approx(-value)
        assert imbalance[3] == pytest.approx(value)

    def test_late_connection_starts_publishing(self):
        driver = maxflow_driver(n=3, s=0, t=2, m_max=4)
        driver.add_initial_edge(0, 1, 2)
        assert driver.start()[0] == 0.0
        value, flow = driver.insert(1, 2, 3)
        assert value == 2.0
        assert flow.size == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("eps", [0.5, 0.25])
    def test_random_streams_track_the_exact_maxflow(self, seed, eps):
        stream = generate_stream("random", "maxflow", n=5, initial=4,
                                 events=5, seed=seed, eps=eps, cap_max=6)
        check = stream_checker(stream)
        _, calls = event_calls(stream, seed=1)
        for index, call in enumerate(calls):
            record = check(index, call())
            assert record["ok"]
            assert record["value"] == int(record["value"])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_capacities_spanning_eight_orders_track_the_exact_maxflow(
            self, seed):
        """Capacities from 1 to 61,318,676, across two phases: Newton's
        decrement once mixed them past its stopping target, and the
        stream ended in "no convergence in 2000 iterations"."""
        stream = parse_stream(WIDE_SPREAD_STREAM)
        check = stream_checker(stream)
        driver, calls = event_calls(stream, seed=seed)
        for index, call in enumerate(calls):
            assert check(index, call())["ok"]
        assert driver.phase_count >= 2

    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("text", [VANISHING_CURVATURE_STREAM,
                                      CYCLE_SPACE_STREAM],
                             ids=["vanishing", "cycle-space"])
    def test_vanishing_curvature_tracks_the_exact_maxflow(self, text, seed):
        """Solved through a dense vertex Laplacian, a materialization on
        either stream ended in "no convergence in 2000 iterations"."""
        stream = parse_stream(text)
        check = stream_checker(stream)
        _, calls = event_calls(stream, seed=seed)
        for index, call in enumerate(calls):
            assert check(index, call())["ok"]

    def test_phase_beyond_the_bound_is_an_invariant_violation(
            self, monkeypatch):
        monkeypatch.setattr(MaxflowDriver, "phase_bound", lambda self: 0)
        driver = maxflow_driver()
        driver.add_initial_edge(0, 1, 5)
        with pytest.raises(InvariantViolation, match="restart bound 0"):
            driver.start()

    def test_step_counts_match_trace_records(self):
        """Across phase restarts, the solver's queries equal the traced
        inner steps (progress plus stall records) and its iterations the
        progress records, after every event. The driver itself fails a
        phase count past its bound."""
        stream = generate_stream("phase-stress", "maxflow", n=4, initial=3,
                                 events=10, seed=2, eps=0.5, cap_max=4)
        records = []
        driver = MaxflowDriver(stream.n, stream.m_max, stream.s, stream.t,
                               stream.eps, seed=3, trace=records.append)

        def check():
            kinds = [r["kind"] for r in records]
            progress = kinds.count("progress")
            assert driver.solver.queries == progress + kinds.count("stall")
            assert driver.solver.iterations == progress

        for spec in stream.initial_edges:
            driver.add_initial_edge(spec.u, spec.v, spec.capacity())
        driver.start()
        check()
        for spec in stream.events:
            driver.insert(spec.u, spec.v, spec.capacity())
            check()
        assert driver.phase_count >= 2
        assert driver.solver.queries > 0


class TestPhaseStart:
    """A phase after a trip starts Newton from the lower-energy of Dinic's
    flow and the tripped flow scaled to the new value; either way the
    driver publishes Dinic's value and flow."""

    @staticmethod
    def record_starts(monkeypatch):
        """Per phase: Dinic's flow, the flow set_demand starts Newton from,
        and after a trip the tripped flow scaled to the new value and
        whether it has less energy than Dinic's, taken before later edges
        arrive."""
        starts, pending = [], []
        begin = MaxflowDriver._begin_phase
        set_demand = refine.IncrementalPNormSolver.set_demand

        def recording_begin(self, trip=None):
            pending.append((self, trip, self.value))
            return begin(self, trip)

        def recording_set_demand(solver, d, start_flow):
            driver, trip, old = pending.pop()
            if trip is None:
                starts.append((driver.flow, start_flow, None, None))
            else:
                scaled = trip.flow * (driver.value / old)
                energy = solver.instance.energy
                starts.append((driver.flow, start_flow, scaled,
                               energy(scaled) < energy(driver.flow)))
            return set_demand(solver, d, start_flow)

        monkeypatch.setattr(MaxflowDriver, "_begin_phase", recording_begin)
        monkeypatch.setattr(refine.IncrementalPNormSolver, "set_demand",
                            recording_set_demand)
        return starts

    def test_phase_starts_from_the_lower_energy_candidate(self, monkeypatch):
        starts = self.record_starts(monkeypatch)
        stream = generate_stream("phase-stress", "maxflow", n=12, initial=11,
                                 events=36, seed=2, eps=0.25)
        _, calls = event_calls(stream, seed=1)
        published = [int(call()[0]) for call in calls]
        # The values published when every phase started from Dinic's flow.
        assert published == [
            1, 7, 13, 19, 19, 24, 24, 30, 30, 30, 41, 41, 41, 51, 51, 51, 51,
            51, 65, 65, 65, 65, 65, 65, 65, 85, 85, 85, 85, 85, 85, 106, 106,
            106, 106, 106, 106]
        assert len(starts) == 11
        assert starts[0][2] is None
        for flow, start, scaled, scaled_lower in starts:
            assert np.array_equal(start, scaled if scaled_lower else flow)
        assert sum(bool(lower) for *_, lower in starts) >= 5

    def test_value_jump_starts_from_dinics_flow(self, monkeypatch):
        """Doubling the value takes the scaled tripped flow past capacity
        on the new edge, where its energy is far above that of Dinic's."""
        starts = self.record_starts(monkeypatch)
        driver = maxflow_driver(n=3, m_max=48, s=0, t=2)
        driver.add_initial_edge(0, 1, 10 ** 8)
        driver.add_initial_edge(1, 2, 10 ** 8)
        assert driver.start()[0] == 10 ** 8
        assert driver.insert(0, 2, 1)[0] == 10 ** 8
        assert driver.insert(0, 2, 10 ** 8)[0] == 2 * 10 ** 8 + 1
        assert len(starts) == 2
        dinic, start, scaled, scaled_lower = starts[1]
        assert scaled is not None and not scaled_lower
        assert np.max(np.abs(scaled) / [1e8, 1e8, 1, 1e8]) > 1.0
        assert np.array_equal(start, dinic)


class TestOneSolver:
    """A phase changes the demand of the driver's one solver."""

    STREAM = dict(mode="phase-stress", kind="maxflow", n=12, initial=11,
                  events=36, seed=2, eps=0.25)

    def test_every_phase_keeps_the_first_phases_solver(self):
        driver, calls = event_calls(generate_stream(**self.STREAM), seed=1)
        solvers = set()
        for call in calls:
            call()
            solvers.add(id(driver.solver))
        assert driver.phase_count == 11
        assert len(solvers) == 1
        assert driver.solver.instance.graph is driver.graph

    @staticmethod
    def count_sandwich_calls(monkeypatch) -> list:
        """A list that gains an entry per sandwich_holds call."""
        calls_made = []
        sandwich = refine.sandwich_holds

        def counting_sandwich(*args, **kwargs):
            calls_made.append(1)
            return sandwich(*args, **kwargs)

        monkeypatch.setattr(refine, "sandwich_holds", counting_sandwich)
        return calls_made

    def test_lambda_is_checked_once_per_driver(self, monkeypatch):
        calls_made = self.count_sandwich_calls(monkeypatch)
        driver, calls = event_calls(generate_stream(**self.STREAM), seed=1)
        for call in calls:
            call()
        assert driver.phase_count == 11
        assert len(calls_made) == 1

    def test_late_connection_keeps_one_verdict_record_per_event(self):
        """start (event 1) builds the solver at zero demand, whose answer
        is the zero flow until s and t join at event 2; phases then trip
        at events 4, 5 and 7. Every event has a verdict record carrying
        the solver's event count, and a phase adds one for its event."""
        records = []
        driver = maxflow_driver(n=4, m_max=8, s=0, t=3,
                                trace=records.append)
        driver.add_initial_edge(0, 1, 1)
        driver.add_initial_edge(2, 3, 1)
        assert driver.solver is None
        published = [driver.start()[0]]
        assert driver.solver is not None and driver.phase_count == 0
        for u, v, cap in ((1, 2, 2), (0, 1, 8), (2, 3, 8), (1, 2, 8),
                          (0, 2, 16), (1, 3, 16)):
            published.append(driver.insert(u, v, cap)[0])
        assert published == [0, 1, 1, 2, 9, 9, 25]
        verdicts = [(r["event"], r["verdict"]) for r in records
                    if r["kind"] == "verdict"]
        above, flow = "CertifiedAbove", "Flow"
        assert verdicts == [(1, flow), (2, flow), (2, above), (3, above),
                            (4, flow), (4, above), (5, flow), (5, above),
                            (6, above), (7, flow), (7, above)]
        assert driver.phase_count == 4

    def test_lambda_is_checked_without_initial_edges(self, monkeypatch):
        """The zero-demand start on no edges has nothing to sample, so the
        first phase checks lambda."""
        calls_made = self.count_sandwich_calls(monkeypatch)
        driver = maxflow_driver(n=3, m_max=6, s=0, t=2)
        driver.start()
        for u, v, cap in ((0, 1, 2), (1, 2, 2), (0, 2, 4)):
            driver.insert(u, v, cap)
        assert driver.phase_count >= 1
        assert len(calls_made) == 1


class TestOraclePotential:
    def test_runs_after_a_static_solve_prove_their_first_stall(
            self, monkeypatch):
        """A run started right after a static solve begins at Newton's
        optimum, where the tree potentials over the carried forest prove
        its first query a stall without a Bellman-Ford search."""
        solved, firsts = [False], []
        static, init = refine.static_pnorm_opt, refine.mwu_init

        def recording_static(*args, **kwargs):
            solved[0] = True
            return static(*args, **kwargs)

        def recording_init(*args, **kwargs):
            run = init(*args, **kwargs)
            oracle, first = run.mrc, []
            query = oracle.query

            def recording_query():
                certified = oracle.certified
                answer = query()
                if not first:
                    first.append((answer, oracle.certified > certified))
                return answer

            oracle.query = recording_query
            if solved[0]:
                firsts.append(first)
            solved[0] = False
            return run

        monkeypatch.setattr(refine, "static_pnorm_opt", recording_static)
        monkeypatch.setattr(refine, "mwu_init", recording_init)
        stream = generate_stream("phase-stress", "maxflow", n=12, initial=11,
                                 events=36, seed=2, eps=0.25)
        records = []
        _, calls = event_calls(stream, seed=1, trace=records.append)
        for call in calls:
            call()
        assert len(firsts) >= 10
        assert all(first == [(None, True)] for first in firsts)
        proved = [r for r in records if r["kind"] == "stall" and
                  r["certified"]]
        assert len(proved) >= len(firsts)
        assert all(r["solved"] for r in proved)


class TestEffResDriver:
    def test_validation(self):
        with pytest.raises(ValueError):
            EffResDriver(3, 4, 2, 2, theta=1.0, eps_rel=0.1)
        with pytest.raises(ValueError):
            EffResDriver(3, 4, 0, 1, theta=0.0, eps_rel=0.1)
        with pytest.raises(ValueError):
            EffResDriver(3, 4, 0, 1, theta=1.0, eps_rel=0.0)
        driver = EffResDriver(2, 4, 0, 1, theta=1.0, eps_rel=0.1)
        with pytest.raises(ValueError):
            driver.add_initial_edge(0, 1, 0.0)
        with pytest.raises(ValueError):
            driver.insert(0, 1, 1.0)

    def test_event_ordering_enforced(self):
        records = []
        driver = EffResDriver(2, 4, 0, 1, theta=1.0, eps_rel=0.1,
                              trace=records.append)
        driver.add_initial_edge(0, 1, 1.0)
        driver.start()
        with pytest.raises(ValueError):
            driver.add_initial_edge(0, 1, 1.0)
        with pytest.raises(ValueError, match="only once"):
            driver.start()
        driver.insert(0, 1, 1.0)
        verdicts = [r["event"] for r in records if r["kind"] == "verdict"]
        assert verdicts == [1, 2]

    def test_non_finite_inputs_rejected_where_they_enter(self):
        for theta, eps_rel in ((math.nan, 0.1), (1.0, math.nan)):
            with pytest.raises(ValueError, match="must be positive"):
                EffResDriver(3, 4, 0, 1, theta=theta, eps_rel=eps_rel)
        driver = EffResDriver(2, 4, 0, 1, theta=0.5, eps_rel=0.1)
        for resistance in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                driver.add_initial_edge(0, 1, resistance)
        assert driver.instance.m == 0
        driver.add_initial_edge(0, 1, 1.0)
        assert isinstance(driver.start(), AboveThreshold)
        with pytest.raises(ValueError, match="positive and finite"):
            driver.insert(0, 1, math.inf)
        assert driver.instance.m == 1

    def test_initial_edges_respect_the_edge_bound(self):
        driver = EffResDriver(3, 2, 0, 2, theta=1.0, eps_rel=0.1)
        driver.add_initial_edge(0, 1, 1.0)
        driver.add_initial_edge(1, 2, 1.0)
        with pytest.raises(ValueError, match="edge bound m_max exceeded"):
            driver.add_initial_edge(0, 2, 1.0)
        assert driver.instance.m == 2
        # Two unit resistances in series: R_eff = 2 > theta.
        assert isinstance(driver.start(), AboveThreshold)

    def test_above_then_below_on_parallel_insert(self):
        driver = EffResDriver(2, 4, 0, 1, theta=0.6, eps_rel=0.1, seed=0)
        driver.add_initial_edge(0, 1, 1.0)
        assert isinstance(driver.start(), AboveThreshold)
        verdict = driver.insert(0, 1, 1.0)
        assert isinstance(verdict, Below)
        assert verdict.r_est == pytest.approx(0.5, rel=1e-3)
        assert verdict.r_est <= 0.6 * 1.1 + 1e-9

    def test_loose_threshold_is_below_immediately(self):
        driver = EffResDriver(2, 4, 0, 1, theta=2.0, eps_rel=0.1, seed=0)
        driver.add_initial_edge(0, 1, 1.0)
        verdict = driver.start()
        assert isinstance(verdict, Below)
        assert verdict.r_est == pytest.approx(1.0, rel=1e-3)
        assert verdict.r_est >= 1.0 - 1e-6

    def test_disconnected_terminals_are_above(self):
        driver = EffResDriver(3, 4, 0, 2, theta=10.0, eps_rel=0.1, seed=0)
        driver.add_initial_edge(0, 1, 1.0)
        assert isinstance(driver.start(), AboveThreshold)
        assert isinstance(driver.insert(1, 2, 0.25), Below)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_streams_certify_soundly(self, seed):
        stream = generate_stream("planted-threshold", "effres", n=5,
                                 initial=4, events=5, seed=seed)
        check = stream_checker(stream)
        _, calls = event_calls(stream, seed=1)
        for index, call in enumerate(calls):
            assert check(index, call())["ok"]


class TestEventCalls:
    @pytest.mark.parametrize("budget", [0, 2.5, 1.9, math.inf, math.nan])
    @pytest.mark.parametrize("kind", ["pnorm", "maxflow", "effres"])
    def test_budget_below_one_rejected(self, kind, budget):
        # The maxflow driver builds its solvers later, so it checks too.
        # A fractional budget is not rounded, and inf is no integer.
        stream = generate_stream("random", kind, n=4, initial=3, events=1,
                                 seed=1)
        with pytest.raises(ValueError, match="integer of at least 1"):
            event_calls(stream, step_budget_per_event=budget)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("mode, kind, n, initial, events", [
        ("phase-stress", "maxflow", 12, 11, 36),
        ("planted-threshold", "effres", 8, 7, 8),
    ])
    def test_default_budget_keeps_the_answers_of_budget_200(
            self, mode, kind, n, initial, events, seed):
        # Rounds past the default budget cannot complete a run, so the
        # materialization that ends the event throws them away.
        stream = generate_stream(mode, kind, n=n, initial=initial,
                                 events=events, seed=seed)
        answers = []
        for options in ({}, {"step_budget_per_event": 200}):
            _, calls = event_calls(stream, seed=0, **options)
            answers.append([call() for call in calls])
        default, long = answers
        if kind == "maxflow":
            assert [value for value, _ in default] == [
                value for value, _ in long]
        else:
            assert [type(a) for a in default] == [type(a) for a in long]

    @pytest.mark.parametrize("mode, kind", [
        ("planted-threshold", "pnorm"), ("random", "maxflow"),
        ("random", "effres"),
    ])
    def test_one_call_per_event_and_traced_verdicts(self, mode, kind):
        stream = generate_stream(mode, kind, n=4, initial=3, events=4,
                                 seed=1)
        records = []
        _, calls = event_calls(stream, seed=0, trace=records.append)
        assert len(calls) == len(stream.events) + 1
        for call in calls:
            call()
        assert any(record["kind"] == "verdict" for record in records)
