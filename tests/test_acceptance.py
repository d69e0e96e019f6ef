"""Acceptance suite: one check per shipped guarantee, one summary line each.

Each test prints `acceptance NN <name>: PASS/FAIL (<details>)` before its
assertion so the line is visible in captured output either way. The checks
re-derive every bound from reference oracles rather than trusting solver
bookkeeping; runtime-sensitive checks also assert their time budgets.
"""

import math
import time

import numpy as np

import pnormflow.refine as refine_mod
from pnormflow.graph import (
    IncrementalGraph,
    PNormInstance,
    is_circulation,
    net_demand,
    pnorm,
)
from pnormflow.mrc import MrcInstance, exact_min_ratio_cycle
from pnormflow.mwu import (
    MwuState,
    Solution,
    mwu_init,
    mwu_solution,
    mwu_step,
)
from pnormflow.refine import (
    Flow,
    IncrementalPNormSolver,
    build_residual,
    sandwich_holds,
)
from pnormflow.streams import build_pnorm_instance, generate_stream
from pnormflow.verify import (
    effective_resistance,
    exact_maxflow,
    static_pnorm_opt,
)
from pnormflow.drivers import Below, MaxflowDriver, incremental_effres
from support import (
    LogDelete,
    LogInsert,
    LogRecorder,
    UpdateLog,
    brute_force_min_ratio_cycle,
    canonical_stability_widths,
    check_stability_witness,
    run_to_end,
)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {num:02d} {name}: {status} ({detail})"
    print(line)
    assert ok, line


def connected_instance(rng, n, m, p, threshold=0.0, eps=1e-3):
    """Random routable instance: a path spine plus random extras."""
    graph = IncrementalGraph(n)
    d = rng.normal(size=n)
    d[-1] -= d.sum()
    instance = PNormInstance(graph, d, p, threshold=threshold, eps=eps)
    for e in range(m):
        if e < n - 1:
            u, v = e, e + 1
        else:
            u, v = rng.choice(n, size=2, replace=False)
        instance.add_edge(int(u), int(v), float(rng.normal()),
                          float(0.2 + rng.random()),
                          float(0.2 + rng.random()))
    return instance


def planted_state(p=2, m_max=4, seed=None, kind="pair") -> MwuState:
    """An inner-loop state whose graph supports a unit-gradient circulation
    with both scaled norms below one, so runs always complete."""
    if kind == "pair":
        graph = IncrementalGraph(2)
        graph.add_edge(0, 1)
        graph.add_edge(0, 1)
        g = np.array([1.0, -1.0])
        m = 2
    else:
        graph = IncrementalGraph(4)
        for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
            graph.add_edge(u, v)
        g = np.array([-1.0, -1.0, -1.0, -1.0])
        m = 4
    return mwu_init(graph, g, np.ones(m), np.ones(m), p, m_max=m_max,
                    seed=seed)


def run_instrumented(state):
    """Step a run to completion or stall, recording per-step potential
    increases and the post-push length window."""
    steps = []
    outcome = None
    while state.iteration < state.T:
        phi, psi = state.phi, state.psi
        progress = mwu_step(state)
        if progress is None:
            outcome = "stall"
            break
        m = state.m
        steps.append({
            "dphi": state.phi - phi,
            "dpsi": state.psi - psi,
            "ell": state._ell[:m].copy(),
            "ell_tilde": state.length_estimates[:m].copy(),
        })
    if outcome is None:
        outcome = mwu_solution(state)
    return outcome, steps


def instrumented_run_set():
    """A fixed battery of inner-loop runs covering p, capacity and stalls."""
    runs = []
    for p, m_max, kind, seed in ((2, 4, "pair", 0), (3, 8, "pair", 1),
                                 (2, 6, "ring", 2), (4, 8, "ring", 3)):
        state = planted_state(p=p, m_max=m_max, seed=seed, kind=kind)
        outcome, steps = run_instrumented(state)
        runs.append((state, outcome, steps))
    graph = IncrementalGraph(2)
    graph.add_edge(0, 1)
    graph.add_edge(0, 1)
    stalled = mwu_init(graph, np.array([1.0, 1.0]), np.ones(2), np.ones(2),
                       2, m_max=4, seed=4)
    outcome, steps = run_instrumented(stalled)
    runs.append((stalled, outcome, steps))
    return runs


class TestAcceptance:
    def test_01_incremental_threshold_soundness(self):
        begin = time.perf_counter()
        failures = 0
        events = 0
        streams = 0
        for i in range(100):
            p = (2, 3, 4)[i % 3]
            n = 4 + (i % 9)
            initial = n - 1 + (i % 3)
            n_events = 4 + (i % 5)
            mode = "planted-threshold" if i % 5 < 2 else "random"
            stream = generate_stream(mode, "pnorm", n=n, initial=initial,
                                     events=n_events, p=p, seed=1000 + i)
            instance, stream_events = build_pnorm_instance(stream)
            solver = IncrementalPNormSolver(
                instance, m_max=stream.m_max, seed=17,
                step_budget_per_event=150)
            F, eps = instance.threshold, instance.eps
            warm = None
            calls = [solver.start] + [
                (lambda ev=ev: solver.insert_edge(*ev))
                for ev in stream_events]
            for call in calls:
                verdict = call()
                events += 1
                if isinstance(verdict, Flow):
                    gap = net_demand(instance.graph, verdict.flow) - instance.d
                    feasible = float(np.max(np.abs(gap))) <= 1e-7 * (
                        1.0 + float(np.max(np.abs(instance.d))))
                    energy = instance.energy(verdict.flow)
                    ok = feasible and energy <= F + eps + 1e-7 * (abs(F) + eps)
                else:
                    if instance.routable():
                        if warm is not None and warm.size < instance.m:
                            warm = np.concatenate(
                                [warm, np.zeros(instance.m - warm.size)])
                        # 10x inside the 1e-7 comparison slack below.
                        rep = static_pnorm_opt(instance, start_flow=warm,
                                               tol=1e-8, max_iterations=2000,
                                               seed=23)
                        warm = rep.flow
                        opt = rep.value
                    else:
                        opt = math.inf
                    ok = opt > F - 1e-7 * (1.0 + abs(F))
                failures += 0 if ok else 1
            streams += 1
        wall = time.perf_counter() - begin
        report(1, "incremental-threshold-soundness",
               failures == 0 and wall <= 600.0,
               f"{streams} streams, {events} events, {failures} failures, "
               f"{wall:.1f}s")

    def test_02_weight_potential_lemmas(self):
        violations = 0
        completed = 0
        checked_steps = 0
        for state, outcome, steps in instrumented_run_set():
            K, q, T = state.K, state.q, state.T
            if not math.isclose(state.K ** 2, K ** 2, rel_tol=1e-9):
                violations += 1
            fresh = planted_state(p=state.p, m_max=state.m_max, seed=99)
            if abs(fresh.phi - fresh.K ** 2) > 1e-9 * fresh.K ** 2:
                violations += 1
            if abs(fresh.psi - fresh.K ** fresh.q) > 1e-9 * fresh.K ** fresh.q:
                violations += 1
            for step in steps:
                checked_steps += 1
                if step["dphi"] > 3 * K ** 2 / T * (1 + 1e-9):
                    violations += 1
                if step["dpsi"] > 4 * q * K ** q / T * (1 + 1e-9):
                    violations += 1
            if isinstance(outcome, Solution):
                completed += 1
                if state.phi > 4 * K ** 2 * (1 + 1e-9):
                    violations += 1
                if state.psi > 5 * q * K ** q * (1 + 1e-9):
                    violations += 1
        report(2, "weight-potential-lemmas",
               violations == 0 and completed >= 3 and checked_steps > 1000,
               f"{checked_steps} steps across {completed} completed runs, "
               f"{violations} violations")

    def test_03_inner_solution_contract(self):
        violations = 0
        solutions = 0
        for state, outcome, _ in instrumented_run_set():
            if not isinstance(outcome, Solution):
                continue
            solutions += 1
            c = outcome.circulation
            m = state.m
            K = state.K
            if abs(float(state.gradients @ c) + 1.0) > 1e-9:
                violations += 1
            if float(np.linalg.norm(state._r[:m] * c)) > 2 * K * (1 + 1e-12):
                violations += 1
            if pnorm(state._w[:m] * c, state.p) > 2 * K * (1 + 1e-12):
                violations += 1
            if not is_circulation(state.graph, c):
                violations += 1
        report(3, "inner-solution-contract",
               violations == 0 and solutions >= 3,
               f"{solutions} solutions, {violations} violations")

    def test_04_refinement_contraction(self):
        records = []
        original = refine_mod.refinement_step

        def wrapped(solver, c):
            before = solver._energy
            flow = original(solver, c)
            records.append((before, solver.instance.energy(flow),
                            solver.K, solver.lam, solver.F))
            return flow

        refine_mod.refinement_step = wrapped
        try:
            for p, threshold, eps in ((2, 0.6, 0.05), (3, 0.35, 0.02)):
                graph = IncrementalGraph(2)
                instance = PNormInstance(graph, np.array([-1.0, 1.0]), p,
                                         threshold=threshold, eps=eps)
                instance.add_edge(0, 1, 0.0, 1.0, 1.0)
                solver = IncrementalPNormSolver(instance, m_max=4, seed=5)
                solver.start()
                for _ in range(3):
                    solver.insert_edge(0, 1, 0.0, 1.0, 1.0)
        finally:
            refine_mod.refinement_step = original
        violations = 0
        for before, after, K, lam, F in records:
            factor = 1.0 - 1.0 / (6.0 * K ** 2 * lam)
            if after - F > factor * (before - F) + 1e-9 * abs(before):
                violations += 1
        report(4, "refinement-contraction",
               violations == 0 and len(records) >= 2,
               f"{len(records)} refinement steps, {violations} violations")

    def test_05_residual_sandwich(self):
        failures = 0
        escalations = 0
        rng = np.random.Generator(np.random.Philox(77))
        for i in range(500):
            p = (2, 3, 4, 8)[i % 4]
            lam = 16.0 * p
            instance = connected_instance(rng, 4, 6, p)
            sigma = 1.0 / (p * (1.0 + lam))
            f = sigma * rng.normal(size=6)
            x = sigma * rng.normal(size=6)
            base = instance.energy(f)
            rx = build_residual(instance, f).value(x)
            upper = instance.energy(f + x) - base
            lower = instance.energy(f + lam * x) - base
            # The 1e-9 factor is slack relative to |R_f(x)|; at p = 8 the
            # upper inequality is a near-equality, so a slack whose sign
            # flips with R_f(x) would demand margin instead of granting it.
            ok = (upper <= rx + 1e-9 * abs(rx) + 1e-15
                  and lower >= lam * rx - 1e-9 * abs(lam * rx) - 1e-15)
            if not ok:
                failures += 1
                lam_up = lam
                while lam_up < 2 ** 40 * lam and not sandwich_holds(
                        instance, f, x, lam_up):
                    lam_up *= 2.0
                    escalations += 1
        detail = f"500 triples, {failures} failures"
        if failures:
            detail += f", escalation exercised {escalations} doublings"
        report(5, "residual-sandwich", failures == 0, detail)

    def test_06_cycle_oracle_equivalence(self):
        failures = 0
        rng = np.random.Generator(np.random.Philox(101))
        for _ in range(200):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(2, 13))
            graph = IncrementalGraph(n)
            for _ in range(m):
                u, v = rng.choice(n, size=2, replace=False)
                graph.add_edge(int(u), int(v))
            instance = MrcInstance(graph, rng.normal(size=m),
                                   rng.uniform(0.5, 2.0, size=m))
            exact = exact_min_ratio_cycle(instance)
            brute = brute_force_min_ratio_cycle(instance)
            if (exact is None) != (brute is None):
                failures += 1
                continue
            if exact is None:
                continue
            if abs(exact.ratio - brute.ratio) > 1e-7:
                failures += 1
                continue
            c = exact.circulation(m)
            if not is_circulation(graph, c):
                failures += 1
                continue
            grad = float(instance.gradients @ c)
            length = float(np.abs(instance.lengths * c).sum())
            if abs(grad / length - exact.ratio) > 1e-9 * max(
                    1.0, abs(exact.ratio)):
                failures += 1
        report(6, "cycle-oracle-equivalence", failures == 0,
               f"200 instances, {failures} disagreements")

    def test_07_length_monotonicity(self):
        violations = 0
        samples = 0
        for state, _, steps in instrumented_run_set():
            prev_ell = None
            prev_tilde = None
            for step in steps:
                samples += 1
                ell, tilde = step["ell"], step["ell_tilde"]
                if np.any(tilde < ell * (1 - 1e-12)):
                    violations += 1
                if np.any(tilde > 2 * ell * (1 + 1e-12)):
                    violations += 1
                if prev_ell is not None:
                    k = prev_ell.size
                    if np.any(ell[:k] < prev_ell * (1 - 1e-12)):
                        violations += 1
                    if np.any(tilde[:k] < prev_tilde):
                        violations += 1
                prev_ell, prev_tilde = ell, tilde
        report(7, "length-monotonicity",
               violations == 0 and samples > 1000,
               f"{samples} steps, {violations} violations")

    def test_08_incremental_maxflow(self):
        begin = time.perf_counter()
        failures = 0
        events = 0
        for i in range(50):
            eps = (0.5, 0.25, 0.1)[i % 3]
            n = 4 + (i % 9)
            n_events = min(10 + (i * 7) % 31, 40)
            mode = "phase-stress" if i % 4 == 0 else "random"
            stream = generate_stream(mode, "maxflow", n=n, initial=n - 1,
                                     events=n_events, eps=eps,
                                     seed=2000 + i, cap_max=8)
            graph = IncrementalGraph(stream.n)
            caps: list[int] = []
            specs = stream.initial_edges + stream.events
            phase_counts = []
            driver_holder = {}

            def run():
                driver = MaxflowDriver(stream.n, stream.m_max, stream.s,
                                       stream.t, stream.eps, seed=31)
                driver_holder["driver"] = driver
                for spec in stream.initial_edges:
                    driver.add_initial_edge(spec.u, spec.v, spec.capacity())
                yield driver.start()
                for spec in stream.events:
                    yield driver.insert(spec.u, spec.v, spec.capacity())

            for k, (value, flow) in enumerate(run()):
                events += 1
                boundary = len(stream.initial_edges) + k
                while len(caps) < boundary:
                    spec = specs[len(caps)]
                    graph.add_edge(spec.u, spec.v)
                    caps.append(spec.capacity())
                exact, _ = exact_maxflow(graph, np.asarray(caps, float),
                                         stream.s, stream.t)
                driver = driver_holder["driver"]
                ok = value >= (1.0 - eps) * exact - 1e-9
                ok = ok and value <= exact + 1e-9
                ok = ok and not np.any(
                    np.abs(flow) > np.asarray(caps, float) * (1 + 1e-9))
                ok = ok and driver.phase_count <= driver.phase_bound()
                failures += 0 if ok else 1
        wall = time.perf_counter() - begin
        report(8, "incremental-maxflow",
               failures == 0 and wall <= 900.0,
               f"50 streams, {events} events, {failures} failures, "
               f"{wall:.1f}s")

    def test_09_effective_resistance_thresholding(self):
        failures = 0
        events = 0
        flips = 0
        for i in range(50):
            mode = "planted-threshold" if i % 5 < 3 else "random"
            n = 4 + (i % 9)
            n_events = 5 + (i % 7)
            stream = generate_stream(mode, "effres", n=n, initial=n - 1,
                                     events=n_events, seed=3000 + i)
            theta, eps_rel = stream.threshold, stream.eps
            graph = IncrementalGraph(stream.n)
            res: list[float] = []
            specs = stream.initial_edges + stream.events
            below_seen = False
            above_seen = False
            for k, verdict in enumerate(incremental_effres(stream, seed=7)):
                events += 1
                boundary = len(stream.initial_edges) + k
                while len(res) < boundary:
                    spec = specs[len(res)]
                    graph.add_edge(spec.u, spec.v)
                    res.append(spec.resistance())
                if graph.connected(stream.s, stream.t):
                    true = effective_resistance(graph, np.asarray(res),
                                                stream.s, stream.t)
                else:
                    true = math.inf
                if isinstance(verdict, Below):
                    if above_seen and not below_seen:
                        flips += 1
                    below_seen = True
                    ok = (verdict.r_est >= true * (1 - 1e-6)
                          and verdict.r_est <= theta * (1 + eps_rel)
                          * (1 + 1e-9))
                else:
                    above_seen = True
                    ok = not below_seen
                    ok = ok and true > theta / (1 + eps_rel) * (1 - 1e-9)
                    ok = ok and not true < theta * (1 - eps_rel)
                failures += 0 if ok else 1
        report(9, "effective-resistance-thresholding",
               failures == 0 and flips >= 10,
               f"50 streams, {events} events, {flips} observed flips, "
               f"{failures} failures")

    def test_10_stability_witness(self):
        # A controlled monotone log: a 4-cycle inserted at stage 0, then
        # one length doubling per stage on edges 0, 1, 2 in turn.
        n_edges = 4
        log = UpdateLog(4)
        lengths = [1.0, 1.0, 1.0, 1.0]
        cycle = ((0, 1), (1, 2), (2, 3), (3, 0))
        log.append_batch([
            LogInsert(e, u, v, -1.0, lengths[e])
            for e, (u, v) in enumerate(cycle)])
        for edge in (0, 1, 2):
            lengths[edge] *= 2.0
            log.append_batch([
                LogDelete(edge),
                LogInsert(edge, *cycle[edge], -1.0, lengths[edge])])
        c_star = {e: 1.0 for e in range(n_edges)}
        widths = canonical_stability_widths(log, c_star)
        ok_canonical = check_stability_witness(log, c_star, widths)

        # Width below |l c*| on one stage: breaks the per-edge lower bound.
        low = [dict(stage) for stage in widths]
        low[1][3] *= 0.9
        ok_low = not check_stability_witness(log, c_star, low)

        # Growth above 2x on an untouched edge, with every later stage
        # inflated so the total stays monotone: breaks the growth bound.
        grown = [dict(stage) for stage in widths]
        for stage in range(2, len(grown)):
            grown[stage][3] = widths[1][3] * 2.5
        ok_grown = not check_stability_witness(log, c_star, grown)

        # Inflating an edge at its touched stage and reverting afterwards
        # keeps items 2 and 3 intact but makes the total width drop.
        shrink = [dict(stage) for stage in widths]
        shrink[1][0] *= 5.0
        ok_shrink = not check_stability_witness(log, c_star, shrink)

        # The same canonical construction on a live inner-loop run.
        state = planted_state(p=2, m_max=4, seed=8)
        recorder = LogRecorder(state)
        outcome = run_to_end(state, after=recorder)
        live_star = {0: -0.5, 1: 0.5}
        live_widths = canonical_stability_widths(recorder.log, live_star)
        ok_live = (isinstance(outcome, Solution)
                   and check_stability_witness(recorder.log, live_star,
                                               live_widths))

        ok = all((ok_canonical, ok_low, ok_grown, ok_shrink, ok_live))
        report(10, "stability-witness", ok,
               "canonical witness accepted (synthetic and live), "
               "3 single-item mutations rejected")

    @staticmethod
    def _scale_instance(threshold, eps):
        """n=500, m up to 5000: a unit demand across a 500-vertex path plus
        random extras; shortcut insertions later create large improvements,
        so every event must grind inner steps before it can be resolved."""
        rng = np.random.Generator(np.random.Philox(4242))
        n, initial = 500, 4990
        graph = IncrementalGraph(n)
        d = np.zeros(n)
        d[0], d[-1] = -1.0, 1.0
        instance = PNormInstance(graph, d, 2, threshold=threshold, eps=eps)
        for e in range(initial):
            if e < n - 1:
                u, v = e, e + 1
            else:
                u, v = rng.choice(n, size=2, replace=False)
            instance.add_edge(int(u), int(v), 0.0,
                              float(0.5 + rng.random()),
                              float(0.5 + rng.random()))
        return instance

    def test_11_scaling_smoke(self):
        begin = time.perf_counter()
        events = [(0, 499, 0.0, 0.05, 0.05)] * 10
        probe = self._scale_instance(1.0, 0.1)
        for ev in events:
            probe.add_edge(*ev)
        final_opt = static_pnorm_opt(probe, tol=1e-7,
                                     max_iterations=2000, seed=1).value
        threshold, eps = 0.5 * final_opt, 0.05 * final_opt
        instance = self._scale_instance(threshold, eps)

        init_violations = 0
        step_violations = 0
        steps_checked = 0
        originals = (refine_mod.mwu_init, refine_mod.mwu_step)

        def wrapped_init(*args, **kwargs):
            state = originals[0](*args, **kwargs)
            nonlocal init_violations
            if abs(state.phi - state.K ** 2) > 1e-9 * state.K ** 2:
                init_violations += 1
            if abs(state.psi - state.K ** state.q) > 1e-9 * (
                    state.K ** state.q):
                init_violations += 1
            return state

        def wrapped_step(state):
            nonlocal step_violations, steps_checked
            phi, psi = state.phi, state.psi
            progress = originals[1](state)
            if progress is not None:
                steps_checked += 1
                K, q, T = state.K, state.q, state.T
                if state.phi - phi > 3 * K ** 2 / T * (1 + 1e-9):
                    step_violations += 1
                if state.psi - psi > 4 * q * K ** q / T * (1 + 1e-9):
                    step_violations += 1
                m = state.m
                ell = state._ell[:m]
                tilde = state.length_estimates[:m]
                if np.any(tilde < ell * (1 - 1e-12)) or np.any(
                        tilde > 2 * ell * (1 + 1e-12)):
                    step_violations += 1
            return progress

        refine_mod.mwu_init = wrapped_init
        refine_mod.mwu_step = wrapped_step
        try:
            solver = IncrementalPNormSolver(
                instance, m_max=5000, seed=9, step_budget_per_event=30)
            verdicts = [solver.start()]
            for ev in events:
                verdicts.append(solver.insert_edge(*ev))
        finally:
            refine_mod.mwu_init, refine_mod.mwu_step = originals
        exact_wall = time.perf_counter() - begin
        exact_queries = max(solver.queries, 1)

        tree_begin = time.perf_counter()
        tree_instance = self._scale_instance(threshold, eps)
        tree_solver = IncrementalPNormSolver(
            tree_instance, m_max=5000, seed=9, backend="trees",
            kappa=4.0, step_budget_per_event=30)
        tree_solver.start()
        for ev in events:
            tree_solver.insert_edge(*ev)
        tree_wall = time.perf_counter() - tree_begin
        tree_queries = max(tree_solver.queries, 1)

        kinds = {type(v).__name__ for v in verdicts}
        # No inner run can complete here (T = 1e6 steps), so the solution
        # contract and refinement contraction have nothing to bind; the
        # per-step potential and length checks above are the live ones.
        ok = (exact_wall <= 600.0 and init_violations == 0
              and step_violations == 0 and steps_checked >= 100
              and len(verdicts) == 11)
        report(11, "scaling-smoke", ok,
               f"n=500 m=5000, 11 events in {exact_wall:.0f}s, "
               f"{steps_checked} inner steps checked, verdicts {sorted(kinds)}; "
               f"informational: exact {exact_wall / exact_queries * 1e3:.0f}"
               f"ms/query ({exact_queries} queries) vs trees "
               f"{tree_wall / tree_queries * 1e3:.0f}ms/query "
               f"({tree_queries} queries)")
