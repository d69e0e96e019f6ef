"""The package's public names, and the test tools kept out of it."""

import inspect

import numpy as np
import pytest

import pnormflow
from pnormflow import cli, drivers, graph, mrc, mwu, refine, trees, verify

PUBLIC = [
    # drivers
    "AboveThreshold", "Below", "EffResDriver", "MaxflowDriver", "event_calls",
    # errors
    "GraphError", "InvariantViolation", "OracleError", "StreamError",
    # graph
    "IncrementalGraph", "PNormInstance", "net_demand",
    # refine
    "CertifiedAbove", "Flow", "IncrementalPNormSolver", "Verdict",
    # streams
    "EdgeSpec", "UpdateStream", "build_pnorm_instance", "generate_stream",
    "parse_stream", "print_stream",
    # verify
    "OracleReport", "effective_resistance", "exact_maxflow",
    "static_pnorm_opt",
]

# Proof tools that live in tests/support.py, the inner loop's former test
# hooks, and the wrapper types the oracle and the inner loop no longer take
# or return.
GONE = [
    "brute_force_min_ratio_cycle", "UpdateLog", "LogInsert", "LogDelete",
    "check_stability_witness", "canonical_stability_widths",
    "finite_diff_check", "mwu_run", "Certified", "Progress",
    "MrcInstance", "InsertEdge", "IncreaseLength", "exact_min_ratio_cycle",
    "Solution", "is_circulation", "residual_value",
]


def test_all_is_the_public_list():
    assert sorted(pnormflow.__all__) == sorted(PUBLIC)
    assert len(set(pnormflow.__all__)) == len(pnormflow.__all__) == 26


def test_every_public_name_resolves():
    for name in pnormflow.__all__:
        assert getattr(pnormflow, name) is not None


def test_test_tools_left_the_package():
    for module in (graph, mrc, mwu, verify):
        for name in GONE:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_deleted_methods_and_hooks_are_gone(tmp_path, capsys):
    assert not hasattr(graph.IncrementalGraph, "copy")
    assert not hasattr(trees.SpanningForest, "lca")
    assert not hasattr(trees.SpanningForest, "path_to_ancestor")
    assert not hasattr(trees.SpanningForest, "fundamental_cycles")
    assert not hasattr(trees.SpanningForest, "heads_child")
    assert "capacity" not in inspect.signature(
        mrc.MonotoneMrcState).parameters
    assert not hasattr(cli, "cmd_bench")
    for fn in (mwu.mwu_init, mwu.MwuState):
        assert "record_log" not in inspect.signature(fn).parameters
    g = graph.IncrementalGraph(2)
    for _ in range(2):
        g.add_edge(0, 1)
    state = mwu.mwu_init(g, np.array([1.0, -1.0]), np.ones(2), np.ones(2), 2,
                         m_max=4)
    for attr in ("log", "probe", "probe_max"):
        assert not hasattr(state, attr)
    # The drivers run the exact oracle; only p-norm solvers take options.
    for driver in (drivers.MaxflowDriver, drivers.EffResDriver):
        params = inspect.signature(driver).parameters
        assert "kappa" not in params and "backend" not in params
    assert not hasattr(drivers.MaxflowDriver, "_trace_phase")
    path = tmp_path / "a.stream"
    path.write_text("problem pnorm n=2 mmax=2 p=2 F=0.6 eps=0.05\n"
                    "demand 1 -1.0\ndemand 2 1.0\nedge 1 2\nstart\n",
                    encoding="utf-8")
    assert cli.main(["pnorm", str(path)]) == cli.EXIT_OK
    for flag in ("--backend", "--kappa"):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["pnorm", str(path), flag, "trees"])
        assert exit_info.value.code == cli.EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err


def test_no_switch_turns_the_invariant_checks_off():
    for module in (graph, trees, mrc, mwu, refine, drivers, cli):
        for name, obj in vars(module).items():
            public = (not name.startswith("_")
                      and getattr(obj, "__module__", None) == module.__name__
                      and (inspect.isfunction(obj) or inspect.isclass(obj)))
            if public:
                params = inspect.signature(obj).parameters
                assert "assert_invariants" not in params, \
                    f"{module.__name__}.{name}"
