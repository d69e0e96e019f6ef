"""The package's public names, and the test tools kept out of it."""

import inspect

import numpy as np

import pnormflow
from pnormflow import cli, graph, mrc, mwu, trees, verify

PUBLIC = [
    # drivers
    "AboveThreshold", "Below", "EffResDriver", "MaxflowDriver",
    "incremental_effres", "incremental_maxflow",
    # errors
    "GraphError", "InvariantViolation", "OracleError", "StreamError",
    # graph
    "IncrementalGraph", "PNormInstance", "net_demand",
    # refine
    "CertifiedAbove", "Flow", "IncrementalPNormSolver", "Verdict",
    "incremental_pnorm",
    # streams
    "EdgeSpec", "UpdateStream", "build_pnorm_instance", "generate_stream",
    "parse_stream", "print_stream",
    # verify
    "OracleReport", "effective_resistance", "exact_maxflow",
    "static_pnorm_opt",
]

# Proof tools that live in tests/support.py, and the inner loop's former
# test hooks.
GONE = [
    "brute_force_min_ratio_cycle", "UpdateLog", "LogInsert", "LogDelete",
    "check_stability_witness", "canonical_stability_widths",
    "finite_diff_check", "mwu_run", "Certified", "Progress",
]


def test_all_is_the_public_list():
    assert sorted(pnormflow.__all__) == sorted(PUBLIC)
    assert len(set(pnormflow.__all__)) == len(pnormflow.__all__) == 28


def test_every_public_name_resolves():
    for name in pnormflow.__all__:
        assert getattr(pnormflow, name) is not None


def test_test_tools_left_the_package():
    for module in (graph, mrc, mwu, verify):
        for name in GONE:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_deleted_methods_and_hooks_are_gone():
    assert not hasattr(graph.IncrementalGraph, "copy")
    assert not hasattr(trees.SpanningForest, "lca")
    assert not hasattr(trees.SpanningForest, "path_to_ancestor")
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
