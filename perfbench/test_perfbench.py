"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.add_source_path()

import workloads  # noqa: E402
from pnormflow import refine  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "drivers-desk": functools.partial(workloads.drivers_desk,
                                      streams_per_seed=2, n=5,
                                      maxflow_events=6, effres_events=6),
    "scale-trees": functools.partial(workloads.scale, n=30, m=120, events=3,
                                     budget=5),
}


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONTRACT[kind]}


def test_contract_names_every_workload():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    workload = workloads.Workload(TINY[name], traced_streams=2,
                                  setup_repeats=1)
    jobs = workload.build(5)
    metrics, _, measured = run.measure(workload, jobs, seconds=0.2)
    assert {k: u for k, (_, u) in metrics.items()} == _units("end_to_end")
    assert all(v > 0 for v, _ in metrics.values())
    assert run.check(jobs, measured) == (measured.events, 0)
    # The measured loop ends with a whole stream.
    job_index, verdicts = measured.streams[-1]
    assert len(verdicts) == len(jobs[job_index].stream.events) + 1

    metrics, _, traced = run.traced(workload, jobs, tmp_path / "spans.npz")
    assert {k: u for k, (_, u) in metrics.items()} == _units("per_layer")
    assert len(traced.streams) == 2
    assert run.check(jobs, traced) == (traced.events, 0)
    assert (tmp_path / "spans.npz").is_file()


def test_traced_counts_repeat_exactly(tmp_path):
    workload = workloads.Workload(TINY["drivers-desk"], traced_streams=2,
                                  setup_repeats=1)
    jobs = workload.build(3)
    first, _, _ = run.traced(workload, jobs, tmp_path / "a.npz")
    second, _, _ = run.traced(workload, jobs, tmp_path / "b.npz")
    for name in ("mrc.queries", "mwu.steps", "refine.materializations",
                 "drivers.phases", "graph.add_edge_calls"):
        assert first[name][0] == second[name][0], name


def test_injected_wrong_verdicts_are_failures():
    job = TINY["scale-trees"](7)[0]
    verdicts = [call() for call in job.setup()]
    assert all(workloads.check_stream(job, verdicts))
    assert isinstance(verdicts[-1], refine.CertifiedAbove)
    edges = len(job.stream.initial_edges) + len(job.stream.events)
    no_flow = refine.Flow(flow=np.zeros(edges), energy=0.0)
    assert workloads.check_stream(job, verdicts[:-1] + [no_flow])[-1] is False
    raised = verdicts[:-1] + [RuntimeError("event failed")]
    assert workloads.check_stream(job, raised)[-1] is False
    # With F above the last optimum, certifying above is wrong.
    job.stream.threshold = job.oracle[-1] + 1.0
    assert workloads.check_stream(job, verdicts)[-1] is False

    flow_job = TINY["drivers-desk"](7)[0]
    published = [call() for call in flow_job.setup()]
    assert flow_job.kind == "maxflow" and all(
        workloads.check_stream(flow_job, published))
    value, flow = published[-1]
    low = published[:-1] + [(value / 2, flow / 2)]
    assert workloads.check_stream(flow_job, low)[-1] is False


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "drivers-desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
