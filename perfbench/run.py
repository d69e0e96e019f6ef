"""Seeded benchmark for pnormflow.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`. One process, one thread (BLAS pools are pinned to one thread
before numpy loads). Inputs come from the seed alone.

--trace 0 measures the end-to-end metrics: jobs are set up and their
events answered in a closed loop, over the seed's streams in order, for
about S seconds; the loop always ends with a whole stream, so every run
samples the same mix of event kinds. --trace 1 runs a fixed number of
streams once to warm up, then runs each of them twice in a row, plain and
with every public function of the traced modules wrapped in a span
recorder, alternating which goes first; it reports the per-layer metrics, and its counts repeat exactly
for a fixed seed. Either way every verdict is checked against an
independent oracle after timing ends.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Everything else about the run
(sample counts, tail latency, verdict fingerprints, environment) goes to
perfbench/out/<workload>-seed<N>-trace<T>.json; a traced run also writes
its spans next to it.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("drivers-desk", "scale-trees")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def add_source_path() -> None:
    """Import pnormflow from the checkout's src/, never from elsewhere."""
    if not (SRC / "pnormflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no pnormflow sources under {SRC}")
    sys.path.insert(0, str(SRC))


@dataclass
class Pass:
    """Verdicts and timings of one measured loop over a workload's jobs."""

    latencies: list[float] = field(default_factory=list)
    # (job index, verdict or exception per event) for each stream pass,
    # in the order they ran; a pass ends early only at an exception.
    streams: list[tuple[int, list]] = field(default_factory=list)

    @property
    def events(self) -> int:
        return len(self.latencies)

    def add(self, other: Pass) -> None:
        self.latencies += other.latencies
        self.streams += other.streams


def run_events(jobs, done, recorder=None, first: int = 0) -> Pass:
    """Closed loop over the jobs in order from job `first`, from a fresh
    set-up each time, until done(pass) is true after a stream."""
    result = Pass()
    clock = time.perf_counter
    index = first
    while True:
        job_index = index % len(jobs)
        index += 1
        if recorder is None:
            calls = jobs[job_index].setup()
        else:
            with recorder.span("bench.setup"):
                calls = jobs[job_index].setup()
        verdicts: list = []
        result.streams.append((job_index, verdicts))
        for call in calls:
            begin = clock()
            try:
                if recorder is None:
                    verdict = call()
                else:
                    with recorder.span("bench.event"):
                        verdict = call()
            except Exception as exc:  # counted as a failed event
                verdict = exc
            result.latencies.append(clock() - begin)
            verdicts.append(verdict)
            if isinstance(verdict, Exception):
                break
        if done(result):
            return result


def time_setups(jobs, repeats: int) -> list[float]:
    """Mean set-up time per stream, from each of `repeats` passes that set
    up every job once. Each sample has the same mix of stream kinds and
    sizes, so their median does not fall between two kinds."""
    samples = []
    for _ in range(repeats):
        gc.collect()  # garbage left by earlier work is not collected here
        begin = time.perf_counter()
        ready = [job.setup() for job in jobs]
        samples.append((time.perf_counter() - begin) / len(jobs))
        del ready  # freed outside the timed region
    return samples


def check(jobs, run: Pass) -> tuple[int, int]:
    """(attempted, failed) over every event of the pass."""
    import workloads

    failed = 0
    for job_index, verdicts in run.streams:
        failed += sum(not ok for ok in workloads.check_stream(
            jobs[job_index], verdicts))
    return run.events, failed


def fingerprints(run: Pass) -> dict:
    """Verdict sequence and its hash per stream, for the first pass over
    each job; `all` hashes the streams that completed, in order."""
    import workloads

    per_stream = {}
    for job_index, verdicts in run.streams:
        if job_index in per_stream:
            continue
        seq = ",".join(workloads.verdict_token(v) for v in verdicts)
        per_stream[job_index] = {
            "verdicts": seq,
            "sha256": hashlib.sha256(seq.encode()).hexdigest()}
    joined = "|".join(f"{i}:{v['verdicts']}" for i, v in per_stream.items())
    return {"streams": per_stream,
            "all": hashlib.sha256(joined.encode()).hexdigest()}


def tail_latency(latencies: list[float]) -> dict | None:
    """Latency at the highest percentile with at least ten events beyond
    it, or None when the run is too short to have one."""
    n = len(latencies)
    for pct in TAIL_LADDER:
        if n * (1 - pct / 100.0) >= 10:
            rank = int(round(pct / 100.0 * (n - 1)))
            return {"percentile": pct, "ms": 1e3 * sorted(latencies)[rank],
                    "samples": n}
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "blas_threads": {v: os.environ[v] for v in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, jobs, seconds: float) -> tuple[dict, dict, Pass]:
    """The untraced run: end-to-end metrics and the run report.

    The set-up passes run between streams, one due every
    seconds / setup_repeats, and those not yet due when the loop ends run
    after it. The machine's speed changes within seconds, so passes in one
    burst would all measure one moment of it."""
    repeats = workload.setup_repeats
    setups: list[float] = []
    run = Pass()
    begin = time.perf_counter()
    elapsed = 0.0
    # Each stream runs at most once, and the loop stops before a stream
    # that, at the mean stream time so far, would end after `seconds`. So
    # a run never overshoots by a whole stream, and a scale run answers
    # exactly its one stream.
    while not run.streams or (
            len(run.streams) < len(jobs)
            and elapsed * (1 + 1 / len(run.streams)) <= seconds):
        if len(setups) < repeats and elapsed >= len(setups) * seconds / repeats:
            setups += time_setups(jobs, 1)
        run.add(run_events(jobs, lambda r: True, first=len(run.streams)))
        elapsed = time.perf_counter() - begin
    setups += time_setups(jobs, repeats - len(setups))
    metrics = {
        "events_per_s": (run.events / sum(run.latencies), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report = {"event_samples": run.events, "setup_samples": len(setups),
              "event_ms_p50": 1e3 * statistics.median(run.latencies),
              "event_ms_tail": tail_latency(run.latencies),
              "event_ms_quartiles": [1e3 * q for q in statistics.quantiles(
                  run.latencies, n=4)] if run.events > 1 else None,
              "measured_s": elapsed}
    return metrics, report, run


def traced(workload, jobs, spans_path: Path) -> tuple[dict, dict, Pass]:
    """The traced run: the fixed streams once to warm up, then each one
    plain and traced in a row, so that drift in machine speed reaches both
    sides of trace.overhead_ratio alike."""
    import spans

    count = workload.traced_streams
    run_events(jobs, lambda r: len(r.streams) >= count)
    plain, run = Pass(), Pass()
    recorder = spans.Recorder()
    for first in range(count):
        # Alternate which side goes first, so that neither always runs on
        # what the other has just warmed.
        for traced_side in (first % 2 == 1, first % 2 == 0):
            if traced_side:
                with spans.installed(recorder):
                    run.add(run_events(jobs, lambda r: True, recorder,
                                       first=first))
            else:
                plain.add(run_events(jobs, lambda r: True, first=first))
    layers = spans.per_layer(recorder)
    layers["trace.overhead_ratio"] = (
        (run.events / sum(run.latencies))
        / (plain.events / sum(plain.latencies)))
    recorder.save(spans_path)
    metrics = {k: (v, spans.PER_LAYER_UNITS[k]) for k, v in layers.items()}
    report = {"event_samples": run.events, "spans": len(recorder.start),
              "plain_fingerprint": fingerprints(plain)["all"]}
    return metrics, report, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    add_source_path()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    prep_begin = time.perf_counter()
    jobs = workload.build(args.seed)
    prep_s = time.perf_counter() - prep_begin

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, report, run = traced(workload, jobs, OUT / f"{stem}.npz")
        report["spans_file"] = f"perfbench/out/{stem}.npz"
    else:
        metrics, report, run = measure(workload, jobs, args.seconds)
    attempted, failed = check(jobs, run)
    report.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "attempted": attempted, "failed": failed,
        "failed_event_ratio": failed / attempted,
        "fingerprint": fingerprints(run), "prepare_s": prep_s,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    })
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    tail = report.get("event_ms_tail")
    print(f"# {args.workload} seed={args.seed}: {attempted} events, "
          f"{failed} failed, fingerprint {report['fingerprint']['all'][:16]}"
          + (f", p{tail['percentile']:g} {tail['ms']:.3f} ms"
             if tail else ""))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
