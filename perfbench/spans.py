"""Span tracing from outside the library, and the per-layer metrics.

`installed(recorder)` replaces every public function and method of the
traced pnormflow modules, and every other module attribute bound to one
of those functions (such as `refine.static_pnorm_opt`), with a wrapper
that records a span: name, start, end and the enclosing span. A few spans
also keep a tag and a flag taken from their arguments or result, for
counts that need them (which inner run a step belongs to, whether a
query found a cycle, how many Newton iterations a static solve took).
Leaving the context restores the originals.

Spans live in flat arrays in memory; `Recorder.save` writes them to an
`.npz` file. A span's self time is its duration minus the durations of
its direct child spans.

Two costs cannot be separated from outside: the invariant checks and the
length recompute inside `mwu_step` run inline in that function, so they
land in `mwu.step_self_s` together with the step bookkeeping.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import time
from array import array
from typing import Callable, Iterator

import numpy as np

MODULES = ("graph", "trees", "mrc", "mwu", "refine", "verify", "drivers",
           "streams")


class Recorder:
    """Spans in parallel arrays; index i is the i-th span opened."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.tag = array("q")
        self.flag = array("q")
        self.stack = [-1]
        # Objects numbered for tags; held so their ids are never reused.
        self._numbers: dict[int, tuple[object, int]] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def number(self, obj) -> int:
        """A small stable number per object, in order of first sight."""
        key = id(obj)
        if key not in self._numbers:
            self._numbers[key] = (obj, len(self._numbers))
        return self._numbers[key][1]

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around benchmark code, such as one set-up or event."""
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.tag.append(0)
        self.flag.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {key: np.array(getattr(self, key)) for key in
                ("name", "start", "end", "parent", "tag", "flag")}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names),
                            **self.arrays())


# Span name -> (recorder, positional args, result) -> (tag, flag).
_ANNOTATE: dict[str, Callable] = {
    "mwu.mwu_init": lambda rec, args, result: (rec.number(result), 0),
    "mwu.mwu_step":
        lambda rec, args, result: (rec.number(args[0]), int(result is not None)),
    "mwu.mwu_solution": lambda rec, args, result: (rec.number(args[0]), 0),
    "mrc.MonotoneMrcState.query":
        lambda rec, args, result: (0, int(result is not None)),
    "verify.static_pnorm_opt":
        lambda rec, args, result: (rec.number(args[0]), result.iterations),
}


def _wrap(rec: Recorder, fn, name: str):
    nid = rec.name_id(name)
    annotate = _ANNOTATE.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec._open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec._close(idx)
        if annotate is not None:
            rec.tag[idx], rec.flag[idx] = annotate(rec, args, result)
        return result

    return traced


def _targets():
    """(owner, attribute, original, span name) for everything wrapped."""
    modules = [importlib.import_module(f"pnormflow.{m}") for m in MODULES]
    functions: dict[Callable, str] = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) \
                    != module.__name__:
                continue
            if inspect.isfunction(obj):
                functions[obj] = f"{short}.{attr}"
            elif inspect.isclass(obj):
                for meth, member in vars(obj).items():
                    wanted = not meth.startswith("_") or (
                        meth == "__init__" and not dataclasses.is_dataclass(obj))
                    if wanted and inspect.isfunction(member):
                        yield obj, meth, member, f"{short}.{attr}.{meth}"
    # Each module attribute bound to a wrapped function: its own binding
    # and every `from .x import f` alias.
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in functions:
                yield module, attr, obj, functions[obj]


@contextlib.contextmanager
def installed(rec: Recorder) -> Iterator[Recorder]:
    originals = list(_targets())
    wrappers: dict[Callable, Callable] = {}
    try:
        for owner, attr, fn, name in originals:
            if fn not in wrappers:
                wrappers[fn] = _wrap(rec, fn, name)
            setattr(owner, attr, wrappers[fn])
        yield rec
    finally:
        for owner, attr, fn, _ in originals:
            setattr(owner, attr, fn)


# --- per-layer metrics ---------------------------------------------------------

PER_LAYER_UNITS = {
    "graph.add_edge_calls": "count", "graph.add_edge_s": "s",
    "graph.energy_calls": "count", "graph.energy_s": "s",
    "graph.routable_s": "s",
    "trees.forests_built": "count", "trees.forest_build_s": "s",
    "trees.path_sum_s": "s", "trees.lca_s": "s",
    "trees.fundamental_cycle_s": "s",
    "mrc.queries": "count", "mrc.query_s": "s", "mrc.query_ms": "ms",
    "mrc.cycle_found_ratio": "ratio", "mrc.length_increases": "count",
    "mrc.increase_s": "s", "mrc.inserts": "count",
    "mwu.runs": "count", "mwu.init_s": "s", "mwu.steps": "count",
    "mwu.step_self_s": "s", "mwu.solutions": "count", "mwu.stalls": "count",
    "mwu.useful_step_ratio": "ratio",
    "refine.events": "count", "refine.event_self_s": "s",
    "refine.refinement_steps": "count", "refine.refinement_step_s": "s",
    "refine.residual_build_s": "s", "refine.lambda_check_s": "s",
    "refine.static_opt_calls": "count", "refine.static_opt_s": "s",
    "refine.materializations": "count", "verify.newton_iterations": "count",
    "drivers.phases": "count", "drivers.exact_maxflow_calls": "count",
    "drivers.exact_maxflow_s": "s", "drivers.phase_rebuild_s": "s",
    "streams.parse_s": "s", "streams.build_s": "s",
    "trace.overhead_ratio": "ratio",
}


def per_layer(rec: Recorder) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_ratio; a layer that
    did not run reads zero."""
    a = rec.arrays()
    names = np.asarray(rec.names + [""])
    span_name = names[a["name"]]
    duration = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child_time = np.bincount(a["parent"][has_parent],
                             weights=duration[has_parent],
                             minlength=duration.size)
    self_time = duration - child_time
    # names[-1] is "", the parent name of root spans.
    parent_name = names[np.where(has_parent, a["name"][a["parent"]], -1)]
    parent_layer = np.asarray([p.split(".", 1)[0] for p in parent_name],
                              dtype=str)

    def mask(*wanted: str) -> np.ndarray:
        return np.isin(span_name, wanted)

    def count(m) -> int:
        return int(np.count_nonzero(m))

    def total(m) -> float:
        return float(duration[m].sum())

    add_edge = mask("graph.IncrementalGraph.add_edge")
    energy = mask("graph.PNormInstance.energy")
    forest = mask("trees.SpanningForest.__init__") & (parent_layer == "mrc")
    query = mask("mrc.MonotoneMrcState.query")
    increase = mask("mrc.MonotoneMrcState.increase_length")
    init = mask("mwu.mwu_init")
    step = mask("mwu.mwu_step")
    solution = mask("mwu.mwu_solution")
    events = mask("refine.IncrementalPNormSolver.start",
                  "refine.IncrementalPNormSolver.insert_edge")
    refinement = mask("refine.refinement_step")
    static = mask("verify.static_pnorm_opt") & (parent_layer == "refine")
    maxflow = mask("verify.exact_maxflow") & (parent_layer == "drivers")
    parse = mask("streams.parse_stream")

    m = {
        "graph.add_edge_calls": count(add_edge),
        "graph.add_edge_s": float(self_time[mask(
            "graph.IncrementalGraph.add_edge",
            "graph.PNormInstance.add_edge")].sum()),
        "graph.energy_calls": count(energy),
        "graph.energy_s": total(energy),
        "graph.routable_s": total(mask("graph.PNormInstance.routable")),
        "trees.forests_built": count(forest),
        "trees.forest_build_s": total(forest),
        "trees.path_sum_s": total(mask("trees.SpanningForest.prefix_sums")),
        "trees.lca_s": total(mask("trees.SpanningForest.lca_many")),
        "trees.fundamental_cycle_s":
            total(mask("trees.SpanningForest.fundamental_cycle")),
        "mrc.queries": count(query),
        "mrc.query_s": total(query),
        "mrc.query_ms": 1e3 * total(query) / max(count(query), 1),
        "mrc.cycle_found_ratio":
            float(a["flag"][query].sum()) / max(count(query), 1),
        "mrc.length_increases": count(increase),
        "mrc.increase_s": total(increase),
        "mrc.inserts": count(mask("mrc.MonotoneMrcState.insert")),
        "mwu.runs": count(init),
        "mwu.init_s": total(init),
        "mwu.steps": count(step),
        "mwu.step_self_s": float(self_time[step].sum()),
        "mwu.solutions": count(solution),
        "mwu.stalls": count(step & (a["flag"] == 0)),
        "mwu.useful_step_ratio": _useful_step_ratio(a, step, solution),
        "refine.events": count(events),
        "refine.event_self_s": float(self_time[events].sum()),
        "refine.refinement_steps": count(refinement),
        "refine.refinement_step_s": total(refinement),
        "refine.residual_build_s": total(mask("refine.build_residual")),
        "refine.lambda_check_s": total(mask("refine.sandwich_holds")),
        "refine.static_opt_calls": count(static),
        "refine.static_opt_s": total(static),
        # The first static solve on an instance is its bootstrap; every
        # later one is a materialization.
        "refine.materializations":
            count(static) - np.unique(a["tag"][static]).size,
        "verify.newton_iterations": int(a["flag"][static].sum()),
        "drivers.phases": count(maxflow),
        "drivers.exact_maxflow_calls": count(maxflow),
        "drivers.exact_maxflow_s": total(maxflow),
        "drivers.phase_rebuild_s": _phase_rebuild(a, span_name, maxflow),
        "streams.parse_s": total(parse),
        "streams.build_s": total(mask("bench.setup")) - total(parse),
    }
    return {k: float(v) for k, v in m.items()}


def _useful_step_ratio(a, step, solution) -> float:
    """Steps of inner runs that ended in a solution or a stall, over all
    steps. A run ends in a stall when its last step found no cycle."""
    steps = np.flatnonzero(step)
    if steps.size == 0:
        return 0.0
    runs = a["tag"][steps]
    last = {}
    for idx, run in zip(steps.tolist(), runs.tolist()):
        last[run] = idx
    useful = set(a["tag"][solution].tolist())
    useful.update(run for run, idx in last.items() if a["flag"][idx] == 0)
    return float(np.isin(runs, list(useful)).sum()) / steps.size


def _phase_rebuild(a, span_name, maxflow) -> float:
    """From each phase's exact maxflow call to the first verdict of the
    solver built for it: the next solver start() in the same driver call."""
    starts = np.flatnonzero(span_name == "refine.IncrementalPNormSolver.start")
    total = 0.0
    for idx in np.flatnonzero(maxflow):
        later = starts[(starts > idx) & (a["parent"][starts]
                                         == a["parent"][idx])]
        if later.size:
            total += a["end"][later[0]] - a["start"][idx]
    return float(total)
