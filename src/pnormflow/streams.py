"""Update-stream grammar, serialization, and seeded instance generators.

A stream is line-oriented UTF-8 text. The first meaningful line is a header:

    problem pnorm n=<int> mmax=<int> p=<int> F=<real> eps=<real>
    problem maxflow n=<int> mmax=<int> s=<int> t=<int> eps=<real>
    problem effres n=<int> mmax=<int> s=<int> t=<int> theta=<real> eps=<real>

followed by optional `demand <vertex> <real>` lines (pnorm only), `edge <u>
<v> [g=<real>] [r=<real>] [w=<real>] [cap=<int>]` lines for the initial
graph, a single `start` marker, and `add` lines (same attribute forms) for
the insertion events. `#` starts a comment. Vertices are 1-based in the
text and 0-based on parsed objects. Unknown directives and unknown
attribute keys are rejected with the offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StreamError
from .graph import DEMAND_SUM_RTOL, IncrementalGraph, PNormInstance
from .verify import effective_resistance, static_pnorm_opt

_HEADER_KEYS = {
    "pnorm": ("n", "mmax", "p", "F", "eps"),
    "maxflow": ("n", "mmax", "s", "t", "eps"),
    "effres": ("n", "mmax", "s", "t", "theta", "eps"),
}
_EDGE_KEYS = ("g", "r", "w", "cap")

GENERATOR_MODES = ("random", "planted-threshold", "phase-stress")


@dataclass
class EdgeSpec:
    """One edge or add line; attributes are present iff they were written."""

    u: int
    v: int
    g: float | None = None
    r: float | None = None
    w: float | None = None
    cap: int | None = None

    def pnorm_attrs(self) -> tuple[float, float, float]:
        """(g, r, w) with the documented defaults 0, 1, 1."""
        return (0.0 if self.g is None else self.g,
                1.0 if self.r is None else self.r,
                1.0 if self.w is None else self.w)

    def capacity(self) -> int:
        return 1 if self.cap is None else self.cap

    def resistance(self) -> float:
        return 1.0 if self.r is None else self.r


@dataclass
class UpdateStream:
    """A parsed update stream: header, initial section, insertion events."""

    kind: str
    n: int
    m_max: int
    p: int | None = None
    threshold: float | None = None
    eps: float | None = None
    s: int | None = None
    t: int | None = None
    demand: dict[int, float] = field(default_factory=dict)
    initial_edges: list[EdgeSpec] = field(default_factory=list)
    events: list[EdgeSpec] = field(default_factory=list)

    def demand_vector(self) -> np.ndarray:
        d = np.zeros(self.n)
        for v, x in self.demand.items():
            d[v] = x
        return d


def _vertex(token: str, n: int, lineno: int) -> int:
    try:
        v = int(token)
    except ValueError:
        raise StreamError(f"expected a vertex id, got {token!r}", lineno)
    if not 1 <= v <= n:
        raise StreamError(f"vertex {v} out of range 1..{n}", lineno)
    return v - 1


def _real(token: str, lineno: int, key: str) -> float:
    try:
        x = float(token)
    except ValueError:
        raise StreamError(f"expected a real for {key}, got {token!r}", lineno)
    if not math.isfinite(x):
        raise StreamError(f"{key} must be finite, got {token!r}", lineno)
    return x


def _integer(token: str, lineno: int, key: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise StreamError(
            f"expected an integer for {key}, got {token!r}", lineno)


def _keyvals(tokens: list[str], allowed: tuple[str, ...],
             lineno: int) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not key or not value:
            raise StreamError(f"expected key=value, got {token!r}", lineno)
        if key not in allowed:
            raise StreamError(f"unknown key {key!r}", lineno)
        if key in pairs:
            raise StreamError(f"duplicate key {key!r}", lineno)
        pairs[key] = value
    return pairs


def _parse_header(fields: list[str], lineno: int) -> UpdateStream:
    if len(fields) < 2 or fields[1] not in _HEADER_KEYS:
        kinds = ", ".join(sorted(_HEADER_KEYS))
        raise StreamError(f"problem kind must be one of {kinds}", lineno)
    kind = fields[1]
    keys = _HEADER_KEYS[kind]
    pairs = _keyvals(fields[2:], keys, lineno)
    missing = [k for k in keys if k not in pairs]
    if missing:
        raise StreamError(f"missing header keys: {', '.join(missing)}", lineno)
    n = _integer(pairs["n"], lineno, "n")
    if n < 1:
        raise StreamError(f"n must be positive, got {n}", lineno)
    m_max = _integer(pairs["mmax"], lineno, "mmax")
    if m_max < 1:
        raise StreamError(f"mmax must be positive, got {m_max}", lineno)
    stream = UpdateStream(kind=kind, n=n, m_max=m_max)
    stream.eps = _real(pairs["eps"], lineno, "eps")
    if stream.eps <= 0:
        raise StreamError(f"eps must be positive, got {stream.eps}", lineno)
    if kind == "pnorm":
        stream.p = _integer(pairs["p"], lineno, "p")
        if stream.p < 2:
            raise StreamError(f"p must be at least 2, got {stream.p}", lineno)
        stream.threshold = _real(pairs["F"], lineno, "F")
    else:
        stream.s = _vertex(pairs["s"], n, lineno)
        stream.t = _vertex(pairs["t"], n, lineno)
        if stream.s == stream.t:
            raise StreamError("s and t must differ", lineno)
    if kind == "effres":
        stream.threshold = _real(pairs["theta"], lineno, "theta")
        if stream.threshold <= 0:
            raise StreamError(
                f"theta must be positive, got {stream.threshold}", lineno)
    return stream


def _parse_edge(fields: list[str], n: int, lineno: int) -> EdgeSpec:
    if len(fields) < 3:
        raise StreamError("edge lines need two endpoints", lineno)
    u = _vertex(fields[1], n, lineno)
    v = _vertex(fields[2], n, lineno)
    if u == v:
        raise StreamError(f"self-loop at vertex {u + 1} rejected", lineno)
    pairs = _keyvals(fields[3:], _EDGE_KEYS, lineno)
    spec = EdgeSpec(u=u, v=v)
    if "g" in pairs:
        spec.g = _real(pairs["g"], lineno, "g")
    if "r" in pairs:
        spec.r = _real(pairs["r"], lineno, "r")
        if spec.r <= 0:
            raise StreamError(f"r must be positive, got {spec.r}", lineno)
    if "w" in pairs:
        spec.w = _real(pairs["w"], lineno, "w")
        if spec.w <= 0:
            raise StreamError(f"w must be positive, got {spec.w}", lineno)
    if "cap" in pairs:
        spec.cap = _integer(pairs["cap"], lineno, "cap")
        if spec.cap < 1:
            raise StreamError(f"cap must be at least 1, got {spec.cap}",
                              lineno)
    return spec


def parse_stream(text: str) -> UpdateStream:
    """Parse stream text; raises StreamError with the offending line."""
    stream: UpdateStream | None = None
    started = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        word = fields[0]
        if stream is None:
            if word != "problem":
                raise StreamError("expected a problem header first", lineno)
            stream = _parse_header(fields, lineno)
            continue
        if word == "problem":
            raise StreamError("duplicate problem header", lineno)
        if word == "start":
            if started:
                raise StreamError("duplicate start marker", lineno)
            if len(fields) != 1:
                raise StreamError("start takes no arguments", lineno)
            started = True
        elif word == "demand":
            if started:
                raise StreamError("demand lines must precede start", lineno)
            if stream.kind != "pnorm":
                raise StreamError(
                    f"demand lines are not valid in {stream.kind} streams",
                    lineno)
            if len(fields) != 3:
                raise StreamError("demand takes a vertex and a value", lineno)
            v = _vertex(fields[1], stream.n, lineno)
            x = _real(fields[2], lineno, "demand")
            if v in stream.demand:
                raise StreamError(f"duplicate demand for vertex {v + 1}",
                                  lineno)
            if x != 0.0:
                stream.demand[v] = x
        elif word in ("edge", "add"):
            if word == "edge" and started:
                raise StreamError(
                    "edge lines must precede start (use add)", lineno)
            if word == "add" and not started:
                raise StreamError("add lines must follow start", lineno)
            spec = _parse_edge(fields, stream.n, lineno)
            target = stream.events if started else stream.initial_edges
            target.append(spec)
            if len(stream.initial_edges) + len(stream.events) > stream.m_max:
                raise StreamError("edge bound mmax exceeded", lineno)
        else:
            raise StreamError(f"unknown directive {word!r}", lineno)
    if stream is None:
        raise StreamError("empty stream: no problem header")
    if not started:
        raise StreamError("missing start marker")
    total = sum(stream.demand.values())
    scale = sum(abs(x) for x in stream.demand.values())
    if abs(total) > DEMAND_SUM_RTOL * (1.0 + scale):
        raise StreamError(f"demand entries sum to {total}, expected 0")
    return stream


def _format_real(x: float) -> str:
    return repr(float(x))


def _format_edge(word: str, spec: EdgeSpec) -> str:
    parts = [word, str(spec.u + 1), str(spec.v + 1)]
    if spec.g is not None:
        parts.append(f"g={_format_real(spec.g)}")
    if spec.r is not None:
        parts.append(f"r={_format_real(spec.r)}")
    if spec.w is not None:
        parts.append(f"w={_format_real(spec.w)}")
    if spec.cap is not None:
        parts.append(f"cap={spec.cap}")
    return " ".join(parts)


def print_stream(stream: UpdateStream) -> str:
    """Serialize a stream; parse_stream(print_stream(s)) reproduces s."""
    if stream.kind == "pnorm":
        header = (f"problem pnorm n={stream.n} mmax={stream.m_max} "
                  f"p={stream.p} F={_format_real(stream.threshold)} "
                  f"eps={_format_real(stream.eps)}")
    elif stream.kind == "maxflow":
        header = (f"problem maxflow n={stream.n} mmax={stream.m_max} "
                  f"s={stream.s + 1} t={stream.t + 1} "
                  f"eps={_format_real(stream.eps)}")
    elif stream.kind == "effres":
        header = (f"problem effres n={stream.n} mmax={stream.m_max} "
                  f"s={stream.s + 1} t={stream.t + 1} "
                  f"theta={_format_real(stream.threshold)} "
                  f"eps={_format_real(stream.eps)}")
    else:
        raise ValueError(f"unknown stream kind {stream.kind!r}")
    lines = [header]
    for v in sorted(stream.demand):
        lines.append(f"demand {v + 1} {_format_real(stream.demand[v])}")
    lines.extend(_format_edge("edge", spec) for spec in stream.initial_edges)
    lines.append("start")
    lines.extend(_format_edge("add", spec) for spec in stream.events)
    return "\n".join(lines) + "\n"


def build_pnorm_instance(
    stream: UpdateStream,
) -> tuple[PNormInstance, list[tuple[int, int, float, float, float]]]:
    """Instance for the initial section plus the event tuples for refine."""
    if stream.kind != "pnorm":
        raise ValueError(f"not a pnorm stream: {stream.kind}")
    graph = IncrementalGraph(stream.n)
    instance = PNormInstance(graph, stream.demand_vector(), stream.p,
                             threshold=stream.threshold, eps=stream.eps)
    for spec in stream.initial_edges:
        instance.add_edge(spec.u, spec.v, *spec.pnorm_attrs())
    events = [(spec.u, spec.v, *spec.pnorm_attrs()) for spec in stream.events]
    return instance, events


def _split_rng(seed: int, count: int) -> list[np.random.Generator]:
    """Independent counter-based streams derived from one 64-bit seed."""
    base = np.random.Philox(seed)
    return [np.random.Generator(base.jumped(i)) for i in range(count)]


def _spanning_order_edges(rng: np.random.Generator,
                          n: int) -> list[tuple[int, int]]:
    """Edges of a random spanning path; inserting all of them connects
    the whole vertex set."""
    path = [int(v) for v in rng.permutation(n)]
    return list(zip(path[:-1], path[1:]))


def _random_pair(rng: np.random.Generator, n: int) -> tuple[int, int]:
    u = int(rng.integers(n))
    v = int(rng.integers(n - 1))
    if v >= u:
        v += 1
    return u, v


def _prefix_optima(stream: UpdateStream,
                   seed: int) -> list[float]:
    """Static optimum after the initial section and after each event;
    math.inf while the demand is not routable."""
    instance, events = build_pnorm_instance(stream)
    values: list[float] = []
    flow: np.ndarray | None = None

    def solve() -> float:
        nonlocal flow
        if not instance.routable():
            flow = None
            return math.inf
        if flow is not None and flow.size < instance.m:
            flow = np.concatenate([flow, np.zeros(instance.m - flow.size)])
        # Threshold placement only needs macro-scale accuracy; the loose
        # target keeps Newton from grinding on ill-conditioned prefixes.
        report = static_pnorm_opt(instance, start_flow=flow, tol=1e-7,
                                  max_iterations=2000, seed=seed)
        flow = report.flow
        return report.value

    values.append(solve())
    for u, v, g, r, w in events:
        instance.add_edge(u, v, g, r, w)
        values.append(solve())
    return values


def _generate_pnorm(mode: str, n: int, initial: int, events: int, p: int,
                    eps: float | None, seed: int) -> UpdateStream:
    rng_topo, rng_attr, rng_pick = _split_rng(seed, 3)
    total = initial + events
    if total < n:
        raise ValueError("need initial+events >= n so the stream can "
                         "connect its terminals")
    spine = _spanning_order_edges(rng_topo, n)
    extras = [_random_pair(rng_topo, n) for _ in range(total - len(spine))]
    if mode == "planted-threshold":
        # Keep the demand routable from the start so the crossing, not
        # connectivity, is what the stream exercises.
        order = spine + extras
        if initial < len(spine):
            raise ValueError("planted-threshold needs initial >= n-1")
        tail = order[len(spine):]
        rng_topo.shuffle(tail)
        order = spine + tail
    else:
        order = spine + extras
        rng_topo.shuffle(order)

    scale = float(rng_attr.uniform(0.5, 2.0))
    s, t = _random_pair(rng_attr, n)
    stream = UpdateStream(kind="pnorm", n=n, m_max=total, p=p,
                          threshold=0.0, eps=1e-3,
                          demand={s: -scale, t: scale})
    for u, v in order[:initial]:
        stream.initial_edges.append(EdgeSpec(
            u=u, v=v, g=float(rng_attr.normal(0.0, 1.0)),
            r=float(rng_attr.uniform(0.5, 2.0)),
            w=float(rng_attr.uniform(0.5, 2.0))))
    for u, v in order[initial:]:
        stream.events.append(EdgeSpec(
            u=u, v=v, g=float(rng_attr.normal(0.0, 1.0)),
            r=float(rng_attr.uniform(0.5, 2.0)),
            w=float(rng_attr.uniform(0.5, 2.0))))

    optima = _prefix_optima(stream, seed)
    finite = [x for x in optima if math.isfinite(x)]
    final = finite[-1]
    span = max(abs(x) for x in finite) + 1.0
    if mode == "planted-threshold":
        best_j, best_drop = None, 0.0
        for j in range(1, len(optima)):
            if not (math.isfinite(optima[j - 1]) and math.isfinite(optima[j])):
                continue
            drop = (optima[j - 1] - optima[j]) / span
            if drop > best_drop:
                best_j, best_drop = j, drop
        if best_j is not None and best_drop > 1e-6:
            high, low = optima[best_j - 1], optima[best_j]
            threshold = 0.5 * (high + low)
            eps_val = min(0.25 * (high - threshold),
                          1e-3 * (1.0 + abs(threshold)))
        else:
            threshold = final + 0.1 * span
            eps_val = 1e-3 * (1.0 + abs(threshold))
    else:
        first = finite[0]
        beta = float(rng_pick.uniform(-0.5, 1.5))
        threshold = final + beta * max(first - final, 0.2 * span)
        eps_val = 1e-3 * (1.0 + abs(threshold))
    stream.threshold = float(threshold)
    stream.eps = float(eps_val) if eps is None else float(eps)
    return stream


def _generate_maxflow(mode: str, n: int, initial: int, events: int,
                      eps: float | None, seed: int,
                      cap_max: int) -> UpdateStream:
    rng_topo, rng_attr, _ = _split_rng(seed, 3)
    total = initial + events
    if total < n:
        raise ValueError("need initial+events >= n so the stream can "
                         "connect its terminals")
    s, t = _random_pair(rng_attr, n)
    stream = UpdateStream(kind="maxflow", n=n, m_max=total, s=s, t=t,
                          eps=0.25 if eps is None else float(eps))
    if mode == "phase-stress":
        # Grow the s-t cut capacity steadily so phases keep restarting.
        order: list[tuple[int, int]] = _spanning_order_edges(rng_topo, n)
        while len(order) < total:
            if rng_topo.uniform() < 0.6:
                order.append((s, t))
            else:
                order.append(_random_pair(rng_topo, n))
        order = order[:total]
    else:
        spine = _spanning_order_edges(rng_topo, n)
        extras = [_random_pair(rng_topo, n) for _ in range(total - len(spine))]
        order = spine + extras
        rng_topo.shuffle(order)
    specs = [EdgeSpec(u=u, v=v, cap=int(rng_attr.integers(1, cap_max + 1)))
             for u, v in order]
    stream.initial_edges = specs[:initial]
    stream.events = specs[initial:]
    return stream


def _generate_effres(mode: str, n: int, initial: int, events: int,
                     eps: float | None, seed: int) -> UpdateStream:
    rng_topo, rng_attr, rng_pick = _split_rng(seed, 3)
    total = initial + events
    if total < n:
        raise ValueError("need initial+events >= n so the stream can "
                         "connect its terminals")
    spine = _spanning_order_edges(rng_topo, n)
    extras = [_random_pair(rng_topo, n) for _ in range(total - len(spine))]
    order = spine + extras
    rng_topo.shuffle(order)
    s, t = _random_pair(rng_attr, n)
    specs = [EdgeSpec(u=u, v=v, r=float(rng_attr.uniform(0.5, 2.0)))
             for u, v in order]

    graph = IncrementalGraph(n)
    resistances: list[float] = []
    for spec in specs:
        graph.add_edge(spec.u, spec.v)
        resistances.append(spec.resistance())
    final = effective_resistance(graph, np.asarray(resistances), s, t)
    if mode == "planted-threshold":
        factor = float(rng_pick.uniform(1.1, 2.0))
    else:
        factor = float(rng_pick.uniform(0.7, 2.5))
    stream = UpdateStream(kind="effres", n=n, m_max=total, s=s, t=t,
                          threshold=float(final * factor),
                          eps=0.25 if eps is None else float(eps))
    stream.initial_edges = specs[:initial]
    stream.events = specs[initial:]
    return stream


def generate_stream(mode: str, kind: str, n: int, initial: int, events: int,
                    p: int = 2, eps: float | None = None, seed: int = 0,
                    cap_max: int = 8) -> UpdateStream:
    """Seeded stream generator.

    Modes: `random` (arbitrary verdict mixes), `planted-threshold` (pnorm
    and effres: the threshold is placed between consecutive prefix optima
    so the verdict flips mid-stream), `phase-stress` (maxflow: the s-t cut
    grows steadily to force phase restarts).
    """
    if mode not in GENERATOR_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if n < 2:
        raise ValueError("need at least two vertices")
    if initial < 0 or events < 0 or initial + events < 1:
        raise ValueError("need a nonempty edge sequence")
    if kind == "pnorm":
        if mode == "phase-stress":
            raise ValueError("phase-stress generates maxflow streams only")
        return _generate_pnorm(mode, n, initial, events, p, eps, seed)
    if kind == "maxflow":
        if mode == "planted-threshold":
            raise ValueError(
                "planted-threshold generates pnorm or effres streams")
        return _generate_maxflow(mode, n, initial, events, eps, seed, cap_max)
    if kind == "effres":
        if mode == "phase-stress":
            raise ValueError("phase-stress generates maxflow streams only")
        return _generate_effres(mode, n, initial, events, eps, seed)
    raise ValueError(f"unknown kind {kind!r}")
