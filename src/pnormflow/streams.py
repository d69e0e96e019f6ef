"""Update-stream grammar, serialization, and seeded instance generators.

A stream is line-oriented UTF-8 text. The first meaningful line is a header;
its keys may come in any order, and print_stream writes them in this one:

    problem pnorm n=<int> mmax=<int> p=<int> F=<real> eps=<real>
    problem maxflow n=<int> mmax=<int> s=<vertex> t=<vertex> eps=<real>
    problem effres n=<int> mmax=<int> s=<vertex> t=<vertex> theta=<real> eps=<real>

with n, mmax >= 1, p >= 2, eps and theta positive and s != t. It is
followed by optional `demand <vertex> <real>` lines (pnorm only, at most one
per vertex), `edge <u> <v> [key=value ...]` lines for the initial graph, a
single `start` marker, and `add` lines (same attribute forms) for the
insertion events. Each kind takes its own edge keys, all optional, printed
in this order:

    pnorm    g=<real> r=<real> w=<real>   (defaults 0, 1, 1; r, w > 0)
    maxflow  cap=<int>                    (default 1; 1 <= cap <= 2^53)
    effres   r=<real>                     (default 1; r > 0)

`_GRAMMAR` holds these keys, and EdgeSpec's accessors the defaults. Reals
must be finite. `#` starts a comment; outside comments a stream is plain
ASCII without underscores, so every number reads back as print_stream
writes it. Vertices are 1-based in the text and 0-based on parsed objects.
Unknown directives, and edge keys that are not the stream kind's own, are
rejected with the offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StreamError
from .graph import DEMAND_SUM_RTOL, IncrementalGraph, PNormInstance
from .verify import effective_resistance, static_pnorm_opt

# The stream kinds each generator mode makes.
_MODE_KINDS = {"random": ("pnorm", "maxflow", "effres"),
               "planted-threshold": ("pnorm", "effres"),
               "phase-stress": ("maxflow",)}
GENERATOR_MODES = tuple(_MODE_KINDS)

# The maxflow driver computes in float64, which holds every integer up to
# 2^53 exactly and no larger capacity reliably.
MAX_CAPACITY = 2 ** 53


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


def _positive(token: str, lineno: int, key: str, read=_real):
    x = read(token, lineno, key)
    if x <= 0:
        raise StreamError(f"{key} must be positive, got {x}", lineno)
    return x


def _exponent(token: str, lineno: int, key: str) -> int:
    p = _integer(token, lineno, key)
    if p < 2:
        raise StreamError(f"p must be at least 2, got {p}", lineno)
    return p


def _capacity(token: str, lineno: int, key: str) -> int:
    cap = _integer(token, lineno, key)
    if cap < 1:
        raise StreamError(f"cap must be at least 1, got {cap}", lineno)
    if cap > MAX_CAPACITY:
        raise StreamError(
            f"cap must be at most 2^53 = {MAX_CAPACITY}, got {cap}", lineno)
    return cap


def _format_real(x: float) -> str:
    return repr(float(x))


# Per kind: the header keys after n and mmax, in printed order, each with
# the UpdateStream field it fills and its reader; then the edge keys, each
# with its reader, filling the EdgeSpec field of the same name.
_GRAMMAR = {
    "pnorm": ({"p": ("p", _exponent), "F": ("threshold", _real),
               "eps": ("eps", _positive)},
              {"g": _real, "r": _positive, "w": _positive}),
    "maxflow": ({"s": ("s", _vertex), "t": ("t", _vertex),
                 "eps": ("eps", _positive)},
                {"cap": _capacity}),
    "effres": ({"s": ("s", _vertex), "t": ("t", _vertex),
                "theta": ("threshold", _positive), "eps": ("eps", _positive)},
               {"r": _positive}),
}
# How print_stream writes a value back, by the reader that read it.
_SHOW = {_real: _format_real, _positive: _format_real, _exponent: str,
         _capacity: str, _vertex: lambda v: str(v + 1)}


def _keyvals(tokens: list[str], readers: dict, lineno: int) -> dict:
    """Each key=value token's value, read by its key's reader."""
    pairs: dict = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not key or not value:
            raise StreamError(f"expected key=value, got {token!r}", lineno)
        read = readers.get(key)
        if read is None:
            raise StreamError(f"unknown key {key!r}", lineno)
        if key in pairs:
            raise StreamError(f"duplicate key {key!r}", lineno)
        pairs[key] = read(value, lineno, key)
    return pairs


def _parse_header(fields: list[str], lineno: int) -> UpdateStream:
    if len(fields) < 2 or fields[1] not in _GRAMMAR:
        kinds = ", ".join(sorted(_GRAMMAR))
        raise StreamError(f"problem kind must be one of {kinds}", lineno)
    kind = fields[1]
    header = _GRAMMAR[kind][0]
    keys = ("n", "mmax", *header)
    # Text first: s and t are read once n is known.
    pairs = _keyvals(fields[2:], dict.fromkeys(keys, lambda token, *_: token),
                     lineno)
    missing = [k for k in keys if k not in pairs]
    if missing:
        raise StreamError(f"missing header keys: {', '.join(missing)}", lineno)
    n = _positive(pairs["n"], lineno, "n", _integer)
    m_max = _positive(pairs["mmax"], lineno, "mmax", _integer)
    stream = UpdateStream(kind=kind, n=n, m_max=m_max)
    for key, (name, read) in header.items():
        token = pairs[key]
        setattr(stream, name, _vertex(token, n, lineno) if read is _vertex
                else read(token, lineno, key))
    if stream.s is not None and stream.s == stream.t:
        raise StreamError("s and t must differ", lineno)
    return stream


def _parse_edge(fields: list[str], stream: UpdateStream,
                lineno: int) -> EdgeSpec:
    if len(fields) < 3:
        raise StreamError("edge lines need two endpoints", lineno)
    u = _vertex(fields[1], stream.n, lineno)
    v = _vertex(fields[2], stream.n, lineno)
    if u == v:
        raise StreamError(f"self-loop at vertex {u + 1} rejected", lineno)
    return EdgeSpec(u, v, **_keyvals(fields[3:], _GRAMMAR[stream.kind][1],
                                     lineno))


def _foreign(line: str) -> str:
    """The first token of a line holding an underscore or a non-ASCII
    character; Python's int and float would read `1_2` or an Arabic-Indic
    digit, which print_stream does not write back. When the character is
    whitespace between tokens, that character."""
    for token in line.split():
        if "_" in token or not token.isascii():
            return token
    return next(c for c in line if not c.isascii())


def parse_stream(text: str) -> UpdateStream:
    """Parse stream text; raises StreamError with the offending line."""
    stream: UpdateStream | None = None
    started = False
    # Zero demands are not stored, so duplicates are caught here.
    demand_seen: set[int] = set()
    # Only comments may hold underscores or non-ASCII characters, so lines
    # are screened only when the text holds some.
    screen = "_" in text or not text.isascii()
    # Lines end at "\n" only (str.splitlines also breaks at a lone "\r",
    # \v, \f, \x1c-\x1e, U+0085, U+2028 and U+2029); strip() drops the
    # "\r" of a CRLF ending.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        if screen and ("_" in line or not line.isascii()):
            raise StreamError(f"{_foreign(line)!r} is not plain ASCII "
                              f"without underscores", lineno)
        line = line.strip()
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
            if v in demand_seen:
                raise StreamError(f"duplicate demand for vertex {v + 1}",
                                  lineno)
            demand_seen.add(v)
            if x != 0.0:
                stream.demand[v] = x
        elif word in ("edge", "add"):
            if word == "edge" and started:
                raise StreamError(
                    "edge lines must precede start (use add)", lineno)
            if word == "add" and not started:
                raise StreamError("add lines must follow start", lineno)
            spec = _parse_edge(fields, stream, lineno)
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


def _format_edge(word: str, spec: EdgeSpec, readers: dict) -> str:
    parts = [word, str(spec.u + 1), str(spec.v + 1)]
    for key, read in readers.items():
        value = getattr(spec, key)
        if value is not None:
            parts.append(f"{key}={_SHOW[read](value)}")
    return " ".join(parts)


def print_stream(stream: UpdateStream) -> str:
    """Serialize a stream; parse_stream(print_stream(s)) reproduces s."""
    if stream.kind not in _GRAMMAR:
        raise ValueError(f"unknown stream kind {stream.kind!r}")
    header, readers = _GRAMMAR[stream.kind]
    words = [f"problem {stream.kind} n={stream.n} mmax={stream.m_max}"]
    words += [f"{key}={_SHOW[read](getattr(stream, name))}"
              for key, (name, read) in header.items()]
    lines = [" ".join(words)]
    for v in sorted(stream.demand):
        lines.append(f"demand {v + 1} {_format_real(stream.demand[v])}")
    lines += [_format_edge("edge", spec, readers)
              for spec in stream.initial_edges]
    lines.append("start")
    lines += [_format_edge("add", spec, readers) for spec in stream.events]
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


def _random_pair(rng: np.random.Generator, n: int) -> tuple[int, int]:
    u = int(rng.integers(n))
    v = int(rng.integers(n - 1))
    if v >= u:
        v += 1
    return u, v


def _edge_order(rng: np.random.Generator, n: int, total: int, mode: str,
                kind: str, terminals: tuple[int, int]) -> list[tuple[int, int]]:
    """`total` edges in insertion order: a random spanning path, so that
    all of them connect the vertex set, and random pairs, shuffled."""
    path = [int(v) for v in rng.permutation(n)]
    spine = list(zip(path[:-1], path[1:]))
    extra = total - len(spine)
    if mode == "phase-stress":
        # Grow the s-t cut capacity steadily so phases keep restarting.
        return spine + [terminals if rng.uniform() < 0.6
                        else _random_pair(rng, n) for _ in range(extra)]
    extras = [_random_pair(rng, n) for _ in range(extra)]
    if mode == "planted-threshold" and kind == "pnorm":
        # Keep the demand routable from the start so the crossing, not
        # connectivity, is what the stream exercises.
        rng.shuffle(extras)
        return spine + extras
    order = spine + extras
    rng.shuffle(order)
    return order


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
        report = static_pnorm_opt(instance, start_flow=flow, seed=seed)
        flow = report.flow
        return report.value

    values.append(solve())
    for u, v, g, r, w in events:
        instance.add_edge(u, v, g, r, w)
        values.append(solve())
    return values


def _pnorm_threshold(stream: UpdateStream, planted: bool,
                     rng_pick: np.random.Generator,
                     seed: int) -> tuple[float, float]:
    """Threshold F and default eps for a pnorm stream. Planted: midway
    through the largest drop between consecutive prefix optima, so the
    verdict flips there; random: anywhere around the optima's range. F is
    rounded to 12 significant digits, so the last bits of the optima do
    not reach the stream text."""
    optima = _prefix_optima(stream, seed)
    finite = [x for x in optima if math.isfinite(x)]
    final = finite[-1]
    span = max(abs(x) for x in finite) + 1.0
    if not planted:
        beta = float(rng_pick.uniform(-0.5, 1.5))
        threshold = _significant(
            final + beta * max(finite[0] - final, 0.2 * span))
        return threshold, 1e-3 * (1.0 + abs(threshold))
    best_j, best_drop = None, 0.0
    for j in range(1, len(optima)):
        if not (math.isfinite(optima[j - 1]) and math.isfinite(optima[j])):
            continue
        drop = (optima[j - 1] - optima[j]) / span
        if drop > best_drop:
            best_j, best_drop = j, drop
    if best_j is None or best_drop <= 1e-6:
        threshold = _significant(final + 0.1 * span)
        return threshold, 1e-3 * (1.0 + abs(threshold))
    high, low = optima[best_j - 1], optima[best_j]
    threshold = _significant(0.5 * (high + low))
    return threshold, min(0.25 * (high - threshold),
                          1e-3 * (1.0 + abs(threshold)))


def _significant(x: float) -> float:
    """x rounded to 12 significant digits."""
    return float(f"{x:.12g}")


def generate_stream(mode: str, kind: str, n: int, initial: int, events: int,
                    p: int = 2, eps: float | None = None, seed: int = 0,
                    cap_max: int = 8) -> UpdateStream:
    """Seeded stream generator.

    Modes: `random` (arbitrary verdict mixes), `planted-threshold` (pnorm
    and effres: the threshold is placed between consecutive prefix optima
    so the verdict flips mid-stream), `phase-stress` (maxflow: the s-t cut
    grows steadily to force phase restarts).
    """
    if mode not in _MODE_KINDS:
        raise ValueError(f"unknown mode {mode!r}")
    if n < 2:
        raise ValueError("need at least two vertices")
    if initial < 0 or events < 0 or initial + events < 1:
        raise ValueError("need a nonempty edge sequence")
    if kind not in _GRAMMAR:
        raise ValueError(f"unknown kind {kind!r}")
    if kind not in _MODE_KINDS[mode]:
        raise ValueError(
            f"{mode} generates {' or '.join(_MODE_KINDS[mode])} streams")
    if kind == "maxflow" and not 1 <= cap_max <= MAX_CAPACITY:
        raise ValueError(f"cap_max must be in [1, 2^53 = {MAX_CAPACITY}], "
                         f"got {cap_max}")
    total = initial + events
    if total < n:
        raise ValueError("need initial+events >= n so the stream can "
                         "connect its terminals")
    planted = mode == "planted-threshold"
    if planted and kind == "pnorm" and initial < n - 1:
        raise ValueError("planted-threshold needs initial >= n-1")

    rng_topo, rng_attr, rng_pick = _split_rng(seed, 3)
    stream = UpdateStream(kind=kind, n=n, m_max=total,
                          eps=0.25 if eps is None else float(eps))
    if kind == "pnorm":
        scale = float(rng_attr.uniform(0.5, 2.0))
    s, t = _random_pair(rng_attr, n)
    order = _edge_order(rng_topo, n, total, mode, kind, (s, t))
    if kind == "pnorm":
        # The threshold is placed once the edges are drawn.
        stream.p, stream.threshold = p, 0.0
        stream.demand = {s: -scale, t: scale}
        specs = [EdgeSpec(u=u, v=v, g=float(rng_attr.normal(0.0, 1.0)),
                          r=float(rng_attr.uniform(0.5, 2.0)),
                          w=float(rng_attr.uniform(0.5, 2.0)))
                 for u, v in order]
    elif kind == "maxflow":
        stream.s, stream.t = s, t
        specs = [EdgeSpec(u=u, v=v, cap=int(rng_attr.integers(1, cap_max + 1)))
                 for u, v in order]
    else:
        stream.s, stream.t = s, t
        specs = [EdgeSpec(u=u, v=v, r=float(rng_attr.uniform(0.5, 2.0)))
                 for u, v in order]
    stream.initial_edges, stream.events = specs[:initial], specs[initial:]

    if kind == "pnorm":
        threshold, default_eps = _pnorm_threshold(stream, planted, rng_pick,
                                                  seed)
        stream.threshold = float(threshold)
        if eps is None:
            stream.eps = float(default_eps)
    elif kind == "effres":
        graph = IncrementalGraph(n)
        for spec in specs:
            graph.add_edge(spec.u, spec.v)
        final = effective_resistance(
            graph, np.asarray([spec.r for spec in specs]), s, t)
        low, high = (1.1, 2.0) if planted else (0.7, 2.5)
        stream.threshold = float(final * rng_pick.uniform(low, high))
    return stream
