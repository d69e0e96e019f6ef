"""Tests for the update-stream grammar, serializer, and generators."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnormflow.errors import StreamError
from pnormflow.drivers import event_calls
from pnormflow.refine import CertifiedAbove, Flow
from pnormflow.streams import (
    EdgeSpec,
    GENERATOR_MODES,
    UpdateStream,
    build_pnorm_instance,
    generate_stream,
    parse_stream,
    print_stream,
)

PNORM_TEXT = """\
# a small threshold stream
problem pnorm n=3 mmax=4 p=2 F=1.5 eps=0.01
demand 1 -1.0
demand 3 1.0
edge 1 2 g=0.5 r=2.0 w=1.5
edge 2 3
start
add 1 3 r=0.5
add 1 3
"""

MAXFLOW_TEXT = """\
problem maxflow n=4 mmax=5 s=1 t=4 eps=0.25
edge 1 2 cap=3
edge 2 4 cap=2
start
add 1 3
add 3 4 cap=7
add 1 4 cap=1
"""

EFFRES_TEXT = """\
problem effres n=3 mmax=3 s=1 t=3 theta=0.8 eps=0.2
edge 1 2 r=1.5
start
add 2 3 r=0.5
add 1 3
"""


class TestParse:
    """Grammar coverage: accepted forms and rejected lines."""

    def test_pnorm_stream_fields(self):
        stream = parse_stream(PNORM_TEXT)
        assert stream.kind == "pnorm"
        assert (stream.n, stream.m_max, stream.p) == (3, 4, 2)
        assert stream.threshold == pytest.approx(1.5)
        assert stream.eps == pytest.approx(0.01)
        assert stream.demand == {0: -1.0, 2: 1.0}
        assert np.allclose(stream.demand_vector(), [-1.0, 0.0, 1.0])
        first = stream.initial_edges[0]
        assert (first.u, first.v) == (0, 1)
        assert (first.g, first.r, first.w) == (0.5, 2.0, 1.5)
        assert stream.initial_edges[1].pnorm_attrs() == (0.0, 1.0, 1.0)
        assert len(stream.events) == 2
        assert stream.events[0].r == 0.5

    def test_maxflow_stream_fields(self):
        stream = parse_stream(MAXFLOW_TEXT)
        assert stream.kind == "maxflow"
        assert (stream.s, stream.t) == (0, 3)
        assert [spec.capacity() for spec in stream.initial_edges] == [3, 2]
        assert [spec.capacity() for spec in stream.events] == [1, 7, 1]

    def test_effres_stream_fields(self):
        stream = parse_stream(EFFRES_TEXT)
        assert stream.kind == "effres"
        assert stream.threshold == pytest.approx(0.8)
        assert stream.initial_edges[0].resistance() == 1.5
        assert stream.events[1].resistance() == 1.0

    def test_comments_and_blank_lines_ignored(self):
        text = ("\n# leading comment\nproblem pnorm n=2 mmax=1 p=2 "
                "F=0.0 eps=0.1\n\nedge 1 2 # trailing_comment \u0663\n"
                "start\n")
        stream = parse_stream(text)
        assert len(stream.initial_edges) == 1

    @pytest.mark.parametrize("text, line, needle", [
        ("edge 1 2\nstart\n", 1, "header"),
        (PNORM_TEXT + "problem pnorm n=2 mmax=1 p=2 F=0 eps=1\n", 10,
         "duplicate problem"),
        (PNORM_TEXT + "start\n", 10, "duplicate start"),
        (PNORM_TEXT + "demand 2 0.0\n", 10, "precede start"),
        (MAXFLOW_TEXT.replace("edge 1 2 cap=3", "demand 1 1.0"), 2,
         "not valid"),
        (PNORM_TEXT.replace("edge 2 3", "edge 2 2"), 6, "self-loop"),
        (PNORM_TEXT.replace("edge 2 3", "edge 2 9"), 6, "out of range"),
        (PNORM_TEXT.replace("edge 2 3", "wedge 2 3"), 6, "unknown directive"),
        (PNORM_TEXT.replace("edge 2 3", "edge 2 3 q=1"), 6, "unknown key"),
        # Each kind takes only its own edge keys.
        (PNORM_TEXT.replace("edge 2 3", "edge 2 3 cap=3"), 6, "unknown key"),
        (MAXFLOW_TEXT.replace("cap=3", "r=5 w=2 g=1"), 2, "unknown key"),
        (EFFRES_TEXT.replace("r=1.5", "cap=7"), 2, "unknown key"),
        (EFFRES_TEXT.replace("r=1.5", "w=3"), 2, "unknown key"),
        # A zero demand is not stored but still counts for duplicates.
        (PNORM_TEXT.replace("demand 1 -1.0", "demand 1 0.0\ndemand 1 -1.0"),
         4, "duplicate demand"),
        (PNORM_TEXT.replace("edge 2 3", "edge 2 3 r=1 r=2"), 6, "duplicate"),
        (PNORM_TEXT.replace("edge 2 3", "edge 2 3 r=-1"), 6, "positive"),
        (PNORM_TEXT.replace("edge 2 3", "edge 2 3 r=abc"), 6, "real"),
        (MAXFLOW_TEXT.replace("cap=2", "cap=0"), 3, "at least 1"),
        (MAXFLOW_TEXT.replace("cap=2", "cap=1.5"), 3, "integer"),
        (PNORM_TEXT + "add 1 3\n", 10, "mmax exceeded"),
        (MAXFLOW_TEXT.replace("s=1 t=4", "s=2 t=2"), 1, "differ"),
        (PNORM_TEXT.replace("p=2", "p=1"), 2, "at least 2"),
        (PNORM_TEXT.replace("eps=0.01", "eps=0"), 2, "positive"),
        (EFFRES_TEXT.replace("theta=0.8", "theta=-1"), 1, "positive"),
        (PNORM_TEXT.replace("mmax=4", ""), 2, "missing header"),
        ("problem heat n=2 mmax=1\nstart\n", 1, "must be one of"),
        # Python's int and float read these; the grammar does not.
        (MAXFLOW_TEXT.replace("n=4", "n=1_2"), 1, "'n=1_2'"),
        (MAXFLOW_TEXT.replace("eps=0.25", "eps=2_5e-2"), 1, "'eps=2_5e-2'"),
        (MAXFLOW_TEXT.replace("edge 2 4", "edge 2 0_4"), 3, "'0_4'"),
        (MAXFLOW_TEXT.replace("cap=3", "cap=\u0663"), 2, "'cap=\u0663'"),
        (PNORM_TEXT.replace("r=0.5", "r=\uff10.5"), 8, "'r=\uff10.5'"),
        (PNORM_TEXT.replace("add 1 3\n", "add 1\u00a03\n"), 9,
         "'\\xa0'"),
        (PNORM_TEXT.replace("start", "start\u3000"), 7, "'\\u3000'"),
        # Only "\n" ends a line: a character str.splitlines also breaks at
        # stays inside its line, so the bad vertex on text line 4 is never
        # reached (nor counted as line 5).
        *((MAXFLOW_TEXT.replace("cap=3\n", "cap=3" + sep)
           .replace("add 1 3", "add 1 9"), 2, needle)
          for sep, needle in (("\u2028", "'\\u2028'"), ("\x85", "'\\x85'"),
                              ("\f", "key=value"), ("\x1e", "key=value"))),
    ])
    def test_rejected_lines_carry_line_numbers(self, text, line, needle):
        with pytest.raises(StreamError) as err:
            parse_stream(text)
        assert needle in str(err.value)
        assert err.value.line == line

    def test_crlf_line_endings_parse_alike(self):
        for text in (PNORM_TEXT, MAXFLOW_TEXT, EFFRES_TEXT):
            assert parse_stream(text.replace("\n", "\r\n")) \
                == parse_stream(text)

    def test_add_before_start_and_edge_after_start(self):
        with pytest.raises(StreamError, match="follow start"):
            parse_stream("problem pnorm n=2 mmax=2 p=2 F=0 eps=1\n"
                         "add 1 2\nstart\n")
        with pytest.raises(StreamError, match="precede start"):
            parse_stream("problem pnorm n=2 mmax=2 p=2 F=0 eps=1\n"
                         "start\nedge 1 2\n")

    def test_missing_start_and_empty_stream(self):
        with pytest.raises(StreamError, match="missing start"):
            parse_stream("problem pnorm n=2 mmax=1 p=2 F=0 eps=1\nedge 1 2\n")
        with pytest.raises(StreamError, match="empty stream"):
            parse_stream("# only a comment\n")

    def test_unbalanced_demand_rejected(self):
        text = ("problem pnorm n=2 mmax=1 p=2 F=0 eps=1\n"
                "demand 1 1.0\nedge 1 2\nstart\n")
        with pytest.raises(StreamError, match="sum"):
            parse_stream(text)

    def test_zero_demand_lines_are_dropped(self):
        text = ("problem pnorm n=2 mmax=1 p=2 F=0 eps=1\n"
                "demand 1 0.0\nedge 1 2\nstart\n")
        assert parse_stream(text).demand == {}


class TestPrint:
    """Serialization mirrors the grammar exactly."""

    def test_round_trip_hand_streams(self):
        for text in (PNORM_TEXT, MAXFLOW_TEXT, EFFRES_TEXT):
            stream = parse_stream(text)
            assert parse_stream(print_stream(stream)) == stream

    def test_header_and_ids_are_one_based(self):
        stream = parse_stream(EFFRES_TEXT)
        out = print_stream(stream)
        lines = out.splitlines()
        assert lines[0].startswith("problem effres n=3 mmax=3 s=1 t=3")
        assert lines[1] == "edge 1 2 r=1.5"
        assert "start" in lines
        assert lines[-1] == "add 1 3"

    def test_print_is_idempotent(self):
        stream = parse_stream(PNORM_TEXT)
        once = print_stream(stream)
        assert print_stream(parse_stream(once)) == once


class TestBuildPNormInstance:
    def test_defaults_and_events(self):
        stream = parse_stream(PNORM_TEXT)
        instance, events = build_pnorm_instance(stream)
        assert instance.m == 2
        assert instance.p == 2
        assert instance.threshold == pytest.approx(1.5)
        assert np.allclose(instance.d, [-1.0, 0.0, 1.0])
        assert np.allclose(instance.g, [0.5, 0.0])
        assert np.allclose(instance.r, [2.0, 1.0])
        assert np.allclose(instance.w, [1.5, 1.0])
        assert events == [(0, 2, 0.0, 0.5, 1.0), (0, 2, 0.0, 1.0, 1.0)]

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            build_pnorm_instance(parse_stream(MAXFLOW_TEXT))


class TestGenerate:
    """Seeded generators: determinism, validity, mode constraints."""

    @pytest.mark.parametrize("mode, kind", [
        ("random", "pnorm"), ("random", "maxflow"), ("random", "effres"),
        ("planted-threshold", "pnorm"), ("planted-threshold", "effres"),
        ("phase-stress", "maxflow"),
    ])
    def test_streams_parse_and_round_trip(self, mode, kind):
        stream = generate_stream(mode, kind, n=5, initial=4, events=6,
                                 seed=11)
        text = print_stream(stream)
        assert parse_stream(text) == stream
        assert len(stream.initial_edges) == 4
        assert len(stream.events) == 6

    @pytest.mark.parametrize("mode, kind, digest", [
        ("random", "pnorm", "fea52c9845986b82"),
        ("random", "maxflow", "8ff2a00e625a5519"),
        ("random", "effres", "104a07d82c2186e3"),
        ("planted-threshold", "pnorm", "818d3a5dc4e7452d"),
        ("planted-threshold", "effres", "e6754181add2100f"),
        ("phase-stress", "maxflow", "9cca46ca08380768"),
    ])
    def test_generated_streams_are_byte_stable(self, mode, kind, digest):
        """perfbench builds its streams with generate_stream, so a change
        in draw order, edge order or formatting must show up here. The
        pnorm and effres thresholds come from numerical solves, so another
        numpy or scipy build may move their last digits."""
        h = hashlib.sha256()
        for seed in range(3):
            for n, initial, events in ((5, 4, 6), (12, 11, 16)):
                stream = generate_stream(mode, kind, n=n, initial=initial,
                                         events=events, seed=seed)
                h.update(print_stream(stream).encode())
        assert h.hexdigest()[:16] == digest

    def test_same_seed_is_byte_identical(self):
        a = generate_stream("random", "pnorm", n=6, initial=5, events=5,
                            seed=42)
        b = generate_stream("random", "pnorm", n=6, initial=5, events=5,
                            seed=42)
        assert print_stream(a) == print_stream(b)

    def test_different_seeds_differ(self):
        texts = {print_stream(generate_stream("random", "effres", n=5,
                                              initial=4, events=4, seed=s))
                 for s in range(6)}
        assert len(texts) > 1

    @pytest.mark.parametrize("mode, kind", [
        ("phase-stress", "pnorm"), ("phase-stress", "effres"),
        ("planted-threshold", "maxflow"),
    ])
    def test_incompatible_mode_kind_rejected(self, mode, kind):
        with pytest.raises(ValueError):
            generate_stream(mode, kind, n=5, initial=4, events=6, seed=0)

    def test_too_few_edges_rejected(self):
        with pytest.raises(ValueError, match="initial\\+events"):
            generate_stream("random", "pnorm", n=8, initial=2, events=2,
                            seed=0)
        with pytest.raises(ValueError):
            generate_stream("random", "pnorm", n=2, initial=0, events=0,
                            seed=0)
        with pytest.raises(ValueError):
            generate_stream("random", "pnorm", n=1, initial=2, events=2,
                            seed=0)
        with pytest.raises(ValueError, match="mode"):
            generate_stream("spiral", "pnorm", n=4, initial=4, events=4,
                            seed=0)

    def test_maxflow_caps_respect_bound(self):
        stream = generate_stream("random", "maxflow", n=5, initial=5,
                                 events=5, seed=3, cap_max=4)
        caps = [spec.capacity()
                for spec in stream.initial_edges + stream.events]
        assert all(1 <= cap <= 4 for cap in caps)
        assert stream.s != stream.t

    def test_effres_resistances_positive(self):
        stream = generate_stream("planted-threshold", "effres", n=5,
                                 initial=4, events=5, seed=9)
        for spec in stream.initial_edges + stream.events:
            assert spec.resistance() > 0
        assert stream.threshold > 0

    def test_planted_pnorm_flips_the_verdict(self):
        flipped = 0
        for seed in range(4):
            stream = generate_stream("planted-threshold", "pnorm", n=5,
                                     initial=4, events=6, seed=seed)
            _, calls = event_calls(stream, seed=1)
            verdicts = [call() for call in calls]
            kinds = [type(v).__name__ for v in verdicts]
            if "CertifiedAbove" in kinds and kinds[-1] == "Flow":
                flipped += 1
        assert flipped >= 2

    def test_phase_stress_grows_the_cut(self):
        stream = generate_stream("phase-stress", "maxflow", n=5, initial=4,
                                 events=20, seed=5)
        direct = sum(1 for spec in stream.events
                     if {spec.u, spec.v} == {stream.s, stream.t})
        assert direct >= 5
