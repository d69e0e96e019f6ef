"""The verdict checker passes right answers and flags wrong ones. With k
unit parallel edges the p-norm optimum is 2/k; the exact maxflows are 0, 2
and 6; the resistances are 1.2, 0.6, 0.6 (the third edge hangs off t) and
0.4, and a Below carries the unit s-t flow that splits evenly over the
parallel edges."""

import itertools

import numpy as np
import pytest

from pnormflow.check import stream_checker
from pnormflow.drivers import AboveThreshold, Below, event_calls
from pnormflow.refine import CertifiedAbove, Flow
from pnormflow.streams import parse_stream

PNORM = parse_stream("problem pnorm n=2 mmax=4 p=2 F=0.6 eps=0.05\n"
                     "demand 1 -1.0\ndemand 2 1.0\nedge 1 2\nstart\n"
                     "add 1 2\nadd 1 2\nadd 1 2\n")
MAXFLOW = parse_stream("problem maxflow n=3 mmax=4 s=1 t=3 eps=0.25\n"
                       "edge 1 2 cap=3\nstart\nadd 2 3 cap=2\n"
                       "add 1 3 cap=4\n")
EFFRES = parse_stream("problem effres n=3 mmax=4 s=1 t=2 theta=0.6 eps=0.1\n"
                      "edge 1 2 r=1.2\nstart\nadd 1 2 r=1.2\nadd 2 3\n"
                      "add 1 2 r=1.2\n")

PNORM_RIGHT = [CertifiedAbove(), CertifiedAbove(), CertifiedAbove(),
               Flow(np.full(4, 0.25), 0.5)]
MAXFLOW_RIGHT = [(0.0, np.zeros(1)), (2.0, np.array([2.0, 2.0])),
                 (6.0, np.array([2.0, 2.0, 4.0]))]
HALVES, THIRDS = np.array([0.5, 0.5]), np.array([1.0, 1.0, 0.0, 1.0]) / 3
EFFRES_RIGHT = [AboveThreshold(), AboveThreshold(), AboveThreshold(),
                Below(THIRDS, 0.4)]
# Vertex 2 hangs off one edge, so R_eff is its resistance 4467.6401480998875
# at every event, where a dense Laplacian solve reads 1.9e-7 relative too
# high; the driver's Below flows prove r_est.
HANGING = parse_stream(
    "problem effres n=6 mmax=8 s=1 t=2 theta=355885.76063979947 eps=0.1\n"
    "edge 6 1 r=7.489022596504872e-06\nedge 3 5 r=172.4275691434067\n"
    "edge 2 1 r=4467.6401480998875\nedge 5 1 r=0.0002090902247265589\n"
    "edge 4 3 r=3.045059297736134e-06\nedge 5 1 r=2.2414865236696406\n"
    "start\nadd 3 6 r=5.3082678361011555e-06\nadd 2 6 r=0.0466182944806196\n")

# Its optimum, 2.0e-4, routes over the light edges, far below F = 1; a
# forest that routes the demand over the heavy edge starts Newton at
# (w f)^p = 1e7^60, which overflows. Seed 23's forest does so in 4 of the
# 6 edge orders, and the solver's own forest in 4 of them too.
OVERFLOW_EDGES = ("edge 1 3 r=0.001 w=1000000", "edge 1 2 r=0.001 w=0.01",
                  "edge 2 3 r=0.001 w=0.01")
OVERFLOW_STREAMS = [
    "problem pnorm n=3 mmax=3 p=60 F=1.0 eps=0.001\n"
    "demand 1 -10\ndemand 3 10\n" + "\n".join(order) + "\nstart\n"
    for order in itertools.permutations(OVERFLOW_EDGES)]


def records(stream, answers):
    check = stream_checker(stream)
    return [check(index, answer) for index, answer in enumerate(answers)]


@pytest.mark.parametrize("stream, answers", [
    (PNORM, PNORM_RIGHT), (MAXFLOW, MAXFLOW_RIGHT), (EFFRES, EFFRES_RIGHT),
    (EFFRES, [AboveThreshold(), Below(HALVES, 0.6),
              Below(np.append(HALVES, 0.0), 0.6), Below(THIRDS, 0.4)]),
])
def test_right_answers_pass(stream, answers):
    assert all(record["ok"] is True for record in records(stream, answers))


def test_pnorm_records_name_the_oracle():
    got = records(PNORM, PNORM_RIGHT)
    assert [r["verdict"] for r in got] == ["CertifiedAbove"] * 3 + ["Flow"]
    assert [r["oracle"] for r in got] == pytest.approx([2.0, 1.0, 2 / 3, 0.5])


@pytest.mark.parametrize("stream, right, index, wrong", [
    # A Flow above F + eps.
    (PNORM, PNORM_RIGHT, 2, Flow(np.full(3, 1 / 3), 2 / 3)),
    # A Flow that routes only 3/4 of the demand.
    (PNORM, PNORM_RIGHT, 3, Flow(np.array([0.25, 0.25, 0.25, 0.0]), 0.375)),
    # A CertifiedAbove whose optimum, 0.5, is below F.
    (PNORM, PNORM_RIGHT, 3, CertifiedAbove()),
    # A value above the exact maxflow, though the flow routes it within
    # the routing slack, so only the value bound can catch it.
    (MAXFLOW, MAXFLOW_RIGHT, 2, (6.0 + 5e-7, np.array([2.0, 2.0, 4.0]))),
    # A value below (1 - eps) times the exact maxflow.
    (MAXFLOW, MAXFLOW_RIGHT, 2, (4.0, np.array([2.0, 2.0, 2.0]))),
    # A flow that routes 5, not its value 6.
    (MAXFLOW, MAXFLOW_RIGHT, 2, (6.0, np.array([2.0, 2.0, 3.0]))),
    # A flow of 3 over the capacity 2 of the second edge.
    (MAXFLOW, MAXFLOW_RIGHT, 2, (6.0, np.array([3.0, 3.0, 3.0]))),
    # A Below under the true resistance 0.6, so under its flow's energy.
    (EFFRES, EFFRES_RIGHT, 1, Below(HALVES, 0.59)),
    # A Below above theta (1 + eps).
    (EFFRES, EFFRES_RIGHT, 0, Below(np.ones(1), 1.2)),
    # An AboveThreshold while the resistance is below theta / (1 + eps).
    (EFFRES, EFFRES_RIGHT, 3, AboveThreshold()),
    # A Below whose flow routes only 3/4 of the unit, though r_est is the
    # true resistance and bounds the flow's energy.
    (EFFRES, EFFRES_RIGHT, 3, Below(THIRDS * 0.75, 0.4)),
    # A right Below whose flow does not prove it: its energy is 0.6.
    (EFFRES, EFFRES_RIGHT, 3, Below(np.append(HALVES, [0.0, 0.0]), 0.4)),
])
def test_wrong_answer_is_flagged(stream, right, index, wrong):
    answers = right[:index] + [wrong]
    got = records(stream, answers)
    assert all(record["ok"] for record in got[:index])
    assert got[index]["ok"] is False


def test_above_threshold_after_below_is_flagged():
    # At 0.6 the resistance sits inside (theta / (1 + eps), theta (1 + eps)],
    # so either verdict alone is right; only the order is wrong.
    got = records(EFFRES, [AboveThreshold(), Below(HALVES, 0.6),
                           AboveThreshold()])
    assert [r["ok"] for r in got] == [True, True, False]
    assert got[2]["oracle"] == pytest.approx(0.6)


def test_below_is_checked_by_its_flow():
    _, calls = event_calls(HANGING, seed=0)
    got = records(HANGING, [call() for call in calls])
    assert [r["verdict"] for r in got] == ["Below"] * 3
    assert all(record["ok"] is True for record in got)
    assert got[0]["oracle"] == pytest.approx(4467.6401480998875, rel=1e-12)


def test_events_must_come_in_order():
    check = stream_checker(EFFRES)
    check(2, AboveThreshold())
    with pytest.raises(ValueError, match="out of order"):
        check(1, AboveThreshold())


@pytest.mark.parametrize("text", OVERFLOW_STREAMS)
def test_above_against_an_overflowing_reference_is_flagged(text):
    """The reference solve starts again from the lightest forest when its
    first start overflows, so it reads the optimum, 2.0e-4, below F: a
    CertifiedAbove is wrong, and the right verdict is a Flow."""
    record = records(parse_stream(text), [CertifiedAbove()])[0]
    assert record["ok"] is False


def test_solver_finds_the_flow_under_an_overflowing_start():
    for text in OVERFLOW_STREAMS:
        _, calls = event_calls(parse_stream(text), seed=0)
        verdict = calls[0]()
        assert isinstance(verdict, Flow), text
        assert verdict.energy == pytest.approx(2.0e-4, rel=1e-6)


def test_solver_and_checker_agree_above_an_overflowing_start():
    # F below the optimum 2.0e-4: the right verdict is a CertifiedAbove,
    # which the checker proves by its own solve from an overflowing start.
    for text in OVERFLOW_STREAMS:
        stream = parse_stream(text.replace("F=1.0 eps=0.001",
                                           "F=0.00001 eps=0.0000001"))
        _, calls = event_calls(stream, seed=0)
        verdict = calls[0]()
        assert isinstance(verdict, CertifiedAbove), text
        record = records(stream, [verdict])[0]
        assert record["ok"] is True, text
        assert record["oracle"] == pytest.approx(2.0e-4, rel=1e-6)
