"""Tests for the command-line interface: exit codes, metrics, round trips."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pnormflow
import pnormflow.cli as cli_module
from pnormflow.cli import (EXIT_BROKEN_PIPE, EXIT_FAILURE, EXIT_OK,
                           EXIT_USAGE, main)
from pnormflow.streams import generate_stream, parse_stream, print_stream
from pnormflow.verify import OracleReport

PNORM_TEXT = """\
problem pnorm n=2 mmax=4 p=2 F=0.6 eps=0.05
demand 1 -1.0
demand 2 1.0
edge 1 2
start
add 1 2
add 1 2
add 1 2
"""

MAXFLOW_TEXT = """\
problem maxflow n=3 mmax=4 s=1 t=3 eps=0.25
edge 1 2 cap=3
start
add 2 3 cap=2
add 1 3 cap=4
"""

EFFRES_TEXT = """\
problem effres n=2 mmax=3 s=1 t=2 theta=0.6 eps=0.1
edge 1 2
start
add 1 2
add 1 2
"""

# s and t join at event 1 (start is event 0).
LATE_MAXFLOW_TEXT = """\
problem maxflow n=4 mmax=8 s=1 t=4 eps=0.25
edge 1 2 cap=1
edge 3 4 cap=1
start
add 2 3 cap=2
add 1 2 cap=8
add 3 4 cap=8
add 2 3 cap=8
add 1 3 cap=16
add 2 4 cap=16
"""

METRIC_KEYS = ["event", "verdict", "objective", "queries", "iterations",
               "wall_ms"]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_lines(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out.splitlines()


def strip_wall(lines):
    return ["\x20".join(tok for tok in line.split()
                        if not tok.startswith("wall_ms="))
            for line in lines]


class TestRunCommands:
    def test_pnorm_metrics_shape_and_verdicts(self, tmp_path, capsys):
        path = write(tmp_path, "a.stream", PNORM_TEXT)
        code, lines = run_lines(capsys, ["pnorm", path, "--seed", "1"])
        assert code == EXIT_OK
        assert len(lines) == 4
        for index, line in enumerate(lines):
            keys = [tok.split("=", 1)[0] for tok in line.split()]
            assert keys == METRIC_KEYS
            assert line.startswith(f"event={index} ")
        verdicts = [line.split()[1] for line in lines]
        assert verdicts[0] == "verdict=CertifiedAbove"
        assert verdicts[-1] == "verdict=Flow"

    def test_pnorm_json_mode(self, tmp_path, capsys):
        path = write(tmp_path, "a.stream", PNORM_TEXT)
        code, lines = run_lines(capsys, ["pnorm", path, "--json"])
        assert code == EXIT_OK
        records = [json.loads(line) for line in lines]
        assert [list(r.keys()) for r in records] == [METRIC_KEYS] * 4
        assert records[0]["objective"] == math.inf
        assert records[-1]["verdict"] == "Flow"
        assert records[-1]["objective"] <= 0.6 + 0.05 + 1e-9

    def test_metrics_deterministic_except_wall_time(self, tmp_path, capsys):
        path = write(tmp_path, "a.stream", PNORM_TEXT)
        _, first = run_lines(capsys, ["pnorm", path, "--seed", "5"])
        _, second = run_lines(capsys, ["pnorm", path, "--seed", "5"])
        assert strip_wall(first) == strip_wall(second)
        _, other = run_lines(capsys, ["pnorm", path, "--seed", "6"])
        assert len(other) == len(first)

    def test_maxflow_publishes_monotone_values(self, tmp_path, capsys):
        path = write(tmp_path, "m.stream", MAXFLOW_TEXT)
        code, lines = run_lines(capsys, ["maxflow", path, "--json"])
        assert code == EXIT_OK
        records = [json.loads(line) for line in lines]
        assert all(r["verdict"] == "Published" for r in records)
        values = [r["objective"] for r in records]
        assert values[0] == 0.0
        assert values == sorted(values)
        assert values[-1] >= (1 - 0.25) * 6.0

    def test_effres_crosses_to_below(self, tmp_path, capsys):
        path = write(tmp_path, "e.stream", EFFRES_TEXT)
        code, lines = run_lines(capsys, ["effres", path, "--json"])
        assert code == EXIT_OK
        records = [json.loads(line) for line in lines]
        assert records[0]["verdict"] == "AboveThreshold"
        assert records[-1]["verdict"] == "Below"
        r_est = records[-1]["objective"]
        assert r_est == pytest.approx(0.5, rel=1e-3)
        # The contract band: at least R_eff = 1/3, at most theta (1 + eps).
        assert 1 / 3 <= r_est <= 0.6 * 1.1

    def test_invariants_checked_without_flags(self, tmp_path, capsys,
                                              monkeypatch):
        # A potential tolerance no step can meet must fail a plain run.
        monkeypatch.setattr("pnormflow.mwu.POTENTIAL_RTOL", -2.0)
        path = write(tmp_path, "a.stream", PNORM_TEXT)
        code = main(["pnorm", path])
        assert code == EXIT_FAILURE
        assert "invariant failure" in capsys.readouterr().err

    def test_trace_writes_json_lines(self, tmp_path, capsys):
        stream = write(tmp_path, "a.stream", PNORM_TEXT)
        trace = tmp_path / "trace.jsonl"
        code = main(["pnorm", stream, "--trace", str(trace)])
        capsys.readouterr()
        assert code == EXIT_OK
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert len(records) >= 4
        kinds = {r["kind"] for r in records}
        assert "verdict" in kinds

    @staticmethod
    def joined_maxflow_trace(tmp_path, capsys, text):
        """Run `maxflow --json --trace` on the stream text and check that
        each metrics line joins the last verdict record of its event: the
        record's `event` is the line's plus one, and it carries the
        counters the line shows. Returns (metrics, verdict records)."""
        path = write(tmp_path, "m.stream", text)
        trace = tmp_path / "trace.jsonl"
        code, lines = run_lines(
            capsys, ["maxflow", path, "--json", "--trace", str(trace)])
        assert code == EXIT_OK
        metrics = [json.loads(line) for line in lines]
        verdicts = [r for r in map(json.loads, trace.read_text().splitlines())
                    if r["kind"] == "verdict"]
        last = {r["event"]: r for r in verdicts}
        assert sorted(last) == [m["event"] + 1 for m in metrics]
        for m in metrics:
            record = last[m["event"] + 1]
            assert (record["queries"], record["iterations"]) == (
                m["queries"], m["iterations"])
        return metrics, verdicts

    def test_maxflow_trace_joins_stream_events(self, tmp_path, capsys):
        """Verdict records of every phase carry the driver's event count
        and driver-wide counters, so they run in step with the metrics
        lines across phase restarts."""
        stream = generate_stream("phase-stress", "maxflow", 12, 11, 36,
                                 seed=2)
        metrics, verdicts = self.joined_maxflow_trace(
            tmp_path, capsys, print_stream(stream))
        # Phase restarts within an event add records for that event.
        assert len(verdicts) > len(metrics)
        for key in ("event", "queries", "iterations"):
            values = [r[key] for r in verdicts]
            assert values == sorted(values), key

    def test_maxflow_trace_has_a_verdict_record_per_event(self, tmp_path,
                                                          capsys):
        """s and t join at event 1: the events before the first phase have
        their solver's zero-demand verdict records too, so every metrics
        line joins the last record of its event."""
        metrics, _ = self.joined_maxflow_trace(tmp_path, capsys,
                                               LATE_MAXFLOW_TEXT)
        assert len(metrics) == 7

    def test_stdin_stream(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(EFFRES_TEXT))
        code, lines = run_lines(capsys, ["effres", "-"])
        assert code == EXIT_OK
        assert len(lines) == 3

    def test_event_budget_flag(self, tmp_path, capsys):
        path = write(tmp_path, "a.stream", PNORM_TEXT)
        code, lines = run_lines(capsys, ["pnorm", path, "--event-budget", "1"])
        assert code == EXIT_OK
        assert lines[-1].split()[1] == "verdict=Flow"

    def test_event_budget_below_one_is_usage(self, tmp_path, capsys):
        # Vertex 3 is isolated, so the demand is never routable and every
        # event would return at once, whatever the budget.
        path = write(tmp_path, "a.stream",
                     "problem pnorm n=3 mmax=2 p=2 F=1.0 eps=0.1\n"
                     "demand 1 -1.0\ndemand 3 1.0\nedge 1 2\nstart\n"
                     "add 1 2\n")
        assert main(["pnorm", path, "--event-budget", "0"]) == EXIT_USAGE
        assert "at least 1" in capsys.readouterr().err


class TestVerify:
    @pytest.mark.parametrize("mode, kind, initial, events", [
        ("planted-threshold", "effres", 39, 30),
        ("random", "pnorm", 45, 10),
        ("phase-stress", "maxflow", 39, 60),
    ])
    def test_verify_accepts_sound_runs(self, tmp_path, capsys, mode, kind,
                                       initial, events):
        # n = 40: verify has no size cap.
        stream = generate_stream(mode, kind, 40, initial, events, p=3, seed=4)
        path = write(tmp_path, "s.stream", print_stream(stream))
        code, lines = run_lines(capsys, ["verify", path, "--json"])
        assert code == EXIT_OK
        assert len(lines) == events + 1
        assert all(json.loads(line)["ok"] is True for line in lines)

    def test_verify_caps_total_maxflow_capacity(self, tmp_path, capsys):
        # scipy's maxflow reads 0 on this edge, so verify must refuse the
        # stream rather than report a correct run as failed.
        text = ("problem maxflow n=2 mmax=2 s=1 t=2 eps=0.25\n"
                "edge 1 2 cap=3000000000\nstart\n")
        path = write(tmp_path, "huge.stream", text)
        assert main(["verify", path]) == EXIT_USAGE
        assert "total capacity <= 2147483647" in capsys.readouterr().err
        assert main(["maxflow", path, "--json"]) == EXIT_OK
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line)["objective"] == 3000000000.0

    def test_verify_flags_disagreement(self, tmp_path, capsys, monkeypatch):
        # A lying static oracle makes every CertifiedAbove look unsound,
        # which must surface as the failure exit code.
        path = write(tmp_path, "p.stream", PNORM_TEXT)

        def lying_opt(instance, **kwargs):
            import numpy as np
            return OracleReport(value=-1e9, flow=np.zeros(instance.m),
                                iterations=0, gradient_norm=0.0)

        monkeypatch.setattr("pnormflow.check.static_pnorm_opt", lying_opt)
        code = main(["verify", path])
        capsys.readouterr()
        assert code == EXIT_FAILURE


class TestReadmeExample:
    """README's command-line example prints what README shows."""

    def test_gen_pnorm_verify(self, tmp_path, capsys):
        path = str(tmp_path / "stream.txt")
        assert main(["gen", "--mode", "planted-threshold", "--kind", "pnorm",
                     "--n", "6", "--initial", "7", "--events", "5", "--p",
                     "2", "--seed", "3", "--out", path]) == EXIT_OK
        with open(path, encoding="utf-8") as f:
            assert f.readline().rstrip("\n") == (
                "problem pnorm n=6 mmax=12 p=2 F=11.7972486154 "
                "eps=0.012797248615399999")
        code, lines = run_lines(capsys, ["pnorm", path, "--json"])
        assert code == EXIT_OK
        runs = [json.loads(line) for line in lines]
        assert [(r["verdict"], r["queries"], r["iterations"])
                for r in runs[3:5]] == [("CertifiedAbove", 14404, 14400),
                                        ("Flow", 19204, 19200)]
        assert runs[3]["objective"] == math.inf
        assert math.isclose(runs[4]["objective"], 10.1766462354932,
                            rel_tol=1e-12)
        code, lines = run_lines(capsys, ["verify", path, "--json"])
        assert code == EXIT_OK
        checks = [json.loads(line) for line in lines]
        assert [(c["verdict"], c["ok"]) for c in checks[3:5]] == [
            ("CertifiedAbove", True), ("Flow", True)]
        for check, oracle in zip(checks[3:5],
                                 (13.417850995280263, 10.1766462354932)):
            assert math.isclose(check["oracle"], oracle, rel_tol=1e-12)


class TestGen:
    def test_gen_writes_parseable_stream(self, tmp_path, capsys):
        out = tmp_path / "gen.stream"
        code = main(["gen", "--kind", "maxflow", "--n", "5", "--initial",
                     "4", "--events", "6", "--seed", "9", "--out", str(out)])
        capsys.readouterr()
        assert code == EXIT_OK
        stream = parse_stream(out.read_text())
        assert stream.kind == "maxflow"
        assert len(stream.events) == 6

    def test_gen_stdout_and_determinism(self, capsys):
        argv = ["gen", "--kind", "pnorm", "--n", "4", "--initial", "3",
                "--events", "3", "--seed", "4"]
        code = main(argv)
        first = capsys.readouterr().out
        assert code == EXIT_OK
        main(argv)
        assert capsys.readouterr().out == first
        assert parse_stream(first).kind == "pnorm"

    @pytest.mark.parametrize("cap_max", [0, 2 ** 53 + 1])
    def test_gen_cap_max_outside_the_parsed_range_is_usage(self, capsys,
                                                           cap_max):
        code = main(["gen", "--kind", "maxflow", "--n", "4", "--initial",
                     "3", "--events", "2", "--cap-max", str(cap_max)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "cap_max must be in [1, 2^53" in captured.err

    def test_gen_incompatible_mode_is_usage_error(self, capsys):
        code = main(["gen", "--kind", "pnorm", "--mode", "phase-stress",
                     "--n", "4", "--initial", "3", "--events", "3"])
        capsys.readouterr()
        assert code == EXIT_USAGE


class TestExitCodes:
    def test_missing_file_is_usage(self, capsys):
        assert main(["pnorm", "/no/such/file"]) == EXIT_USAGE
        assert "pnormflow:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["pnorm", "{dir}"],
        ["maxflow", "{stream}", "--trace", "{dir}"],
        ["gen", "--kind", "pnorm", "--n", "4", "--initial", "3",
         "--events", "3", "--out", "{dir}"],
    ], ids=["stream", "trace", "out"])
    def test_directory_path_is_usage(self, tmp_path, capsys, argv):
        stream = write(tmp_path, "s.stream", MAXFLOW_TEXT)
        argv = [arg.format(dir=tmp_path, stream=stream) for arg in argv]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("pnormflow: ")

    @pytest.mark.parametrize("command", ["maxflow", "verify"])
    def test_closed_stdout_is_not_an_input_error(self, tmp_path, command):
        # The pipe's read end is closed before the run starts, as after
        # `| head -1` has read its line, so the first write fails.
        path = write(tmp_path, "s.stream", MAXFLOW_TEXT)
        src = str(Path(pnormflow.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pnormflow.cli", command, path,
                 "--json"], stdout=write_end, stderr=subprocess.PIPE,
                env=env, timeout=120)
        finally:
            os.close(write_end)
        assert done.returncode == EXIT_BROKEN_PIPE == 141
        assert done.stderr == b""

    def test_broken_pipe_on_a_trace_path_is_an_input_error(
            self, tmp_path, capsys, monkeypatch):
        # A --trace or --out path can be a FIFO whose reader left; only a
        # closed standard output exits 141.
        @contextlib.contextmanager
        def broken_sink(path):
            raise BrokenPipeError(32, "Broken pipe")
            yield

        monkeypatch.setattr(cli_module, "_trace_sink", broken_sink)
        path = write(tmp_path, "s.stream", MAXFLOW_TEXT)
        argv = ["maxflow", path, "--trace", str(tmp_path / "fifo")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "pnormflow: [Errno 32] Broken pipe\n"

    def test_parse_error_is_usage(self, tmp_path, capsys):
        path = write(tmp_path, "bad.stream", "problem pnorm nope\n")
        assert main(["pnorm", path]) == EXIT_USAGE
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", [2 ** 62, 2 ** 63, 10 ** 400],
                             ids=["2^62", "2^63", "10^400"])
    def test_capacity_above_two_to_the_53_is_usage(self, tmp_path, capsys,
                                                    cap):
        path = write(tmp_path, "m.stream",
                     "problem maxflow n=3 mmax=3 s=1 t=3 eps=0.25\n"
                     f"edge 1 2 cap={cap}\nedge 2 3 cap={cap}\nstart\n")
        assert main(["maxflow", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2" in captured.err
        assert "at most 2^53 = 9007199254740992" in captured.err

    def test_capacity_two_to_the_53_publishes_exactly(self, tmp_path,
                                                       capsys):
        cap = 2 ** 53
        path = write(tmp_path, "m.stream",
                     "problem maxflow n=3 mmax=3 s=1 t=3 eps=0.25\n"
                     f"edge 1 2 cap={cap}\nedge 2 3 cap={cap}\nstart\n")
        code, lines = run_lines(capsys, ["maxflow", path, "--json"])
        assert code == EXIT_OK
        (line,) = lines
        assert json.loads(line)["objective"] == float(cap)

    # Each overflow is an OracleError: a solver failure, also exit 2. At
    # r = 1e160 the inner run's lengths K^(q-2) r^2 a overflow, which would
    # make every arc cost infinite and fake a stall (AboveThreshold,
    # although the last insertion brings R_eff to about 1e-200).
    @pytest.mark.parametrize("command, text, message", [
        ("pnorm", "problem pnorm n=3 mmax=3 p=2 F=0 eps=1\n"
                  "demand 1 -1e300\ndemand 3 1e300\n"
                  "edge 1 2\nedge 2 3\nstart\nadd 1 3\n",
         "energy of the start flow overflows"),
        ("effres", "problem effres n=2 mmax=3 s=1 t=2 theta=1e-100 eps=0.1\n"
                   "edge 1 2 r=1e160\nstart\nadd 1 2 r=1e-200\n",
         "a scaled edge length overflows")])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_solver_failure_is_not_an_invariant_failure(
            self, tmp_path, capsys, command, text, message):
        path = write(tmp_path, "p.stream", text)
        assert main([command, path]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith(f"pnormflow: solver failure: {message}")
        assert "invariant" not in err

    # Newton stops on its decrement, in energy units, so materializations
    # at large capacities run to the optimum and resolve the event.
    @pytest.mark.parametrize("cap", [3 * 10 ** 7, 10 ** 8, 10 ** 9])
    def test_large_capacities_resolve(self, tmp_path, capsys, cap):
        path = write(tmp_path, "m.stream",
                     "problem maxflow n=3 mmax=48 s=1 t=3 eps=0.25\n"
                     f"edge 1 2 cap={cap}\nedge 2 3 cap={cap}\nstart\n"
                     f"add 1 3 cap=1\nadd 1 3 cap={cap}\n")
        code, lines = run_lines(capsys, ["maxflow", path, "--json"])
        assert code == EXIT_OK
        assert json.loads(lines[-1])["objective"] == 2.0 * cap + 1

    def test_kind_mismatch_is_usage(self, tmp_path, capsys):
        path = write(tmp_path, "m.stream", MAXFLOW_TEXT)
        assert main(["pnorm", path]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_command_exits_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_missing_required_gen_flag_exits_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--n", "4", "--initial", "3", "--events", "3"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()
