"""Tests for the command-line interface: exit codes, metrics, round trips."""

import io
import json
import math

import pytest

from pnormflow.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from pnormflow.streams import parse_stream
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
        assert records[-1]["objective"] == pytest.approx(1 / 3, rel=1e-3)

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

    def test_stdin_stream(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(EFFRES_TEXT))
        code, lines = run_lines(capsys, ["effres", "-"])
        assert code == EXIT_OK
        assert len(lines) == 3

    def test_trees_backend_runs(self, tmp_path, capsys):
        path = write(tmp_path, "a.stream", PNORM_TEXT)
        code, lines = run_lines(
            capsys, ["pnorm", path, "--backend", "trees", "--kappa", "4",
                     "--seed", "2", "--assert-invariants"])
        assert code == EXIT_OK
        assert len(lines) == 4

    def test_event_budget_flag(self, tmp_path, capsys):
        path = write(tmp_path, "a.stream", PNORM_TEXT)
        code, lines = run_lines(capsys, ["pnorm", path, "--event-budget", "1"])
        assert code == EXIT_OK
        assert lines[-1].split()[1] == "verdict=Flow"


class TestVerify:
    @pytest.mark.parametrize("name, text", [
        ("p.stream", PNORM_TEXT), ("m.stream", MAXFLOW_TEXT),
        ("e.stream", EFFRES_TEXT),
    ])
    def test_verify_accepts_sound_runs(self, tmp_path, capsys, name, text):
        path = write(tmp_path, name, text)
        code, lines = run_lines(capsys, ["verify", path, "--json"])
        assert code == EXIT_OK
        assert all(json.loads(line)["ok"] for line in lines)

    def test_verify_caps_instance_size(self, tmp_path, capsys):
        big = ("problem pnorm n=40 mmax=2 p=2 F=0.0 eps=0.1\n"
               "edge 1 2\nstart\nadd 1 2\n")
        path = write(tmp_path, "big.stream", big)
        assert main(["verify", path]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "n <= 32" in err

    def test_verify_flags_disagreement(self, tmp_path, capsys, monkeypatch):
        # A lying static oracle makes every CertifiedAbove look unsound,
        # which must surface as the failure exit code.
        path = write(tmp_path, "p.stream", PNORM_TEXT)

        def lying_opt(instance, **kwargs):
            import numpy as np
            return OracleReport(value=-1e9, flow=np.zeros(instance.m),
                                iterations=0, gradient_norm=0.0)

        monkeypatch.setattr("pnormflow.cli.static_pnorm_opt", lying_opt)
        code = main(["verify", path])
        capsys.readouterr()
        assert code == EXIT_FAILURE


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

    def test_gen_incompatible_mode_is_usage_error(self, capsys):
        code = main(["gen", "--kind", "pnorm", "--mode", "phase-stress",
                     "--n", "4", "--initial", "3", "--events", "3"])
        capsys.readouterr()
        assert code == EXIT_USAGE


class TestExitCodes:
    def test_missing_file_is_usage(self, capsys):
        assert main(["pnorm", "/no/such/file"]) == EXIT_USAGE
        assert "pnormflow:" in capsys.readouterr().err

    def test_parse_error_is_usage(self, tmp_path, capsys):
        path = write(tmp_path, "bad.stream", "problem pnorm nope\n")
        assert main(["pnorm", path]) == EXIT_USAGE
        assert "line 1" in capsys.readouterr().err

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
