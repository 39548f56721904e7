"""``repro serve`` CLI: flag validation and the ``--loadgen`` run.

Every input-validation failure follows the repo's CLI error convention:
exit status 2 and one compiler-style ``repro/cli.py:NNN: error: ...``
line on stderr — never a traceback.
"""

import json
import re

import pytest

from repro.cli import main

ERROR_LINE = re.compile(r"^repro/cli\.py:\d+: error: ", re.MULTILINE)


def assert_cli_error(capsys, argv, fragment):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert ERROR_LINE.search(err), f"no file:line error prefix in {err!r}"
    assert fragment in err


class TestValidation:
    def test_zero_nodes_rejected(self, capsys):
        assert_cli_error(capsys, ["serve", "--nodes", "0"], "--nodes")

    def test_port_out_of_range(self, capsys):
        assert_cli_error(capsys, ["serve", "--port", "70000"], "--port")

    def test_socket_and_port_conflict(self, capsys):
        assert_cli_error(
            capsys,
            ["serve", "--socket", "/tmp/x.sock", "--port", "7077"],
            "mutually exclusive",
        )

    @pytest.mark.parametrize(
        "endpoint", [["--port", "7077"], ["--socket", "/tmp/x.sock"]]
    )
    def test_loadgen_refuses_an_endpoint(self, endpoint, capsys):
        # The daemon under --loadgen listens on a private socket.
        assert main(["serve", "--loadgen", "100", *endpoint]) == 2
        err = capsys.readouterr().err
        assert ERROR_LINE.match(err) and len(err.splitlines()) == 1
        assert "--loadgen" in err

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_time_scale(self, value, capsys):
        assert_cli_error(capsys, ["serve", "--time-scale", value], "--time-scale")

    @pytest.mark.parametrize("value", ["0", "-5", "nan"])
    def test_bad_loadgen_rate(self, value, capsys):
        assert_cli_error(capsys, ["serve", "--loadgen", value], "--loadgen")

    def test_bad_duration(self, capsys):
        assert_cli_error(
            capsys, ["serve", "--loadgen", "100", "--duration", "0"], "--duration"
        )

    def test_bench_out_requires_load_mode(self, capsys):
        assert_cli_error(
            capsys, ["serve", "--bench-out", "out.json"], "--bench-out"
        )

    def test_bench_out_requires_json_suffix(self, capsys):
        assert_cli_error(
            capsys,
            ["serve", "--loadgen", "100", "--bench-out", "out.txt"],
            ".json",
        )

    def test_unknown_scheduler_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--scheduler", "spark"])


class TestLoadgenMode:
    def test_loadgen_prints_summary_json(self, capsys, tmp_path):
        out_path = tmp_path / "summary.json"
        code = main([
            "serve", "--loadgen", "200", "--duration", "0.5",
            "--connections", "2", "--service-time", "0.05",
            "--scheduler", "fifo", "--bench-out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        payload = "\n".join(
            line for line in out.splitlines() if not line.startswith("#")
        )
        summary = json.loads(payload)
        assert summary["client_errors"] == 0
        assert summary["heartbeats_sent"] > 0
        assert summary["responses_received"] == summary["heartbeats_sent"]
        assert summary["assignments_received"] > 0
        # --bench-out wrote the same summary to disk.
        assert json.loads(out_path.read_text()) == summary

    def test_loadgen_replays_a_trace(self, capsys, tmp_path):
        trace = tmp_path / "diurnal.csv"
        assert main(["workload", "gen", "--process", "diurnal", "--rate", "0.05",
                     "--duration", "240", "-O", "period_s=240", "--seed", "7",
                     "--out", str(trace)]) == 0
        rows = len(trace.read_text().splitlines()) - 1
        capsys.readouterr()
        # 600 simulated seconds per wall second: every arrival (<= 240 s)
        # is due within the run.
        assert main([
            "serve", "--loadgen", "200", "--duration", "1", "--trace", str(trace),
            "--connections", "2", "--service-time", "0.05", "--scheduler", "fair",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["client_errors"] == 0
        assert summary["server"]["errors"] == 0
        assert summary["jobs_submitted"] == rows
        assert summary["responses_received"] == summary["heartbeats_sent"] > 0
