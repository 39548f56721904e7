"""CLI tests."""

import cProfile
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.observability.profiler import PROFILE_TITLE

FIXTURES = Path(__file__).resolve().parent / "fixtures"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["catalog"]).command == "catalog"
        args = parser.parse_args(["run", "--scheduler", "fair", "--jobs", "grep:2"])
        assert args.scheduler == "fair"
        assert parser.parse_args(["figure", "fig6"]).name == "fig6"

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestCommands:
    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "Desktop" in out and "T420" in out and "paper fleet" in out

    def test_run_small_job(self, capsys):
        assert main(["run", "--scheduler", "fifo", "--jobs", "grep:1", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "total energy" in out

    def test_run_rejects_unknown_app(self, capsys):
        assert main(["run", "--jobs", "hive:1"]) == 2

    def test_figure_fig6_outputs_rows(self, capsys):
        assert main(["figure", "fig6"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3  # one row per locality fraction


class TestJobTokens:
    """Malformed APP:GB tokens exit 2 with a parse message, never a
    traceback — float() quietly accepts 'nan', 'inf' and negatives."""

    @pytest.mark.parametrize("token", ["grep:abc", "grep:-3", "grep:0", "grep:nan", "grep:inf"])
    def test_run_rejects_bad_gigabytes(self, token, capsys):
        assert main(["run", "--jobs", token]) == 2
        assert "expected form app:gb" in capsys.readouterr().err

    def test_run_message_names_the_token(self, capsys):
        main(["run", "--jobs", "grep:-3"])
        assert "grep:-3" in capsys.readouterr().err

    def test_unknown_app_message_kept(self, capsys):
        assert main(["run", "--jobs", "hive:1"]) == 2
        assert "unknown application" in capsys.readouterr().err


class TestSweep:
    GRID = ["sweep", "--jobs", "grep:1", "--seeds", "0", "1",
            "--schedulers", "fifo", "fair"]

    def test_dry_run_prints_grid_without_simulating(self, capsys, tmp_path):
        assert main(self.GRID + ["--dry-run", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("# 4 specs")
        assert len(out) == 5  # header + one line per spec
        assert all("miss" in line for line in out[1:])

    def test_dry_run_no_cache(self, capsys):
        assert main(self.GRID + ["--dry-run", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cache disabled" in out

    def test_bad_token_exits_2(self, capsys):
        assert main(["sweep", "--jobs", "grep:oops", "--dry-run", "--no-cache"]) == 2
        assert "expected form app:gb" in capsys.readouterr().err

    def test_micro_sweep_runs_and_caches(self, capsys, tmp_path):
        args = ["sweep", "--jobs", "grep:1", "--seeds", "0",
                "--schedulers", "fifo", "fair", "--workers", "2",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "resolved 2 specs" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "2 cached, 0 executed" in second

    def test_beta_grid_expands_eant_only(self, capsys):
        assert main(["sweep", "--jobs", "grep:1", "--seeds", "0",
                     "--schedulers", "fair", "e-ant", "--betas", "0.1", "0.3",
                     "--dry-run", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "# 3 specs" in out  # fair once, e-ant per beta
        assert "beta=0.1" in out and "beta=0.3" in out


class TestShardFlags:
    """--shards/--shard-index validation exits 2 with a one-line message."""

    GRID = ["sweep", "--jobs", "grep:1", "--dry-run", "--no-cache"]

    @pytest.mark.parametrize(
        "flags,fragment",
        [
            (["--shards", "2"], "given together"),
            (["--shard-index", "0"], "given together"),
            (["--shards", "0", "--shard-index", "0"], "--shards must be at least 1"),
            (["--shards", "2", "--shard-index", "2"], "in [0, 2)"),
            (["--shards", "2", "--shard-index", "-1"], "in [0, 2)"),
            (["--manifest-out", "m.json"], "requires --shards"),
        ],
    )
    def test_bad_shard_flags_exit_2(self, flags, fragment, capsys):
        assert main(self.GRID + flags) == 2
        err = capsys.readouterr().err
        assert "error:" in err and fragment in err

    def test_sharded_dry_run_lists_only_the_shard(self, capsys):
        full = ["sweep", "--jobs", "grep:1", "--seeds", "0", "1",
                "--schedulers", "fifo", "fair", "--dry-run", "--no-cache"]
        shard = full + ["--shards", "2", "--shard-index", "0"]
        assert main(shard) == 0
        out = capsys.readouterr().out
        assert "# shard 1/2 of grid" in out
        assert "# 2 specs" in out

    def test_manifest_out_writes_loadable_manifest(self, capsys, tmp_path):
        from repro.runner import load_manifest

        path = tmp_path / "m.json"
        assert main(["sweep", "--jobs", "grep:1", "--seeds", "0", "1",
                     "--schedulers", "fifo", "fair", "--dry-run", "--no-cache",
                     "--shards", "2", "--shard-index", "1",
                     "--manifest-out", str(path)]) == 0
        manifest = load_manifest(path)
        assert manifest.shard_count == 2 and manifest.shard_index == 1
        assert manifest.grid_size == 4 and len(manifest.spec_hashes) == 2


class TestSweepMergeFlags:
    def test_missing_spool_exits_2(self, capsys):
        assert main(["sweep-merge", "/nonexistent/spool.jsonl"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_corrupt_manifest_exits_2(self, capsys, tmp_path):
        spool = tmp_path / "s.jsonl"
        spool.write_text("")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sweep-merge", str(spool),
                     "--check-manifest", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_mismatched_manifest_grids_exit_2(self, capsys, tmp_path):
        from repro.runner import ShardManifest

        spool = tmp_path / "s.jsonl"
        spool.write_text("")
        paths = []
        for grid in ("a", "b"):
            manifest = ShardManifest(
                grid_digest=grid * 64, shard_count=1, shard_index=0,
                spec_hashes=(), grid_size=0,
            )
            paths.append(str(manifest.write(tmp_path / f"{grid}.json")))
        assert main(["sweep-merge", str(spool),
                     "--check-manifest", paths[0],
                     "--check-manifest", paths[1]]) == 2
        assert "different grids" in capsys.readouterr().err

    def test_uncovered_manifest_exits_1(self, capsys, tmp_path):
        from repro.runner import ShardManifest

        spool = tmp_path / "s.jsonl"
        spool.write_text("")
        manifest = ShardManifest(
            grid_digest="c" * 64, shard_count=1, shard_index=0,
            spec_hashes=("d" * 64,), grid_size=1,
        )
        manifest.write(tmp_path / "m.json")
        assert main(["sweep-merge", str(spool),
                     "--check-manifest", str(tmp_path / "m.json")]) == 1
        err = capsys.readouterr().err
        assert "missing" in err and "d" * 64 in err

    def test_empty_spools_merge_to_zero_specs(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text("")
        b.write_text("")
        assert main(["sweep-merge", str(a), str(b)]) == 0
        assert "0 specs" in capsys.readouterr().out


class TestCacheFlags:
    def test_bad_gc_bounds_exit_2(self, capsys, tmp_path):
        base = ["cache", "gc", "--cache-dir", str(tmp_path)]
        assert main(base + ["--max-age-days", "-1"]) == 2
        assert "--max-age-days" in capsys.readouterr().err
        assert main(base + ["--max-size-mb", "nan"]) == 2
        assert "--max-size-mb" in capsys.readouterr().err

    def test_gc_corrupt_keep_manifest_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-size-mb", "1", "--keep-manifest", str(bad)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_info_on_empty_cache(self, capsys, tmp_path):
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "empty" in capsys.readouterr().out


class TestTrackerExpiry:
    """--tracker-expiry shares the job-token contract: bad values exit 2
    with a one-line message (float() quietly accepts nan/inf/negatives)."""

    @pytest.mark.parametrize("value", ["-3", "nan", "inf"])
    def test_bad_values_exit_2(self, value, capsys):
        assert main(["run", "--jobs", "grep:1", "--tracker-expiry", value]) == 2
        err = capsys.readouterr().err
        assert "--tracker-expiry" in err
        assert len(err.strip().splitlines()) == 1

    def test_non_numeric_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--jobs", "grep:1", "--tracker-expiry", "soon"])
        assert exc.value.code == 2

    def test_valid_value_echoed_in_config(self, capsys):
        assert main(["run", "--jobs", "grep:1", "--seed", "1",
                     "--tracker-expiry", "45"]) == 0
        assert "tracker_expiry=45" in capsys.readouterr().out


class TestFaultFlags:
    def _plan_file(self, tmp_path):
        from repro.faults import FaultPlan

        path = tmp_path / "plan.json"
        path.write_text(FaultPlan.crash_and_rejoin(0, at=20.0, rejoin_after=40.0).to_json())
        return str(path)

    def test_run_prints_fault_timeline(self, capsys, tmp_path):
        assert main(["run", "--scheduler", "fair", "--jobs", "grep:2",
                     "--seed", "2", "--faults", self._plan_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fault timeline:" in out
        assert "crash" in out and "recover" in out

    def test_bad_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["run", "--jobs", "grep:1", "--faults", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid JSON" in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_file_exits_2(self, capsys, tmp_path):
        missing = str(tmp_path / "absent.json")
        assert main(["run", "--jobs", "grep:1", "--faults", missing]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and missing in err

    def test_invalid_plan_exits_2(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"events": [{"time": 1.0, "kind": "meteor", "machine_id": 0}]}')
        assert main(["run", "--jobs", "grep:1", "--faults", str(path)]) == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_sweep_folds_plan_into_grid(self, capsys, tmp_path):
        base = ["sweep", "--jobs", "grep:1", "--seeds", "0",
                "--schedulers", "fair", "--dry-run", "--no-cache"]
        assert main(base + ["--faults", self._plan_file(tmp_path)]) == 0
        faulted_hash = capsys.readouterr().out.splitlines()[1].split()[0]
        assert main(base) == 0
        plain_hash = capsys.readouterr().out.splitlines()[1].split()[0]
        # The plan is part of spec identity: distinct cache entries.
        assert faulted_hash != plain_hash

    def test_churn_figure_in_choices(self):
        assert build_parser().parse_args(["figure", "churn"]).name == "churn"


class TestProfileCommand:
    """`repro profile` runs one telemetered scenario and renders/export it."""

    def test_prints_telemetry_and_phase_table(self, capsys):
        assert main(["profile", "--scheduler", "fair", "--jobs", "grep:1",
                     "--seed", "1", "--interval", "20"]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert PROFILE_TITLE in out
        table = out.split(PROFILE_TITLE + "\n", 1)[1].splitlines()
        rows = {line.split()[0]: line.split() for line in table[1:]}
        assert {"simulation", "hadoop", "core"} <= set(rows)
        for layer in ("simulation", "hadoop", "core"):
            assert int(rows[layer][2]) > 0, layer
        # The per-layer self seconds add up to the printed total (each
        # printed value is rounded to the millisecond).
        layers = [row for name, row in rows.items() if name != "total"]
        printed = sum(float(row[1]) for row in layers)
        assert printed == pytest.approx(float(rows["total"][1]),
                                        abs=0.0005 * (len(layers) + 1))

    def test_exports_feed_report(self, capsys, tmp_path):
        npz = tmp_path / "run.npz"
        as_json = tmp_path / "run.json"
        assert main(["profile", "--jobs", "grep:1", "--seed", "1",
                     "--out", str(npz)]) == 0
        assert main(["profile", "--jobs", "grep:1", "--seed", "1",
                     "--out", str(as_json)]) == 0
        capsys.readouterr()
        # `report` auto-detects both export formats without re-simulating.
        for path in (npz, as_json):
            assert main(["report", str(path)]) == 0
            out = capsys.readouterr().out
            assert "telemetry:" in out and PROFILE_TITLE in out

    def test_report_renders_export_from_phase_profiler(self, capsys):
        # Written by `repro profile --jobs grep:1 --seed 1 --out ...` before
        # the cProfile fold replaced the phase profiler: its rows carry
        # inclusive/exclusive seconds, read as self seconds now.
        assert main(["report", str(FIXTURES / "telemetry_export_pre_cprofile.json")]) == 0
        out = capsys.readouterr().out
        assert "telemetry: 1 samples every 300s" in out
        table = out.split(PROFILE_TITLE + "\n", 1)[1].splitlines()
        assert [line.split()[0] for line in table] == [
            "layer", "dispatch", "select", "energy", "telemetry", "total",
        ]
        assert table[2].split()[1:3] == ["0.002", "3"]

    @pytest.mark.parametrize("suffix", [".json", ".npz"])
    @pytest.mark.parametrize(
        "section",
        ['"telemetry": null', '"profile": [1]', '"profile": {"phases": null}'],
    )
    def test_report_rejects_malformed_export(self, capsys, tmp_path, section, suffix):
        document = '{"kind": "repro.telemetry-export", "version": 1, ' + section + "}"
        path = tmp_path / ("bad" + suffix)
        if suffix == ".json":
            path.write_text(document)
        else:  # the NPZ export keeps the same document under "meta"
            np.savez(path, meta=np.frombuffer(document.encode(), dtype=np.uint8))
        assert main(["report", str(path)]) == 2
        assert "cannot read telemetry export" in capsys.readouterr().err

    def test_active_profiler_exits_2(self, capsys, monkeypatch):
        def busy(self):
            raise ValueError("Another profiling tool is already active")

        # Python 3.12+ raises this from cProfile.Profile.enable when a
        # profiler is already running; older versions stack silently.
        monkeypatch.setattr(cProfile.Profile, "enable", busy)
        assert main(["profile", "--jobs", "grep:1"]) == 2
        assert "already active" in capsys.readouterr().err

    @pytest.mark.skipif(sys.version_info < (3, 12),
                        reason="one active profiler per process from 3.12")
    def test_nested_under_cprofile_exits_2(self, capsys):
        outer = cProfile.Profile()
        outer.enable()
        try:
            code = main(["profile", "--jobs", "grep:1"])
        finally:
            outer.disable()
        assert code == 2
        assert "cannot profile" in capsys.readouterr().err

    def test_rejects_unknown_export_extension(self, capsys, tmp_path):
        out_path = tmp_path / "run.txt"
        assert main(["profile", "--jobs", "grep:1", "--out", str(out_path)]) == 2
        assert "--out" in capsys.readouterr().err
        assert not out_path.exists()

    def test_rejects_nonpositive_interval(self, capsys):
        assert main(["profile", "--jobs", "grep:1", "--interval", "0"]) == 2
        assert "interval" in capsys.readouterr().err

    def test_rejects_bad_job_token(self, capsys):
        assert main(["profile", "--jobs", "grep:nan"]) == 2
        assert "expected form app:gb" in capsys.readouterr().err


class TestTraceStreaming:
    """`repro trace` streams JSONL; corrupt input is exit 2, not a traceback."""

    def _write_trace(self, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(["run", "--scheduler", "fifo", "--jobs", "grep:1",
                     "--seed", "1", "--trace-out", str(path)]) == 0
        return path

    def test_summarizes_real_trace(self, capsys, tmp_path):
        path = self._write_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        assert "events" in capsys.readouterr().out

    def test_corrupt_line_exits_2(self, capsys, tmp_path):
        path = self._write_trace(tmp_path)
        with path.open("a") as stream:
            stream.write("{not json\n")
        capsys.readouterr()
        assert main(["trace", str(path)]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        missing = str(tmp_path / "absent.jsonl")
        assert main(["trace", missing]) == 2
        assert "cannot read trace" in capsys.readouterr().err


@pytest.fixture
def trace_file(tmp_path, capsys):
    """A small diurnal workload trace (17 arrivals over 240 s)."""
    path = tmp_path / "diurnal.csv"
    assert main(["workload", "gen", "--process", "diurnal", "--rate", "0.05",
                 "--duration", "240", "-O", "period_s=240", "--seed", "7",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


class TestSharedWorkloadFlags:
    """`run` and `sweep` share the --trace/--horizon/--tracker-expiry/
    --faults flag group and its validation: every bad value exits 2 with
    one stderr line naming the flag, before anything is simulated."""

    COMMANDS = {
        "run": ["run"],
        "sweep": ["sweep", "--dry-run", "--no-cache"],
    }

    @pytest.fixture(params=sorted(COMMANDS))
    def command(self, request):
        return list(self.COMMANDS[request.param])

    def _one_error_line(self, capsys, fragment):
        captured = capsys.readouterr()
        assert fragment in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-3"])
    def test_bad_tracker_expiry(self, command, value, capsys):
        assert main(command + ["--jobs", "grep:1", "--tracker-expiry", value]) == 2
        self._one_error_line(capsys, "--tracker-expiry")

    def test_horizon_requires_trace(self, command, capsys):
        assert main(command + ["--horizon", "100"]) == 2
        self._one_error_line(capsys, "--horizon requires --trace")

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5"])
    def test_bad_horizon_value(self, command, value, trace_file, capsys):
        assert main(command + ["--trace", trace_file, "--horizon", value]) == 2
        self._one_error_line(capsys, "--horizon")

    def test_trace_and_jobs_are_mutually_exclusive(self, command, trace_file, capsys):
        assert main(command + ["--trace", trace_file, "--jobs", "grep:1"]) == 2
        self._one_error_line(capsys, "mutually exclusive")

    def test_bad_faults_json(self, command, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(command + ["--jobs", "grep:1", "--faults", str(path)]) == 2
        self._one_error_line(capsys, "invalid JSON")

    @pytest.mark.parametrize("token", ["grep:nan", "grep:inf", "grep:1e308"])
    def test_non_finite_job_size(self, command, token, capsys):
        assert main(command + ["--jobs", token]) == 2
        self._one_error_line(capsys, "expected form app:gb")


class TestTraceDrivenSweep:
    """`sweep --trace/--horizon/--tracker-expiry` reach every grid point."""

    def test_open_loop_sweep_prints_done_over_offered(self, trace_file, capsys):
        assert main(["sweep", "--trace", trace_file, "--horizon", "150",
                     "--schedulers", "fair", "e-ant", "--seeds", "0",
                     "--workers", "1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "done/offered" in out
        rows = [line for line in out.splitlines() if line.startswith("diurnal/")]
        assert [row.split()[0] for row in rows] == ["diurnal/fair@seed0", "diurnal/e-ant@seed0"]
        assert all("/" in row.split()[-1] for row in rows)

    def test_grid_identity_folds_in_shared_flags(self, trace_file, capsys):
        base = ["sweep", "--trace", trace_file, "--schedulers", "fair", "--seeds", "0",
                "--dry-run", "--no-cache"]

        def grid_hash(extra):
            assert main(base + extra) == 0
            return capsys.readouterr().out.splitlines()[1].split()[0]

        closed = grid_hash([])
        assert len({closed, grid_hash(["--horizon", "150"]),
                    grid_hash(["--tracker-expiry", "45"])}) == 3
        assert grid_hash([]) == closed


class TestHostileFiles:
    """Bytes that are not UTF-8 get a diagnostic, never a traceback."""

    def _one_error_line(self, capsys, fragment):
        err = capsys.readouterr().err
        assert fragment in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_csv_trace(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"job_id,arrival_time,task_count\n0,0.0,4\n1,1.0,\xff4\n")
        assert main(["workload", "validate", str(path)]) == 2
        self._one_error_line(capsys, f"{path}:3: error: not valid UTF-8")

    def test_jsonl_trace(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"job_id": 0, "arrival_time": \xff0.0, "task_count": 4}\n')
        assert main(["run", "--trace", str(path)]) == 2
        self._one_error_line(capsys, f"{path}:1: error: not valid UTF-8")

    def test_fault_plan(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        path.write_bytes(b'{"events": [\xff]}\n')
        assert main(["run", "--jobs", "grep:1", "--faults", str(path)]) == 2
        self._one_error_line(capsys, "cannot read fault plan")

    def _manifest_with_bad_byte(self, tmp_path):
        from repro.runner import ShardManifest

        path = ShardManifest(
            grid_digest="a" * 64, shard_count=1, shard_index=0,
            spec_hashes=("b" * 64,), grid_size=1,
        ).write(tmp_path / "m.json")
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) > 3
        lines[2] = b"\xff" + lines[2]
        path.write_bytes(b"".join(lines))
        return path

    def test_shard_manifest_check(self, capsys, tmp_path):
        path = self._manifest_with_bad_byte(tmp_path)
        spool = tmp_path / "s.jsonl"
        spool.write_text("")
        assert main(["sweep-merge", str(spool), "--check-manifest", str(path)]) == 2
        self._one_error_line(capsys, f"{path}:3: not valid UTF-8")

    def test_shard_manifest_keep(self, capsys, tmp_path):
        path = self._manifest_with_bad_byte(tmp_path)
        assert main(["cache", "gc", "--cache-dir", str(tmp_path / "cache"),
                     "--max-size-mb", "1", "--keep-manifest", str(path)]) == 2
        self._one_error_line(capsys, f"{path}:3: not valid UTF-8")

    def _trace_with_bad_byte_on_line_301(self, tmp_path):
        from repro.observability import write_jsonl
        from repro.observability.tracer import EventType, TraceEvent

        path = tmp_path / "t.jsonl"
        write_jsonl([TraceEvent(float(i), EventType.HEARTBEAT, {"machine_id": 0})
                     for i in range(400)], path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[300] = lines[300][:10] + b"\xff" + lines[300][10:]
        path.write_bytes(b"".join(lines))
        return path

    def test_jsonl_trace_summary(self, capsys, tmp_path):
        path = self._trace_with_bad_byte_on_line_301(tmp_path)
        assert main(["trace", str(path)]) == 2
        self._one_error_line(capsys, f"{path}:301: not valid UTF-8 (byte 10)")

    def test_jsonl_trace_report(self, capsys, tmp_path):
        path = self._trace_with_bad_byte_on_line_301(tmp_path)
        assert main(["report", str(path)]) == 2
        self._one_error_line(capsys, f"{path}:301: not valid UTF-8 (byte 10)")

    @staticmethod
    def _telemetry_npz(tmp_path):
        from repro.observability import write_telemetry_npz
        from repro.observability.telemetry import CLASS_COLUMNS, COLUMNS, TelemetryRecord

        record = TelemetryRecord(
            interval=1.0,
            columns={name: np.arange(50.0) for name in COLUMNS},
            class_names=("X",),
            class_columns={name: np.ones((1, 50)) for name in CLASS_COLUMNS},
            histograms={},
        )
        path = tmp_path / "tel.npz"
        write_telemetry_npz(path, record, None)
        return path.read_bytes()

    @pytest.mark.parametrize(
        "damage",
        ["zip-garbage", "truncated", "not-zip", "empty", "bare-npy", "bad-crc"],
    )
    def test_npz_export_that_is_not_an_archive(self, capsys, tmp_path, damage):
        path = tmp_path / "x.npz"
        if damage == "zip-garbage":
            path.write_bytes(b"PK\x03\x04" + bytes(range(256)) * 4)
        elif damage == "truncated":
            data = self._telemetry_npz(tmp_path)
            path.write_bytes(data[: len(data) // 2])
        elif damage == "not-zip":
            path.write_bytes(b"not an archive\n" * 20)
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "bare-npy":
            with open(path, "wb") as handle:
                np.save(handle, np.arange(3.0))
        else:  # one flipped byte inside a member: the zip index is intact
            data = bytearray(self._telemetry_npz(tmp_path))
            data[len(data) // 3] ^= 0xFF
            path.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["report", str(path)]) == 2
        self._one_error_line(capsys, f"cannot read telemetry export {str(path)!r}")

    def test_spool_line_is_redone(self, capsys, tmp_path):
        spool = tmp_path / "s.jsonl"
        sweep = ["sweep", "--jobs", "grep:0.5", "--seeds", "0",
                 "--schedulers", "fifo", "fair", "--workers", "1",
                 "--no-cache", "--spool", str(spool)]
        assert main(sweep) == 0
        lines = spool.read_bytes().splitlines(keepends=True)
        lines[0] = lines[0][:40] + b"\xff" + lines[0][41:]
        spool.write_bytes(b"".join(lines))
        capsys.readouterr()

        assert main(["sweep-merge", str(spool)]) == 0
        self._one_error_line(capsys, f"{spool}:1: warning: not valid UTF-8")

        assert main(sweep) == 0
        captured = capsys.readouterr()
        summary = captured.out.strip().splitlines()[-1]
        assert summary.endswith("1 damaged spool lines redone")
        assert f"{spool}:1: warning: not valid UTF-8" in captured.err
        assert "Traceback" not in captured.err
