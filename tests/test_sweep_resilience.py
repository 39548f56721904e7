"""Crash/kill/corruption resilience of spooled sweeps, proven end to end.

The rig runs the *real* CLI (``python -m repro sweep``) in subprocesses,
SIGKILLs it at injected points (including mid-line, leaving a torn final
line on disk), resumes it against the same spool, and asserts the merged
result set is **bit-identical** — same per-spec record digests, same
aggregate digest — to an uninterrupted serial baseline with the cache
disabled.  That equality is the acceptance criterion of the whole
sharding/spooling layer: a sweep you can kill anywhere and resume is only
trustworthy if the kill leaves no fingerprint on the results.

Kill points are injected with the ``EANT_REPRO_SPOOL_KILL_AFTER`` hook
(see :mod:`repro.runner.spool`); the SIGTERM case sends a real signal to
a live subprocess mid-flight.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.observability import EventType, Tracer
from repro.runner import (
    ResultCache,
    ResultSpool,
    ScenarioSpec,
    SweepRunner,
    aggregate_digest,
    digest_listing,
    merge_spools,
    record_digest,
    shard_specs,
)
from repro.workloads import puma_job

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: The rig's grid: 2 schedulers x 20 seeds = 40 tiny specs, a few ms each.
GRID_FLAGS = [
    "--schedulers", "fifo", "fair",
    "--seeds", *[str(s) for s in range(20)],
    "--jobs", "grep:0.25",
    "--workers", "1",
    "--no-cache",
]
GRID_SIZE = 40


def grid_specs() -> list:
    """The same grid the CLI flags above expand to, in-process."""
    return [
        ScenarioSpec(
            jobs=(puma_job("grep", 0.25),),
            scheduler=scheduler,
            seed=seed,
            label=f"{scheduler}@seed{seed}",
        )
        for seed in range(20)
        for scheduler in ("fifo", "fair")
    ]


def sweep_command(spool: Path) -> list:
    return [sys.executable, "-m", "repro", "sweep", *GRID_FLAGS, "--spool", str(spool)]


def run_sweep(spool: Path, tmp_path: Path, kill_after: str = "") -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["EANT_REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    if kill_after:
        env["EANT_REPRO_SPOOL_KILL_AFTER"] = kill_after
    else:
        env.pop("EANT_REPRO_SPOOL_KILL_AFTER", None)
    return subprocess.run(
        sweep_command(spool), env=env, capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def baseline_listing(tmp_path_factory) -> list:
    """Digest listing of the uninterrupted serial run — the ground truth."""
    tmp = tmp_path_factory.mktemp("baseline")
    spool = tmp / "baseline.jsonl"
    proc = run_sweep(spool, tmp)
    assert proc.returncode == 0, proc.stderr
    listing = digest_listing(ResultSpool(spool).completed())
    assert len(listing) == GRID_SIZE
    return listing


class TestKillResume:
    @pytest.mark.parametrize("kill_after", ["1", "13", "39", "7:torn", "25:torn"])
    def test_sigkilled_sweep_resumes_bit_identical(
        self, kill_after, tmp_path, baseline_listing
    ):
        """SIGKILL at several points (early, mid, last-line, torn-line):
        resume completes and the result set matches the uninterrupted run."""
        spool = tmp_path / "killed.jsonl"
        killed = run_sweep(spool, tmp_path, kill_after=kill_after)
        assert killed.returncode == -signal.SIGKILL

        resumed = run_sweep(spool, tmp_path)
        assert resumed.returncode == 0, resumed.stderr
        if kill_after.endswith(":torn"):
            assert "warning:" in resumed.stderr
            assert "re-run" in resumed.stderr
        assert digest_listing(ResultSpool(spool).completed()) == baseline_listing

    def test_double_resume_is_idempotent(self, tmp_path, baseline_listing):
        """Resuming an already-complete sweep executes nothing and changes
        nothing — the spool file is byte-stable."""
        spool = tmp_path / "s.jsonl"
        run_sweep(spool, tmp_path, kill_after="11")
        first = run_sweep(spool, tmp_path)
        assert first.returncode == 0, first.stderr
        before = spool.read_bytes()

        second = run_sweep(spool, tmp_path)
        assert second.returncode == 0, second.stderr
        assert f"{GRID_SIZE} resumed, 0 cached, 0 executed" in second.stdout
        assert spool.read_bytes() == before
        assert digest_listing(ResultSpool(spool).completed()) == baseline_listing

    def test_sigterm_drains_gracefully_and_resumes(self, tmp_path, baseline_listing):
        """A real SIGTERM mid-flight: exit 130, a resumable-spool notice on
        stderr, and a resume that completes to the baseline result set."""
        spool = tmp_path / "s.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env["EANT_REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        env.pop("EANT_REPRO_SPOOL_KILL_AFTER", None)
        proc = subprocess.Popen(
            sweep_command(spool),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            # Wait until real progress is on disk, then pull the trigger.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if spool.exists() and len(spool.read_bytes().splitlines()) >= 3:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.002)
            proc.send_signal(signal.SIGTERM)
            _stdout, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
        if proc.returncode == 0:  # pragma: no cover - tiny-grid race
            pytest.skip("sweep finished before SIGTERM landed")
        assert proc.returncode == 130
        assert "interrupted" in stderr
        assert "resume" in stderr

        resumed = run_sweep(spool, tmp_path)
        assert resumed.returncode == 0, resumed.stderr
        assert digest_listing(ResultSpool(spool).completed()) == baseline_listing

    def test_kill_resume_across_shards_merges_identical(
        self, tmp_path, baseline_listing
    ):
        """Shard 0 killed+resumed, shard 1 uninterrupted: the merged set
        still matches the unsharded baseline."""
        spools = [tmp_path / "s0.jsonl", tmp_path / "s1.jsonl"]
        for index, spool in enumerate(spools):
            cmd = [
                sys.executable, "-m", "repro", "sweep", *GRID_FLAGS,
                "--shards", "2", "--shard-index", str(index),
                "--spool", str(spool),
            ]
            env = dict(os.environ)
            env["PYTHONPATH"] = SRC
            env["EANT_REPRO_CACHE_DIR"] = str(tmp_path / "cache")
            if index == 0:
                env["EANT_REPRO_SPOOL_KILL_AFTER"] = "9"
                killed = subprocess.run(
                    cmd, env=env, capture_output=True, text=True, timeout=120
                )
                assert killed.returncode == -signal.SIGKILL
                env.pop("EANT_REPRO_SPOOL_KILL_AFTER")
            done = subprocess.run(
                cmd, env=env, capture_output=True, text=True, timeout=120
            )
            assert done.returncode == 0, done.stderr
        merged = merge_spools(spools)
        assert digest_listing(merged) == baseline_listing


class TestCorruptSpoolCli:
    def test_corrupt_lines_warn_redo_and_exit_zero(self, tmp_path, baseline_listing):
        """Garbage + truncation + duplicates in one spool: the resume exits
        0, warns per damaged line, redoes only the damaged specs, and the
        final result set is still bit-identical to the baseline."""
        spool = tmp_path / "s.jsonl"
        proc = run_sweep(spool, tmp_path)
        assert proc.returncode == 0

        lines = spool.read_text().splitlines()
        assert len(lines) == GRID_SIZE
        lines[3] = "garbage not json"          # damaged: redone
        lines.insert(5, lines[6])              # duplicate: warned, kept-first
        lines[-1] = lines[-1][: len(lines[-1]) // 2]  # truncated final line
        spool.write_text("\n".join(lines) + "\n")

        resumed = run_sweep(spool, tmp_path)
        assert resumed.returncode == 0, resumed.stderr
        # file:line: warning: convention, one diagnostic per damaged line.
        assert f"{spool}:4: warning:" in resumed.stderr
        assert "duplicate entry" in resumed.stderr
        assert f"{spool}:{GRID_SIZE + 1}: warning:" in resumed.stderr
        # Only the two damaged specs re-ran.
        assert "2 executed" in resumed.stdout
        assert digest_listing(ResultSpool(spool).completed()) == baseline_listing


class TestResumeObservability:
    """In-process checks of the sweep.shard / sweep.resume trace events."""

    def small_grid(self) -> list:
        return grid_specs()[:8]

    def test_resume_emits_sweep_resume_event(self, tmp_path):
        specs = self.small_grid()
        spool_path = tmp_path / "s.jsonl"
        SweepRunner(workers=1).run_spooled(specs, ResultSpool(spool_path))

        # Damage one line so the resume has something to skip and redo.
        lines = spool_path.read_text().splitlines()
        lines[2] = lines[2][:40]
        spool_path.write_text("\n".join(lines) + "\n")

        tracer = Tracer()
        warnings: list = []
        runner = SweepRunner(workers=1, tracer=tracer, warn=warnings.append)
        aggregate = runner.run_spooled(specs, ResultSpool(spool_path))

        (resume,) = tracer.of_type(EventType.SWEEP_RESUME)
        assert resume.data["resumed"] == len(specs) - 1
        assert resume.data["skipped_lines"] == 1
        assert resume.data["remaining"] == 1
        assert any("warning:" in w for w in warnings)
        assert runner.last_report.resumed == len(specs) - 1
        assert runner.last_report.executed == 1
        assert aggregate.records == len(specs)

    def test_foreign_spool_entries_are_ignored_with_warning(self, tmp_path):
        specs = self.small_grid()
        spool_path = tmp_path / "s.jsonl"
        SweepRunner(workers=1).run_spooled(specs, ResultSpool(spool_path))

        warnings: list = []
        runner = SweepRunner(workers=1, warn=warnings.append)
        aggregate = runner.run_spooled(specs[:4], ResultSpool(spool_path))
        assert aggregate.records == 4
        assert sum("not in this grid" in w for w in warnings) == 4

    def test_sharded_run_emits_sweep_shard_event(self, tmp_path):
        specs = self.small_grid()
        manifest, members = shard_specs(specs, 2, 1)
        tracer = Tracer()
        runner = SweepRunner(workers=1, tracer=tracer)
        runner.run_spooled(members, ResultSpool(tmp_path / "s.jsonl"), manifest=manifest)

        (shard,) = tracer.of_type(EventType.SWEEP_SHARD)
        assert shard.data["grid_digest"] == manifest.grid_digest
        assert shard.data["shard_index"] == 1
        assert shard.data["shard_count"] == 2
        assert shard.data["shard_specs"] == len(members)
        assert shard.data["grid_size"] == len(specs)
        (summary,) = tracer.of_type(EventType.SWEEP_SUMMARY)
        assert summary.data["resumed"] == 0

    def test_spooled_aggregate_matches_plain_run(self, tmp_path):
        """run_spooled and run() resolve specs to the same records."""
        from repro.runner import record_digest

        specs = self.small_grid()
        records = SweepRunner(workers=1).run(specs)
        expected = {
            spec.spec_hash(): record_digest(record)
            for spec, record in zip(specs, records)
        }
        aggregate = SweepRunner(workers=1).run_spooled(
            specs, ResultSpool(tmp_path / "s.jsonl")
        )
        assert aggregate.entries == expected
        assert aggregate.digest() == aggregate_digest(expected)


class TestAggregateIntegrity:
    """The aggregate folds in the digest the spool wrote or verified instead
    of digesting each record again; it must still hold the true digests."""

    def test_every_pass_aggregates_true_record_digests(self, tmp_path):
        specs = grid_specs()[:8]
        cache = ResultCache(tmp_path / "cache")
        cold = tmp_path / "cold.jsonl"
        passes = [
            ("cold", cold, (len(specs), 0, 0)),
            ("warm", tmp_path / "warm.jsonl", (0, len(specs), 0)),
            ("resume", cold, (0, 0, len(specs))),
        ]
        digests = []
        for kind, path, expected in passes:
            runner = SweepRunner(workers=1, cache=cache)
            aggregate = runner.run_spooled(specs, ResultSpool(path))
            report = runner.last_report
            assert (report.executed, report.cache_hits, report.resumed) == expected, kind
            spooled = [record for _, _, record in ResultSpool(path).scan()]
            assert len(spooled) == len(specs)
            for record in spooled:
                assert aggregate.entries[record.spec_hash] == record_digest(record), kind
            digests.append(aggregate.digest())
        assert len(set(digests)) == 1

    def test_forged_digest_field_is_skipped_and_redone(self, tmp_path):
        """A line whose ``digest`` was altered — ``sha`` recomputed, so the
        checksum passes — is warned about, skipped and re-executed."""
        specs = grid_specs()[:8]
        path = tmp_path / "s.jsonl"
        baseline = SweepRunner(workers=1).run_spooled(specs, ResultSpool(path))

        lines = path.read_text().splitlines()
        data = json.loads(lines[2])
        data["digest"] = "0" * 64
        data["sha"] = hashlib.sha256(data["payload"].encode("ascii")).hexdigest()[:16]
        lines[2] = json.dumps(data, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")

        warnings: list = []
        runner = SweepRunner(workers=1, warn=warnings.append)
        aggregate = runner.run_spooled(specs, ResultSpool(path))
        assert any(
            w.startswith(f"{path}:3: warning: record does not reproduce its claimed digest")
            for w in warnings
        )
        assert runner.last_report.resumed == len(specs) - 1
        assert runner.last_report.executed == 1
        assert aggregate.entries == baseline.entries
        assert aggregate.digest() == baseline.digest()
