"""A record's exact digest is computed at most once in its life.

``record_digest`` keeps the exact-tier digest on the instance; the memo
never reaches a pickle, a ``dataclasses.replace`` copy or ``==``.  A
cache entry carries its record's digest, so a warm sweep pass computes
none, while a spool scan still recomputes every line's digest.
"""

import dataclasses
import json
import pickle

import pytest

from repro.runner import (
    ResultCache,
    ResultSpool,
    ScenarioSpec,
    SweepRunner,
    record_digest,
)
from repro.runner import record as record_module
from repro.runner.spool import encode_line
from repro.workloads import puma_job

MEMO = record_module._DIGEST_ATTR


def specs(count: int = 2):
    return [
        ScenarioSpec(jobs=(puma_job("grep", 0.25),), scheduler="fifo", seed=seed)
        for seed in range(count)
    ]


@pytest.fixture(scope="module")
def record():
    return specs(1)[0].run_record()


@pytest.fixture
def payload_writes(monkeypatch):
    """Counts digest payload writes (computations, not memo hits)."""
    calls = []
    write = record_module._record_payload

    def counting(record, precision):
        calls.append(precision)
        return write(record, precision)

    monkeypatch.setattr(record_module, "_record_payload", counting)
    return calls


class TestMemo:
    def test_second_digest_is_a_memo_hit(self, record, payload_writes):
        fresh = pickle.loads(pickle.dumps(record))
        digest = record_digest(fresh)
        assert record_digest(fresh) == digest
        assert payload_writes == [None]
        assert fresh.__dict__[MEMO] == digest

    def test_tolerance_tier_neither_reads_nor_writes_the_memo(self, record, payload_writes):
        fresh = pickle.loads(pickle.dumps(record))
        tolerant = record_digest(fresh, precision=9)
        assert MEMO not in fresh.__dict__
        assert record_digest(fresh) != tolerant
        assert record_digest(fresh, precision=9) == tolerant
        assert payload_writes == [9, None, 9]

    def test_memo_never_reaches_a_pickle(self, record):
        fresh = pickle.loads(pickle.dumps(record))
        before = pickle.dumps(fresh)
        record_digest(fresh)
        assert pickle.dumps(fresh) == before
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(fresh, protocol=protocol))
            assert MEMO not in clone.__dict__
            assert record_digest(clone) == record_digest(fresh)

    def test_spool_line_bytes_do_not_depend_on_the_memo(self, record):
        fresh = pickle.loads(pickle.dumps(record))
        before = encode_line(fresh.spec_hash, fresh)
        assert MEMO in fresh.__dict__  # encode_line digested it
        assert encode_line(fresh.spec_hash, fresh) == before

    def test_replace_and_equality_ignore_the_memo(self, record):
        fresh = pickle.loads(pickle.dumps(record))
        record_digest(fresh)
        copy = dataclasses.replace(fresh)
        assert MEMO not in copy.__dict__
        assert copy == fresh
        changed = dataclasses.replace(fresh, spec_hash="0" * 64)
        assert MEMO not in changed.__dict__
        assert record_digest(changed) != record_digest(fresh)


class TestDigestsPerPass:
    def test_cold_warm_resume(self, tmp_path, payload_writes):
        """1 digest per spec cold, 0 warm (the cache entry carries it),
        1 resumed (the spool scan recomputes it)."""
        grid = specs()
        cache = ResultCache(tmp_path / "cache")
        passes = [
            ("cold", tmp_path / "a.jsonl", len(grid)),
            ("warm", tmp_path / "b.jsonl", 0),
            ("resume", tmp_path / "a.jsonl", len(grid)),
        ]
        digests = []
        for kind, spool, expected in passes:
            del payload_writes[:]
            runner = SweepRunner(workers=1, cache=cache)
            digests.append(runner.run_spooled(grid, ResultSpool(spool)).digest())
            report = runner.last_report
            resolved = {"cold": report.executed, "warm": report.cache_hits,
                        "resume": report.resumed}[kind]
            assert resolved == len(grid), kind
            assert payload_writes == [None] * expected, kind
        assert len(set(digests)) == 1

    def test_a_wrong_digest_in_a_cache_entry_is_caught_by_the_spool(self, tmp_path):
        """The cache trusts its stored digest; a spool line written from
        it is still checked when the spool is read back."""
        grid = specs(1)
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(workers=1, cache=cache).run(grid)
        path = cache.path_for(grid[0])
        data = json.loads(path.read_text())
        data["digest"] = "0" * 64  # payload and its checksum untouched
        path.write_text(json.dumps(data) + "\n")
        spool = ResultSpool(tmp_path / "warm.jsonl")
        SweepRunner(workers=1, cache=cache).run_spooled(grid, spool)
        warnings = []
        assert list(spool.scan(warnings.append)) == []
        assert "does not reproduce its claimed digest" in warnings[0]
