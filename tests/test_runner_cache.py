"""Result-cache behavior: hit/miss, salt invalidation, corruption healing."""

import base64
import json
import pickle
import struct
import time
from pathlib import Path

import pytest

from repro.runner import (
    ResultCache,
    ResultSpool,
    RunRecord,
    ScenarioSpec,
    SweepRunner,
    code_version_salt,
)
from repro.runner.cache import SALT_ENV
from repro.workloads import puma_job


@pytest.fixture
def spec() -> ScenarioSpec:
    return ScenarioSpec(jobs=(puma_job("grep", 0.5),), scheduler="fifo", seed=1)


@pytest.fixture
def record(spec):
    return spec.run_record()


class TestHitMiss:
    def test_cold_cache_misses(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        assert cache.get(spec) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0
        assert cache.stats.evictions == 0

    def test_entry_unlinked_by_gc_is_a_plain_miss(self, tmp_path, spec, record, monkeypatch):
        """An entry a concurrent ``cache gc`` removed is a miss, not a
        corrupt-entry eviction — even if an existence probe had seen it."""
        reader = ResultCache(tmp_path)
        reader.put(spec, record)
        report = ResultCache(tmp_path).gc(max_age_seconds=0.0, now=time.time() + 60)
        assert report.removed == 1
        # Model the race: the entry "still exists" to any probe made
        # before the unlink.
        monkeypatch.setattr(Path, "exists", lambda self: True)
        assert reader.get(spec) is None
        assert reader.stats.misses == 1
        assert reader.stats.evictions == 0

    def test_put_then_get_hits(self, tmp_path, spec, record):
        cache = ResultCache(tmp_path)
        cache.put(spec, record)
        restored = cache.get(spec)
        assert restored is not None
        assert restored.spec_hash == spec.spec_hash()
        assert restored.metrics == record.metrics
        assert cache.stats.stores == 1
        assert cache.stats.hits == 1

    def test_entries_survive_new_cache_instance(self, tmp_path, spec, record):
        ResultCache(tmp_path).put(spec, record)
        assert ResultCache(tmp_path).get(spec) is not None

    def test_different_spec_is_a_miss(self, tmp_path, spec, record):
        cache = ResultCache(tmp_path)
        cache.put(spec, record)
        assert cache.get(spec.with_overrides(seed=2)) is None

    def test_sidecar_json_written(self, tmp_path, spec, record):
        cache = ResultCache(tmp_path)
        path = cache.put(spec, record)
        sidecar = path.with_suffix("").with_suffix(".spec.json")
        assert sidecar.read_text().strip() == spec.canonical_json()


class TestSaltInvalidation:
    def test_different_salt_does_not_share_entries(self, tmp_path, spec, record):
        old = ResultCache(tmp_path, salt="a" * 64)
        old.put(spec, record)
        new = ResultCache(tmp_path, salt="b" * 64)
        assert new.get(spec) is None
        assert old.get(spec) is not None  # the old generation stays intact

    def test_generation_dir_embeds_salt(self, tmp_path):
        cache = ResultCache(tmp_path, salt="c" * 64)
        assert f"v1-{'c' * 12}" in str(cache.generation_dir)

    def test_env_salt_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SALT_ENV, "pinned-salt")
        assert code_version_salt() == "pinned-salt"
        assert ResultCache(tmp_path).salt == "pinned-salt"

    def test_code_salt_is_stable_hex(self, monkeypatch):
        monkeypatch.delenv(SALT_ENV, raising=False)
        salt = code_version_salt()
        assert salt == code_version_salt()
        assert len(salt) == 64
        int(salt, 16)


class TestCorruption:
    def test_corrupt_entry_is_miss_and_evicted(self, tmp_path, spec, record):
        cache = ResultCache(tmp_path)
        path = cache.put(spec, record)
        path.write_bytes(b"not a pickle")
        assert cache.get(spec) is None
        assert cache.stats.evictions == 1
        assert not path.exists()
        # The slot heals on the next store.
        cache.put(spec, record)
        assert cache.get(spec) is not None

    def test_wrong_type_entry_is_miss(self, tmp_path, spec, record):
        cache = ResultCache(tmp_path)
        path = cache.put(spec, record)
        path.write_bytes(pickle.dumps({"not": "a RunRecord"}))
        assert cache.get(spec) is None
        assert cache.stats.evictions == 1


def _grid():
    return [
        ScenarioSpec(jobs=(puma_job("grep", 0.5),), scheduler=scheduler, seed=seed)
        for scheduler in ("fifo", "fair")
        for seed in (1, 2)
    ]


def _sweep(cache, grid, spool_path):
    runner = SweepRunner(workers=1, cache=cache)
    digest = runner.run_spooled(grid, ResultSpool(spool_path)).digest()
    report = runner.last_report
    return digest, (report.resumed, report.cache_hits, report.executed)


class TestDamagedEntryIsRerun:
    """A damaged entry is a miss that is evicted, and the sweep re-runs
    exactly that spec to the same result set."""

    def test_altered_float_in_the_payload(self, tmp_path):
        grid = _grid()
        cold, counts = _sweep(ResultCache(tmp_path / "cache"), grid, tmp_path / "cold.jsonl")
        assert counts == (0, 0, len(grid))

        # Change the idle joules inside the pickled record, keeping the
        # line well-formed: the payload still unpickles to a valid RunRecord.
        cache = ResultCache(tmp_path / "cache")
        path = cache.path_for(grid[1])
        line = json.loads(path.read_text())
        raw = base64.b64decode(line["payload"])
        idle = pickle.loads(raw).metrics.idle_energy_joules
        packed = struct.pack(">d", idle)  # a pickle BINFLOAT's bytes
        assert raw.count(packed) == 1
        raw = raw.replace(packed, struct.pack(">d", idle + 1.0))
        altered = pickle.loads(raw)
        assert isinstance(altered, RunRecord)
        assert altered.metrics.idle_energy_joules == idle + 1.0
        line["payload"] = base64.b64encode(raw).decode("ascii")
        path.write_text(json.dumps(line) + "\n")

        warm, counts = _sweep(cache, grid, tmp_path / "warm.jsonl")
        assert counts == (0, len(grid) - 1, 1)
        assert (cache.stats.misses, cache.stats.evictions) == (1, 1)
        assert warm == cold
        # The re-run stored the right record again.
        assert cache.get(grid[1]).metrics.idle_energy_joules == idle

    def test_bare_pickle_entry_of_the_old_layout(self, tmp_path, monkeypatch):
        """Under a pinned salt an entry written by the pickle-only layout
        sits at the same path: it is a miss, evicted and re-run."""
        monkeypatch.setenv(SALT_ENV, "pinned-salt")
        grid = _grid()
        cold, _ = _sweep(ResultCache(tmp_path / "cold-cache"), grid, tmp_path / "cold.jsonl")
        cache = ResultCache(tmp_path / "cache")
        for spec in grid:
            path = cache.path_for(spec)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(pickle.dumps(spec.run_record(), protocol=pickle.HIGHEST_PROTOCOL))

        again, counts = _sweep(cache, grid, tmp_path / "again.jsonl")
        assert counts == (0, 0, len(grid))
        assert cache.stats.evictions == len(grid)
        assert again == cold
        assert all(cache.get(spec) is not None for spec in grid)
