"""Result-cache behavior: hit/miss, salt invalidation, corruption healing."""

import pickle
import time
from pathlib import Path

import pytest

from repro.runner import ResultCache, ScenarioSpec, code_version_salt
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


class TestClearGeneration:
    def test_clear_removes_current_generation_only(self, tmp_path, spec, record):
        current = ResultCache(tmp_path, salt="d" * 64)
        other = ResultCache(tmp_path, salt="e" * 64)
        current.put(spec, record)
        other.put(spec, record)
        assert current.clear_generation() == 1
        assert current.get(spec) is None
        assert other.get(spec) is not None
