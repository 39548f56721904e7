"""Result-spool line format, damage tolerance, and deterministic merging.

Damage cases mirror what a SIGKILL or a disk hiccup actually produces —
a truncated final line, a garbage line, duplicate entries — and the
contract under all of them is the same: exit clean, warn in the
``file:line: warning:`` convention, redo exactly the damaged specs, and
never silently lose or invent a result.
"""

import base64
import hashlib
import json
import pickle
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import (
    ResultSpool,
    ScenarioSpec,
    SpoolLineError,
    SweepAggregate,
    aggregate_digest,
    digest_listing,
    merge_spools,
    record_digest,
)
from repro.runner.spool import decode_line, encode_line
from repro.workloads import puma_job

# One tiny record per scheduler/seed, executed once per test session.
_RECORDS: dict = {}


def tiny_record(seed: int = 0):
    if seed not in _RECORDS:
        spec = ScenarioSpec(
            jobs=(puma_job("grep", 0.25),),
            scheduler="fifo",
            seed=seed,
            label=f"fifo@{seed}",
        )
        _RECORDS[seed] = spec.run_record()
    return _RECORDS[seed]


# ------------------------------------------------------------- line format
class TestLineFormat:
    def test_roundtrip(self):
        record = tiny_record()
        spec_hash, digest, decoded = decode_line(
            encode_line(record.spec_hash, record)
        )
        assert spec_hash == record.spec_hash
        assert digest == record_digest(record)
        assert record_digest(decoded) == digest

    def test_encoding_is_deterministic(self):
        record = tiny_record()
        assert encode_line(record.spec_hash, record) == encode_line(
            record.spec_hash, record
        )

    @pytest.mark.parametrize(
        "mutate,reason",
        [
            (lambda d: d.pop("payload"), "missing key"),
            (lambda d: d.update(v=99), "unsupported spool version"),
            (lambda d: d.update(sha="0" * 16), "checksum mismatch"),
            (lambda d: d.update(spec=123), "must be strings"),
        ],
    )
    def test_field_damage_is_detected(self, mutate, reason):
        record = tiny_record()
        data = json.loads(encode_line(record.spec_hash, record))
        mutate(data)
        with pytest.raises(SpoolLineError, match=reason):
            decode_line(json.dumps(data))

    def test_wrong_payload_type_is_detected(self):
        payload = base64.b64encode(pickle.dumps({"not": "a record"})).decode()
        line = json.dumps(
            {
                "v": 1,
                "spec": "a" * 64,
                "digest": "b" * 64,
                "sha": hashlib.sha256(payload.encode()).hexdigest()[:16],
                "payload": payload,
            }
        )
        with pytest.raises(SpoolLineError, match="not RunRecord"):
            decode_line(line)

    def test_spec_hash_mismatch_is_detected(self):
        record = tiny_record()
        line = encode_line(record.spec_hash, record)
        data = json.loads(line)
        data["spec"] = "f" * 64
        # Keep sha consistent so the *semantic* check fires, not the checksum.
        with pytest.raises(SpoolLineError, match="belongs to spec"):
            decode_line(json.dumps(data))

    def test_digest_mismatch_is_detected(self):
        record = tiny_record()
        data = json.loads(encode_line(record.spec_hash, record))
        data["digest"] = "0" * 64
        with pytest.raises(SpoolLineError, match="claimed digest"):
            decode_line(json.dumps(data))

    def test_not_json(self):
        with pytest.raises(SpoolLineError, match="not valid JSON"):
            decode_line("{truncated")
        with pytest.raises(SpoolLineError, match="not a JSON object"):
            decode_line("[1, 2, 3]")


# ------------------------------------------------------------ damage scans
def write_spool(path, records) -> None:
    with ResultSpool(path) as spool:
        for record in records:
            spool.append(record)


class TestDamageTolerance:
    def test_truncated_final_line_is_skipped_with_warning(self, tmp_path):
        """The canonical SIGKILL-mid-write shape: half a line at EOF."""
        path = tmp_path / "s.jsonl"
        write_spool(path, [tiny_record(0), tiny_record(1)])
        text = path.read_text()
        lines = text.splitlines()
        path.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])

        warnings: list = []
        entries = dict(
            (h, d) for h, d, _ in ResultSpool(path).scan(warnings.append)
        )
        assert list(entries) == [tiny_record(0).spec_hash]
        assert len(warnings) == 1
        assert warnings[0].startswith(f"{path}:2: warning:")
        assert "re-run" in warnings[0]

    def test_garbage_line_is_skipped_others_survive(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_spool(path, [tiny_record(0)])
        with open(path, "a") as handle:
            handle.write("complete garbage, not even json\n")
        write_spool(path, [tiny_record(1)])  # append mode: keeps going

        warnings: list = []
        completed = ResultSpool(path).completed(warnings.append)
        assert set(completed) == {
            tiny_record(0).spec_hash,
            tiny_record(1).spec_hash,
        }
        assert [w.split(" warning:")[0] for w in warnings] == [f"{path}:2:"]

    def test_undecodable_line_is_skipped_others_survive(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_spool(path, [tiny_record(0)])
        with open(path, "ab") as handle:
            handle.write(b'{"v": 1, "spec": "\xff"}\n')
        write_spool(path, [tiny_record(1)])

        warnings: list = []
        completed = ResultSpool(path).completed(warnings.append)
        assert set(completed) == {
            tiny_record(0).spec_hash,
            tiny_record(1).spec_hash,
        }
        assert len(warnings) == 1
        assert warnings[0].startswith(f"{path}:2: warning: not valid UTF-8")

    def test_duplicate_spec_hash_keeps_first(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_spool(path, [tiny_record(0), tiny_record(0)])
        warnings: list = []
        completed = ResultSpool(path).completed(warnings.append)
        assert len(completed) == 1
        assert len(warnings) == 1
        assert "duplicate entry" in warnings[0]

    def test_resume_append_seals_a_torn_final_line(self, tmp_path):
        """Appending to a spool whose last line is torn must not glue the
        new record onto the fragment (that would lose *both*)."""
        path = tmp_path / "s.jsonl"
        write_spool(path, [tiny_record(0)])
        with open(path, "a") as handle:
            handle.write('{"v":1,"spec":"torn')  # no newline — mid-write kill
        write_spool(path, [tiny_record(1)])

        warnings: list = []
        completed = ResultSpool(path).completed(warnings.append)
        assert set(completed) == {
            tiny_record(0).spec_hash,
            tiny_record(1).spec_hash,
        }
        assert len(warnings) == 1  # only the sealed fragment

    def test_missing_file_scans_empty(self, tmp_path):
        assert ResultSpool(tmp_path / "absent.jsonl").completed() == {}

    def test_blank_lines_are_ignored_silently(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_spool(path, [tiny_record(0)])
        with open(path, "a") as handle:
            handle.write("\n   \n")
        warnings: list = []
        assert len(ResultSpool(path).completed(warnings.append)) == 1
        assert warnings == []


# ------------------------------------------------------------------- merge
class TestMerge:
    def test_merge_is_order_invariant_to_the_byte(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_spool(a, [tiny_record(0), tiny_record(2)])
        write_spool(b, [tiny_record(1), tiny_record(3)])

        out_ab, out_ba = tmp_path / "ab.jsonl", tmp_path / "ba.jsonl"
        entries_ab = merge_spools([a, b], out=out_ab)
        entries_ba = merge_spools([b, a], out=out_ba)
        assert entries_ab == entries_ba
        assert out_ab.read_bytes() == out_ba.read_bytes()
        assert aggregate_digest(entries_ab) == aggregate_digest(entries_ba)

    def test_merge_equals_single_spool_of_everything(self, tmp_path):
        shard0, shard1 = tmp_path / "s0.jsonl", tmp_path / "s1.jsonl"
        full = tmp_path / "full.jsonl"
        write_spool(shard0, [tiny_record(0), tiny_record(2)])
        write_spool(shard1, [tiny_record(1)])
        write_spool(full, [tiny_record(s) for s in range(3)])
        merged = merge_spools([shard0, shard1])
        assert aggregate_digest(merged) == aggregate_digest(
            ResultSpool(full).completed()
        )

    def test_overlapping_shards_with_equal_digests_merge_silently(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_spool(a, [tiny_record(0), tiny_record(1)])
        write_spool(b, [tiny_record(1), tiny_record(2)])
        warnings: list = []
        merged = merge_spools([a, b], warn=warnings.append)
        assert len(merged) == 3
        assert warnings == []

    def test_conflicting_digests_resolve_deterministically(self, tmp_path):
        """Same spec hash, different record digest (cross-version spools):
        both merge orders pick the lexicographically smaller digest."""
        import dataclasses

        record = tiny_record(0)
        imposter = dataclasses.replace(
            record, phase_breakdown_by_job={"fake": {"map": 1.0}}
        )
        assert record_digest(imposter) != record_digest(record)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_spool(a, [record])
        write_spool(b, [imposter])

        warnings: list = []
        merged_ab = merge_spools([a, b], warn=warnings.append)
        merged_ba = merge_spools([b, a])
        assert merged_ab == merged_ba
        assert merged_ab[record.spec_hash] == min(
            record_digest(record), record_digest(imposter)
        )
        assert any("conflicting digests" in w for w in warnings)

    def test_merged_output_is_itself_a_valid_spool(self, tmp_path):
        a = tmp_path / "a.jsonl"
        out = tmp_path / "merged.jsonl"
        write_spool(a, [tiny_record(0), tiny_record(1)])
        entries = merge_spools([a], out=out)
        assert ResultSpool(out).completed() == entries


# -------------------------------------------------------------- aggregates
class TestAggregate:
    def test_incremental_matches_scan(self, tmp_path):
        path = tmp_path / "s.jsonl"
        aggregate = SweepAggregate()
        with ResultSpool(path) as spool:
            for seed in range(3):
                record = tiny_record(seed)
                spool.append(record)
                aggregate.add(record)
        assert aggregate.records == 3
        assert aggregate.digest() == aggregate_digest(
            ResultSpool(path).completed()
        )
        assert aggregate.digest()[:12] in aggregate.summary()

    def test_digest_listing_is_sorted_and_diffable(self):
        entries = {"b" * 64: "2" * 64, "a" * 64: "1" * 64}
        listing = digest_listing(entries)
        assert listing == sorted(listing)
        assert listing[0] == f"{'a' * 64} {'1' * 64}"

    @settings(max_examples=30, deadline=None)
    @given(
        entries=st.dictionaries(
            st.text(alphabet="0123456789abcdef", min_size=8, max_size=8),
            st.text(alphabet="0123456789abcdef", min_size=8, max_size=8),
            max_size=16,
        ),
        order_seed=st.randoms(use_true_random=False),
    )
    def test_aggregate_digest_is_insertion_order_invariant(
        self, entries, order_seed
    ):
        items = list(entries.items())
        order_seed.shuffle(items)
        assert aggregate_digest(dict(items)) == aggregate_digest(entries)


class TestOlderRecordShape:
    """Spool lines pickled before ``RunRecord.profile`` was removed."""

    #: One fifo/seed-0 grep:0.5 line, written by
    #: ``repro sweep --jobs grep:0.5 --seeds 0 --schedulers fifo --workers 1
    #: --no-cache --spool ...`` while ``RunRecord`` still had ``profile``.
    FIXTURE = Path(__file__).resolve().parent / "fixtures" / "spool_pre_cprofile.jsonl"
    SPEC_HASH = "7d595d085860db1c08566cbfc4bf123719aed72324ad3868060d52fa1c1b7955"
    DIGEST = "939322d1e4b3ae477b0d02ae4e56082dfced51b2491730495b07f56b36bdb5b1"

    def test_resumes_with_unchanged_digest(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "old.jsonl"
        shutil.copy(self.FIXTURE, path)
        warnings = []
        [(spec_hash, digest, record)] = list(ResultSpool(path).scan(warnings.append))
        assert not warnings
        # The removed field survives unpickling as a stale attribute that
        # the digest projection (declared fields only) never reads.
        assert "profile" in vars(record)
        assert (spec_hash, digest) == (self.SPEC_HASH, self.DIGEST)
        assert record_digest(record) == self.DIGEST
        merged = merge_spools([path], out=tmp_path / "merged.jsonl")
        assert merged == {self.SPEC_HASH: self.DIGEST}

        assert main(["sweep", "--jobs", "grep:0.5", "--seeds", "0",
                     "--schedulers", "fifo", "--workers", "1", "--no-cache",
                     "--spool", str(path)]) == 0
        assert "1 resumed, 0 cached, 0 executed" in capsys.readouterr().out
        assert path.read_bytes() == self.FIXTURE.read_bytes()
