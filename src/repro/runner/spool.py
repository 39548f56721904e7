"""Streaming JSONL result spooling: crash-safe sweeps with O(1) memory.

A :class:`ResultSpool` is an append-only JSONL file the sweep runner
flushes each :class:`~repro.runner.record.RunRecord` into *as it
completes*, so a 10k-scenario sweep holds at most a pool-chunk of records
in memory and a SIGKILL at any byte loses at most the work in flight.
Each line is self-validating::

    {"v": 1, "spec": "<spec-hash>", "digest": "<record-digest>",
     "sha": "<sha256(payload)[:16]>", "payload": "<base64(pickle(record))>"}

* ``sha`` detects truncated or bit-flipped payloads without unpickling;
* ``digest`` is :func:`~repro.runner.record.record_digest` of the record,
  recomputed after unpickling, so a line that decodes but does not match
  its own digest is treated as damage, never as a result;
* damaged or unparsable lines are **skipped with a warning and their
  specs re-run** — in the trace loader's ``file:line:`` diagnostic
  convention — so a crash mid-write degrades to a little redundant work,
  never to silent loss;
* duplicate spec hashes keep the first valid occurrence (later ones are
  redundant re-runs of the same deterministic spec).

:class:`SweepAggregate` is the incremental roll-up updated per flushed
record; its :meth:`~SweepAggregate.digest` — SHA-256 over the sorted
``(spec_hash, record_digest)`` pairs — is the identity of a *result set*,
which is how a resumed-after-SIGKILL sweep is proven bit-identical to an
uninterrupted one.  :func:`merge_spools` reassembles shard spools into
one sorted spool deterministically: any merge order yields the same
output file and the same aggregate digest.

Crash-test hook
---------------
Setting ``EANT_REPRO_SPOOL_KILL_AFTER=K`` makes the ``K``-th append
``SIGKILL`` the process right after flushing (``K:torn`` kills midway
through writing the line, leaving a truncated final line on disk).  The
resilience suite uses this to park a real sweep at exact crash points;
production runs never set it.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import signal
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .record import RunRecord, record_digest

__all__ = [
    "ResultSpool",
    "SpoolLineError",
    "SweepAggregate",
    "merge_spools",
    "aggregate_digest",
    "digest_listing",
]

#: Bumped if the line schema changes shape.
SPOOL_VERSION = 1

#: Crash-test hook (see module docstring).
KILL_AFTER_ENV = "EANT_REPRO_SPOOL_KILL_AFTER"

WarnFn = Callable[[str], None]


class SpoolLineError(ValueError):
    """One spool line failed validation (the reason is the message)."""


def encode_line(
    spec_hash: str, record: RunRecord, digest: Optional[str] = None
) -> str:
    """Render one record as a self-validating spool line (no newline).

    ``digest`` is the record's :func:`record_digest` when the caller
    already holds it; ``None`` computes it here.
    """
    if digest is None:
        digest = record_digest(record)
    payload = base64.b64encode(
        pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")
    return json.dumps(
        {
            "v": SPOOL_VERSION,
            "spec": spec_hash,
            "digest": digest,
            "sha": hashlib.sha256(payload.encode("ascii")).hexdigest()[:16],
            "payload": payload,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def _utf8(raw: bytes) -> str:
    """One raw spool line as text without its newline; bad bytes are damage."""
    try:
        return raw.decode("utf-8").rstrip("\n")
    except UnicodeDecodeError as error:
        raise SpoolLineError(f"not valid UTF-8 (byte {error.start})") from None


def parse_line(text: str) -> Tuple[str, str, RunRecord]:
    """Parse one spool line -> ``(spec_hash, claimed digest, record)``.

    Checks everything but the digest: raises :class:`SpoolLineError` on
    bad JSON, missing keys, wrong version, checksum mismatch, unpicklable
    payload, wrong type, or a record of another spec.  The claimed digest
    is *not* recomputed; :func:`decode_line` does that.
    """
    try:
        data = json.loads(text)
    except ValueError as error:
        raise SpoolLineError(f"not valid JSON ({error})") from None
    if not isinstance(data, dict):
        raise SpoolLineError("line is not a JSON object")
    try:
        version = data["v"]
        spec_hash = data["spec"]
        digest = data["digest"]
        sha = data["sha"]
        payload = data["payload"]
    except KeyError as error:
        raise SpoolLineError(f"missing key {error}") from None
    if version != SPOOL_VERSION:
        raise SpoolLineError(f"unsupported spool version {version!r}")
    if not all(isinstance(v, str) for v in (spec_hash, digest, sha, payload)):
        raise SpoolLineError("spec/digest/sha/payload must be strings")
    if hashlib.sha256(payload.encode("ascii")).hexdigest()[:16] != sha:
        raise SpoolLineError("payload checksum mismatch")
    try:
        record = pickle.loads(base64.b64decode(payload.encode("ascii")))
    except Exception as error:
        raise SpoolLineError(f"payload does not unpickle ({error})") from None
    if not isinstance(record, RunRecord):
        raise SpoolLineError(
            f"payload is {type(record).__name__}, not RunRecord"
        )
    if record.spec_hash != spec_hash:
        raise SpoolLineError(
            f"record belongs to spec {record.spec_hash[:12]}, line claims "
            f"{str(spec_hash)[:12]}"
        )
    return spec_hash, digest, record


def decode_line(text: str) -> Tuple[str, str, RunRecord]:
    """Parse and *verify* one spool line -> ``(spec_hash, digest, record)``.

    Raises :class:`SpoolLineError` on any damage :func:`parse_line`
    finds, or on a record that does not reproduce its claimed digest.
    The digest is recomputed on the freshly unpickled record because
    spools are merged across machines and code versions.
    """
    spec_hash, digest, record = parse_line(text)
    if record_digest(record) != digest:
        raise SpoolLineError("record does not reproduce its claimed digest")
    return spec_hash, digest, record


def _parse_kill_after(raw: Optional[str]) -> Tuple[Optional[int], bool]:
    """``"K"`` -> (K, False); ``"K:torn"`` -> (K, True); unset -> (None, _)."""
    if not raw:
        return None, False
    count, _, mode = raw.partition(":")
    return int(count), mode == "torn"


class ResultSpool:
    """Append-only JSONL spool of finished run records.

    Appends flush eagerly so that a process killed with SIGKILL leaves at
    most one truncated final line — which :meth:`scan` skips with a
    warning and the runner re-executes.  The file is created lazily on
    the first append; a missing file scans as empty.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = None
        self._appended = 0
        self._kill_after, self._kill_torn = _parse_kill_after(
            os.environ.get(KILL_AFTER_ENV)
        )

    # --------------------------------------------------------------- writing
    def append(self, record: RunRecord, line: Optional[str] = None) -> str:
        """Write one record and flush it to the OS before returning.

        ``line`` is the record's :func:`encode_line` text when the caller
        already holds it (the line it cached, or read from the cache); it
        is written verbatim.  Returns the record digest written into the
        line, so callers fold the record into a :class:`SweepAggregate`
        without digesting twice.
        """
        digest = record_digest(record)
        if line is None:
            line = encode_line(record.spec_hash, record, digest)
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
            # A SIGKILL mid-write leaves an unterminated final line; if we
            # appended straight after it, our first record would glue onto
            # the fragment and both would be lost.  Seal the fragment into
            # its own (invalid, warned, redone) line instead.
            if self._handle.tell() > 0:
                with open(self.path, "rb") as probe:
                    probe.seek(-1, os.SEEK_END)
                    if probe.read(1) != b"\n":
                        self._handle.write("\n")
        if (
            self._kill_after is not None
            and self._kill_torn
            and self._appended + 1 == self._kill_after
        ):  # pragma: no cover - exercised via subprocess rig
            self._handle.write(line[: max(1, len(line) // 2)])
            self._handle.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        self._handle.write(line + "\n")
        self._handle.flush()
        self._appended += 1
        if self._appended == self._kill_after:  # pragma: no cover - subprocess rig
            os.kill(os.getpid(), signal.SIGKILL)
        return digest

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultSpool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --------------------------------------------------------------- reading
    def scan(
        self, warn: Optional[WarnFn] = None
    ) -> Iterator[Tuple[str, str, RunRecord]]:
        """Yield every *valid, first-occurrence* ``(hash, digest, record)``.

        Damaged lines and duplicate spec hashes are skipped; each skip
        emits one ``path:line: warning: ...`` diagnostic through ``warn``.
        A missing spool file yields nothing (a fresh sweep).
        """
        if not self.path.exists():
            return
        seen: Dict[str, str] = {}
        # Bytes in, one strict decode per line: a line that is not UTF-8
        # is damaged like any other, not a reason to abandon the scan.
        with open(self.path, "rb") as handle:
            for lineno, raw in enumerate(handle, start=1):
                if not raw.strip():
                    continue
                try:
                    spec_hash, digest, record = decode_line(_utf8(raw))
                except SpoolLineError as error:
                    if warn is not None:
                        warn(
                            f"{self.path}:{lineno}: warning: {error}; "
                            f"the spec will be re-run"
                        )
                    continue
                if spec_hash in seen:
                    if warn is not None:
                        extra = (
                            ""
                            if seen[spec_hash] == digest
                            else " with a different digest"
                        )
                        warn(
                            f"{self.path}:{lineno}: warning: duplicate entry "
                            f"for spec {spec_hash[:12]}{extra}; keeping the "
                            f"first occurrence"
                        )
                    continue
                seen[spec_hash] = digest
                yield spec_hash, digest, record

    def completed(self, warn: Optional[WarnFn] = None) -> Dict[str, str]:
        """``{spec_hash: record_digest}`` of every valid spooled result."""
        return {h: d for h, d, _ in self.scan(warn)}


# ---------------------------------------------------------------- aggregate
def aggregate_digest(entries: Dict[str, str]) -> str:
    """SHA-256 identity of a result *set*: sorted (spec, digest) pairs.

    Execution order, shard layout, resume history, and merge order all
    vanish — two sweeps of the same grid match iff every per-spec record
    digest matches.
    """
    payload = "\n".join(f"{h} {d}" for h, d in sorted(entries.items()))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


@dataclass
class SweepAggregate:
    """Incremental roll-up of spooled records: O(1) memory in grid size.

    Holds two small strings per spec (the identity pairs) plus scalar
    totals — never the records themselves.
    """

    #: spec_hash -> record_digest of every folded record
    entries: Dict[str, str] = field(default_factory=dict)
    records: int = 0
    total_energy_kj: float = 0.0
    max_makespan: float = 0.0
    jobs_completed: int = 0
    total_run_seconds: float = 0.0

    def add(self, record: RunRecord, digest: Optional[str] = None) -> None:
        """Fold one record in.

        ``digest`` is the record's :func:`record_digest` as returned by
        :meth:`ResultSpool.append` or verified by :meth:`ResultSpool.scan`;
        ``None`` computes it here.
        """
        if digest is None:
            digest = record_digest(record)
        self.entries[record.spec_hash] = digest
        self.records += 1
        metrics = record.metrics
        self.total_energy_kj += metrics.total_energy_kj
        self.max_makespan = max(self.max_makespan, metrics.makespan)
        self.jobs_completed += len(metrics.job_results)
        self.total_run_seconds += record.wall_seconds

    def digest(self) -> str:
        return aggregate_digest(self.entries)

    def summary(self) -> str:
        return (
            f"aggregate {self.digest()[:12]}: {self.records} records, "
            f"{self.jobs_completed} jobs, {self.total_energy_kj:.0f} kJ total, "
            f"max makespan {self.max_makespan / 60:.1f} min"
        )


# -------------------------------------------------------------------- merge
def merge_spools(
    spools: Sequence[Union[str, Path, ResultSpool]],
    out: Optional[Union[str, Path]] = None,
    warn: Optional[WarnFn] = None,
) -> Dict[str, str]:
    """Reassemble shard spools into one result set, deterministically.

    Returns the merged ``{spec_hash: record_digest}`` mapping and, when
    ``out`` is given, writes a merged spool whose lines are re-encoded in
    spec-hash order — so merging the same shards in *any* order produces
    the same mapping and the same output file.  Conflicting duplicates
    (same spec hash, different record digest — impossible for one code
    version, possible across versions) resolve to the lexicographically
    smaller digest, with a warning, so even pathological inputs merge
    deterministically.
    """
    opened = [s if isinstance(s, ResultSpool) else ResultSpool(s) for s in spools]
    chosen: Dict[str, Tuple[str, RunRecord]] = {}
    for spool in opened:
        for spec_hash, digest, record in spool.scan(warn):
            if spec_hash not in chosen:
                chosen[spec_hash] = (digest, record)
                continue
            have, _ = chosen[spec_hash]
            if have == digest:
                continue
            if warn is not None:
                warn(
                    f"{spool.path}: warning: conflicting digests for spec "
                    f"{spec_hash[:12]} ({have[:12]} vs {digest[:12]}); "
                    f"keeping the smaller"
                )
            if digest < have:
                chosen[spec_hash] = (digest, record)
    entries = {h: d for h, (d, _) in chosen.items()}
    if out is not None:
        import dataclasses

        out_path = Path(out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as handle:
            for spec_hash in sorted(chosen):
                digest, record = chosen[spec_hash]
                # Normalize the digest-excluded fields (host timing and
                # observational sections) so the merged bytes are a pure
                # function of the result *content* — a spool assembled
                # from a killed-and-resumed run merges byte-identical to
                # one from an uninterrupted run.  The scanned digest stays
                # valid: it never covered those fields.
                record = dataclasses.replace(
                    record,
                    wall_seconds=0.0,
                    telemetry=None,
                )
                handle.write(encode_line(spec_hash, record, digest) + "\n")
    return entries


def digest_listing(entries: Dict[str, str]) -> List[str]:
    """``"<spec_hash> <record_digest>"`` lines, sorted — the diffable form."""
    return [f"{h} {d}" for h, d in sorted(entries.items())]
