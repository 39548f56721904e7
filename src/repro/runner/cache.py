"""Content-addressed result cache for scenario runs.

Results are keyed by ``(code-version salt, spec hash)``:

* the **spec hash** is the SHA-256 of the spec's canonical JSON
  (:meth:`~repro.runner.spec.ScenarioSpec.spec_hash`), so any change to
  any outcome-affecting input produces a different key, and
* the **code-version salt** is the SHA-256 of every ``*.py`` source file
  in the :mod:`repro` package, so editing the simulator invalidates every
  cached result without any manual version bookkeeping.

Layout (one directory per salt, fanned out by the first hash byte)::

    <cache-dir>/
      v1-<salt12>/
        ab/
          <spec-hash>.pkl        # one spool line: the RunRecord + its digest
          <spec-hash>.spec.json  # the spec's canonical JSON (debugging)

An entry is the record's self-validating spool line
(:func:`~repro.runner.spool.encode_line`): a checksummed base64 pickle
plus the record's digest, about a third larger on disk than the bare
pickle (which ``gc``'s size bound counts).  :meth:`ResultCache.get`
checks the checksum and trusts the stored digest — the generation
directory is salted with the source hash, so the code that computed the
digest is the code reading it — where a spool scan, whose lines may come
from another machine or code version, recomputes every digest.

The default cache directory is ``$EANT_REPRO_CACHE_DIR``, else
``$XDG_CACHE_HOME/eant-repro``, else ``~/.cache/eant-repro``.
Corrupt or unreadable entries, including bare-pickle entries of an older
layout under a pinned salt, are treated as misses and removed.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional

from .record import RunRecord, remember_digest, remember_line
from .spool import encode_line, parse_line

if TYPE_CHECKING:  # pragma: no cover
    from .spec import ScenarioSpec

__all__ = [
    "ResultCache",
    "CacheStats",
    "CacheEntry",
    "GcReport",
    "code_version_salt",
    "default_cache_dir",
]

#: Environment override for the salt (useful to pin caches across
#: deliberately-compatible code edits, or to segregate CI runs).
SALT_ENV = "EANT_REPRO_CODE_SALT"
CACHE_DIR_ENV = "EANT_REPRO_CACHE_DIR"

_salt_cache: Optional[str] = None


def code_version_salt() -> str:
    """Hash of the installed ``repro`` package's Python sources.

    Computed once per process; the :data:`SALT_ENV` environment variable
    overrides it verbatim.
    """
    global _salt_cache
    override = os.environ.get(SALT_ENV)
    if override:
        return override
    if _salt_cache is None:
        import repro

        digest = hashlib.sha256()
        package_root = Path(repro.__file__).resolve().parent
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode("utf-8"))
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _salt_cache = digest.hexdigest()
    return _salt_cache


def default_cache_dir() -> Path:
    """Resolve the cache root (env override > XDG > ``~/.cache``)."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "eant-repro"


@dataclass
class CacheStats:
    """Hit/miss/store counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0


@dataclass(frozen=True)
class CacheEntry:
    """One stored record's on-disk metadata (GC inventory unit)."""

    path: Path
    spec_hash: str
    #: Generation directory name (``v1-<salt12>``); entries from stale
    #: code generations compete under the same age/size bounds.
    generation: str
    mtime: float
    size_bytes: int


@dataclass
class GcReport:
    """Accounting of one :meth:`ResultCache.gc` pass.

    A ``dry_run`` report lists exactly what the equivalent real pass
    would remove — the test suite holds the two to byte equality.
    """

    dry_run: bool = False
    scanned: int = 0
    kept: int = 0
    removed: int = 0
    total_bytes: int = 0
    freed_bytes: int = 0
    #: Spec hashes of the removed entries, sorted.
    removed_hashes: List[str] = field(default_factory=list)

    def summary(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        return (
            f"cache gc: scanned {self.scanned} entries "
            f"({self.total_bytes / 1e6:.1f} MB); {verb} {self.removed} "
            f"({self.freed_bytes / 1e6:.1f} MB), kept {self.kept}"
        )


@dataclass
class ResultCache:
    """Filesystem cache of :class:`~repro.runner.record.RunRecord` objects.

    Parameters
    ----------
    directory:
        Cache root; defaults to :func:`default_cache_dir`.
    salt:
        Code-version salt; defaults to :func:`code_version_salt`.
    """

    directory: Optional[Path] = None
    salt: Optional[str] = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.directory is None:
            self.directory = default_cache_dir()
        self.directory = Path(self.directory)
        if self.salt is None:
            self.salt = code_version_salt()

    # -------------------------------------------------------------- layout
    @property
    def generation_dir(self) -> Path:
        """The directory holding this code generation's entries."""
        return self.directory / f"v1-{self.salt[:12]}"

    def path_for(self, spec: "ScenarioSpec") -> Path:
        digest = spec.spec_hash()
        return self.generation_dir / digest[:2] / f"{digest}.pkl"

    # ----------------------------------------------------------- get / put
    def get(self, spec: "ScenarioSpec") -> Optional[RunRecord]:
        """The cached record for ``spec``, or ``None`` on a miss.

        The entry's spool line is checked as :func:`parse_line` does —
        payload checksum, type, and the record's spec hash against the
        line's — and its stored digest is then trusted: the generation
        directory is salted with the source hash, so the code that wrote
        the digest is the code reading it.  The record comes back holding
        that digest, so :func:`record_digest` does not recompute it, and
        the entry's line (:func:`~repro.runner.record.remember_line`), so
        a spooled sweep appends it instead of encoding the record again.

        A damaged entry (truncated, bit-flipped, wrong type, an older
        bare-pickle entry) counts as a miss and is evicted so the slot
        heals on the next store.  An absent entry — never stored, or
        unlinked by a concurrent ``gc`` — is a plain miss: the entry is
        opened directly, with no ``exists()`` probe for an eviction to
        race.
        """
        path = self.path_for(spec)
        try:
            with open(path, "rb") as handle:
                text = handle.read().decode("utf-8")
            _, digest, record = parse_line(text)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            self.stats.misses += 1
            self.stats.evictions += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        remember_digest(record, digest)
        self.stats.hits += 1
        # Touch the entry so GC's age/LRU ordering reflects *use*, not
        # just creation: a spec re-read every sweep stays warm.
        try:
            os.utime(path, None)
        except OSError:  # pragma: no cover - racing eviction
            pass
        line = text[:-1] if text.endswith("\n") else text
        if "\n" not in line and "\r" not in line:
            remember_line(record, line)
        return record

    def put(self, spec: "ScenarioSpec", record: RunRecord) -> Path:
        """Store ``record`` under ``spec``'s content address (atomically).

        The entry is the record's spool line, carrying its digest; the
        line is left on ``record`` (:func:`~repro.runner.record.remember_line`)
        for a spooled sweep to append.
        """
        line = encode_line(record.spec_hash, record)
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Write-then-rename so concurrent sweep workers never observe a
        # half-written entry.
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(line.encode("ascii") + b"\n")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        sidecar = path.with_suffix("").with_suffix(".spec.json")
        sidecar.write_text(spec.canonical_json() + "\n", encoding="utf-8")
        self.stats.stores += 1
        remember_line(record, line)
        return path

    # ------------------------------------------------------------------- GC
    def entries(self) -> Iterator["CacheEntry"]:
        """Every stored record across *all* code generations, cheapest
        metadata only (no unpickling)."""
        if not self.directory.exists():
            return
        for gen_dir in sorted(self.directory.glob("v1-*")):
            if not gen_dir.is_dir():
                continue
            for path in sorted(gen_dir.rglob("*.pkl")):
                try:
                    stat = path.stat()
                except OSError:  # racing deletion
                    continue
                yield CacheEntry(
                    path=path,
                    spec_hash=path.stem,
                    generation=gen_dir.name,
                    mtime=stat.st_mtime,
                    size_bytes=stat.st_size,
                )

    def gc(
        self,
        max_age_seconds: Optional[float] = None,
        max_size_bytes: Optional[int] = None,
        keep: Iterable[str] = (),
        dry_run: bool = False,
        now: Optional[float] = None,
    ) -> "GcReport":
        """Age- and size-bounded compaction across every generation.

        * Entries older than ``max_age_seconds`` (by mtime, which
          :meth:`get` refreshes on every hit — LRU, not FIFO) are evicted.
        * If the surviving set still exceeds ``max_size_bytes``, the
          oldest entries are evicted until it fits.
        * Spec hashes in ``keep`` (e.g. a live shard manifest's members)
          are **never** evicted, by either bound.
        * ``dry_run=True`` reports exactly what a real pass would delete,
          deleting nothing — the report is the contract: a dry run
          followed by a real run removes precisely the listed hashes.

        Both bounds ``None`` means nothing is evicted (the report still
        inventories the cache).  Returns a :class:`GcReport`.
        """
        keep_set = frozenset(keep)
        now = time.time() if now is None else now
        entries = list(self.entries())
        report = GcReport(
            dry_run=dry_run,
            scanned=len(entries),
            total_bytes=sum(e.size_bytes for e in entries),
        )

        doomed: List[CacheEntry] = []
        survivors: List[CacheEntry] = []
        for entry in entries:
            if entry.spec_hash in keep_set:
                survivors.append(entry)
            elif (
                max_age_seconds is not None
                and now - entry.mtime > max_age_seconds
            ):
                doomed.append(entry)
            else:
                survivors.append(entry)

        if max_size_bytes is not None:
            # Oldest-first (mtime, then path for a total order) until the
            # surviving set fits the budget; kept hashes are immovable.
            remaining = sum(e.size_bytes for e in survivors)
            for entry in sorted(survivors, key=lambda e: (e.mtime, str(e.path))):
                if remaining <= max_size_bytes:
                    break
                if entry.spec_hash in keep_set:
                    continue
                doomed.append(entry)
                remaining -= entry.size_bytes

        for entry in doomed:
            report.removed += 1
            report.freed_bytes += entry.size_bytes
            report.removed_hashes.append(entry.spec_hash)
            if dry_run:
                continue
            sidecar = entry.path.with_suffix("").with_suffix(".spec.json")
            for victim in (entry.path, sidecar):
                try:
                    victim.unlink()
                except OSError:
                    pass
            self.stats.evictions += 1
            # Prune now-empty fan-out and generation directories.
            for parent in (entry.path.parent, entry.path.parent.parent):
                try:
                    parent.rmdir()
                except OSError:
                    break
        report.kept = report.scanned - report.removed
        report.removed_hashes.sort()
        return report
