"""Content-addressed shard manifests: split one spec grid across machines.

A 10k-scenario parameter study does not fit one multiprocessing pool on
one machine.  :func:`shard_specs` partitions a grid into ``shard_count``
disjoint shards by **spec hash**, so the split is a pure function of the
grid's *content*:

* specs are deduplicated by :meth:`~repro.runner.spec.ScenarioSpec.spec_hash`
  and sorted by hash — the enumeration order of the grid is irrelevant;
* shard ``i`` takes every ``shard_count``-th hash starting at ``i``
  (round-robin over the sorted hashes), so shard sizes differ by at most
  one and the shards partition the spec set exactly (no overlap, no loss);
* the **grid digest** — SHA-256 over the sorted spec-hash set — names the
  whole study.  Two manifests with the same grid digest, shard count, and
  shard index describe byte-for-byte the same work, whoever expanded the
  grid and wherever it runs.

A :class:`ShardManifest` is the portable JSON form of one shard: grid
digest, shard coordinates, and the member spec hashes.  It is what the
merge step (:func:`~repro.runner.spool.merge_spools` via ``repro
sweep-merge --check-manifest``) verifies coverage against before
declaring a sharded study complete.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from .spec import ScenarioSpec

__all__ = [
    "ShardManifest",
    "ShardError",
    "grid_digest",
    "shard_specs",
    "load_manifest",
]

#: Bumped if the manifest schema changes shape.
MANIFEST_VERSION = 1


class ShardError(ValueError):
    """A manifest failed validation (bad coordinates, corrupt file)."""


def grid_digest(spec_hashes: Sequence[str]) -> str:
    """SHA-256 of the sorted spec-hash *set* — the study's identity.

    Duplicates collapse and order is discarded, so any enumeration of the
    same grid produces the same digest.
    """
    payload = "\n".join(sorted(set(spec_hashes)))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _check_coordinates(shard_count: int, shard_index: int) -> None:
    if shard_count < 1:
        raise ShardError(f"shard_count must be >= 1 (got {shard_count})")
    if not (0 <= shard_index < shard_count):
        raise ShardError(
            f"shard_index must be in [0, {shard_count}) (got {shard_index})"
        )


@dataclass(frozen=True)
class ShardManifest:
    """One shard of a content-addressed spec grid, in portable form."""

    #: SHA-256 over the full grid's sorted spec-hash set (all shards).
    grid_digest: str
    shard_count: int
    shard_index: int
    #: This shard's member spec hashes, sorted.
    spec_hashes: Tuple[str, ...]
    #: Size of the full (deduplicated) grid, for coverage accounting.
    grid_size: int

    def __post_init__(self) -> None:
        _check_coordinates(self.shard_count, self.shard_index)
        object.__setattr__(self, "spec_hashes", tuple(sorted(self.spec_hashes)))

    @property
    def short_digest(self) -> str:
        return self.grid_digest[:12]

    @property
    def display(self) -> str:
        return (
            f"shard {self.shard_index + 1}/{self.shard_count} of grid "
            f"{self.short_digest}: {len(self.spec_hashes)}/{self.grid_size} specs"
        )

    # ------------------------------------------------------------- JSON form
    def to_json_dict(self) -> Dict[str, object]:
        return {
            "manifest_version": MANIFEST_VERSION,
            "grid_digest": self.grid_digest,
            "shard_count": self.shard_count,
            "shard_index": self.shard_index,
            "grid_size": self.grid_size,
            "spec_hashes": list(self.spec_hashes),
        }

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_json_dict(), sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
        return path

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "ShardManifest":
        try:
            version = data["manifest_version"]
            if version != MANIFEST_VERSION:
                raise ShardError(
                    f"unsupported manifest_version {version} "
                    f"(expected {MANIFEST_VERSION})"
                )
            manifest = cls(
                grid_digest=str(data["grid_digest"]),
                shard_count=int(data["shard_count"]),  # type: ignore[arg-type]
                shard_index=int(data["shard_index"]),  # type: ignore[arg-type]
                spec_hashes=tuple(str(h) for h in data["spec_hashes"]),  # type: ignore[union-attr]
                grid_size=int(data["grid_size"]),  # type: ignore[arg-type]
            )
        except ShardError:
            raise
        except (KeyError, TypeError, ValueError) as error:
            raise ShardError(f"malformed shard manifest: {error}") from None
        return manifest


def load_manifest(path: Union[str, Path]) -> ShardManifest:
    """Read a manifest written by :meth:`ShardManifest.write`."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise ShardError(f"cannot read manifest {path}: {error}") from None
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as error:
        line = raw.count(b"\n", 0, error.start) + 1
        raise ShardError(f"{path}:{line}: not valid UTF-8") from None
    except ValueError as error:
        raise ShardError(f"{path}: not valid JSON: {error}") from None
    if not isinstance(data, dict):
        raise ShardError(f"{path}: manifest must be a JSON object")
    return ShardManifest.from_json_dict(data)


def shard_specs(
    specs: Sequence[ScenarioSpec],
    shard_count: int,
    shard_index: int,
) -> Tuple[ShardManifest, List[ScenarioSpec]]:
    """Deterministically select shard ``shard_index`` of ``shard_count``.

    Returns the manifest plus the member specs **in spec-hash order** —
    the canonical execution order for sharded runs, so two machines
    expanding the same grid walk their shards identically.  Duplicate
    specs (same hash) collapse to one; the grid is a *set*.
    """
    _check_coordinates(shard_count, shard_index)
    by_hash: Dict[str, ScenarioSpec] = {}
    for spec in specs:
        by_hash.setdefault(spec.spec_hash(), spec)
    ordered = sorted(by_hash)
    digest = grid_digest(ordered)
    member_hashes = ordered[shard_index::shard_count]
    manifest = ShardManifest(
        grid_digest=digest,
        shard_count=shard_count,
        shard_index=shard_index,
        spec_hashes=tuple(member_hashes),
        grid_size=len(ordered),
    )
    return manifest, [by_hash[h] for h in member_hashes]
