"""Checkpoint manifests for the durable sharded engine.

A checkpoint is a consistent cut of the whole engine at one committed
sequence: every shard's worker exports its current documents as RXB1
payloads, the parent writes them as per-shard RXSN snapshot files
(:func:`repro.core.corpus_io.write_snapshot_payloads`, so the same
container serves warm starts and recovery), and this module records the
cut in an atomically-replaced JSON manifest::

    <data_dir>/checkpoint.json
    <data_dir>/checkpoints/ckpt-<seq:012d>-shard<i>.rxs

The manifest keeps the newest :data:`CheckpointManager.KEEP`
checkpoints.  Keeping more than one is the recovery fallback: a
manifest entry whose snapshot files were deleted or damaged is skipped
and the previous checkpoint is used instead (its WAL suffix is longer,
but nothing acknowledged is lost — WAL segments are only compacted
below the *oldest retained* checkpoint).

Each snapshot directory entry carries two extra fields beyond the
standard RXSN meta: ``ordinal`` (the document's global ordinal, ``-1``
for replicated reference documents) and ``replicated`` — enough to
rebuild the parent's partition map without re-hashing.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..errors import BenchmarkError
from .corpus_io import Snapshot

#: ``rxck/2`` data dirs hold one write-ahead log for the whole engine;
#: ``rxck/1`` dirs held one per shard, so reading one here would replay
#: only shard 0's structural writes — :meth:`CheckpointManager.load`
#: ignores them and recovery refuses the directory.
MANIFEST_FORMAT = "rxck/2"
MANIFEST_NAME = "checkpoint.json"
SNAPSHOT_DIR = "checkpoints"


class CheckpointManager:
    """Owns ``<data_dir>/checkpoint.json`` and its snapshot files."""

    #: checkpoints retained in the manifest (newest last).  The older
    #: ones exist purely as recovery fallbacks.
    KEEP = 2

    def __init__(self, data_dir: str | Path) -> None:
        self.data_dir = Path(data_dir)
        self.manifest_path = self.data_dir / MANIFEST_NAME
        self.snapshot_dir = self.data_dir / SNAPSHOT_DIR

    @staticmethod
    def exists(data_dir: str | Path) -> bool:
        """Whether ``data_dir`` holds a checkpoint manifest (i.e. the
        directory is recoverable-from rather than fresh)."""
        return (Path(data_dir) / MANIFEST_NAME).is_file()

    # -- manifest I/O --------------------------------------------------------

    def load(self) -> dict | None:
        """The parsed manifest, or ``None`` when absent/unreadable."""
        try:
            with open(self.manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            return None
        if manifest.get("format") != MANIFEST_FORMAT:
            return None
        return manifest

    def _store(self, manifest: dict) -> None:
        self.data_dir.mkdir(parents=True, exist_ok=True)
        temp = self.manifest_path.with_name(MANIFEST_NAME + ".tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.manifest_path)

    # -- checkpoint lifecycle ------------------------------------------------

    def snapshot_path(self, seq: int, shard: int) -> Path:
        return (self.snapshot_dir
                / f"ckpt-{seq:012d}-shard{shard}.rxs")

    def record(self, *, seq: int, class_key: str, engine_key: str,
               shards: int, snapshot_paths: list[Path],
               index_paths: list[str], next_ordinal: int,
               home: int | None) -> dict:
        """Append one checkpoint entry, trim to :attr:`KEEP`, and
        delete the snapshot files of entries that fell off.  Returns
        the stored manifest."""
        manifest = self.load() or {"format": MANIFEST_FORMAT,
                                   "checkpoints": []}
        manifest.update({"class": class_key, "engine": engine_key,
                         "shards": shards})
        entry = {
            "seq": seq,
            "snapshots": [os.path.relpath(path, self.data_dir)
                          for path in snapshot_paths],
            "index_paths": list(index_paths),
            "next_ordinal": next_ordinal,
            "home": home,
        }
        checkpoints = [existing for existing
                       in manifest.get("checkpoints", [])
                       if existing.get("seq") != seq]
        checkpoints.append(entry)
        checkpoints.sort(key=lambda item: item.get("seq", 0))
        dropped = checkpoints[:-self.KEEP]
        manifest["checkpoints"] = checkpoints[-self.KEEP:]
        self._store(manifest)
        kept = {relative for item in manifest["checkpoints"]
                for relative in item.get("snapshots", ())}
        for item in dropped:
            for relative in item.get("snapshots", ()):
                if relative in kept:
                    continue
                try:
                    (self.data_dir / relative).unlink()
                except OSError:
                    pass
        return manifest

    def oldest_retained_seq(self) -> int:
        """The oldest checkpoint sequence still in the manifest — the
        WAL compaction cutoff (segments below it serve no retained
        checkpoint)."""
        manifest = self.load()
        if not manifest or not manifest.get("checkpoints"):
            return 0
        return min(item.get("seq", 0)
                   for item in manifest["checkpoints"])

    def latest_valid(self) -> tuple[dict, list[Snapshot], list[str]] \
            | None:
        """The newest checkpoint whose snapshot files all open.

        Walks the manifest newest-first; an entry with a missing or
        unreadable snapshot is skipped (the fallback the recovery tests
        exercise) and the skip is reported in the returned incident
        strings.  Returns ``(entry, snapshots, incidents)`` — the
        caller owns (and must close) the opened snapshots — or ``None``
        when no entry is usable.
        """
        manifest = self.load()
        if not manifest:
            return None
        incidents: list[str] = []
        for entry in reversed(manifest.get("checkpoints", [])):
            snapshots: list[Snapshot] = []
            try:
                for relative in entry.get("snapshots", ()):
                    snapshots.append(
                        Snapshot.open(self.data_dir / relative))
            except (OSError, BenchmarkError) as exc:
                for snapshot in snapshots:
                    snapshot.close()
                incidents.append(
                    f"checkpoint seq {entry.get('seq')} unusable "
                    f"({exc}); falling back to previous checkpoint")
                continue
            return entry, snapshots, incidents
        return None


__all__ = ["CheckpointManager", "MANIFEST_NAME", "MANIFEST_FORMAT"]
