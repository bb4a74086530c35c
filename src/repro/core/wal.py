"""Durable write-ahead log for the replication journal.

The sharded engine's in-memory journal is the replication log: every
acknowledged write appends one sequence-numbered entry, once, whatever
the shard count.  This module persists that stream so acknowledged
writes survive the process — the classic checkpointed-WAL shape that
RadegastXDB (and every durable DBMS) layers over its page store: one
log over the whole store.

On-disk layout (the engine opens exactly one log, ``shard=0``; the
``shard`` slot in the path and the segment header identifies a log,
not a partition)::

    <data_dir>/shard-<i>/wal/seg-<base_seq:012d>.wal

Each segment starts with a fixed header::

    RXWL | version u32 | shard u32 | base_seq u64

followed by length-prefixed frames::

    <u32 payload_len> <u32 crc32(payload)> <payload>

where the payload is the UTF-8 JSON array ``[seq, [op, ...]]`` — journal
ops are tuples of strings, so JSON round-trips them exactly and the log
stays inspectable with ``xxd``.  ``base_seq`` is the sequence of the
first record the segment *may* hold; segments are strictly ordered by
it, so compaction can delete a whole segment the moment the next
segment's base is at or below the checkpoint cutoff.

Corruption policy (exercised by the recovery tests):

* a **torn tail** — an incomplete frame at the end of the *last*
  segment, the signature of a crash mid-append — is truncated away on
  open (under ``fsync="always"`` that write was never acknowledged);
* a **corrupt mid-log record** (CRC mismatch on a fully-present frame)
  is *skipped*: :meth:`WriteAheadLog.records` keeps replaying the
  frames after it and the skip surfaces as a typed
  :class:`~repro.errors.WalCorruption` on :attr:`WriteAheadLog.incidents`
  — data loss is reported, not turned into a crash;
* an **implausible frame length** (past end-of-file, or absurdly large)
  means the length word itself is damaged and resynchronisation is
  impossible — the rest of that segment is abandoned (truncated when it
  is the live tail).

``fsync`` policy knob:

* ``"always"`` — fsync after every append: an acknowledged write is on
  stable storage before the client sees the ack (the kill -9 gate in CI
  runs this mode);
* ``"batch"`` — appends reach the OS immediately (``flush``) but fsync
  happens only on :meth:`WriteAheadLog.sync` (the checkpoint daemon
  calls it), rotation and close — a crash of the *process* loses
  nothing, a crash of the *machine* loses the tail since the last sync;
* ``"off"`` — never fsync; durability rides entirely on the OS.

Fault-injection sites (:mod:`repro.faults.plan`, free when no plan is
installed): ``wal.append`` (before the frame is written) and
``wal.fsync`` (before the fsync call) — the disk-fault chaos scenario
drives both.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

from ..errors import ShardError, WalCorruption
from ..faults import plan as _faults
from ..obs import recorder as _obs

WAL_MAGIC = b"RXWL"
WAL_VERSION = 1
#: magic, version, shard index, base sequence.
_SEG_HEADER = struct.Struct("<4sIIQ")
#: payload length, payload crc32.
_FRAME_HEADER = struct.Struct("<II")
#: hard ceiling on a single frame's payload — a length word beyond this
#: is treated as corruption (resync impossible), not as a giant record.
MAX_FRAME_BYTES = 64 * 1024 * 1024
#: default segment rotation threshold.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

FSYNC_POLICIES = ("always", "batch", "off")


def wal_dir(data_dir: str | Path, shard: int) -> Path:
    """The WAL directory of shard ``shard`` under ``data_dir``."""
    return Path(data_dir) / f"shard-{shard}" / "wal"


def _segment_name(base_seq: int) -> str:
    return f"seg-{base_seq:012d}.wal"


def _encode_frame(seq: int, op: tuple) -> bytes:
    payload = json.dumps([seq, list(op)],
                         separators=(",", ":")).encode("utf-8")
    return _FRAME_HEADER.pack(len(payload),
                              zlib.crc32(payload)) + payload


class WriteAheadLog:
    """One append-only segmented log (identified by ``shard``).

    Opening scans the existing segments (crash recovery path): the torn
    tail of the last segment is truncated, mid-log CRC corruption is
    recorded on :attr:`incidents`, and appends resume at the end of the
    last segment.  :meth:`records` re-scans from disk — recovery calls
    it once to rebuild the journal suffix.
    """

    def __init__(self, data_dir: str | Path, shard: int, *,
                 fsync: str = "batch",
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ShardError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        self.shard = shard
        self.fsync = fsync
        self.segment_bytes = segment_bytes
        self.dir = wal_dir(data_dir, shard)
        self.dir.mkdir(parents=True, exist_ok=True)
        #: typed corruption incidents found by open/replay scans.
        self.incidents: list[WalCorruption] = []
        #: highest sequence appended or recovered (0 = empty log).
        self.last_seq = 0
        self._handle = None
        self._active: Path | None = None
        self._recover_tail()

    # -- open-time scan ------------------------------------------------------

    def segments(self) -> list[Path]:
        """Existing segment paths in base-sequence order."""
        return sorted(self.dir.glob("seg-*.wal"))

    def _recover_tail(self) -> None:
        """Truncate the torn tail of the last segment and position
        appends after its last valid frame."""
        segments = self.segments()
        if not segments:
            self._open_segment(base_seq=1)
            return
        for path in segments[:-1]:
            # Full scan keeps last_seq exact; torn frames before the
            # last segment mean the file system lost an already-rotated
            # region — report, never truncate a non-tail segment.
            self._scan(path, truncate=False)
        last = segments[-1]
        self._scan(last, truncate=True)
        self._active = last
        self._handle = open(last, "ab")
        self._handle.seek(0, os.SEEK_END)

    def _scan(self, path: Path, *, truncate: bool,
              collect: list | None = None) -> None:
        """Validate one segment; optionally truncate its torn tail and
        collect ``(seq, op)`` tuples of the valid frames."""
        with open(path, "r+b" if truncate else "rb") as handle:
            data = handle.read()
            size = len(data)
            if size < _SEG_HEADER.size:
                self._corrupt(path, 0, "segment shorter than header")
                if truncate:
                    handle.truncate(0)
                    self._write_header(handle, self._base_of(path))
                return
            magic, version, shard, __base = _SEG_HEADER.unpack_from(
                data, 0)
            if magic != WAL_MAGIC or version != WAL_VERSION \
                    or shard != self.shard:
                self._corrupt(
                    path, 0,
                    f"bad segment header (magic {magic!r}, version "
                    f"{version}, shard {shard})")
                return
            offset = _SEG_HEADER.size
            good_end = offset
            while offset < size:
                if offset + _FRAME_HEADER.size > size:
                    self._corrupt(path, offset, "torn frame header")
                    break
                length, crc = _FRAME_HEADER.unpack_from(data, offset)
                if length > MAX_FRAME_BYTES:
                    self._corrupt(
                        path, offset,
                        f"implausible frame length {length}; "
                        "abandoning segment remainder")
                    break
                end = offset + _FRAME_HEADER.size + length
                if end > size:
                    self._corrupt(path, offset, "torn frame payload")
                    break
                payload = data[offset + _FRAME_HEADER.size:end]
                if zlib.crc32(payload) != crc:
                    # Mid-log corruption: skip this record, keep going.
                    if self._corrupt(path, offset,
                                     "crc mismatch; record skipped"):
                        _obs.count("wal.corrupt_records")
                    offset = end
                    good_end = end
                    continue
                try:
                    seq, op = json.loads(payload.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    if self._corrupt(path, offset,
                                     "undecodable record skipped"):
                        _obs.count("wal.corrupt_records")
                    offset = end
                    good_end = end
                    continue
                self.last_seq = max(self.last_seq, int(seq))
                if collect is not None:
                    collect.append((int(seq), tuple(op)))
                offset = end
                good_end = end
            if truncate and good_end < size:
                handle.truncate(good_end)
                _obs.count("wal.torn_tails")

    def _corrupt(self, path: Path, offset: int, message: str) -> bool:
        # Scans run twice over the same frames (once at open, again
        # when recovery calls records()) — the same damage must not
        # surface as two incidents.  Returns whether it was new.
        for incident in self.incidents:
            if incident.path == str(path) \
                    and incident.offset == offset:
                return False
        self.incidents.append(
            WalCorruption(message, path=str(path), offset=offset))
        return True

    @staticmethod
    def _base_of(path: Path) -> int:
        try:
            return int(path.stem.split("-", 1)[1])
        except (IndexError, ValueError):
            return 1

    # -- appending -----------------------------------------------------------

    def _write_header(self, handle, base_seq: int) -> None:
        handle.write(_SEG_HEADER.pack(WAL_MAGIC, WAL_VERSION,
                                      self.shard, base_seq))

    def _open_segment(self, base_seq: int) -> None:
        path = self.dir / _segment_name(base_seq)
        handle = open(path, "ab")
        handle.seek(0, os.SEEK_END)
        if handle.tell() == 0:
            self._write_header(handle, base_seq)
            handle.flush()
        self._active = path
        self._handle = handle
        _obs.count("wal.segments_opened")

    def append(self, seq: int, op: tuple) -> None:
        """Durably append one journal entry per the fsync policy."""
        _faults.inject("wal.append", shard=self.shard, seq=seq)
        frame = _encode_frame(seq, op)
        handle = self._handle
        if handle is None:
            raise ShardError(f"wal shard {self.shard}: log is closed")
        if handle.tell() + len(frame) > self.segment_bytes \
                and handle.tell() > _SEG_HEADER.size:
            self.rotate(next_base=seq)
            handle = self._handle
        try:
            handle.write(frame)
            handle.flush()
            if self.fsync == "always":
                self._fsync(handle)
        except OSError as exc:
            raise ShardError(
                f"wal shard {self.shard}: append failed: "
                f"{exc}") from exc
        self.last_seq = max(self.last_seq, seq)
        _obs.count("wal.appends")
        _obs.count("wal.bytes", len(frame))

    def _fsync(self, handle) -> None:
        _faults.inject("wal.fsync", shard=self.shard)
        os.fsync(handle.fileno())
        _obs.count("wal.fsyncs")

    def sync(self) -> None:
        """Force the active segment to stable storage (the ``batch``
        policy's flush point; a no-op under ``off``)."""
        if self._handle is None or self.fsync == "off":
            return
        try:
            self._handle.flush()
            self._fsync(self._handle)
        except OSError as exc:
            raise ShardError(
                f"wal shard {self.shard}: fsync failed: "
                f"{exc}") from exc

    def rotate(self, next_base: int | None = None) -> None:
        """Close the active segment and start a new one whose base is
        ``next_base`` (default: one past the last appended sequence)."""
        if self._handle is not None:
            if self.fsync != "off":
                try:
                    self._handle.flush()
                    self._fsync(self._handle)
                except OSError:
                    pass
            self._handle.close()
        self._open_segment(self.last_seq + 1 if next_base is None
                           else next_base)
        _obs.count("wal.segments_rotated")

    # -- compaction & replay -------------------------------------------------

    def truncate_below(self, cutoff_seq: int) -> int:
        """Delete segments whose records all have ``seq <= cutoff_seq``
        (checkpoint compaction).  The active segment is first rotated
        when it holds any records, so a checkpoint taken at the current
        committed sequence leaves only an empty live segment behind.
        Returns the number of segments deleted."""
        if self._handle is not None \
                and self._handle.tell() > _SEG_HEADER.size:
            # Rotate at last_seq + 1, never cutoff + 1: the active
            # segment may hold records above the cutoff (the newest
            # checkpoint's suffix, which the manifest fallback needs),
            # and the successor's base is what marks them retained.
            self.rotate()
        segments = self.segments()
        deleted = 0
        for path, successor in zip(segments, segments[1:]):
            # Everything in ``path`` is < successor's base.
            if self._base_of(successor) <= cutoff_seq + 1 \
                    and path != self._active:
                try:
                    path.unlink()
                    deleted += 1
                except OSError:
                    pass
        if deleted:
            _obs.count("wal.segments_compacted", deleted)
        return deleted

    def records(self, after_seq: int = 0) -> list[tuple[int, tuple]]:
        """Re-scan every segment and return the valid ``(seq, op)``
        records with ``seq > after_seq``, in log order.  Corruption
        found by the scan lands on :attr:`incidents` (recovery surfaces
        it as engine incidents)."""
        collected: list[tuple[int, tuple]] = []
        for path in self.segments():
            self._scan(path, truncate=False, collect=collected)
        return [(seq, op) for seq, op in collected if seq > after_seq]

    def disk_bytes(self) -> int:
        """Total on-disk size of all segments (the compaction bound)."""
        if self._handle is not None:
            try:
                self._handle.flush()
            except OSError:
                pass
        return sum(path.stat().st_size for path in self.segments()
                   if path.exists())

    def close(self) -> None:
        if self._handle is not None:
            try:
                if self.fsync != "off":
                    self._handle.flush()
                    os.fsync(self._handle.fileno())
            except OSError:
                pass
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


__all__ = ["WriteAheadLog", "wal_dir", "FSYNC_POLICIES",
           "DEFAULT_SEGMENT_BYTES", "WAL_MAGIC", "WAL_VERSION"]
