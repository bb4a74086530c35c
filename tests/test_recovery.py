"""Crash-recovery tests for the durable sharded engine.

The contract under test: every write acknowledged before a kill -9
(simulated by :meth:`ShardedEngine.abort`) is readable under ``strong``
after a cold start from the data directory, and recovery lands on the
*exact* committed sequence — via newest-valid checkpoint + WAL replay,
falling back past damaged checkpoints and skipping corrupt WAL records
with typed incidents instead of crashing.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import struct

import pytest

from repro.core.checkpoint import MANIFEST_FORMAT, MANIFEST_NAME
from repro.core.shard import ShardedEngine, shard_of
from repro.engines import create
from repro.errors import FaultInjected, RecoveryError, ShardError
from repro.faults.plan import FaultPlan, FaultRule, fault_scope
from repro.obs import Recorder, observing

UPDATE = ("order/@id", "order_status")

_HEADER_SIZE = struct.calcsize("<4sIIQ")
_FRAME_HEADER = struct.Struct("<II")


@pytest.fixture
def corpus(small_corpora):
    return small_corpora["dcmd"]


def durable_engine(corpus, data_dir, **kwargs):
    kwargs.setdefault("fsync", "always")
    kwargs.setdefault("shards", 2)
    engine = ShardedEngine("native", data_dir=data_dir, **kwargs)
    engine.timed_load(corpus["class"], list(corpus["texts"]))
    return engine


def recovered_engine(data_dir, **kwargs):
    return ShardedEngine("native", shards=2, recover_dir=data_dir,
                         **kwargs)


def put(engine, order_id: str, token: str) -> int:
    """One acknowledged write; returns the committed sequence."""
    matched = engine.update_value(UPDATE[0], order_id, UPDATE[1],
                                  token)
    assert matched == 1
    return engine.durability_state()["committed_seq"]


def status_of(engine, order_id: str) -> str:
    values = engine.adhoc(
        "collection()/order[@id = $id]//order_status",
        {"id": order_id}).values
    assert len(values) == 1
    return values[0]


def ids_of(engine, order_id: str) -> list:
    return engine.adhoc("collection()/order[@id = $id]",
                        {"id": order_id}).values


def wal_segments(data_dir):
    """Segments of the engine's one log (it lives in the shard-0 slot
    of the WAL layout)."""
    return sorted((data_dir / "shard-0" / "wal").glob("seg-*.wal"))


class TestKill9Recovery:
    def test_acked_writes_survive_kill9(self, corpus, tmp_path):
        engine = durable_engine(corpus, tmp_path)
        try:
            put(engine, "1", "tokA")
            put(engine, "2", "tokB")
            committed = engine.durability_state()["committed_seq"]
            assert committed == 2
        finally:
            engine.abort()
        assert ShardedEngine.can_recover(tmp_path)

        recovered = recovered_engine(tmp_path)
        try:
            report = recovered.last_recovery_report
            assert report["committed_seq"] == committed
            assert "tokA" in status_of(recovered, "1")
            assert "tokB" in status_of(recovered, "2")
            # The recovered engine keeps writing: seq continues, no
            # renumbering.
            assert put(recovered, "3", "tokC") == committed + 1
        finally:
            recovered.close()

    def test_structural_writes_survive_kill9(self, corpus, tmp_path):
        name, text = corpus["texts"][0]
        victim_id = re.search(r'id="([^"]+)"', text).group(1)
        extra = re.sub(r'id="[^"]+"', 'id="ZZZ9"', text, count=1)
        engine = durable_engine(corpus, tmp_path)
        try:
            engine.insert_document("zzz9.xml", extra)
            engine.delete_document(name)
            put(engine, "ZZZ9", "tokZ")
        finally:
            engine.abort()

        recovered = recovered_engine(tmp_path)
        try:
            assert len(ids_of(recovered, "ZZZ9")) == 1
            assert ids_of(recovered, victim_id) == []
            assert "tokZ" in status_of(recovered, "ZZZ9")
        finally:
            recovered.close()

    def test_double_recovery_is_stable(self, corpus, tmp_path):
        engine = durable_engine(corpus, tmp_path)
        try:
            put(engine, "4", "tokD")
        finally:
            engine.abort()
        once = recovered_engine(tmp_path)
        once.abort()
        twice = recovered_engine(tmp_path)
        try:
            assert twice.last_recovery_report["committed_seq"] == 1
            assert "tokD" in status_of(twice, "4")
        finally:
            twice.close()

    @pytest.mark.parametrize("fsync", ["always", "batch", "off"])
    def test_fsync_policy_matrix(self, corpus, tmp_path, fsync):
        # abort() models a process kill: under every policy the frames
        # already left the process (write + flush), so nothing acked is
        # lost.  The policies differ only in machine-crash exposure.
        engine = durable_engine(corpus, tmp_path, fsync=fsync)
        try:
            put(engine, "5", "tokE")
            put(engine, "6", "tokF")
        finally:
            engine.abort()
        recovered = recovered_engine(tmp_path, fsync=fsync)
        try:
            assert recovered.last_recovery_report["committed_seq"] == 2
            assert "tokE" in status_of(recovered, "5")
            assert "tokF" in status_of(recovered, "6")
        finally:
            recovered.close()

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ShardError):
            ShardedEngine("native", shards=2, data_dir=tmp_path,
                          fsync="sometimes")

    def test_recover_requires_manifest(self, tmp_path):
        assert not ShardedEngine.can_recover(tmp_path)
        with pytest.raises(RecoveryError):
            recovered_engine(tmp_path)

    def test_older_manifest_format_is_refused(self, tmp_path):
        # An rxck/1 directory kept one log per shard; reading it as
        # one log would drop shard 1's structural writes.
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(
            {"format": "rxck/1", "class": "dcmd", "engine": "native",
             "shards": 2, "checkpoints": []}))
        assert ShardedEngine.can_recover(tmp_path)
        with pytest.raises(RecoveryError, match=MANIFEST_FORMAT):
            recovered_engine(tmp_path)

    @pytest.mark.parametrize("seed", [3, 7])
    def test_restart_lands_exactly_at_committed_seq(self, corpus,
                                                    tmp_path, seed):
        """Property: across random inserts, deletes and value updates
        on both shards and repeated kill -9 + recover cycles, the
        recovered sequence equals the last acked sequence, and document
        order and every value match a single-process native engine
        that applied the same operations."""
        rng = random.Random(seed)
        oracle = create("native")
        oracle.timed_load(corpus["class"], list(corpus["texts"]))
        engine = durable_engine(corpus, tmp_path)
        names = {re.search(r'id="([^"]+)"', text).group(1): name
                 for name, text in corpus["texts"]
                 if name.startswith("order")}
        template = next(text for name, text in corpus["texts"]
                        if name.startswith("order")
                        and "<comments>" in text)
        structural_shards = set()

        def apply(method, *args):
            for target in (engine, oracle):
                getattr(target, method)(*args)

        try:
            for step in range(1, 19):
                kind = rng.choice(("update", "update", "insert",
                                   "delete"))
                if kind == "insert":
                    # Alternate the owning shard so the log interleaves
                    # structural writes of both.
                    name = next(
                        candidate for candidate in
                        (f"new{step}-{n}.xml" for n in itertools.count())
                        if shard_of(candidate, 2) == step % 2)
                    order_id = f"N{step}"
                    apply("insert_document", name, re.sub(
                        r'id="[^"]+"', f'id="{order_id}"', template,
                        count=1))
                    names[order_id] = name
                    structural_shards.add(shard_of(name, 2))
                elif kind == "delete":
                    name = names.pop(rng.choice(sorted(names)))
                    apply("delete_document", name)
                    structural_shards.add(shard_of(name, 2))
                else:
                    apply("update_value", UPDATE[0],
                          rng.choice(sorted(names)), UPDATE[1],
                          f"tok{seed}x{step}")
                last_seq = engine.committed_seq
                assert last_seq == step
                if step in (6, 12):
                    engine.abort()
                    engine = recovered_engine(tmp_path)
                    report = engine.last_recovery_report
                    assert report["committed_seq"] == last_seq
            assert structural_shards == {0, 1}
            engine.abort()
            engine = recovered_engine(tmp_path)
            assert (engine.last_recovery_report["committed_seq"]
                    == last_seq)
            assert engine.durability_state()["committed_seq"] \
                == last_seq == 18
            all_ids = "collection()/order/@id"
            assert sorted(engine.adhoc(all_ids, {}).values) \
                == sorted(oracle.adhoc(all_ids, {}).values) \
                == sorted(names)
            # Document order = ordinal assignment.  Q17 merges
            # per-document results by global ordinal (adhoc would
            # concatenate shard by shard), and every comment contains
            # the empty word: the ids of all commented orders — every
            # inserted one among them — in document order.
            document_order = engine.execute("Q17", {"word": ""})
            assert document_order == oracle.execute("Q17", {"word": ""})
            assert {order_id for order_id in names
                    if order_id.startswith("N")} <= set(document_order)
            for order_id in names:
                assert status_of(engine, order_id) \
                    == status_of(oracle, order_id)
        finally:
            engine.close()
            oracle.close()

    @pytest.mark.parametrize("site,lands", [("wal.append", False),
                                            ("wal.fsync", True)])
    def test_failed_log_write_is_all_or_nothing(self, corpus, tmp_path,
                                                site, lands):
        """A disk fault fails the write un-acked.  With one log there
        is one frame: it is on disk (fault after the write) or it is
        not (fault before), and recovery's sequence and value agree."""
        engine = durable_engine(corpus, tmp_path)
        try:
            put(engine, "1", "tokA")
            before = status_of(engine, "2")
            plan = FaultPlan(seed=1, rules=[FaultRule(
                site=site, kind="error", every=1, limit=1)])
            with fault_scope(plan), pytest.raises(FaultInjected):
                engine.update_value(UPDATE[0], "2", UPDATE[1], "tokB")
        finally:
            engine.abort()
        recovered = recovered_engine(tmp_path)
        try:
            committed = recovered.last_recovery_report["committed_seq"]
            value = status_of(recovered, "2")
            if lands:
                assert committed == 2 and "tokB" in value
            else:
                assert committed == 1 and value == before
            assert "tokA" in status_of(recovered, "1")
            assert put(recovered, "3", "tokC") == committed + 1
        finally:
            recovered.close()


class TestCorruptionHandling:
    def corrupt_frame(self, path, frame_index) -> int:
        """CRC-break one frame of a segment in place; returns the
        frame's byte offset."""
        data = bytearray(path.read_bytes())
        offset = _HEADER_SIZE
        for __ in range(frame_index):
            length, __crc = _FRAME_HEADER.unpack_from(data, offset)
            offset += _FRAME_HEADER.size + length
        data[offset + _FRAME_HEADER.size] ^= 0xFF
        path.write_bytes(bytes(data))
        return offset

    def test_midlog_crc_reported_replay_continues(self, corpus,
                                                  tmp_path):
        engine = durable_engine(corpus, tmp_path)
        try:
            before = status_of(engine, "2")
            for seq in range(1, 5):
                put(engine, str(seq), f"tok{seq}")
        finally:
            engine.abort()
        # Damage the second record of the log: the write at seq 2.
        (segment,) = wal_segments(tmp_path)
        offset = self.corrupt_frame(segment, 1)

        recovered = recovered_engine(tmp_path)
        try:
            report = recovered.last_recovery_report
            assert report["corrupt_records"] == 1
            assert report["wal_records"] == 3
            assert report["committed_seq"] == 4
            (incident,) = [incident for incident in recovered.incidents
                           if "WalCorruption" in incident]
            assert f"{segment}@{offset}" in incident
            # The damaged record is the only loss.
            assert status_of(recovered, "2") == before
            for seq in (1, 3, 4):
                assert f"tok{seq}" in status_of(recovered, str(seq))
        finally:
            recovered.close()

    def test_deleted_snapshot_falls_back_to_previous(self, corpus,
                                                     tmp_path):
        engine = durable_engine(corpus, tmp_path)
        try:
            put(engine, "1", "tokA")
            first = engine.checkpoint()
            put(engine, "2", "tokB")
            second = engine.checkpoint()
            assert second["seq"] > first["seq"]
        finally:
            engine.abort()
        for path in (tmp_path / "checkpoints").glob(
                f"ckpt-{second['seq']:012d}-shard*.rxs"):
            path.unlink()

        recovered = recovered_engine(tmp_path)
        try:
            report = recovered.last_recovery_report
            assert report["checkpoint_fallbacks"] == 1
            assert report["checkpoint_seq"] == first["seq"]
            # The WAL suffix above the fallback checkpoint survives
            # compaction (KEEP=2), so nothing acked is lost.
            assert report["committed_seq"] == 2
            assert "tokA" in status_of(recovered, "1")
            assert "tokB" in status_of(recovered, "2")
        finally:
            recovered.close()


class TestCheckpointBounds:
    def test_checkpoint_truncates_journal_and_wal(self, corpus,
                                                  tmp_path):
        engine = durable_engine(corpus, tmp_path,
                                wal_segment_bytes=4096)
        try:
            for seq in range(1, 9):
                put(engine, str(seq), f"tok{seq}")
            before = engine.journal_bytes()
            assert before > 0
            report = engine.checkpoint()
            assert report["seq"] == 8
            assert engine.journal_bytes() == 0
            # One more checkpoint moves the compaction cutoff up to
            # seq 8: the WAL shrinks to (near) empty live segments.
            put(engine, "9", "tok9")
            engine.checkpoint()
            assert engine.wal_disk_bytes() <= 2 * 4096
        finally:
            engine.close()

    @pytest.mark.parametrize("shards", [2, 4])
    def test_one_append_one_fsync_per_acked_write(self, corpus,
                                                  tmp_path, shards):
        name, text = corpus["texts"][0]
        engine = durable_engine(corpus, tmp_path, shards=shards)
        try:
            writes = (
                lambda: engine.insert_document(
                    "zzz9.xml",
                    re.sub(r'id="[^"]+"', 'id="ZZZ9"', text, count=1)),
                lambda: engine.delete_document(name),
                lambda: put(engine, "ZZZ9", "tokZ"),
            )
            for write in writes:
                with observing(Recorder()) as recorder:
                    write()
                assert recorder.counters.get("wal.appends") == 1
                assert recorder.counters.get("wal.fsyncs") == 1
            assert [path.name for path in tmp_path.glob("shard-*")] \
                == ["shard-0"]
        finally:
            engine.close()

    def test_replicated_recovery_stamps_replicas(self, corpus,
                                                 tmp_path):
        engine = durable_engine(corpus, tmp_path, replicas=1)
        try:
            put(engine, "1", "tokA")
        finally:
            engine.abort()
        recovered = recovered_engine(tmp_path, replicas=1)
        try:
            staleness = recovered.staleness_by_tier()
            assert staleness["committed_seq"] == 1
            assert staleness["live_rows"] == staleness["replicas"]
            strong = staleness["tiers"]["strong"]
            assert strong["max_staleness"] == 0
        finally:
            recovered.close()
