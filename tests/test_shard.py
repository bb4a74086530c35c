"""Sharded multi-process execution service tests.

The contract under test: scatter-gather execution over N worker
processes returns byte-identical (post-merge) results to the
single-process native oracle for every workload query on every class,
survives worker death via respawn + replay, and routes update
operations to the owning shard.
"""

from __future__ import annotations

import time

import pytest

from repro.core.benchmark import BenchmarkConfig, XBench
from repro.core.shard import ShardedEngine, shard_of
from repro.core.verification import verify_scenario
from repro.engines import create
from repro.errors import EngineError, ShardError
from repro.workload.params import bind_params
from repro.workload.queries import QUERIES_BY_ID, workload_for_class


def load_sharded(corpus, shards=3, **kwargs):
    engine = ShardedEngine("native", shards=shards, **kwargs)
    engine.timed_load(corpus["class"], list(corpus["texts"]))
    return engine


def load_oracle(corpus):
    engine = create("native")
    engine.timed_load(corpus["class"], list(corpus["texts"]))
    return engine


class TestPartitioning:
    def test_shard_of_is_deterministic_across_processes(self):
        # crc32, not the per-process-salted builtin hash.
        assert shard_of("order1.xml", 4) == shard_of("order1.xml", 4)
        assert 0 <= shard_of("anything.xml", 3) < 3

    def test_replicated_documents_on_every_shard(self, small_corpora):
        corpus = small_corpora["dcmd"]
        engine = load_sharded(corpus, shards=3)
        try:
            # Every worker must resolve doc('customer.xml') (Q19 join).
            for state in engine._states:
                assert all(entry[1] != "customer.xml"
                           for entry in state.mains)
            replicated = {name for name, __ in engine._replicated}
            assert "customer.xml" in replicated
        finally:
            engine.close()

    def test_single_document_class_has_home_shard(self, small_corpora):
        corpus = small_corpora["dcsd"]
        engine = load_sharded(corpus, shards=3)
        try:
            assert engine._home is not None
            populated = [state for state in engine._states
                         if state.mains]
            assert len(populated) == 1
        finally:
            engine.close()

    def test_rejects_zero_shards(self):
        with pytest.raises(ShardError):
            ShardedEngine("native", shards=0)

    def test_rejects_unknown_engine_key(self):
        with pytest.raises(EngineError):
            ShardedEngine("no-such-engine", shards=2)


class TestResultEquivalence:
    """Acceptance: sharded results byte-identical to the oracle for all
    20 queries across all four classes."""

    @pytest.mark.parametrize("class_key",
                             ["dcsd", "dcmd", "tcsd", "tcmd"])
    def test_all_queries_match_oracle(self, class_key, small_corpora):
        corpus = small_corpora[class_key]
        oracle = load_oracle(corpus)
        sharded = load_sharded(corpus, shards=3)
        try:
            for query in workload_for_class(class_key):
                params = bind_params(query.qid, class_key,
                                     corpus["units"])
                expect = oracle.execute(query.qid, params)
                got = sharded.execute(query.qid, params)
                assert got == expect, (
                    f"{query.qid} on {class_key}: sharded merge "
                    f"({len(got)} items) differs from oracle "
                    f"({len(expect)} items)")
        finally:
            oracle.close()
            sharded.close()

    def test_matches_with_indexes(self, small_corpora):
        from repro.core.indexes import indexes_for
        corpus = small_corpora["dcmd"]
        oracle = load_oracle(corpus)
        sharded = load_sharded(corpus, shards=2)
        try:
            paths = list(indexes_for("dcmd"))
            oracle.create_indexes(paths)
            sharded.create_indexes(paths)
            for qid in ("Q1", "Q5", "Q19"):
                params = bind_params(qid, "dcmd", corpus["units"])
                assert (sharded.execute(qid, params)
                        == oracle.execute(qid, params))
        finally:
            oracle.close()
            sharded.close()

    def test_merge_metadata_covers_order_sensitive_queries(self):
        # Q10's order-by and Q3's grouped aggregate cannot be plain
        # concat merges.
        assert QUERIES_BY_ID["Q10"].merge_for("dcmd")["kind"] == "sorted"
        assert QUERIES_BY_ID["Q3"].merge_for("dcmd")["kind"] == "regroup"
        assert QUERIES_BY_ID["Q16"].merge_for("dcmd")["kind"] == "route"
        # Default: per-document concat.
        assert QUERIES_BY_ID["Q17"].merge_for("dcmd")["kind"] == "concat"

    def test_adhoc_fans_out(self, small_corpora):
        corpus = small_corpora["dcmd"]
        oracle = load_oracle(corpus)
        sharded = load_sharded(corpus, shards=2)
        try:
            got = sharded.adhoc("collection()/order/@id")
            expect = oracle.adhoc("collection()/order/@id")
            assert sorted(got.values) == sorted(expect.values)
        finally:
            oracle.close()
            sharded.close()


class TestRobustness:
    def test_killed_worker_respawns_and_answers(self, small_corpora):
        corpus = small_corpora["dcmd"]
        oracle = load_oracle(corpus)
        sharded = load_sharded(corpus, shards=3)
        try:
            params = bind_params("Q17", "dcmd", corpus["units"])
            expect = oracle.execute("Q17", params)
            sharded._workers[1].process.kill()
            time.sleep(0.05)
            assert sharded.execute("Q17", params) == expect
            assert sharded.incidents, "incident must be surfaced"
            assert "respawned" in sharded.incidents[0]
        finally:
            oracle.close()
            sharded.close()

    def test_respawn_replays_updates_journal(self, small_corpora):
        corpus = small_corpora["dcmd"]
        oracle = load_oracle(corpus)
        sharded = load_sharded(corpus, shards=2)
        try:
            changed = sharded.update_value("order/@id", "15",
                                           "order_status", "SHIPPED")
            assert changed == oracle.update_value(
                "order/@id", "15", "order_status", "SHIPPED")
            for worker in list(sharded._workers):
                worker.process.kill()
            time.sleep(0.05)
            params = bind_params("Q9", "dcmd", corpus["units"])
            assert (sharded.execute("Q9", params)
                    == oracle.execute("Q9", params))
        finally:
            oracle.close()
            sharded.close()

    def test_retries_exhausted_raises_shard_error(self, small_corpora):
        corpus = small_corpora["dcmd"]
        sharded = load_sharded(corpus, shards=2, retries=0)
        try:
            sharded._workers[0].process.kill()
            time.sleep(0.05)
            params = bind_params("Q17", "dcmd", corpus["units"])
            with pytest.raises(ShardError):
                sharded.execute("Q17", params)
        finally:
            sharded.close()

    def test_application_errors_keep_their_type(self, small_corpora):
        from repro.errors import XQuerySyntaxError
        corpus = small_corpora["dcmd"]
        sharded = load_sharded(corpus, shards=2)
        try:
            with pytest.raises(XQuerySyntaxError):
                sharded.adhoc("for $x in (((")
            # The service is still healthy afterwards (not retried,
            # not respawned, pipes aligned).
            assert not sharded.incidents
            params = bind_params("Q5", "dcmd", corpus["units"])
            assert sharded.execute("Q5", params)
        finally:
            sharded.close()

    def test_context_manager_stops_workers(self, small_corpora):
        corpus = small_corpora["dcmd"]
        with ShardedEngine("native", shards=2) as engine:
            engine.timed_load(corpus["class"], list(corpus["texts"]))
            processes = [worker.process
                         for worker in engine._workers]
            assert all(process.is_alive() for process in processes)
        deadline = time.monotonic() + 5.0
        while (any(process.is_alive() for process in processes)
               and time.monotonic() < deadline):
            time.sleep(0.02)
        assert not any(process.is_alive() for process in processes)
        assert not engine.loaded


def _no_shared_memory(size):
    raise OSError("no shared memory on this host")


class TestShmTransport:
    """Bulk-load corpora ship via shared memory; the pipe carries only
    (segment, offset, length) triples.  A host where the segment cannot
    be created gets inline pipe payloads and an incident."""

    def test_shm_matches_pipe_transport(self, small_corpora,
                                        monkeypatch):
        corpus = small_corpora["dcmd"]
        via_shm = load_sharded(corpus, shards=2)
        with monkeypatch.context() as patch:
            patch.setattr("repro.core.shm.OwnedSegment",
                          _no_shared_memory)
            via_pipe = load_sharded(corpus, shards=2)
        try:
            assert via_shm.last_load_report["transport"] == "shm"
            assert via_pipe.last_load_report["transport"] == "pipe"
            assert via_pipe.last_load_report["segment_bytes"] == 0
            assert any("falling back to pipe transport" in note
                       for note in via_pipe.incidents)
            assert via_shm.incidents == []
            assert via_shm.last_load_report["segment_bytes"] > 0
            for worker in via_shm.last_load_report["workers"]:
                assert worker["attach_seconds"] >= 0
                assert worker["load_seconds"] > 0
            params = bind_params("Q17", "dcmd", corpus["units"])
            assert (via_shm.execute("Q17", params)
                    == via_pipe.execute("Q17", params))
        finally:
            via_shm.close()
            via_pipe.close()

    def test_segment_unlinked_on_close(self, small_corpora):
        from multiprocessing import shared_memory
        corpus = small_corpora["dcmd"]
        engine = load_sharded(corpus, shards=2)
        segment_name = engine._segment.name
        shared_memory.SharedMemory(name=segment_name).close()
        engine.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment_name)

    def test_respawn_reattaches_segment(self, small_corpora):
        corpus = small_corpora["dcmd"]
        oracle = load_oracle(corpus)
        sharded = load_sharded(corpus, shards=2)
        try:
            # Post-load insert rides inline as a respawn-replayed
            # extra; the original corpus is re-read from the segment.
            name, text = next(
                (doc_name, doc_text)
                for doc_name, doc_text in corpus["texts"]
                if doc_name.startswith("order"))
            oracle.insert_document("order901.xml", text)
            sharded.insert_document("order901.xml", text)
            for worker in list(sharded._workers):
                worker.process.kill()
            time.sleep(0.05)
            params = bind_params("Q17", "dcmd", corpus["units"])
            assert (sharded.execute("Q17", params)
                    == oracle.execute("Q17", params))
            assert any("respawned" in note
                       for note in sharded.incidents)
        finally:
            oracle.close()
            sharded.close()

    def test_worker_crash_does_not_unlink_segment(self, small_corpora):
        from multiprocessing import shared_memory
        corpus = small_corpora["dcmd"]
        sharded = load_sharded(corpus, shards=2)
        try:
            segment_name = sharded._segment.name
            for worker in list(sharded._workers):
                worker.process.kill()
            time.sleep(0.1)
            # The parent still owns the segment (workers attach
            # untracked, so their death cannot reap it).
            probe = shared_memory.SharedMemory(name=segment_name)
            probe.close()
        finally:
            sharded.close()

    def test_shm_ships_fewer_pipe_bytes(self, small_corpora,
                                        monkeypatch):
        from repro.obs import Recorder, observing
        corpus = small_corpora["dcmd"]

        def load_bytes():
            with observing(Recorder()) as recorder:
                engine = load_sharded(corpus, shards=2)
                engine.close()
                return recorder.counters.get("shard.pipe_bytes")

        shm_bytes = load_bytes()
        monkeypatch.setattr("repro.core.shm.OwnedSegment",
                            _no_shared_memory)
        pipe_bytes = load_bytes()
        assert shm_bytes > 0 and pipe_bytes > 0
        assert shm_bytes * 10 <= pipe_bytes, (
            f"shm load shipped {shm_bytes} pipe bytes vs "
            f"{pipe_bytes} inline — expected >= 10x reduction")


class TestUpdates:
    def test_insert_delete_route_to_owner(self, small_corpora):
        corpus = small_corpora["dcmd"]
        oracle = load_oracle(corpus)
        sharded = load_sharded(corpus, shards=3)
        try:
            name, text = next(
                (doc_name, doc_text)
                for doc_name, doc_text in corpus["texts"]
                if doc_name.startswith("order"))
            oracle.insert_document("order900.xml", text)
            sharded.insert_document("order900.xml", text)
            oracle.delete_document(name)
            sharded.delete_document(name)
            params = bind_params("Q17", "dcmd", corpus["units"])
            assert (sharded.execute("Q17", params)
                    == oracle.execute("Q17", params))
        finally:
            oracle.close()
            sharded.close()


class TestIntegration:
    def test_xbench_suite_with_shards(self):
        config = BenchmarkConfig(scale_divisor=20000,
                                 scale_names=("small",),
                                 class_keys=("dcmd",),
                                 engine_keys=("native",),
                                 query_ids=("Q5", "Q17"),
                                 shards=2)
        suite = XBench(config).run_suite()
        row = "X-Hive x2"
        cell = suite.load.cell(row, "dcmd", "small")
        assert cell.seconds is not None and cell.seconds > 0
        for qid in ("Q5", "Q17"):
            qcell = suite.queries[qid].cell(row, "dcmd", "small")
            assert qcell.seconds is not None
            # The sharded native row is the oracle of its own run.
            assert qcell.correct is True
        from repro.core.report import format_suite
        rendered = format_suite(suite, scale_names=("small",))
        assert row in rendered, "sharded rows must render in tables"

    def test_verification_includes_sharded_row(self):
        bench = XBench(BenchmarkConfig(scale_divisor=20000))
        report = verify_scenario(bench, "dcmd", "small", shards=2)
        sharded_label = "X-Hive x2"
        assert sharded_label in report.engine_labels
        statuses = {report.status(sharded_label, qid)
                    for qid in report.query_ids}
        assert statuses == {"ok"}, (
            "sharded native must be byte-identical to the oracle")
