"""Per-shard read replicas, consistency tiers and the typed API.

The contracts under test:

* the typed surface (`repro.api`) validates and round-trips through
  the wire forms, and old-style dicts stay accepted via the shims;
* replica rows answer byte-identically to the primaries once the
  journal has shipped, and each consistency tier sees exactly the
  staleness it promises;
* journal shipping survives the edge cases: duplicate sequence
  batches, replica death mid-ship, and primary failover that must
  first catch the promoted replica up from the journal;
* the server threads consistency and write sequences end to end
  through ``Session``.
"""

from __future__ import annotations

import pytest

from repro.api import (
    Consistency,
    QueryRequest,
    QueryResponse,
    SessionOptions,
    bounded_staleness,
    consistency_scope,
    current_consistency,
    read_your_writes,
)
from repro.core.shard import ShardedEngine
from repro.engines import create
from repro.errors import ConsistencyError, ServerError
from repro.workload.params import bind_params
from repro.workload.queries import workload_for_class

UPDATE = ("order/@id", "order_status")


def load_replicated(corpus, shards=2, replicas=1, **kwargs):
    engine = ShardedEngine("native", shards=shards, replicas=replicas,
                           **kwargs)
    engine.timed_load(corpus["class"], list(corpus["texts"]))
    return engine


def status_of(engine, order_id: str, consistency="strong") -> str:
    with consistency_scope(consistency):
        values = engine.adhoc(
            "collection()/order[@id = $id]//order_status",
            {"id": order_id}).values
    assert len(values) == 1
    return values[0]


class TestConsistencyType:
    def test_parse_tier_strings(self):
        assert Consistency.parse("strong").tier == "strong"
        assert Consistency.parse("eventual").tier == "eventual"
        parsed = Consistency.parse("bounded_staleness:5")
        assert parsed.tier == "bounded_staleness"
        assert parsed.max_lag == 5
        parsed = Consistency.parse("read_your_writes:7")
        assert parsed.min_seq == 7

    def test_parse_passthrough_none_and_wire(self):
        assert Consistency.parse(None).tier == "strong"
        original = bounded_staleness(3)
        assert Consistency.parse(original) is original
        assert Consistency.parse(original.to_wire()) == original

    def test_invalid_tiers_raise_typed(self):
        with pytest.raises(ConsistencyError):
            Consistency(tier="linearizable")
        with pytest.raises(ConsistencyError):
            Consistency.parse("bounded_staleness:abc")
        with pytest.raises(ConsistencyError):
            Consistency.parse("eventual:3")
        with pytest.raises(ConsistencyError):
            Consistency(tier="bounded_staleness", max_lag=-1)

    def test_scope_is_nested_and_restored(self):
        assert current_consistency() is None
        with consistency_scope("eventual") as outer:
            assert current_consistency() is outer
            with consistency_scope(read_your_writes(4)) as inner:
                assert current_consistency() is inner
            assert current_consistency() is outer
        assert current_consistency() is None


class TestTypedWireForms:
    def test_session_options_round_trip(self):
        options = SessionOptions(engine="native", class_key="dcmd",
                                 units=12, shards=2, replicas=2,
                                 tenant="acme",
                                 consistency="bounded_staleness:2")
        wire = options.to_wire()
        assert wire["op"] == "hello"
        assert wire["replicas"] == 2
        assert SessionOptions.from_wire(wire) == options

    def test_session_options_validation(self):
        with pytest.raises(ConsistencyError):
            SessionOptions(replicas=1, shards=0)
        with pytest.raises(ConsistencyError):
            SessionOptions(replicas=-1, shards=2)

    def test_query_request_round_trip(self):
        request = QueryRequest(qid="Q1", params={"id": "3"},
                               deadline=0.5, tenant="acme",
                               consistency=read_your_writes(9))
        wire = request.to_wire()
        assert wire["op"] == "query"
        assert QueryRequest.from_wire(wire) == request
        # Old-style dicts without the typed fields still parse.
        legacy = QueryRequest.from_wire({"op": "query", "qid": "q1"})
        assert legacy.qid == "q1"
        assert legacy.consistency is None

    def test_query_response_round_trip(self):
        ok = QueryResponse(ok=True, qid="Q1", rows=4, seconds=0.01,
                           queued_ms=1.5, tenant="acme", seq=3)
        assert QueryResponse.from_wire(ok.to_wire()) == ok
        error = QueryResponse(ok=False, error="QueryTimeout",
                              message="boom")
        decoded = QueryResponse.from_wire(error.to_wire())
        assert not decoded.ok
        assert decoded.error == "QueryTimeout"


class TestReplicaReads:
    def test_replica_row_matches_oracle(self, small_corpora):
        corpus = small_corpora["dcmd"]
        oracle = create("native")
        oracle.timed_load(corpus["class"], list(corpus["texts"]))
        engine = load_replicated(corpus)
        try:
            for query in workload_for_class("dcmd")[:6]:
                params = bind_params(query.qid, "dcmd",
                                     corpus["units"])
                expected = oracle.execute(query.qid, dict(params))
                with consistency_scope("eventual"):
                    assert engine.execute(query.qid,
                                          dict(params)) == expected
        finally:
            engine.close()
            oracle.close()

    def test_strong_reads_never_touch_replicas(self, small_corpora):
        from repro.obs import Recorder, observing
        corpus = small_corpora["dcmd"]
        engine = load_replicated(corpus)
        recorder = Recorder(name="test")
        try:
            with observing(recorder):
                params = bind_params("Q1", "dcmd", corpus["units"])
                with consistency_scope("strong"):
                    engine.execute("Q1", dict(params))
                with consistency_scope("eventual"):
                    engine.execute("Q1", dict(params))
            counters = recorder.counters.snapshot()
            assert counters.get("shard.replica_reads", 0) == 1
        finally:
            engine.close()

    def test_row_label_and_state_advertise_replicas(self,
                                                    small_corpora):
        corpus = small_corpora["dcmd"]
        engine = load_replicated(corpus, shards=2, replicas=2)
        try:
            assert "+2r" in engine.row_label
            state = engine.replication_state()
            assert state["replicas"] == 2
            assert len(state["rows"]) == 2
            assert all(row["alive"] for row in state["rows"])
            # 2 primaries + 4 replica workers report PIDs.
            assert len(engine.worker_pids()) == 6
        finally:
            engine.close()


class TestJournalShipping:
    def test_sync_ship_keeps_replicas_current(self, small_corpora):
        corpus = small_corpora["dcmd"]
        engine = load_replicated(corpus)
        try:
            engine.update_value(UPDATE[0], "3", UPDATE[1], "tokA")
            state = engine.replication_state()
            assert state["committed_seq"] == 1
            assert state["rows"][0]["applied_seq"] == 1
            assert state["rows"][0]["lag"] == 0
            assert status_of(engine, "3", "eventual") \
                == "<order_status>tokA</order_status>"
        finally:
            engine.close()

    def test_staleness_is_visible_per_tier(self, small_corpora):
        corpus = small_corpora["dcmd"]
        # A huge ship interval means nothing ships until flushed.
        engine = load_replicated(corpus, ship_interval=3600.0)
        try:
            before = status_of(engine, "3", "eventual")
            engine.update_value(UPDATE[0], "3", UPDATE[1], "tokB")
            # Strong sees the write; eventual still sees the old value.
            assert status_of(engine, "3", "strong") \
                == "<order_status>tokB</order_status>"
            assert status_of(engine, "3", "eventual") == before
            state = engine.replication_state()
            assert state["rows"][0]["lag"] == 1
            # Tiers demanding freshness fall back to the primary.
            assert status_of(engine, "3", "bounded_staleness:0") \
                == "<order_status>tokB</order_status>"
            assert status_of(engine, "3", read_your_writes(1)) \
                == "<order_status>tokB</order_status>"
            # bounded_staleness:1 tolerates the single-write lag and
            # may serve the stale replica.
            assert status_of(engine, "3", "bounded_staleness:1") \
                == before
            engine.flush_replication()
            assert status_of(engine, "3", "eventual") \
                == "<order_status>tokB</order_status>"
            assert engine.replication_state()["rows"][0]["lag"] == 0
        finally:
            engine.close()

    def test_duplicate_sequences_are_suppressed(self, small_corpora):
        corpus = small_corpora["dcmd"]
        engine = load_replicated(corpus, ship_interval=3600.0)
        try:
            engine.update_value(UPDATE[0], "3", UPDATE[1], "tokC")
            engine.flush_replication()
            # Re-ship the same journal batch by hand: the worker must
            # skip the already-applied sequence, not re-apply it.
            worker = engine._replica_rows[0][0]
            entries = engine._journal_for(0)
            assert [seq for seq, __ in entries] == [1]
            applied = engine._call_worker(
                worker, ("replay", engine.committed_seq, entries))
            assert applied == engine.committed_seq
            assert status_of(engine, "3", "eventual") \
                == "<order_status>tokC</order_status>"
        finally:
            engine.close()

    def test_replica_death_mid_ship_is_repaired(self, small_corpora):
        corpus = small_corpora["dcmd"]
        engine = load_replicated(corpus, ship_interval=3600.0)
        try:
            engine.update_value(UPDATE[0], "3", UPDATE[1], "tokD")
            # Kill one replica slot between the write and the ship.
            engine._replica_rows[0][0].process.kill()
            engine.flush_replication()
            state = engine.replication_state()
            assert state["rows"][0]["alive"]
            assert state["rows"][0]["applied_seq"] \
                == state["committed_seq"]
            assert status_of(engine, "3", "eventual") \
                == "<order_status>tokD</order_status>"
        finally:
            engine.close()


class TestFailover:
    def test_dead_primary_promotes_freshest_replica(self,
                                                    small_corpora):
        corpus = small_corpora["dcmd"]
        engine = load_replicated(corpus, breaker_cooldown=0.2)
        try:
            engine.update_value(UPDATE[0], "3", UPDATE[1], "tokE")
            engine._workers[0].process.kill()
            # A strong read must fail over, not fail.
            assert status_of(engine, "3", "strong") \
                == "<order_status>tokE</order_status>"
            assert engine.failovers == 1
            # The promoted worker now serves as a primary; the
            # consumed replica slot is repaired on the next flush.
            engine.flush_replication()
            state = engine.replication_state()
            assert state["rows"][0]["alive"]
        finally:
            engine.close()

    def test_promotion_catches_up_lagging_replica(self,
                                                  small_corpora):
        corpus = small_corpora["dcmd"]
        # Replicas lag (nothing ships), then the primary dies: the
        # promoted replica must be caught up from the journal before
        # serving, or the acknowledged write would be lost.
        engine = load_replicated(corpus, ship_interval=3600.0,
                                 breaker_cooldown=0.2)
        try:
            engine.update_value(UPDATE[0], "3", UPDATE[1], "tokF")
            assert engine.replication_state()["rows"][0]["lag"] == 1
            for worker in engine._workers:
                worker.process.kill()
            assert status_of(engine, "3", "strong") \
                == "<order_status>tokF</order_status>"
            assert engine.failovers == 2
        finally:
            engine.close()

    def test_update_after_failover_keeps_sequencing(self,
                                                    small_corpora):
        corpus = small_corpora["dcmd"]
        engine = load_replicated(corpus, breaker_cooldown=0.2)
        try:
            engine.update_value(UPDATE[0], "3", UPDATE[1], "tokG")
            engine._workers[1].process.kill()
            engine.update_value(UPDATE[0], "3", UPDATE[1], "tokH")
            assert engine.committed_seq == 2
            assert status_of(engine, "3", "strong") \
                == "<order_status>tokH</order_status>"
            engine.flush_replication()
            assert status_of(engine, "3", "eventual") \
                == "<order_status>tokH</order_status>"
        finally:
            engine.close()


class TestServingSessions:
    @pytest.fixture(scope="class")
    def server(self):
        from repro.server import QueryServer, ServerConfig
        server = QueryServer(ServerConfig(
            units=10, shards=2, replicas=1, preload=False,
            executors=2, sample_resources=False)).start_background()
        yield server
        server.stop_background()

    def _session(self, server, **fields):
        from repro.loadgen import ServingClient
        client = ServingClient(port=server.port)
        return client.session(
            engine="native", class_key="dcmd", units=10, shards=2,
            replicas=1, **fields)

    def test_session_threads_consistency_and_seq(self, server):
        with self._session(server,
                           consistency="read_your_writes") as session:
            assert session.hello_reply["replicas"] == 1
            assert session.hello_reply["consistency"] \
                == "read_your_writes"
            write = session.update("3", "tokS")
            assert write.ok and write.rows == 1
            assert write.seq >= 1
            assert session.last_write_seq == write.seq
            read = session.query("Q1")
            assert read.ok and read.rows >= 1
            # Per-request override is honored without touching the
            # session default.
            stale = session.query("Q1",
                                  consistency=bounded_staleness(5))
            assert stale.ok

    def test_second_write_advances_sequence(self, server):
        with self._session(server) as session:
            first = session.update("2", "tokT")
            second = session.update("4", "tokU")
            assert second.seq > first.seq
            assert session.last_write_seq == second.seq

    def test_legacy_wire_dicts_still_accepted(self, server):
        from repro.loadgen import ServingClient
        with ServingClient(port=server.port) as client:
            hello = client.call({"op": "hello", "engine": "native",
                                 "class": "dcmd", "units": 10,
                                 "shards": 2})
            assert hello["ok"]
            reply = client.call({"op": "query", "qid": "Q1"})
            assert reply["ok"]

    def test_update_requires_id(self, server):
        from repro.loadgen import ServingClient
        with ServingClient(port=server.port) as client:
            client.hello(engine="native", class_key="dcmd", units=10,
                         shards=2)
            reply = client.call({"op": "update"})
            assert not reply["ok"]
            assert reply["error"] == "BadRequest"

    def test_session_kwargs_conflict_is_typed(self, server):
        from repro.loadgen import ServingClient
        with ServingClient(port=server.port) as client:
            with pytest.raises(ServerError):
                client.session(SessionOptions(class_key="dcmd"),
                               units=10)
            client.close()


class TestTypedErrorAudit:
    def test_admission_capacity_error_is_typed(self):
        from repro.server.admission import AdmissionController
        with pytest.raises(ServerError):
            AdmissionController(capacity=0)

    def test_unknown_scenario_error_is_typed(self):
        from repro.errors import BenchmarkError
        from repro.faults.scenarios import build_scenario
        with pytest.raises(BenchmarkError):
            build_scenario("nope")

    def test_replication_scenarios_are_registered(self):
        from repro.faults.scenarios import build_scenario
        storm = build_scenario("failover-storm")
        assert storm.replicas == 2
        assert storm.write_every > 0
        assert storm.consistency == "eventual"
        lag = build_scenario("replica-lag")
        assert lag.replicas == 1
        assert lag.ship_interval > 0
