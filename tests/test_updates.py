"""Update-workload tests (paper planned extension #2).

Invariant checked throughout: after any mix of inserts, value updates
and deletes, every engine must answer the experiment queries identically
to a freshly-loaded native engine holding the equivalent final corpus.
"""

from __future__ import annotations

import pytest

from repro.core.indexes import indexes_for
from repro.engines import NativeEngine, SqlServerEngine, \
    XCollectionEngine, XColumnEngine
from repro.errors import BenchmarkError, UnsupportedOperation
from repro.workload import bind_params
from repro.workload.updates import (
    UPDATE_TARGETS,
    make_update_stream,
    run_update_stream,
)

ENGINE_FACTORIES = (NativeEngine, XColumnEngine, XCollectionEngine,
                    SqlServerEngine)


def load(factory, corpus):
    engine = factory()
    engine.timed_load(corpus["class"], corpus["texts"])
    engine.create_indexes(list(indexes_for(corpus["class"].key)))
    return engine


class TestStreamGeneration:
    def test_deterministic(self):
        first = make_update_stream("dcmd", 30, count=20, seed=3)
        second = make_update_stream("dcmd", 30, count=20, seed=3)
        assert first == second

    def test_mix_of_kinds(self):
        stream = make_update_stream("dcmd", 30, count=40)
        kinds = {op.kind for op in stream}
        assert kinds == {"insert", "update", "delete"}

    def test_inserts_renumbered_past_existing(self):
        stream = make_update_stream("dcmd", 30, count=40)
        for op in stream:
            if op.kind == "insert":
                number = int(op.name.removeprefix("order")
                             .removesuffix(".xml"))
                assert number > 30

    def test_single_document_class_rejected(self):
        with pytest.raises(BenchmarkError):
            make_update_stream("tcsd", 30)

    def test_tcmd_stream(self):
        stream = make_update_stream("tcmd", 30, count=10)
        inserts = [op for op in stream if op.kind == "insert"]
        assert all(op.name.startswith("article") for op in inserts)
        assert all("<article" in op.text for op in inserts)


@pytest.mark.parametrize("factory", ENGINE_FACTORIES,
                         ids=lambda f: f.key)
class TestInsertDelete:
    def test_insert_makes_document_queryable(self, factory,
                                             small_corpora):
        corpus = small_corpora["dcmd"]
        engine = load(factory, corpus)
        insert = next(op for op in
                      make_update_stream("dcmd", 30, count=10, seed=1)
                      if op.kind == "insert")
        name, text = insert.name, insert.text
        engine.insert_document(name, text)
        new_id = name.removeprefix("order").removesuffix(".xml")
        params = dict(bind_params("Q5", "dcmd", 30), id=new_id)
        assert engine.execute("Q5", params), factory.key

    def test_delete_makes_document_invisible(self, factory,
                                             small_corpora):
        corpus = small_corpora["dcmd"]
        engine = load(factory, corpus)
        params = bind_params("Q5", "dcmd", 30)
        assert engine.execute("Q5", params)
        engine.delete_document(f"order{params['id']}.xml")
        assert engine.execute("Q5", params) == []

    def test_update_changes_query_result(self, factory, small_corpora):
        corpus = small_corpora["dcmd"]
        engine = load(factory, corpus)
        id_path, target, new_value = UPDATE_TARGETS["dcmd"]
        changed = engine.update_value(id_path, "7", target, new_value)
        assert changed >= 1
        # Q8 reads ship_type, untouched; read status through Q12 / raw.
        if isinstance(engine, NativeEngine):
            status = engine.run_xquery(
                "string(collection()/order[@id='7']//order_status)")
            assert status == [new_value]


class TestCrossEngineConsistencyAfterStream:
    def test_all_engines_agree_after_update_stream(self, small_corpora):
        corpus = small_corpora["dcmd"]
        stream = make_update_stream("dcmd", 30, count=25, seed=9)
        results = {}
        for factory in ENGINE_FACTORIES:
            engine = load(factory, corpus)
            run_update_stream(engine, "dcmd", stream)
            snapshot = []
            for probe_id in ("3", "7", "15", "31", "33"):
                params = dict(bind_params("Q5", "dcmd", 30), id=probe_id)
                snapshot.append(tuple(engine.execute("Q5", params)))
                params = dict(bind_params("Q8", "dcmd", 30), id=probe_id)
                snapshot.append(tuple(engine.execute("Q8", params)))
            results[factory.key] = snapshot
        assert len(set(map(tuple, results.values()))) == 1, results

    def test_stats_cover_all_kinds(self, small_corpora):
        corpus = small_corpora["dcmd"]
        engine = load(NativeEngine, corpus)
        stream = make_update_stream("dcmd", 30, count=25, seed=9)
        stats = run_update_stream(engine, "dcmd", stream)
        assert sum(stats.counts.values()) == 25
        for kind in stats.counts:
            assert stats.mean_ms(kind) >= 0.0

    def test_tcmd_stream_runs_on_native(self, small_corpora):
        corpus = small_corpora["tcmd"]
        engine = load(NativeEngine, corpus)
        stream = make_update_stream("tcmd", 30, count=15, seed=4)
        stats = run_update_stream(engine, "tcmd", stream)
        assert sum(stats.counts.values()) == 15


class TestIndexMaintenance:
    def test_native_index_follows_inserts(self, small_corpora):
        corpus = small_corpora["dcmd"]
        engine = load(NativeEngine, corpus)
        inserts = [op for op in
                   make_update_stream("dcmd", 30, count=10, seed=2)
                   if op.kind == "insert"]
        engine.insert_document(inserts[0].name, inserts[0].text)
        new_id = inserts[0].name.removeprefix("order") \
                                .removesuffix(".xml")
        assert new_id in engine._indexes["order/@id"]

    def test_shredded_value_index_follows_updates(self, small_corpora):
        corpus = small_corpora["dcmd"]
        engine = load(SqlServerEngine, corpus)
        index = engine.store.database.index_for("order", "id_c")
        before = len(index)
        engine.delete_document("order5.xml")
        assert len(engine.store.database.index_for("order", "id_c")) == \
            before - 1

    def test_xcolumn_side_rows_follow_deletes(self, small_corpora):
        corpus = small_corpora["dcmd"]
        engine = load(XColumnEngine, corpus)
        before = len(engine.database.table("side_order_id"))
        engine.delete_document("order5.xml")
        assert len(engine.database.table("side_order_id")) == before - 1

    def test_unsupported_on_base(self, small_corpora):
        corpus = small_corpora["dcmd"]

        class Stub(NativeEngine):
            insert_document = NativeEngine.__bases__[0].insert_document

        engine = Stub()
        engine.timed_load(corpus["class"], corpus["texts"])
        with pytest.raises(UnsupportedOperation):
            engine.insert_document("x.xml", "<order/>")
