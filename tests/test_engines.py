"""Engine tests: loading, indexing, restrictions, cross-engine agreement."""

from __future__ import annotations

import pytest

from repro.core.indexes import indexes_for
from repro.engines import (
    PAPER_ENGINE_KEYS,
    NativeEngine,
    SqlServerEngine,
    XCollectionEngine,
    XColumnEngine,
    create,
)
from repro.errors import (
    BenchmarkError,
    UnsupportedConfiguration,
    UnsupportedQuery,
)
from repro.workload import bind_params
from repro.workload.queries import EXPERIMENT_QUERIES


def load(engine, corpus):
    engine.timed_load(corpus["class"], corpus["texts"])
    engine.create_indexes(list(indexes_for(corpus["class"].key)))
    return engine


class TestEngineRegistry:
    def test_four_engines_paper_order(self):
        labels = [create(key).row_label for key in PAPER_ENGINE_KEYS]
        assert labels == ["Xcolumn", "Xcollection", "SQL Server",
                          "X-Hive"]

    def test_create_by_key(self):
        for key in PAPER_ENGINE_KEYS:
            engine = create(key)
            assert engine.key == key
        assert isinstance(create("native"), NativeEngine)
        assert create("native") is not create("native")

    def test_create_unknown_key_lists_choices(self):
        from repro.errors import EngineError
        with pytest.raises(EngineError) as excinfo:
            create("tamino")
        assert "native" in str(excinfo.value)

    def test_register_custom_factory(self):
        from repro.engines import _REGISTRY, register
        register("probe", NativeEngine)
        try:
            assert isinstance(create("probe"), NativeEngine)
        finally:
            _REGISTRY.pop("probe", None)

    def test_execute_before_load_rejected(self):
        with pytest.raises(BenchmarkError):
            NativeEngine().timed_execute("Q5", {})


class TestEngineLifecycle:
    def test_close_releases_and_allows_reload(self, small_corpora):
        corpus = small_corpora["dcmd"]
        engine = load(NativeEngine(), corpus)
        params = bind_params("Q5", "dcmd", 30)
        expect = engine.execute("Q5", params)
        engine.close()
        assert not engine.loaded
        with pytest.raises(BenchmarkError):
            engine.execute("Q5", params)
        load(engine, corpus)
        assert engine.execute("Q5", params) == expect

    def test_context_manager_closes(self, small_corpora):
        corpus = small_corpora["dcmd"]
        with SqlServerEngine() as engine:
            load(engine, corpus)
            assert engine.loaded
        assert not engine.loaded

    def test_adhoc_on_native(self, small_corpora):
        engine = load(NativeEngine(), small_corpora["dcmd"])
        outcome = engine.adhoc("count(collection()/order)")
        assert outcome.values and outcome.seconds >= 0

    def test_adhoc_unsupported_on_shredded(self, small_corpora):
        from repro.errors import UnsupportedOperation
        engine = load(SqlServerEngine(), small_corpora["dcmd"])
        with pytest.raises(UnsupportedOperation):
            engine.adhoc("collection()/order")

    def test_timed_load_accepts_one_shot_iterable(self, small_corpora):
        corpus = small_corpora["dcmd"]
        baseline = NativeEngine()
        stats = baseline.timed_load(corpus["class"],
                                    list(corpus["texts"]))
        engine = NativeEngine()
        one_shot = iter(list(corpus["texts"]))
        got = engine.timed_load(corpus["class"], one_shot)
        assert got.documents == stats.documents
        assert got.bytes == stats.bytes
        params = bind_params("Q17", "dcmd", 30)
        assert engine.execute("Q17", params) == baseline.execute(
            "Q17", params)


class TestRestrictions:
    def test_xcolumn_rejects_single_document_classes(self, small_corpora):
        engine = XColumnEngine()
        for key in ("dcsd", "tcsd"):
            with pytest.raises(UnsupportedConfiguration):
                engine.check_supported(small_corpora[key]["class"],
                                       "small")

    def test_xcolumn_accepts_multi_document_classes(self, small_corpora):
        engine = XColumnEngine()
        engine.check_supported(small_corpora["dcmd"]["class"], "large")

    def test_xcollection_sd_small_only(self, small_corpora):
        engine = XCollectionEngine()
        engine.check_supported(small_corpora["dcsd"]["class"], "small")
        for scale in ("normal", "large", "huge"):
            with pytest.raises(UnsupportedConfiguration):
                engine.check_supported(small_corpora["tcsd"]["class"],
                                       scale)

    def test_sqlserver_and_native_unrestricted(self, small_corpora):
        for engine in (SqlServerEngine(), NativeEngine()):
            for corpus in small_corpora.values():
                engine.check_supported(corpus["class"], "large")


class TestNativeEngine:
    def test_load_counts(self, small_corpora):
        engine = NativeEngine()
        stats = engine.timed_load(small_corpora["tcmd"]["class"],
                                  small_corpora["tcmd"]["texts"])
        assert stats.documents == 30
        assert stats.seconds > 0

    def test_runs_all_applicable_queries(self, small_corpora):
        from repro.workload import workload_for_class
        for key, corpus in small_corpora.items():
            engine = load(NativeEngine(), corpus)
            for query in workload_for_class(key):
                params = bind_params(query.qid, key, corpus["units"])
                engine.execute(query.qid, params)     # must not raise

    def test_accelerated_equals_generic(self, small_corpora):
        corpus = small_corpora["dcsd"]
        indexed = load(NativeEngine(), corpus)
        plain = NativeEngine()
        plain.timed_load(corpus["class"], corpus["texts"])
        params = bind_params("Q5", "dcsd", corpus["units"])
        assert indexed.execute("Q5", params) == \
            plain.execute("Q5", params)

    def test_drop_indexes(self, small_corpora):
        corpus = small_corpora["tcsd"]
        engine = load(NativeEngine(), corpus)
        engine.drop_indexes()
        params = bind_params("Q8", "tcsd", corpus["units"])
        assert engine.execute("Q8", params)      # falls back to generic

    def test_run_xquery_helper(self, small_corpora):
        engine = load(NativeEngine(), small_corpora["tcsd"])
        assert engine.run_xquery("count(/dictionary/entry)") == [30]

    def test_reload_replaces_database(self, small_corpora):
        engine = NativeEngine()
        engine.timed_load(small_corpora["tcmd"]["class"],
                          small_corpora["tcmd"]["texts"])
        engine.timed_load(small_corpora["dcmd"]["class"],
                          small_corpora["dcmd"]["texts"])
        assert all(doc.root_element.tag != "article"
                   for doc in engine.documents())


class TestShreddedEngines:
    def test_load_produces_rows(self, small_corpora):
        engine = XCollectionEngine()
        stats = engine.timed_load(small_corpora["dcsd"]["class"],
                                  small_corpora["dcsd"]["texts"])
        assert stats.rows > 30       # items + authors + root

    def test_sqlserver_validates_mapping_during_load(self, small_corpora,
                                                     monkeypatch):
        """SQL Server's XSD bulk loader verifies the mapping per
        document (the extra load work vs. DB2's DAD loader)."""
        import repro.engines.relational as relational
        calls = {"verify": 0}
        original = relational._verify_mapping

        def counting(element, plan):
            calls["verify"] += 1
            return original(element, plan)

        monkeypatch.setattr(relational, "_verify_mapping", counting)
        corpus = small_corpora["tcmd"]
        XCollectionEngine().timed_load(corpus["class"], corpus["texts"])
        assert calls["verify"] == 0
        SqlServerEngine().timed_load(corpus["class"], corpus["texts"])
        assert calls["verify"] == len(corpus["texts"])

    def test_untranslated_query_rejected(self, small_corpora):
        engine = load(XCollectionEngine(), small_corpora["dcmd"])
        with pytest.raises(UnsupportedQuery):
            engine.execute("Q6", {})

    def test_index_path_resolution(self, small_corpora):
        engine = load(XCollectionEngine(), small_corpora["dcsd"])
        assert engine.store.database.index_for("item", "id_c") is not None
        assert engine.store.database.index_for(
            "item", "date_of_release") is not None

    def test_drop_indexes_keeps_key_indexes(self, small_corpora):
        engine = load(XCollectionEngine(), small_corpora["dcsd"])
        engine.drop_indexes()
        assert engine.store.database.index_for("item", "id_c") is None
        assert engine.store.database.index_for("item", "id") is not None


class TestXColumnEngine:
    def test_side_tables_created(self, small_corpora):
        engine = load(XColumnEngine(), small_corpora["dcmd"])
        assert len(engine.database.table("side_order_id")) == 30
        assert len(engine.database.table("documents")) == 35

    def test_dxx_seqno_orders_occurrences(self, small_corpora):
        engine = load(XColumnEngine(), small_corpora["dcmd"])
        rows = list(engine.database.lookup("side_line_item", "doc",
                                           "order1.xml"))
        seqnos = [row["dxx_seqno"] for row in rows]
        assert seqnos == sorted(seqnos) and seqnos[0] == 1

    def test_q16_like_clob_retrieval(self, small_corpora):
        engine = load(XColumnEngine(), small_corpora["dcmd"])
        document = engine._parse_clob("order3.xml")
        assert document.root_element.get("id") == "3"

    def test_unknown_query_rejected(self, small_corpora):
        engine = load(XColumnEngine(), small_corpora["dcmd"])
        with pytest.raises(UnsupportedQuery):
            engine.execute("Q20", {})


class TestCrossEngineAgreement:
    @pytest.mark.parametrize("qid", EXPERIMENT_QUERIES)
    @pytest.mark.parametrize("key", ["dcsd", "dcmd", "tcsd", "tcmd"])
    def test_engines_agree_or_flag_known_infidelity(
            self, qid, key, small_corpora):
        corpus = small_corpora[key]
        params = bind_params(qid, key, corpus["units"])
        oracle = None
        outcomes = {}
        for engine in map(create, PAPER_ENGINE_KEYS):
            try:
                engine.check_supported(corpus["class"], "small")
            except UnsupportedConfiguration:
                continue
            load(engine, corpus)
            values = engine.execute(qid, params)
            outcomes[engine.row_label] = values
            if isinstance(engine, NativeEngine):
                oracle = values
        assert oracle is not None
        # Known, paper-documented infidelities: mixed content in TC/SD
        # (Q8/Q12 markup loss, SQL Server text loss everywhere mixed).
        expected_infidelities = {
            ("Q8", "tcsd"): {"Xcollection", "SQL Server"},
            ("Q12", "tcsd"): {"Xcollection", "SQL Server"},
            ("Q17", "tcsd"): {"SQL Server"},
            ("Q17", "tcmd"): {"SQL Server"},
        }
        allowed = expected_infidelities.get((qid, key), set())
        for label, values in outcomes.items():
            if label == "X-Hive" or label in allowed:
                continue
            assert values == oracle, f"{label} disagrees on {qid}/{key}"

    def test_q5_order_sensitivity_flagged_engines_still_match_here(
            self, small_corpora):
        # The shredders do not guarantee order, but with insertion-order
        # heaps they "happen to return correct results" (paper, 3.2.2).
        corpus = small_corpora["dcmd"]
        params = bind_params("Q5", "dcmd", corpus["units"])
        results = {engine.row_label: load(engine, corpus).execute(
            "Q5", params) for engine in map(create, PAPER_ENGINE_KEYS)
            if not isinstance(engine, XColumnEngine)}
        assert len({tuple(values) for values in results.values()}) == 1


class TestScanCounters:
    """QueryResult.rows_scanned: the index-ablation observability hook."""

    def test_indexed_point_query_scans_nothing(self, small_corpora):
        engine = load(SqlServerEngine(), small_corpora["dcmd"])
        params = bind_params("Q5", "dcmd", 30)
        outcome = engine.timed_execute("Q5", params)
        assert outcome.rows_scanned == 0

    def test_scan_query_reports_rows(self, small_corpora):
        engine = load(SqlServerEngine(), small_corpora["dcmd"])
        params = bind_params("Q17", "dcmd", 30)
        outcome = engine.timed_execute("Q17", params)
        assert outcome.rows_scanned > 0

    def test_unindexed_point_query_scans(self, small_corpora):
        engine = SqlServerEngine()
        engine.timed_load(small_corpora["dcmd"]["class"],
                          small_corpora["dcmd"]["texts"])
        params = bind_params("Q5", "dcmd", 30)
        outcome = engine.timed_execute("Q5", params)
        assert outcome.rows_scanned > 0     # no @id value index yet

    def test_native_reports_none(self, small_corpora):
        engine = load(NativeEngine(), small_corpora["dcmd"])
        params = bind_params("Q5", "dcmd", 30)
        assert engine.timed_execute("Q5", params).rows_scanned is None

    def test_xcolumn_counts_side_table_scans(self, small_corpora):
        engine = load(XColumnEngine(), small_corpora["dcmd"])
        q5 = engine.timed_execute("Q5", bind_params("Q5", "dcmd", 30))
        q17 = engine.timed_execute("Q17",
                                   bind_params("Q17", "dcmd", 30))
        assert q5.rows_scanned == 0
        assert q17.rows_scanned > 0
