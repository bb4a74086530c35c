"""Extended translation tests: reconstruction + the eight extra plans."""

from __future__ import annotations

import pytest

from repro.core.indexes import indexes_for
from repro.engines import (
    NativeEngine,
    SqlServerEngine,
    XCollectionEngine,
    XColumnEngine,
)
from repro.engines.translation import PLANS, has_plan
from repro.errors import UnsupportedConfiguration
from repro.workload import bind_params
from repro.xml.serializer import serialize


def load(factory, corpus):
    engine = factory()
    engine.timed_load(corpus["class"], corpus["texts"])
    engine.create_indexes(list(indexes_for(corpus["class"].key)))
    return engine


class TestReconstruction:
    def test_dcsd_item_round_trips_exactly(self, small_corpora):
        """DC documents have no mixed content, so reconstruction can be
        (and is) byte-exact against the original."""
        corpus = small_corpora["dcsd"]
        engine = load(XCollectionEngine, corpus)
        plan = engine.store.plans["catalog"]
        item_record = next(r for r in plan.records
                           if r.table_name == "item")
        original_items = list(
            corpus["documents"][0].root_element.child_elements("item"))
        for row in list(engine.store.database.scan("item"))[:5]:
            rebuilt = engine.store.reconstruct(plan, item_record, row)
            original = original_items[int(row["id_c"]) - 1]
            assert serialize(rebuilt) == serialize(original)

    def test_dcmd_order_document_round_trips(self, small_corpora):
        corpus = small_corpora["dcmd"]
        engine = load(SqlServerEngine, corpus)
        plan = engine.store.plans["order"]
        record = plan.records[0]
        row = next(iter(engine.store.database.scan("order")))
        rebuilt = engine.store.reconstruct(plan, record, row)
        original = next(d for d in corpus["documents"]
                        if d.name == f"order{row['id_c']}.xml")
        assert serialize(rebuilt) == serialize(original.root_element)

    def test_tcsd_reconstruction_loses_mixed_markup(self, small_corpora):
        """TC reconstruction is lossy exactly where the paper says."""
        corpus = small_corpora["tcsd"]
        engine = load(XCollectionEngine, corpus)
        plan = engine.store.plans["dictionary"]
        entry_record = next(r for r in plan.records
                            if r.table_name == "entry")
        lossy = 0
        originals = list(
            corpus["documents"][0].root_element.child_elements("entry"))
        for row in engine.store.database.scan("entry"):
            rebuilt = engine.store.reconstruct(plan, entry_record, row)
            original = originals[int(row["id_c"][1:]) - 1]
            rebuilt_text = serialize(rebuilt)
            if rebuilt_text != serialize(original):
                lossy += 1
                # The mixed qt column stores the element's *full* text
                # while inline children are shredded separately, so the
                # rebuilt fragment duplicates emphasis text and loses its
                # position - the redundancy the paper attributes to
                # combined storage approaches.
                for emphasis in original.descendant_elements("emphasis"):
                    assert rebuilt_text.count(
                        emphasis.text_content()) >= 1
        assert lossy > 0


EXTENDED = [("Q1", "dcsd"), ("Q1", "dcmd"), ("Q2", "dcsd"),
            ("Q2", "tcmd"), ("Q3", "dcmd"), ("Q4", "tcmd"),
            ("Q7", "dcsd"), ("Q9", "dcmd"), ("Q10", "dcmd"),
            ("Q11", "tcsd"), ("Q13", "tcmd"), ("Q16", "dcmd"),
            ("Q19", "dcmd"), ("Q20", "dcsd")]

# (qid, class) pairs where SQL Server's dropped mixed content makes its
# result legitimately diverge from the oracle (paper problem #3).
SQLSERVER_LOSSY = {("Q6", "tcmd"), ("Q18", "tcmd")}


class TestExtendedPlans:
    def test_plan_registry_covers_extended_set(self):
        for qid, class_key in EXTENDED:
            assert has_plan(qid, class_key), (qid, class_key)

    def test_core_five_cover_all_classes(self):
        for qid in ("Q5", "Q8", "Q12", "Q14", "Q17"):
            for class_key in ("dcsd", "dcmd", "tcsd", "tcmd"):
                assert has_plan(qid, class_key)

    @pytest.mark.parametrize("qid,class_key", EXTENDED)
    def test_extended_plans_match_oracle(self, qid, class_key,
                                         small_corpora):
        corpus = small_corpora[class_key]
        params = bind_params(qid, class_key, corpus["units"])
        oracle = load(NativeEngine, corpus).execute(qid, params)
        for factory in (XCollectionEngine, SqlServerEngine):
            engine = load(factory, corpus)
            assert engine.execute(qid, params) == oracle, factory.key

    @pytest.mark.parametrize("qid,class_key", sorted(SQLSERVER_LOSSY))
    def test_lossy_plans_xcollection_exact_sqlserver_subset(
            self, qid, class_key, small_corpora):
        """Where mixed text matters, Xcollection still matches the
        oracle while SQL Server returns a subset."""
        corpus = small_corpora[class_key]
        params = bind_params(qid, class_key, corpus["units"])
        oracle = load(NativeEngine, corpus).execute(qid, params)
        assert load(XCollectionEngine, corpus).execute(qid, params) == \
            oracle
        sql_result = load(SqlServerEngine, corpus).execute(qid, params)
        assert len(sql_result) <= len(oracle)

    @pytest.mark.parametrize("qid", ["Q1", "Q9", "Q16", "Q19"])
    def test_xcolumn_extended_plans_match_oracle(self, qid,
                                                 small_corpora):
        corpus = small_corpora["dcmd"]
        params = bind_params(qid, "dcmd", corpus["units"])
        oracle = load(NativeEngine, corpus).execute(qid, params)
        engine = load(XColumnEngine, corpus)
        assert engine.execute(qid, params) == oracle

    def test_xcolumn_q16_serves_clob_directly(self, small_corpora):
        corpus = small_corpora["dcmd"]
        engine = load(XColumnEngine, corpus)
        params = bind_params("Q16", "dcmd", corpus["units"])
        (value,) = engine.execute("Q16", params)
        assert value.startswith("<order ")
