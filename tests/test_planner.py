"""Index-aware planner tests: workload index plans, eligibility."""

from __future__ import annotations

import pytest

from repro.core.indexes import indexes_for
from repro.engines import NativeEngine
from repro.engines.planner import IndexProbePlan, QueryPlanner, ScanPlan
from repro.workload import bind_params
from repro.workload.queries import QUERIES_BY_ID
from repro.xml.parser import parse_document
from repro.xquery.engine import XQueryEngine


def load(corpus):
    engine = NativeEngine()
    engine.timed_load(corpus["class"], corpus["texts"])
    engine.create_indexes(list(indexes_for(corpus["class"].key)))
    return engine


def plan_text(text: str, index_paths, documents):
    compiled = XQueryEngine().compile(text)
    planner = QueryPlanner(
        index_paths,
        lambda: [document.structural_summary()
                 for document in documents])
    return planner.plan(compiled.expression)


#: the workload's indexable single-document point queries:
#: (qid, class) -> (index path the planner must probe, bound parameter).
#: These were the native engine's hand-written override table until the
#: planner derived every one of them from the AST.
EXPECTED_INDEX_PLANS = {
    ("Q1", "dcsd"): ("item/@id", "id"),
    ("Q5", "dcsd"): ("item/@id", "id"),
    ("Q8", "dcsd"): ("item/@id", "id"),
    ("Q12", "dcsd"): ("item/@id", "id"),
    ("Q5", "tcsd"): ("hw", "word"),
    ("Q8", "tcsd"): ("hw", "word"),
    ("Q11", "tcsd"): ("hw", "word"),
    ("Q12", "tcsd"): ("hw", "word"),
}


class TestWorkloadIndexPlans:
    """The planner must derive each expected plan — same index, same
    parameter — from the query text alone."""

    @pytest.mark.parametrize("qid,class_key",
                             sorted(EXPECTED_INDEX_PLANS))
    def test_planner_reproduces_entry(self, qid, class_key,
                                      small_corpora):
        engine = load(small_corpora[class_key])
        expected_path, expected_param = \
            EXPECTED_INDEX_PLANS[(qid, class_key)]
        text = QUERIES_BY_ID[qid].text_for(class_key)
        compiled = XQueryEngine().compile(text)
        planner = QueryPlanner(
            engine._indexes.keys(),
            lambda: [document.structural_summary()
                     for document in engine._collection.collection()])
        plan = planner.plan(compiled.expression)
        assert isinstance(plan, IndexProbePlan), \
            f"planner declined {qid}/{class_key}: " \
            f"{getattr(plan, 'reason', '?')}"
        assert plan.index_path == expected_path
        assert plan.param == expected_param

    @pytest.mark.parametrize("qid,class_key",
                             sorted(EXPECTED_INDEX_PLANS))
    def test_index_plan_matches_collection_scan(self, qid, class_key,
                                                small_corpora):
        """Probing + residual must return exactly what the full
        evaluation returns."""
        engine = load(small_corpora[class_key])
        params = bind_params(qid, class_key, 30)
        indexed = engine.execute(qid, params)
        engine.drop_indexes()
        scanned = engine.execute(qid, params)
        assert indexed == scanned


class TestEligibility:
    def test_collection_queries_never_eligible(self, small_corpora):
        text = QUERIES_BY_ID["Q5"].text_for("dcmd")
        plan = plan_text(text, ["order/@id"], [])
        assert isinstance(plan, ScanPlan)
        assert "collection()" in plan.reason

    def test_collection_queries_skip_summary_construction(self):
        text = QUERIES_BY_ID["Q5"].text_for("dcmd")
        compiled = XQueryEngine().compile(text)
        planner = QueryPlanner(
            ["order/@id"],
            lambda: pytest.fail("summaries built for a collection() "
                                "query"))
        assert isinstance(planner.plan(compiled.expression), ScanPlan)

    def test_range_predicates_decline(self):
        document = parse_document(
            "<catalog><item><date_of_release>1999-01-01"
            "</date_of_release></item></catalog>")
        plan = plan_text(
            "/catalog/item[date_of_release >= $low]",
            ["date_of_release"], [document])
        assert isinstance(plan, ScanPlan)
        assert "range predicate" in plan.reason

    def test_over_matching_tag_declines(self):
        document = parse_document(
            "<catalog><item><name>x</name>"
            "<publisher><name>y</name></publisher></item></catalog>")
        plan = plan_text("/catalog/item[name = 'x']", ["name"],
                         [document])
        assert isinstance(plan, ScanPlan)
        assert "also occurs at" in plan.reason

    def test_missing_index_declines(self):
        document = parse_document(
            "<catalog><item id='1'><title>t</title></item></catalog>")
        plan = plan_text("/catalog/item[@id = $id]/title", [],
                         [document])
        assert isinstance(plan, ScanPlan)
        assert "no declared index" in plan.reason

    def test_literal_probe_is_eligible(self):
        document = parse_document(
            "<dictionary><entry><hw>word_1</hw>"
            "<definition><def_text>d</def_text></definition>"
            "</entry></dictionary>")
        plan = plan_text(
            "/dictionary/entry[hw = 'word_1']/definition[1]/def_text",
            ["hw"], [document])
        assert isinstance(plan, IndexProbePlan)
        assert plan.param is None
        assert plan.literal == "word_1"
        assert plan.probe_desc == "hw = 'word_1'"

    def test_probe_plan_explains_itself(self):
        document = parse_document(
            "<catalog><item id='1'><title>t</title></item></catalog>")
        plan = plan_text("/catalog/item[@id = $id]/title",
                         ["item/@id"], [document])
        assert isinstance(plan, IndexProbePlan)
        assert plan.anchor_path == "catalog/item"
        assert plan.residual_desc == "title"
        assert "item/@id" in plan.reason
