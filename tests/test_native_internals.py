"""Native engine internals: index building, acceleration, retargeting."""

from __future__ import annotations

import pytest

from repro.core.indexes import indexes_for
from repro.engines import NativeEngine
from repro.workload import bind_params


def load(corpus):
    engine = NativeEngine()
    engine.timed_load(corpus["class"], corpus["texts"])
    engine.create_indexes(list(indexes_for(corpus["class"].key)))
    return engine


class TestValueIndexes:
    def test_attribute_index_keys_are_values(self, small_corpora):
        engine = load(small_corpora["dcmd"])
        index = engine._indexes["order/@id"]
        assert "1" in index and "30" in index
        assert all(node.tag == "order"
                   for nodes in index.values() for node in nodes)

    def test_element_index_keys_are_text(self, small_corpora):
        engine = load(small_corpora["tcsd"])
        index = engine._indexes["hw"]
        assert "word_1" in index
        assert all(node.tag == "hw"
                   for nodes in index.values() for node in nodes)

    def test_index_covers_every_document(self, small_corpora):
        engine = load(small_corpora["tcmd"])
        index = engine._indexes["article/@id"]
        assert len(index) == 30

    def test_root_element_attribute_indexed(self, small_corpora):
        # order/@id: the root element itself carries the attribute.
        engine = load(small_corpora["dcmd"])
        (node,) = engine._indexes["order/@id"]["5"]
        assert node.parent.kind == "document"


class TestAcceleratedPlans:
    def test_planner_probe_used_for_sd_point_query(self, small_corpora,
                                                   monkeypatch):
        engine = load(small_corpora["dcsd"])
        calls = {"probe": 0}
        original = engine._run_index_plan

        def counting(*args, **kwargs):
            calls["probe"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "_run_index_plan", counting)
        engine.execute("Q5", bind_params("Q5", "dcsd", 30))
        assert calls["probe"] == 1

    def test_md_classes_never_accelerate(self, small_corpora,
                                         monkeypatch):
        """Collection iteration is the architectural cost being modeled
        for multi-document classes (see module docstring)."""
        engine = load(small_corpora["dcmd"])
        monkeypatch.setattr(
            engine, "_run_index_plan",
            lambda *a, **k: pytest.fail("MD class used a planner probe"))
        engine.execute("Q5", bind_params("Q5", "dcmd", 30))

    def test_same_named_tags_at_different_paths_index_separately(self):
        """Regression: a slashed index path must match the full relative
        path, not just the last segment (two ``name`` tags here)."""
        from repro.xml.parser import parse_document

        engine = NativeEngine()
        text = ("<catalog>"
                "<item><authors><author><name>A. Author</name>"
                "</author></authors>"
                "<publisher><name>Pub House</name></publisher>"
                "</item></catalog>")
        document = parse_document(text, name="cat.xml")
        engine._collection.add(document)
        index: dict = {}
        engine._index_document("publisher/name", index, document)
        assert list(index) == ["Pub House"]
        index = {}
        engine._index_document("author/name", index, document)
        assert list(index) == ["A. Author"]
        # A bare tag still matches anywhere (backward compatible).
        index = {}
        engine._index_document("name", index, document)
        assert sorted(index) == ["A. Author", "Pub House"]


class TestUpdateRetargeting:
    def test_element_index_follows_value_update(self, small_corpora):
        """Updating an indexed element's text must move its index entry
        (the hw index after a headword change)."""
        engine = load(small_corpora["tcsd"])
        # TC/SD is single-document; drive update_value directly against
        # the hw anchor itself.
        changed = engine.update_value("hw", "word_1", "hw",
                                      "renamed_word")
        assert changed >= 1
        index = engine._indexes["hw"]
        assert "word_1" not in index
        assert "renamed_word" in index
        # and the accelerated plan sees the new key
        params = dict(bind_params("Q5", "tcsd", 30),
                      word="renamed_word")
        assert engine.execute("Q5", params)

    def test_update_returns_zero_for_missing_key(self, small_corpora):
        engine = load(small_corpora["dcmd"])
        assert engine.update_value("order/@id", "99999",
                                   "order_status", "X") == 0

    def test_unindexed_update_scans_documents(self, small_corpora):
        engine = NativeEngine()
        corpus = small_corpora["dcmd"]
        engine.timed_load(corpus["class"], corpus["texts"])
        # no indexes created: _match_anchors builds a scratch index
        changed = engine.update_value("order/@id", "7", "order_status",
                                      "SHIPPED")
        assert changed == 1
        assert engine.run_xquery(
            "string(collection()/order[@id='7']//order_status)") == \
            ["SHIPPED"]
