"""Native XML DBMS analogue (the paper's X-Hive).

Storage architecture: documents are parsed once at load time and kept as
trees — no mapping, no shredding.  Queries are genuine XQuery evaluated by
:mod:`repro.xquery`.

Value indexes (Table 3) are per-document-tree structures, as in X-Hive's
library indexes: an accelerated plan can jump to matching nodes *within*
trees, but a ``collection()`` query still visits every document of a
multi-document class.  That per-document cost is exactly the weakness the
paper measures for X-Hive in DC/MD ("X-Hive suffers from accessing huge
amounts of XML documents"); it emerges here from the same architecture
rather than from tuned constants.

Consequences (mirroring the paper's Experiment 2/3 analysis):

* fastest bulk load everywhere — parsing is all it does;
* perfect structure preservation and document order (Q5/Q12 oracle);
* single-document classes with an applicable index answer point queries
  without scanning;
* multi-document classes pay per-document evaluation, so DC/MD queries
  degrade with document count;
* no full-text index: Q17/Q18 walk all text.
"""

from __future__ import annotations

from ..databases.base import DatabaseClass
from ..errors import XQueryEvalError
from ..obs.recorder import count as _obs_count
from ..obs.recorder import plan_node as _obs_plan_node
from ..workload.queries import QUERIES_BY_ID
from ..xml.binary import materialize
from ..xml.nodes import Attribute, Document, Element, Node, Text
from ..xml.serializer import serialize
from ..xquery.context import Context
from ..xquery.engine import StaticCollection, XQueryEngine
from ..xquery.evaluator import evaluate as _evaluate
from ..xquery.items import string_value
from .base import Engine, LoadStats
from .planner import IndexProbePlan, QueryPlanner, ScanPlan


class NativeEngine(Engine):
    """In-memory tree store + real XQuery evaluation."""

    key = "native"
    row_label = "X-Hive"
    description = "native XML DBMS analogue (tree storage, XQuery)"

    def __init__(self) -> None:
        super().__init__()
        self._collection = StaticCollection()
        self._xquery = XQueryEngine()
        # index path -> {value: [nodes]}
        self._indexes: dict[str, dict[str, list[Node]]] = {}
        # query text -> IndexProbePlan | ScanPlan; cleared whenever the
        # collection or the declared indexes change.
        self._plan_cache: dict[str, IndexProbePlan | ScanPlan] = {}

    def bulk_load(self, db_class: DatabaseClass,
                  texts: list[tuple[str, str]]) -> LoadStats:
        self._collection = StaticCollection()
        self._indexes.clear()
        self._plan_cache.clear()
        for name, text in texts:
            self._collection.add(materialize(name, text))
        return LoadStats(rows=0, notes=["parsed into trees"])

    def create_indexes(self, paths: list[str]) -> None:
        for path in paths:
            self._indexes[path] = self._build_index(path)
        self._plan_cache.clear()

    def drop_indexes(self) -> None:
        self._indexes.clear()
        self._plan_cache.clear()

    def _release(self) -> None:
        """Drop the trees (and their cached structural summaries), the
        value indexes and the plan cache."""
        self._collection = StaticCollection()
        self._indexes.clear()
        self._plan_cache.clear()

    def _build_index(self, path: str) -> dict[str, list[Node]]:
        """Index every document: value -> value-carrying nodes.

        Paths are either ``tag/@attr`` (index owner elements by attribute
        value) or a bare element tag (index the elements by their text).
        """
        index: dict[str, list[Node]] = {}
        for document in self._collection.collection():
            self._index_document(path, index, document)
        return index

    @staticmethod
    def _index_document(path: str, index: dict,
                        document: Document) -> None:
        """Add one document's entries for the value index at ``path``.

        Paths resolve through the document's structural summary: a bare
        tag (or ``tag/@attr``) matches that tag anywhere, while slashed
        element parts match their full relative path — two same-named
        tags at different paths index independently.
        """
        summary = document.structural_summary()
        if "/@" in path:
            element_path, __, attr_name = path.partition("/@")
            for element in summary.elements_matching(element_path):
                value = element.get(attr_name)
                if value is not None:
                    index.setdefault(value, []).append(element)
        else:
            for element in summary.elements_matching(path):
                index.setdefault(element.text_content(),
                                 []).append(element)

    def execute(self, qid: str, params: dict) -> list[str]:
        self._require_loaded()
        assert self.db_class is not None
        text = QUERIES_BY_ID[qid].text_for(self.db_class.key)
        plan = self._plan_for(text)

        if isinstance(plan, IndexProbePlan):
            index = self._indexes.get(plan.index_path)
            if index is not None:
                return self._run_index_plan(plan, index, params)
            scan_reason = f"index {plan.index_path} not built"
        else:
            scan_reason = plan.reason

        _obs_count("native.collection_scans")
        _obs_count("native.documents_visited", len(self._collection))
        context_item = None
        if self.db_class.single_document:
            documents = self._collection.collection()
            if not documents:
                raise XQueryEvalError("collection is empty")
            context_item = documents[0]
        with _obs_plan_node("native.collection_scan",
                            documents=len(self._collection),
                            reason=scan_reason) as plan_node:
            result = self._xquery.execute(text, self._collection,
                                          variables=dict(params),
                                          context_item=context_item)
            out = normalize_result(result)
            plan_node.add(rows_in=len(self._collection),
                          rows_out=len(out))
        return out

    def _plan_for(self, text: str) -> IndexProbePlan | ScanPlan:
        """Plan ``text`` (cached per collection/index generation)."""
        plan = self._plan_cache.get(text)
        if plan is None:
            compiled = self._xquery.compile(text)
            planner = QueryPlanner(
                self._indexes.keys(),
                lambda: [document.structural_summary()
                         for document in self._collection.collection()])
            plan = planner.plan(compiled.expression)
            self._plan_cache[text] = plan
            if isinstance(plan, IndexProbePlan):
                _obs_count("planner.index_plans")
            else:
                _obs_count("planner.scan_plans")
        return plan

    def _run_index_plan(self, plan: IndexProbePlan, index: dict,
                        params: dict) -> list[str]:
        """Probe the index, evaluate the residual per matched node."""
        _obs_count("native.index_hits")
        if plan.param is not None:
            value = str(params[plan.param])
        else:
            value = str(plan.literal)
        entries = sum(len(nodes) for nodes in index.values())
        estimated = max(1, round(entries / len(index))) if index else 0
        bound = {name: val if isinstance(val, list) else [val]
                 for name, val in params.items()}
        with _obs_plan_node("native.index_lookup", path=plan.index_path,
                            source="planner", probe=plan.probe_desc,
                            residual=plan.residual_desc,
                            why=plan.reason,
                            estimated_rows=estimated) as plan_node:
            matches = index.get(value, [])
            out: list[str] = []
            for node in matches:
                context = Context(variables=dict(bound), item=node,
                                  provider=self._collection)
                out.extend(normalize_result(
                    _evaluate(plan.residual, context)))
            plan_node.add(rows_in=len(matches), rows_out=len(out))
        return out

    # -- update workload -------------------------------------------------------

    def insert_document(self, name: str, text: str) -> None:
        """Parse and add one document, maintaining value indexes."""
        document = materialize(name, text)
        self._collection.add(document)
        self._plan_cache.clear()
        for path, index in self._indexes.items():
            self._index_document(path, index, document)

    def delete_document(self, name: str) -> None:
        """Detach one document and purge its index entries."""
        document = self._collection.remove(name)
        self._plan_cache.clear()
        for index in self._indexes.values():
            for value in list(index):
                nodes = [node for node in index[value]
                         if node.root() is not document]
                if nodes:
                    index[value] = nodes
                else:
                    del index[value]

    def update_value(self, id_path: str, id_value: str, target_tag: str,
                     new_value: str) -> int:
        """In-place tree edit of the matched documents' target elements."""
        anchors = self._match_anchors(id_path, id_value)
        changed = 0
        for anchor in anchors:
            scope = anchor if isinstance(anchor, Element) else None
            if scope is None:
                continue
            targets = [scope] if scope.tag == target_tag else \
                list(scope.descendant_elements(target_tag))
            for target in targets:
                self._retarget_indexes(target, new_value)
                had_elements = target.has_element_children()
                # Swap the children list in one assignment so concurrent
                # readers never observe the emptied intermediate state.
                replacement = Text(new_value)
                replacement.parent = target
                target.children = [replacement]
                changed += 1
                if had_elements:
                    # Elements were removed: the cached structural
                    # summary (and any plan derived from it) is stale.
                    document = target.document
                    if document is not None:
                        document.invalidate_summary()
                    self._plan_cache.clear()
        return changed

    def _match_anchors(self, id_path: str, id_value: str) -> list[Node]:
        """Elements matching ``id_path = id_value`` (via index if built)."""
        index = self._indexes.get(id_path)
        if index is not None:
            return list(index.get(id_value, ()))
        matches: list[Node] = []
        scratch: dict[str, list[Node]] = {}
        for document in self._collection.collection():
            self._index_document(id_path, scratch, document)
        return scratch.get(id_value, matches)

    def _retarget_indexes(self, element: Element, new_value: str) -> None:
        """Move index entries keyed by the element's old text value."""
        for path, index in self._indexes.items():
            if "/@" in path or path.split("/")[-1] != element.tag:
                continue
            old_value = element.text_content()
            nodes = index.get(old_value, [])
            if element in nodes:
                nodes.remove(element)
                if not nodes:
                    index.pop(old_value, None)
                index.setdefault(new_value, []).append(element)

    # exposed for tests / examples ------------------------------------------

    def documents(self) -> list[Document]:
        """The loaded documents (for oracle checks)."""
        return self._collection.collection()

    def export_documents(self) -> list[Document]:
        """Current document trees for checkpoint snapshots."""
        return self._collection.collection()

    def run_xquery(self, text: str, params: dict | None = None) -> list:
        """Run arbitrary XQuery against the loaded database."""
        context_item = None
        if self.db_class is not None and self.db_class.single_document:
            context_item = self._collection.collection()[0]
        return self._xquery.execute(text, self._collection,
                                    variables=dict(params or {}),
                                    context_item=context_item)

    def _adhoc(self, text: str, params: dict) -> list[str]:
        return normalize_result(self.run_xquery(text, params))

    def execute_per_document(self, qid: str, params: dict,
                             names: list[str]
                             ) -> list[tuple[str, list[str]]]:
        """Evaluate ``qid`` once per named document.

        Each evaluation sees a collection view of exactly one main
        document plus every ambient document (those not listed in
        ``names`` — the replicated flat tables of DC/MD), so queries that
        join against ``doc('customer.xml')`` still resolve.  Document
        order *within* each view follows the global serials assigned at
        parse time, so per-document results concatenated in ``names``
        order reproduce a whole-collection scan exactly.
        """
        assert self.db_class is not None
        text = QUERIES_BY_ID[qid].text_for(self.db_class.key)
        documents = self._collection.collection()
        mains = set(names)
        by_name = {doc.name: doc for doc in documents}
        ambient = [doc for doc in documents if doc.name not in mains]
        _obs_count("native.per_document_evals", len(names))
        out: list[tuple[str, list[str]]] = []
        for name in names:
            main = by_name.get(name)
            if main is None:
                out.append((name, []))
                continue
            view = StaticCollection(
                [doc for doc in documents
                 if doc is main or doc.name not in mains]
                if ambient else [main])
            result = self._xquery.execute(text, view,
                                          variables=dict(params),
                                          context_item=None)
            out.append((name, normalize_result(result)))
        return out


def normalize_result(items: list) -> list[str]:
    """Engine-neutral result normalization: nodes serialize, atoms print."""
    out = []
    for item in items:
        if isinstance(item, (Element, Document)):
            out.append(serialize(item))
        elif isinstance(item, Attribute):
            out.append(item.value)
        elif isinstance(item, Node):
            out.append(item.string_value())
        else:
            out.append(string_value(item))
    return out
