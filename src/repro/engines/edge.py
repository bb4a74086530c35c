"""Edge/interval-encoded storage (ablation engine).

The paper's relational engines shred against a *schema-specific* mapping
(DAD / annotated XSD).  The classic schema-agnostic alternative — the
edge table with pre/post interval encoding (Dietz numbering, as in the
XQuery-to-SQL literature the paper cites) — stores every element as a row

    nodes(pre, post, parent_pre, tag, text, tagtext, doc)

plus an ``attrs`` table, and answers path steps with self-joins:
children via ``parent_pre``, descendants via ``pre BETWEEN pre AND
post``, value predicates via the combined ``tag\\x00text`` column.

It needs no per-class mapping at all (the same loader handles all four
XBench classes), at the price of one self-join per path step — the
shredding-granularity trade-off DESIGN.md lists as design decision #2.
``benchmarks/bench_ablation_edge.py`` quantifies it against the DAD
shredders.  The engine is an ablation extra: it is not one of the
paper's four systems and is excluded from ``PAPER_ENGINE_KEYS``.
"""

from __future__ import annotations

from ..databases.base import DatabaseClass
from ..errors import UnsupportedQuery
from ..obs.recorder import plan_node as _obs_plan_node
from ..relstore.database import Database
from ..relstore.table import Column
from ..relstore.types import ColumnType
from ..xml.nodes import Document, Element, Text
from ..xml.binary import materialize
from ..xml.serializer import serialize
from .base import Engine, LoadStats
from .translation import element_str

_SEPARATOR = "\x00"


class EdgeStore:
    """Interval-encoded node storage over the mini relational engine."""

    def __init__(self) -> None:
        self.database = Database()
        self.database.create_table("nodes", [
            Column("pre", ColumnType.INTEGER, nullable=False),
            Column("post", ColumnType.INTEGER, nullable=False),
            Column("parent_pre", ColumnType.INTEGER),
            Column("tag", ColumnType.TEXT, nullable=False),
            Column("text", ColumnType.TEXT),       # direct text content
            Column("tagtext", ColumnType.TEXT),    # tag + \x00 + text
            Column("doc", ColumnType.TEXT),
        ])
        self.database.create_table("attrs", [
            Column("owner_pre", ColumnType.INTEGER, nullable=False),
            Column("owner_tag", ColumnType.TEXT, nullable=False),
            Column("name", ColumnType.TEXT, nullable=False),
            Column("value", ColumnType.TEXT),
            Column("namevalue", ColumnType.TEXT),  # name + \x00 + value
            Column("doc", ColumnType.TEXT),
        ])
        self._next_pre = 0

    # -- loading --------------------------------------------------------------

    def load_document(self, document: Document) -> int:
        """Number the tree and insert its rows; returns nodes inserted."""
        nodes_table = self.database.table("nodes")
        attrs_table = self.database.table("attrs")
        inserted = 0

        def visit(element: Element, parent_pre: int | None) -> None:
            nonlocal inserted
            self._next_pre += 1
            pre = self._next_pre
            direct_text = "".join(
                child.text for child in element.children
                if isinstance(child, Text))
            for name, attr in element.attributes.items():
                attrs_table.insert({
                    "owner_pre": pre, "owner_tag": element.tag,
                    "name": name, "value": attr.value,
                    "namevalue": f"{name}{_SEPARATOR}{attr.value}",
                    "doc": document.name})
            for child in element.child_elements():
                visit(child, pre)
            nodes_table.insert({
                "pre": pre, "post": self._next_pre + 1,
                "parent_pre": parent_pre, "tag": element.tag,
                "text": direct_text,
                "tagtext": f"{element.tag}{_SEPARATOR}{direct_text}",
                "doc": document.name})
            inserted += 1

        visit(document.root_element, None)
        return inserted

    def build_key_indexes(self) -> None:
        """Structural indexes every interval store needs."""
        self.database.create_index("nodes", "pre", "sorted")
        self.database.create_index("nodes", "parent_pre", "hash")
        self.database.create_index("nodes", "tag", "hash")
        self.database.create_index("attrs", "owner_pre", "hash")

    # -- path primitives -----------------------------------------------------------

    def by_attr(self, owner_tag: str, name: str, value: str) -> list[dict]:
        """Elements with ``@name = value`` (and the given tag)."""
        index = self.database.index_for("attrs", "namevalue")
        needle = f"{name}{_SEPARATOR}{value}"
        if index is not None:
            rows = list(self.database.lookup("attrs", "namevalue",
                                             needle))
        else:
            rows = [row for row in self.database.scan("attrs")
                    if row["namevalue"] == needle]
        out = []
        for attr in rows:
            if attr["owner_tag"] == owner_tag:
                out.append(self.node(attr["owner_pre"]))
        return out

    def by_tag_text(self, tag: str, text: str) -> list[dict]:
        """Elements with the given tag and direct text (value index)."""
        needle = f"{tag}{_SEPARATOR}{text}"
        index = self.database.index_for("nodes", "tagtext")
        if index is not None:
            return list(self.database.lookup("nodes", "tagtext",
                                             needle))
        return [row for row in self.database.scan("nodes")
                if row["tagtext"] == needle]

    def node(self, pre: int) -> dict:
        return next(iter(self.database.lookup("nodes", "pre", pre)))

    def by_tag(self, tag: str) -> list[dict]:
        """All element rows with ``tag`` (tag hash index when built)."""
        if self.database.index_for("nodes", "tag") is not None:
            return list(self.database.lookup("nodes", "tag", tag))
        return [row for row in self.database.scan("nodes")
                if row["tag"] == tag]

    def children(self, pre: int, tag: str | None = None) -> list[dict]:
        """Child elements in document order (one parent_pre self-join)."""
        rows = [row for row in
                self.database.lookup("nodes", "parent_pre", pre)
                if tag is None or row["tag"] == tag]
        rows.sort(key=lambda row: row["pre"])
        return rows

    def parent(self, row: dict) -> dict | None:
        if row["parent_pre"] is None:
            return None
        return self.node(row["parent_pre"])

    def ancestor_with_tag(self, row: dict, tag: str) -> dict | None:
        current = row
        while True:
            current = self.parent(current)
            if current is None or current["tag"] == tag:
                return current

    def descendants(self, row: dict, tag: str | None = None) -> list[dict]:
        """Interval containment: pre BETWEEN (pre, post)."""
        rows = [candidate for candidate in
                self.database.range_scan("nodes", "pre",
                                         row["pre"] + 1, row["post"])
                if tag is None or candidate["tag"] == tag]
        rows.sort(key=lambda candidate: candidate["pre"])
        return rows

    def subtree_text(self, row: dict) -> str:
        """Approximate string value: own text + descendants' in pre
        order (mixed-content interleaving is not recoverable from the
        edge encoding — the same infidelity the shredders have)."""
        parts = [row["text"] or ""]
        parts.extend(descendant["text"] or ""
                     for descendant in self.descendants(row))
        return "".join(parts)

    def attributes_of(self, pre: int) -> list[dict]:
        return list(self.database.lookup("attrs", "owner_pre", pre))

    def reconstruct(self, row: dict) -> Element:
        """Rebuild a subtree (text placed before child elements)."""
        element = Element(row["tag"])
        for attr in self.attributes_of(row["pre"]):
            element.set_attribute(attr["name"], attr["value"])
        if row["text"]:
            element.append_text(row["text"])
        for child in self.children(row["pre"]):
            element.append(self.reconstruct(child))
        return element


# anchor specs per class: (tag, attribute) or (tag, None) for text keys
_ANCHORS = {
    "dcsd": ("item", "id"),
    "dcmd": ("order", "id"),
    "tcmd": ("article", "id"),
    "tcsd": ("entry", None),          # keyed by child hw text
}


class EdgeEngine(Engine):
    """Schema-agnostic interval-table engine (ablation extra)."""

    key = "edge"
    row_label = "Edge"
    description = "pre/post interval encoding, schema-agnostic shredding"

    def __init__(self) -> None:
        super().__init__()
        self.store = EdgeStore()
        self._index_paths: list[str] = []

    def bulk_load(self, db_class: DatabaseClass, texts) -> LoadStats:
        self.store = EdgeStore()
        rows = 0
        for name, text in texts:
            rows += self.store.load_document(materialize(name, text))
        self.store.build_key_indexes()
        return LoadStats(rows=rows,
                         notes=["interval-encoded, schema-agnostic"])

    def relational_database(self):
        return self.store.database

    def create_indexes(self, paths: list[str]) -> None:
        self._index_paths = list(paths)
        for path in paths:
            if "/@" in path:
                self.store.database.create_index("attrs", "namevalue",
                                                 "sorted")
            else:
                self.store.database.create_index("nodes", "tagtext",
                                                 "sorted")

    def drop_indexes(self) -> None:
        for path in self._index_paths:
            if "/@" in path:
                self.store.database.indexes.pop(("attrs", "namevalue"),
                                                None)
            else:
                self.store.database.indexes.pop(("nodes", "tagtext"),
                                                None)
        self._index_paths = []

    def _release(self) -> None:
        """Drop the interval-encoded tables and their indexes."""
        self.store = EdgeStore()
        self._index_paths = []

    # -- query plans (the experiment subset, all four classes) ----------------

    def execute(self, qid: str, params: dict) -> list[str]:
        self._require_loaded()
        assert self.db_class is not None
        handler = getattr(self, f"_{qid.lower()}_{self.db_class.key}",
                          None)
        if handler is not None:
            with _obs_plan_node("edge.handwritten_plan",
                                handler=handler.__name__) as plan_node:
                values = handler(params)
                plan_node.add(rows_out=len(values))
            return values
        # No handwritten plan: pure path queries compile generically
        # into structural joins (the edge encoding's signature ability).
        from ..workload.queries import QUERIES_BY_ID
        from .pathcompiler import UnsupportedPathError
        query = QUERIES_BY_ID.get(qid)
        if query is not None and query.applies_to(self.db_class.key):
            try:
                with _obs_plan_node("edge.pathcompiler_plan",
                                    qid=qid) as plan_node:
                    values = self.run_path(
                        query.text_for(self.db_class.key), params)
                    plan_node.add(rows_out=len(values))
                return values
            except UnsupportedPathError:
                pass
        raise UnsupportedQuery(
            f"Edge: no plan for {qid} on {self.db_class.key}")

    def run_path(self, text: str, params: dict | None = None
                 ) -> list[str]:
        """Execute an arbitrary pure path expression via structural
        joins; element results are reconstructed and serialized."""
        from .pathcompiler import run_path
        out = []
        for item in run_path(self.store, text, params):
            if isinstance(item, dict):
                out.append(serialize(self.store.reconstruct(item)))
            else:
                out.append(item)
        return out

    def _adhoc(self, text: str, params: dict) -> list[str]:
        return self.run_path(text, params)

    def _anchors(self, params: dict) -> list[dict]:
        assert self.db_class is not None
        tag, attr = _ANCHORS[self.db_class.key]
        if attr is not None:
            return self.store.by_attr(tag, attr, str(params["id"]))
        rows = self.store.by_tag_text("hw", str(params["word"]))
        return [self.store.parent(row) for row in rows]

    # Q5 — absolute ordered access: pre order gives document order.

    def _q5_dcmd(self, params: dict) -> list[str]:
        out = []
        for order in self._anchors(params):
            lines = self.store.children(order["pre"], "order_lines")
            for container in lines[:1]:
                order_lines = self.store.children(container["pre"],
                                                  "order_line")
                if order_lines:
                    item = self.store.children(order_lines[0]["pre"],
                                               "item_id")
                    if item:
                        out.append(element_str("item_id",
                                               item[0]["text"]))
        return out

    def _q5_dcsd(self, params: dict) -> list[str]:
        out = []
        for item in self._anchors(params):
            for authors in self.store.children(item["pre"],
                                               "authors")[:1]:
                author_rows = self.store.children(authors["pre"],
                                                  "author")
                if author_rows:
                    name = self.store.children(author_rows[0]["pre"],
                                               "name")
                    last = name and self.store.children(name[0]["pre"],
                                                        "last_name")
                    if last:
                        out.append(element_str("last_name",
                                               last[0]["text"]))
        return out

    def _q5_tcsd(self, params: dict) -> list[str]:
        out = []
        for entry in self._anchors(params):
            definitions = self.store.children(entry["pre"], "definition")
            if definitions:
                def_text = self.store.children(definitions[0]["pre"],
                                               "def_text")
                if def_text:
                    out.append(element_str("def_text",
                                           def_text[0]["text"]))
        return out

    def _q5_tcmd(self, params: dict) -> list[str]:
        out = []
        for article in self._anchors(params):
            for body in self.store.children(article["pre"], "body")[:1]:
                sections = self.store.children(body["pre"], "sec")
                if sections:
                    heading = self.store.children(sections[0]["pre"],
                                                  "heading")
                    if heading:
                        out.append(element_str("heading",
                                               heading[0]["text"]))
        return out

    # Q8 — unknown element: one extra child self-join per candidate.

    def _q8_dcsd(self, params: dict) -> list[str]:
        return self._wildcard_then(params, "suggested_retail_price")

    def _q8_dcmd(self, params: dict) -> list[str]:
        return self._wildcard_then(params, "ship_type")

    def _q8_tcmd(self, params: dict) -> list[str]:
        return self._wildcard_then(params, "title")

    def _q8_tcsd(self, params: dict) -> list[str]:
        out = []
        for entry in self._anchors(params):
            for unknown in self.store.children(entry["pre"]):
                for quote in self.store.children(unknown["pre"],
                                                 "quote"):
                    for qt in self.store.children(quote["pre"], "qt"):
                        out.append(element_str(
                            "qt", self.store.subtree_text(qt)))
        return out

    def _wildcard_then(self, params: dict, leaf_tag: str) -> list[str]:
        out = []
        for anchor in self._anchors(params):
            for unknown in self.store.children(anchor["pre"]):
                for leaf in self.store.children(unknown["pre"],
                                                leaf_tag):
                    out.append(element_str(leaf_tag, leaf["text"]))
        return out

    # Q12 — construction: recursive parent_pre joins.

    def _q12_dcsd(self, params: dict) -> list[str]:
        out = []
        for item in self._anchors(params):
            for authors in self.store.children(item["pre"], "authors"):
                author_rows = self.store.children(authors["pre"],
                                                  "author")
                if not author_rows:
                    continue
                wrapper = Element("address_info")
                for contact in self.store.children(
                        author_rows[0]["pre"], "contact_information"):
                    for mailing in self.store.children(
                            contact["pre"], "mailing_address"):
                        wrapper.append(self.store.reconstruct(mailing))
                out.append(serialize(wrapper))
        return out

    def _q12_dcmd(self, params: dict) -> list[str]:
        out = []
        for order in self._anchors(params):
            wrapper = Element("payment_info")
            for billing in self.store.children(order["pre"],
                                               "billing_information"):
                for card in self.store.children(billing["pre"],
                                                "credit_card"):
                    wrapper.append(self.store.reconstruct(card))
            out.append(serialize(wrapper))
        return out

    def _q12_tcsd(self, params: dict) -> list[str]:
        out = []
        for entry in self._anchors(params):
            wrapper = Element("entry_info")
            for definition in self.store.children(entry["pre"],
                                                  "definition"):
                wrapper.append(self.store.reconstruct(definition))
            out.append(serialize(wrapper))
        return out

    def _q12_tcmd(self, params: dict) -> list[str]:
        out = []
        for article in self._anchors(params):
            wrapper = Element("article_info")
            for prolog in self.store.children(article["pre"], "prolog"):
                for title in self.store.children(prolog["pre"],
                                                 "title"):
                    wrapper.append(self.store.reconstruct(title))
                for abstract in self.store.children(prolog["pre"],
                                                    "abstract"):
                    wrapper.append(self.store.reconstruct(abstract))
            out.append(serialize(wrapper))
        return out

    # Q14 — missing elements: anti-joins over child rows.

    def _q14_dcsd(self, params: dict) -> list[str]:
        low, high = str(params["from"]), str(params["to"])
        seen: set[str] = set()
        out = []
        for date_row in self._tag_text_range("date_of_release", low,
                                             high):
            item = self.store.parent(date_row)
            if item is None or item["tag"] != "item":
                continue
            for publisher in self.store.children(item["pre"],
                                                 "publisher"):
                if self.store.children(publisher["pre"], "fax"):
                    continue
                names = self.store.children(publisher["pre"], "name")
                if names and names[0]["text"] not in seen:
                    seen.add(names[0]["text"])
                    out.append(names[0]["text"])
        return out

    def _tag_text_range(self, tag: str, low: str, high: str
                        ) -> list[dict]:
        """Elements with tag text in [low, high] via the tagtext index
        (lexicographic on the combined column), else a scan."""
        index = self.store.database.index_for("nodes", "tagtext")
        if index is not None:
            rows = list(self.store.database.range_scan(
                "nodes", "tagtext", f"{tag}{_SEPARATOR}{low}",
                f"{tag}{_SEPARATOR}{high}"))
        else:
            rows = [row for row in self.store.database.scan("nodes")
                    if row["tag"] == tag
                    and row["text"] is not None
                    and low <= row["text"] <= high]
        rows.sort(key=lambda row: row["pre"])
        return rows

    def _q14_dcmd(self, params: dict) -> list[str]:
        low, high = str(params["from"]), str(params["to"])
        out = []
        for date_row in self._tag_text_range("order_date", low, high):
            order = self.store.parent(date_row)
            if order is None or order["tag"] != "order":
                continue
            missing = True
            for shipping in self.store.children(order["pre"],
                                                "shipping_information"):
                for address in self.store.children(shipping["pre"],
                                                   "shipping_address"):
                    if self.store.children(address["pre"], "street2"):
                        missing = False
            if missing:
                for attr in self.store.attributes_of(order["pre"]):
                    if attr["name"] == "id":
                        out.append(attr["value"])
        return out

    def _q14_tcsd(self, params: dict) -> list[str]:
        out = []
        for entry in self.store.database.scan("nodes"):
            if entry["tag"] != "entry":
                continue
            if not self.store.children(entry["pre"], "etymology"):
                headwords = self.store.children(entry["pre"], "hw")
                if headwords:
                    out.append(headwords[0]["text"])
        return out

    def _q14_tcmd(self, params: dict) -> list[str]:
        low, high = str(params["from"]), str(params["to"])
        out = []
        for date_row in self._tag_text_range("date_of_publication", low,
                                             high):
            prolog = self.store.parent(date_row)
            if prolog is None or prolog["tag"] != "prolog":
                continue
            if not self.store.children(prolog["pre"], "abstract"):
                titles = self.store.children(prolog["pre"], "title")
                if titles:
                    out.append(titles[0]["text"])
        return out

    # Q17 — text search: one scan of the nodes table + ancestor joins.

    def _q17_tcsd(self, params: dict) -> list[str]:
        return self._text_search(params, "entry", "hw")

    def _q17_dcsd(self, params: dict) -> list[str]:
        word = str(params["word"])
        out = []
        for row in self.store.database.scan("nodes"):
            if row["tag"] == "description" and row["text"] \
                    and word in row["text"]:
                item = self.store.parent(row)
                if item is not None:
                    titles = self.store.children(item["pre"], "title")
                    if titles:
                        out.append(titles[0]["text"])
        return out

    def _q17_dcmd(self, params: dict) -> list[str]:
        word = str(params["word"])
        matched: dict[int, dict] = {}
        for row in self.store.database.scan("nodes"):
            if row["tag"] == "comments" and row["text"] \
                    and word in row["text"]:
                order = self.store.ancestor_with_tag(row, "order")
                if order is not None:
                    matched[order["pre"]] = order
        out = []
        for pre in sorted(matched):
            for attr in self.store.attributes_of(pre):
                if attr["name"] == "id":
                    out.append(attr["value"])
        return out

    def _q17_tcmd(self, params: dict) -> list[str]:
        word = str(params["word"])
        matched: dict[int, dict] = {}
        for row in self.store.database.scan("nodes"):
            if row["text"] and word in row["text"] \
                    and row["tag"] in ("p", "heading", "citation"):
                # the query searches the body only; abstract paragraphs
                # are also <p> and must not match
                body = self.store.ancestor_with_tag(row, "body")
                if body is None:
                    continue
                article = self.store.ancestor_with_tag(row, "article")
                if article is not None:
                    matched[article["pre"]] = article
        out = []
        for pre in sorted(matched):
            article = matched[pre]
            for prolog in self.store.children(pre, "prolog"):
                for title in self.store.children(prolog["pre"],
                                                 "title"):
                    out.append(title["text"])
        return out

    def _text_search(self, params: dict, ancestor_tag: str,
                     result_tag: str) -> list[str]:
        word = str(params["word"])
        matched: dict[int, dict] = {}
        for row in self.store.database.scan("nodes"):
            if row["text"] and word in row["text"]:
                anchor = row if row["tag"] == ancestor_tag else \
                    self.store.ancestor_with_tag(row, ancestor_tag)
                if anchor is not None:
                    matched[anchor["pre"]] = anchor
        out = []
        for pre in sorted(matched):
            results = self.store.children(pre, result_tag)
            if results:
                out.append(results[0]["text"])
        return out
