"""Differential property test: path results in document order.

The evaluator sorts a path step's result only when it cannot show the
result is already in document order (see the ``repro.xquery.evaluator``
module docstring).  The reference evaluator here does what XPath
defines: it applies each step per context node and calls
``document_order`` after every step.  Generated trees nest same-tag
elements, so paths such as ``//a/b`` produce unsorted concatenations
that the evaluator must still sort.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xml.nodes import (Attribute, Comment, Document, Element, Text,
                             document_order)
from repro.xml.parser import parse_document
from repro.xquery import run_query

TAGS = ("a", "b", "c")
ATTRS = ("x", "y")


# -- generated trees ---------------------------------------------------------

@st.composite
def elements(draw, depth: int = 4) -> Element:
    element = Element(draw(st.sampled_from(TAGS)))
    for name in draw(st.lists(st.sampled_from(ATTRS), max_size=2,
                              unique=True)):
        element.set_attribute(name, name)
    if depth > 0:
        for __ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(("element", "element", "text",
                                         "comment")))
            if kind == "element":
                element.append(draw(elements(depth=depth - 1)))
            elif kind == "text":
                element.append_text("t")
            else:
                element.append(Comment("c"))
    return element


@st.composite
def documents(draw) -> Document:
    document = Document(draw(elements()), name="d.xml")
    document.refresh_order()
    return document


def all_nodes(document: Document) -> list:
    out: list = []

    def visit(node) -> None:
        out.append(node)
        if isinstance(node, Element):
            out.extend(node.attributes.values())
        for child in getattr(node, "children", ()):
            visit(child)

    visit(document)
    return out


# -- generated paths ---------------------------------------------------------
#
# A step is (separator, axis, test, predicates); separator "//" is the
# abbreviation descendant-or-self::node()/child::test.

PREDICATES = ("[1]", "[2]", "[b]", "[@x]", "[last()]")


@st.composite
def steps(draw) -> tuple:
    separator = draw(st.sampled_from(("/", "/", "//")))
    if separator == "//":
        axis = "child"
    else:
        axis = draw(st.sampled_from((
            "child", "child", "descendant", "descendant-or-self",
            "attribute", "self", "parent")))
    if axis == "attribute":
        test = draw(st.sampled_from(ATTRS + ("*",)))
    elif axis == "parent":
        test = "node()"
    else:
        test = draw(st.sampled_from(TAGS + ("*", "text()", "node()")))
    predicates: tuple = ()
    if axis != "parent":
        predicates = tuple(draw(st.lists(st.sampled_from(PREDICATES),
                                         max_size=2)))
    return separator, axis, test, predicates


def render(step: tuple) -> str:
    separator, axis, test, predicates = step
    if axis == "parent":
        body = ".."
    elif axis == "child":
        body = test
    elif axis == "attribute":
        body = "@" + test
    else:
        body = f"{axis}::{test}"
    return separator + body + "".join(predicates)


# -- the reference evaluator -------------------------------------------------

def children(node) -> list:
    if isinstance(node, (Element, Document)):
        return list(node.children)
    return []


def descendants(node) -> list:
    out: list = []
    for child in children(node):
        out.append(child)
        out.extend(descendants(child))
    return out


def axis_nodes(node, axis: str) -> list:
    if axis == "child":
        return children(node)
    if axis == "descendant":
        return descendants(node)
    if axis == "descendant-or-self":
        return [node] + descendants(node)
    if axis == "attribute":
        if isinstance(node, Element):
            return list(node.attributes.values())
        return []
    if axis == "self":
        return [node]
    assert axis == "parent"
    return [node.parent] if node.parent is not None else []


def matches(node, test: str) -> bool:
    """Node tests as the evaluator defines them."""
    if test == "node()":
        return True
    if test == "text()":
        return isinstance(node, Text)
    if test == "*":
        return isinstance(node, (Element, Attribute))
    if isinstance(node, Element):
        return node.tag == test
    if isinstance(node, Attribute):
        return node.name == test
    return False


def keep(node, position: int, size: int, predicate: str) -> bool:
    if predicate == "[last()]":
        return position == size
    if predicate.startswith("[@"):
        return isinstance(node, Element) and "x" in node.attributes
    if predicate == "[b]":
        return any(isinstance(c, Element) and c.tag == "b"
                   for c in children(node))
    return position == int(predicate[1:-1])


def reference_step(current: list, axis: str, test: str,
                   predicates: tuple) -> list:
    out: list = []
    for node in current:
        selected = [n for n in axis_nodes(node, axis)
                    if matches(n, test)]
        for predicate in predicates:
            size = len(selected)
            selected = [n for position, n in enumerate(selected, start=1)
                        if keep(n, position, size, predicate)]
        out.extend(selected)
    return document_order(out)


def reference(start: list, path: list) -> list:
    current = document_order(start)
    for separator, axis, test, predicates in path:
        if separator == "//":
            current = reference_step(current, "descendant-or-self",
                                     "node()", ())
        current = reference_step(current, axis, test, predicates)
    return current


def same_nodes(left: list, right: list) -> bool:
    return len(left) == len(right) and all(
        a is b for a, b in zip(left, right))


# -- properties --------------------------------------------------------------

class TestPathOrderMatchesReference:
    @given(documents(), st.lists(steps(), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_absolute_path(self, document, path):
        text = "".join(render(step) for step in path)
        if text.startswith("/.."):
            text = "/self::node()" + text
        expected = reference([document], path)
        assert same_nodes(run_query(text, [document]), expected), text

    @given(st.lists(documents(), min_size=2, max_size=3),
           st.lists(steps(), min_size=1, max_size=3), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_collection_of_documents(self, docs, path, shuffle):
        # Documents in serial order are a flat start; reversed, they
        # must be sorted first.
        collection = list(reversed(docs)) if shuffle else docs
        text = "collection()" + "".join(render(step) for step in path)
        expected = reference(collection, path)
        assert same_nodes(run_query(text, collection), expected), text

    @given(st.lists(documents(), min_size=1, max_size=2),
           st.lists(steps(), min_size=1, max_size=3), st.data())
    @settings(max_examples=200, deadline=None)
    def test_variable_bound_to_several_nodes(self, docs, path, data):
        pool = [node for document in docs for node in all_nodes(document)]
        bound = data.draw(st.lists(st.sampled_from(pool), min_size=2,
                                   max_size=6))
        text = "$v" + "".join(render(step) for step in path)
        expected = reference(bound, path)
        result = run_query(text, docs, variables={"v": bound})
        assert same_nodes(result, expected), text

    def test_nested_same_tag_children_are_sorted(self):
        # a1 contains a2; a1's children b1, a2, b3 come before a2's b2
        # in the concatenation, but b2 precedes b3 in document order.
        document = parse_document(
            "<r><a><b>1</b><a><b>2</b></a><b>3</b></a></r>")
        assert [n.text_content() for n in run_query("//a/b", [document])] \
            == ["1", "2", "3"]
