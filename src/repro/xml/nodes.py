"""XML document model (a small, XQuery-friendly DOM).

The model implements the pieces of the XQuery/XPath data model that the
XBench workload needs: seven node kinds are reduced to five
(:class:`Document`, :class:`Element`, :class:`Attribute`, :class:`Text`,
:class:`Comment`), every node knows its parent, and every node in a tree has
a *document order* key so sequences of nodes can be sorted back into document
order after set-like path operations.

Nodes are plain mutable Python objects; tree invariants (parent pointers,
order keys) are maintained by the mutation helpers on :class:`Element` and by
:meth:`Document.refresh_order`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional


class Node:
    """Base class for all node kinds."""

    __slots__ = ("parent", "order_key")

    kind = "node"

    def __init__(self) -> None:
        self.parent: Optional[Node] = None
        # Position in document order; assigned by Document.refresh_order().
        self.order_key: int = -1

    # -- navigation ------------------------------------------------------

    @property
    def document(self) -> Optional["Document"]:
        """The owning :class:`Document`, or ``None`` for detached trees."""
        node: Optional[Node] = self
        while node is not None and not isinstance(node, Document):
            node = node.parent
        return node

    def ancestors(self) -> Iterator["Node"]:
        """Yield ancestors from the parent up to (and including) the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self) -> "Node":
        """The topmost node of the tree containing this node."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    # -- content ---------------------------------------------------------

    def string_value(self) -> str:
        """The node's typed string value per the XPath data model."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class Text(Node):
    """A text node."""

    __slots__ = ("text",)

    kind = "text"

    def __init__(self, text: str) -> None:
        super().__init__()
        self.text = text

    def string_value(self) -> str:
        return self.text

    def __repr__(self) -> str:  # pragma: no cover
        preview = self.text if len(self.text) <= 24 else self.text[:21] + "..."
        return f"<Text {preview!r}>"


class Comment(Node):
    """A comment node (kept so round-tripping is faithful)."""

    __slots__ = ("text",)

    kind = "comment"

    def __init__(self, text: str) -> None:
        super().__init__()
        self.text = text

    def string_value(self) -> str:
        return self.text


class Attribute(Node):
    """An attribute node; ``parent`` is the owning element."""

    __slots__ = ("name", "value")

    kind = "attribute"

    def __init__(self, name: str, value: str) -> None:
        super().__init__()
        self.name = name
        self.value = value

    def string_value(self) -> str:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Attribute {self.name}={self.value!r}>"


class Element(Node):
    """An element node with ordered attributes and children."""

    __slots__ = ("tag", "attributes", "children")

    kind = "element"

    def __init__(self, tag: str, attributes: Optional[dict] = None,
                 children: Optional[Iterable[Node]] = None) -> None:
        super().__init__()
        self.tag = tag
        self.attributes: dict[str, Attribute] = {}
        self.children: list[Node] = []
        if attributes:
            for name, value in attributes.items():
                self.set_attribute(name, value)
        if children:
            for child in children:
                self.append(child)

    # -- mutation --------------------------------------------------------

    def append(self, child: Node) -> Node:
        """Append ``child`` (re-parenting it) and return it."""
        child.parent = self
        self.children.append(child)
        return child

    def append_text(self, text: str) -> Text:
        """Append a text node with ``text`` and return it."""
        node = Text(text)
        return self.append(node)  # type: ignore[return-value]

    def append_element(self, tag: str,
                       attributes: Optional[dict] = None,
                       text: Optional[str] = None) -> "Element":
        """Create, append and return a child element.

        ``text``, if given, becomes the element's single text child.
        """
        child = Element(tag, attributes)
        if text is not None:
            child.append_text(text)
        self.append(child)
        return child

    def set_attribute(self, name: str, value: str) -> Attribute:
        """Set attribute ``name`` to ``value`` and return its node."""
        attr = Attribute(name, str(value))
        attr.parent = self
        self.attributes[name] = attr
        return attr

    def remove(self, child: Node) -> None:
        """Remove a direct child, detaching its parent pointer."""
        self.children.remove(child)
        child.parent = None

    # -- navigation ------------------------------------------------------

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """The value of attribute ``name``, or ``default``."""
        attr = self.attributes.get(name)
        return attr.value if attr is not None else default

    def child_elements(self, tag: Optional[str] = None) -> Iterator["Element"]:
        """Yield child elements, optionally filtered by ``tag``."""
        for child in self.children:
            if isinstance(child, Element) and (tag is None or child.tag == tag):
                yield child

    def first_child(self, tag: str) -> Optional["Element"]:
        """The first child element named ``tag``, or ``None``."""
        return next(self.child_elements(tag), None)

    def find(self, path: str) -> Optional["Element"]:
        """The first element matching a ``/``-separated child path."""
        return next(self.find_all(path), None)

    def find_all(self, path: str) -> Iterator["Element"]:
        """Yield all elements matching a simple ``a/b/c`` child path."""
        steps = [step for step in path.split("/") if step]
        frontier: list[Element] = [self]
        for step in steps:
            frontier = [child
                        for node in frontier
                        for child in node.child_elements(step)]
        yield from frontier

    def descendants(self) -> Iterator[Node]:
        """Yield all descendant nodes (elements, text, comments) in order."""
        for child in self.children:
            yield child
            if isinstance(child, Element):
                yield from child.descendants()

    def descendant_elements(self,
                            tag: Optional[str] = None) -> Iterator["Element"]:
        """Descendant elements in document order, optionally by tag.

        When a ``tag`` is given and the element belongs to a document,
        the answer comes from the document's structural summary
        (O(matches) tag-map lookup); detached trees and tag-less calls
        fall back to a full subtree walk.
        """
        if tag is not None:
            document = self.document
            if document is not None:
                return iter(document.structural_summary()
                            .descendants_with_tag(self, tag))
        return self._walk_descendant_elements(tag)

    def _walk_descendant_elements(
            self, tag: Optional[str]) -> Iterator["Element"]:
        for node in self.descendants():
            if isinstance(node, Element) and (tag is None or node.tag == tag):
                yield node

    def text_content(self) -> str:
        """The string value: the text of every descendant text node,
        concatenated in document order.

        One recursive pass over ``children`` appends to a single list;
        an element whose only child is a text node returns that text
        directly.  Nothing is cached, so edits need no invalidation.
        """
        children = self.children
        if len(children) == 1 and type(children[0]) is Text:
            return children[0].text
        parts: list[str] = []
        _collect_text(children, parts)
        return "".join(parts)

    string_value = text_content

    def has_element_children(self) -> bool:
        """True if any child is an element."""
        return any(isinstance(child, Element) for child in self.children)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Element {self.tag} attrs={len(self.attributes)} kids={len(self.children)}>"


class Document(Node):
    """A document node; ``children`` holds the root element and any
    top-level comments, ``name`` is the document's logical file name inside
    a collection (e.g. ``article042.xml``)."""

    __slots__ = ("children", "name", "serial", "_summary")

    kind = "document"

    _next_serial = 0

    def __init__(self, root: Optional[Element] = None, name: str = "") -> None:
        super().__init__()
        self.children: list[Node] = []
        self.name = name
        self._summary = None
        # Creation serial: gives documents a stable, deterministic
        # inter-document order (XQuery leaves it implementation-defined;
        # we define it as creation/parse order).
        Document._next_serial += 1
        self.serial = Document._next_serial
        if root is not None:
            self.append(root)

    def structural_summary(self):
        """The document's :class:`~repro.xml.summary.StructuralSummary`,
        built lazily on first use and cached until invalidated."""
        summary = self._summary
        if summary is None:
            from .summary import StructuralSummary
            summary = self._summary = StructuralSummary.build(self)
        return summary

    def invalidate_summary(self) -> None:
        """Drop the cached summary.  Must be called after any mutation
        that adds or removes *elements* (text edits don't need it)."""
        self._summary = None

    @property
    def root_element(self) -> Element:
        """The document element (raises if the document is empty)."""
        for child in self.children:
            if isinstance(child, Element):
                return child
        raise ValueError("document has no root element")

    def append(self, child: Node) -> Node:
        """Append a top-level node (root element or comment)."""
        child.parent = self
        self.children.append(child)
        return child

    def string_value(self) -> str:
        parts: list[str] = []
        _collect_text(self.children, parts)
        return "".join(parts)

    def refresh_order(self) -> int:
        """(Re)assign document-order keys to every node in the tree.

        Attributes sort immediately after their owner element, before its
        children, matching the XPath data model.  Returns the number of
        nodes numbered.
        """
        counter = 0

        def visit(node: Node) -> None:
            nonlocal counter
            node.order_key = counter
            counter += 1
            if isinstance(node, Element):
                for attr in node.attributes.values():
                    attr.order_key = counter
                    counter += 1
                for child in node.children:
                    visit(child)
            elif isinstance(node, Document):
                for child in node.children:
                    visit(child)

        visit(self)
        return counter

    def __repr__(self) -> str:  # pragma: no cover
        tag = self.children and getattr(self.children[0], "tag", "?") or "?"
        return f"<Document {self.name or tag!r}>"


def _collect_text(children: list[Node], parts: list[str]) -> None:
    """Append the text of every text node under ``children``, in
    document order, to ``parts``."""
    for child in children:
        kind = type(child)
        if kind is Text:
            parts.append(child.text)
        elif kind is Element:
            _collect_text(child.children, parts)


def document_order(nodes: Iterable[Node]) -> list[Node]:
    """Sort nodes into document order, removing duplicates by identity.

    Nodes from different documents sort by their document's creation
    serial (the XQuery spec leaves inter-document order implementation-
    defined; this implementation defines it as parse/creation order).
    Detached trees (constructed elements) sort after real documents.
    """
    # Nodes hash by identity, so a dict drops repeats and keeps order.
    unique: list[Node] = list(dict.fromkeys(nodes))
    if len(unique) <= 1:
        return unique

    def key(node: Node) -> tuple:
        root = node.root()
        serial = getattr(root, "serial", None)
        if serial is None:
            return (1, id(root), node.order_key)
        return (0, serial, node.order_key)

    unique.sort(key=key)
    return unique
