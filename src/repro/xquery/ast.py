"""AST node classes for the XQuery subset.

Plain dataclasses; the evaluator dispatches on type.  The subset covers the
functionality the XBench workload exercises (FLWOR, quantifiers, paths with
predicates, constructors, comparisons, arithmetic, casts, conditionals and
function calls) — i.e. the XQuery Use Cases surface the paper targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

Expr = Union[
    "Literal", "VarRef", "ContextItem", "Sequence", "RangeExpr",
    "BinaryOp", "UnaryOp", "Comparison", "AndOr", "Quantified", "IfExpr",
    "FLWOR", "PathExpr", "AxisStep", "Filter", "FunctionCall",
    "ElementConstructor", "AttributeConstructor", "CastExpr",
]


@dataclass
class Literal:
    """A string or numeric literal."""

    value: object


@dataclass
class VarRef:
    """``$name``."""

    name: str


@dataclass
class ContextItem:
    """``.``"""


@dataclass
class Sequence:
    """Comma expression / parenthesized sequence: ``(e1, e2, ...)``."""

    items: list


@dataclass
class RangeExpr:
    """``start to end`` integer range."""

    start: object
    end: object


@dataclass
class BinaryOp:
    """Arithmetic or union: op in {+,-,*,div,idiv,mod,union}."""

    op: str
    left: object
    right: object


@dataclass
class UnaryOp:
    """Unary ``+``/``-``."""

    op: str
    operand: object


@dataclass
class Comparison:
    """General (=, !=, <...), value (eq, ne...) or node (is, <<, >>)."""

    op: str
    left: object
    right: object


@dataclass
class AndOr:
    """``and`` / ``or`` with short-circuit semantics."""

    op: str
    left: object
    right: object


@dataclass
class Quantified:
    """``some/every $v in e (, $v2 in e2)* satisfies cond``."""

    quantifier: str                      # "some" | "every"
    bindings: list                       # [(var_name, expr), ...]
    condition: object = None


@dataclass
class IfExpr:
    """``if (cond) then a else b``."""

    condition: object
    then_branch: object
    else_branch: object


@dataclass
class ForClause:
    """One variable binding of a ``for`` clause."""

    var: str
    expr: object
    position_var: Optional[str] = None   # "at $i"


@dataclass
class LetClause:
    """One variable binding of a ``let`` clause."""

    var: str
    expr: object


@dataclass
class WhereClause:
    """An interleaved ``where`` filter inside the clause list."""

    expr: object


@dataclass
class OrderSpec:
    """One key of an ``order by`` clause."""

    expr: object
    descending: bool = False
    empty_least: bool = True


@dataclass
class FLWOR:
    """A FLWOR expression.

    ``clauses`` interleaves For/Let/Where in source order (interleaved
    ``for``-after-``where`` is accepted, as in XQuery 3.0 and the XBench
    query set).  ``where`` holds a trailing where clause, if any.
    """

    clauses: list                        # list[ForClause|LetClause|WhereClause]
    where: Optional[object] = None
    order_by: list = field(default_factory=list)   # list[OrderSpec]
    return_expr: object = None


@dataclass
class AxisStep:
    """One path step: axis + node test + predicates.

    ``axis`` is one of child, descendant, descendant-or-self, attribute,
    self, parent.  ``test`` is an element/attribute name, ``*`` for any, or
    one of the kind tests ``text()``, ``node()``.
    """

    axis: str
    test: str
    predicates: list = field(default_factory=list)


@dataclass
class PathExpr:
    """A path: optional root anchor plus a list of steps.

    ``absolute`` True means the path starts at ``/`` (document root of the
    context node).  Steps are AxisStep or arbitrary expressions (for
    primary-expression steps like ``$doc/a`` — the first step may be any
    expression whose result is then navigated).
    """

    steps: list
    absolute: bool = False
    # The evaluator's ``//``-fused copy of ``steps``, built on first
    # evaluation; ``steps`` itself stays as parsed.
    fused_steps: Optional[list] = field(default=None, compare=False,
                                        repr=False)


@dataclass
class Filter:
    """A primary expression with predicates: ``expr[pred]...``."""

    base: object
    predicates: list


@dataclass
class FunctionCall:
    """``name(args...)`` — built-in function application."""

    name: str
    args: list


@dataclass
class ElementConstructor:
    """Direct element constructor ``<tag attr="...">content</tag>``.

    ``attributes`` maps attribute names to lists of parts; ``content`` is a
    list of parts.  A part is either a ``str`` (fixed text) or an expression
    to evaluate and splice.
    """

    tag: str
    attributes: list                     # [(name, [parts...]), ...]
    content: list                        # [str | Expr, ...]


@dataclass
class AttributeConstructor:
    """Computed attribute constructor (used by transforming queries)."""

    name: str
    parts: list


@dataclass
class ComputedElementConstructor:
    """``element name { content }`` / ``element { name-expr } { content }``."""

    name: object                         # str, or an expression
    content: object                      # expression or None


@dataclass
class ComputedAttributeConstructor:
    """``attribute name { value }`` with a computed value."""

    name: object                         # str, or an expression
    value: object


@dataclass
class TextConstructor:
    """``text { expr }``."""

    value: object


@dataclass
class CastExpr:
    """``expr cast as xs:type`` (also used for ``xs:type(expr)`` calls)."""

    expr: object
    type_name: str
