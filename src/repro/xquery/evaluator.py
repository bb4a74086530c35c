"""The XQuery evaluator: AST + context -> sequence.

Evaluation is a straightforward tree walk.  Sequences are Python lists;
FLWOR expressions are evaluated as tuple streams of immutable child
contexts.

XPath defines every path step's result as a set of nodes in document
order.  Re-sorting after every step would cost a sort per step per
context node, and most of those sorts find the list already in order.
So a path tracks whether its current sequence is *flat*: in document
order, free of duplicates, and holding no ancestor of another member.
These facts hold:

* one node is flat, and so is a run of distinct documents in serial
  order (what ``collection()`` returns);
* a ``child``, ``attribute`` or ``self`` step over a flat input yields
  a flat output, in input order: the inputs' subtrees are disjoint and
  in order, so their children are too, and siblings never nest;
* a ``descendant`` or ``descendant-or-self`` step over a flat input
  yields document order without duplicates (the same disjoint
  subtrees), though the output may nest;
* any axis step from a single context node yields document order
  without duplicates.

A step sorts (``document_order``) only when none of these shows its
output ordered: a multi-node step over a non-flat input, a multi-node
``parent`` step, and a non-axis step whose nodes are not a document
run.  Predicates keep a subsequence, so they preserve all of it.
"""

from __future__ import annotations

import functools
import math

from ..errors import XQueryEvalError, XQueryTypeError
from ..faults.deadline import checkpoint as _deadline_checkpoint
from ..obs.recorder import count as _obs_count
from ..obs.recorder import plan as _obs_plan
from ..xml.nodes import (
    Attribute,
    Comment,
    Document,
    Element,
    Node,
    Text,
    document_order,
)
from ..xml.summary import fast_descendant_elements
from . import ast
from .context import Context
from .functions import lookup
from .items import (
    XSDate,
    atomize,
    atomize_item,
    cast_value,
    compare_values,
    effective_boolean,
    is_numeric,
    string_value,
    to_number,
)


def evaluate(expression: object, context: Context) -> list:
    """Evaluate ``expression`` in ``context``, returning a sequence.

    Under EXPLAIN ANALYZE each AST-node evaluation becomes a merged plan
    node (``xquery.FLWOR``, ``xquery.PathExpr``, …) carrying inclusive
    wall-time, call counts and output cardinality; without a profiler
    the dispatch is untouched.
    """
    _deadline_checkpoint()
    node_type = type(expression)
    handler = _HANDLERS.get(node_type)
    if handler is None:
        raise XQueryEvalError(f"no evaluator for {node_type.__name__}")
    profiler = _obs_plan()
    if profiler is None:
        return handler(expression, context)
    with profiler.node("xquery." + node_type.__name__) as plan_node:
        result = handler(expression, context)
        plan_node.add(rows_out=len(result))
    return result


# -- primaries -------------------------------------------------------------

def _eval_literal(node: ast.Literal, context: Context) -> list:
    return [node.value]


def _eval_varref(node: ast.VarRef, context: Context) -> list:
    return list(context.variable(node.name))


def _eval_context_item(node: ast.ContextItem, context: Context) -> list:
    return [context.require_item()]


def _eval_sequence(node: ast.Sequence, context: Context) -> list:
    out: list = []
    for item in node.items:
        out.extend(evaluate(item, context))
    return out


def _eval_range(node: ast.RangeExpr, context: Context) -> list:
    start = _single_number(evaluate(node.start, context), "range start")
    end = _single_number(evaluate(node.end, context), "range end")
    if start is None or end is None:
        return []
    return list(range(int(start), int(end) + 1))


def _single_number(sequence: list, what: str) -> float | None:
    if not sequence:
        return None
    if len(sequence) > 1:
        raise XQueryTypeError(f"{what}: more than one item")
    return to_number(atomize_item(sequence[0]))


# -- arithmetic / logic ------------------------------------------------------

def _eval_binary(node: ast.BinaryOp, context: Context) -> list:
    if node.op == "union":
        left = evaluate(node.left, context)
        right = evaluate(node.right, context)
        for item in left + right:
            if not isinstance(item, Node):
                raise XQueryTypeError("union operands must be nodes")
        return document_order(left + right)

    if node.op == "||":
        left = evaluate(node.left, context)
        right = evaluate(node.right, context)
        return [_string_of(left) + _string_of(right)]

    left_num = _single_number(evaluate(node.left, context), "arithmetic")
    if left_num is None:
        return []
    right_num = _single_number(evaluate(node.right, context), "arithmetic")
    if right_num is None:
        return []
    if math.isnan(left_num) or math.isnan(right_num):
        return [float("nan")]

    op = node.op
    try:
        if op == "+":
            result = left_num + right_num
        elif op == "-":
            result = left_num - right_num
        elif op == "*":
            result = left_num * right_num
        elif op == "div":
            result = left_num / right_num
        elif op == "idiv":
            result = math.trunc(left_num / right_num)
        elif op == "mod":
            result = math.fmod(left_num, right_num)
        else:
            raise XQueryEvalError(f"unknown operator {op!r}")
    except ZeroDivisionError:
        raise XQueryEvalError("division by zero") from None

    if op in ("+", "-", "*", "mod") and float(result).is_integer() \
            and abs(result) < 1e15:
        return [int(result)]
    if op == "idiv":
        return [int(result)]
    return [result]


def _string_of(sequence: list) -> str:
    if not sequence:
        return ""
    if len(sequence) > 1:
        raise XQueryTypeError("'||' operand has more than one item")
    return string_value(sequence[0])


def _eval_unary(node: ast.UnaryOp, context: Context) -> list:
    value = _single_number(evaluate(node.operand, context), "unary")
    if value is None:
        return []
    result = -value if node.op == "-" else value
    if float(result).is_integer() and abs(result) < 1e15:
        return [int(result)]
    return [result]


def _eval_comparison(node: ast.Comparison, context: Context) -> list:
    left = evaluate(node.left, context)
    right = evaluate(node.right, context)
    op = node.op

    if op in ("is", "<<", ">>"):
        if not left or not right:
            return []
        if len(left) > 1 or len(right) > 1 \
                or not isinstance(left[0], Node) \
                or not isinstance(right[0], Node):
            raise XQueryTypeError("node comparison requires single nodes")
        if op == "is":
            return [left[0] is right[0]]
        if op == "<<":
            return [left[0].order_key < right[0].order_key]
        return [left[0].order_key > right[0].order_key]

    if op in ("=", "!=", "<", "<=", ">", ">="):
        left_atoms = atomize(left)
        right_atoms = atomize(right)
        for left_atom in left_atoms:
            for right_atom in right_atoms:
                if compare_values(op, left_atom, right_atom):
                    return [True]
        return [False]

    # Value comparisons: empty operand -> empty result.
    if not left or not right:
        return []
    if len(left) > 1 or len(right) > 1:
        raise XQueryTypeError(
            f"value comparison {op!r} over multi-item sequence")
    return [compare_values(op, atomize_item(left[0]),
                           atomize_item(right[0]))]


def _eval_andor(node: ast.AndOr, context: Context) -> list:
    left = effective_boolean(evaluate(node.left, context))
    if node.op == "and":
        if not left:
            return [False]
        return [effective_boolean(evaluate(node.right, context))]
    if left:
        return [True]
    return [effective_boolean(evaluate(node.right, context))]


def _eval_quantified(node: ast.Quantified, context: Context) -> list:
    def recurse(bindings: list, ctx: Context) -> bool:
        if not bindings:
            return effective_boolean(evaluate(node.condition, ctx))
        (var, expr), rest = bindings[0], bindings[1:]
        sequence = evaluate(expr, ctx)
        if node.quantifier == "some":
            return any(recurse(rest, ctx.bind(var, [item]))
                       for item in sequence)
        return all(recurse(rest, ctx.bind(var, [item]))
                   for item in sequence)

    return [recurse(node.bindings, context)]


def _eval_if(node: ast.IfExpr, context: Context) -> list:
    if effective_boolean(evaluate(node.condition, context)):
        return evaluate(node.then_branch, context)
    return evaluate(node.else_branch, context)


# -- FLWOR ----------------------------------------------------------------------

def _eval_flwor(node: ast.FLWOR, context: Context) -> list:
    tuples: list[Context] = [context]
    for clause in node.clauses:
        if isinstance(clause, ast.ForClause):
            expanded: list[Context] = []
            for tup in tuples:
                sequence = evaluate(clause.expr, tup)
                for position, item in enumerate(sequence, start=1):
                    bound = tup.bind(clause.var, [item])
                    if clause.position_var:
                        bound = bound.bind(clause.position_var, [position])
                    expanded.append(bound)
            tuples = expanded
        elif isinstance(clause, ast.WhereClause):
            tuples = [tup for tup in tuples
                      if effective_boolean(evaluate(clause.expr, tup))]
        else:
            tuples = [tup.bind(clause.var, evaluate(clause.expr, tup))
                      for tup in tuples]

    if node.where is not None:
        tuples = [tup for tup in tuples
                  if effective_boolean(evaluate(node.where, tup))]

    if node.order_by:
        tuples = _order_tuples(tuples, node.order_by)

    out: list = []
    for tup in tuples:
        out.extend(evaluate(node.return_expr, tup))
    return out


def _order_tuples(tuples: list[Context],
                  specs: list[ast.OrderSpec]) -> list[Context]:
    decorated = []
    for tup in tuples:
        keys = []
        for spec in specs:
            sequence = atomize(evaluate(spec.expr, tup))
            if len(sequence) > 1:
                raise XQueryTypeError("order by key has more than one item")
            keys.append(sequence[0] if sequence else None)
        decorated.append((keys, tup))

    def compare(left: tuple, right: tuple) -> int:
        for spec, left_key, right_key in zip(specs, left[0], right[0]):
            result = _compare_keys(left_key, right_key, spec)
            if result:
                return result
        return 0

    decorated.sort(key=functools.cmp_to_key(compare))
    return [tup for _, tup in decorated]


def _compare_keys(left: object, right: object, spec: ast.OrderSpec) -> int:
    if left is None and right is None:
        return 0
    if left is None:
        result = -1 if spec.empty_least else 1
    elif right is None:
        result = 1 if spec.empty_least else -1
    elif compare_values("=", left, right):
        return 0
    else:
        result = -1 if compare_values("<", left, right) else 1
    # ``descending`` reverses the whole order, empty keys included.
    return -result if spec.descending else result


# -- paths --------------------------------------------------------------------------

def _eval_path(node: ast.PathExpr, context: Context) -> list:
    steps = node.fused_steps
    if steps is None:
        steps = node.fused_steps = _fuse_descendant_steps(node.steps)
    if node.absolute:
        item = context.require_item()
        if not isinstance(item, Node):
            raise XQueryTypeError("'/' requires a node context item")
        current: list = [item.root()]
        flat = True
        first = 0
    else:
        current, flat = _eval_first_step(steps[0], context)
        first = 1

    for index in range(first, len(steps)):
        step = steps[index]
        if type(step) is ast.AxisStep:
            current, flat = _eval_axis_step(step, current, flat, context)
        else:
            current, flat = _eval_expression_step(step, current, context)
    return current


def _fuse_descendant_steps(steps: list) -> list:
    """Fuse ``descendant-or-self::node()/child::T`` pairs (the ``//``
    shorthand) into a single ``descendant::T`` step.

    For any node test T the two are equivalent — every descendant is a
    child of some member of the or-self set — as long as neither step
    carries predicates (a positional predicate on the child step groups
    per parent, which fusion would break).  The fused step avoids
    materializing the entire subtree and, for named tests, is answered
    straight from the document's tag map.

    Runs once per :class:`~repro.xquery.ast.PathExpr`; the result is
    kept in its ``fused_steps`` field, while ``steps`` stays unfused for
    the planner and path compiler, which match the ``//`` pair.
    """
    fused: list = []
    index = 0
    total = len(steps)
    while index < total:
        step = steps[index]
        if (isinstance(step, ast.AxisStep)
                and step.axis == "descendant-or-self"
                and step.test == "node()" and not step.predicates
                and index + 1 < total):
            nxt = steps[index + 1]
            if (isinstance(nxt, ast.AxisStep) and nxt.axis == "child"
                    and not nxt.predicates):
                fused.append(ast.AxisStep("descendant", nxt.test))
                index += 2
                continue
        fused.append(step)
        index += 1
    return fused


# Axes whose output over a flat input is the per-node outputs
# concatenated in input order, and is itself flat.
_FLAT_AXES = frozenset(("child", "attribute", "self"))
# ... and axes whose concatenated output over a flat input is merely in
# document order and duplicate-free: descendant sets of a flat input
# are disjoint subtrees, already in order, but may nest.
_ORDERED_AXES = _FLAT_AXES | {"descendant", "descendant-or-self"}


def _eval_first_step(step: object, context: Context) -> tuple[list, bool]:
    """The first step of a relative path, against the outer focus."""
    if type(step) is ast.AxisStep:
        item = context.require_item()
        if not isinstance(item, Node):
            raise XQueryTypeError("path step requires a node context")
        return _eval_axis_step(step, [item], True, context)
    return _step_result(evaluate(step, context))


def _eval_axis_step(step: ast.AxisStep, input_sequence: list, flat: bool,
                    context: Context) -> tuple[list, bool]:
    """Apply one axis step to every input node; returns the result in
    document order without duplicates, and whether it is flat.

    The result is sorted only when order cannot be shown: ``flat`` says
    the input is in document order, duplicate-free and holds no
    ancestor of another member (see the module docstring).
    """
    filtered = bool(step.predicates) or _obs_plan() is not None
    results: list = []
    visited = 0
    for item in input_sequence:
        if not isinstance(item, Node):
            raise XQueryTypeError("path step applied to an atomic value")
        selected = _axis_nodes(item, step)
        if filtered:
            selected = _apply_step_predicates(selected, step, context)
        else:
            visited += len(selected)
        results.extend(selected)
    if input_sequence and not filtered:
        _obs_count("xquery.nodes_visited", visited)

    single = len(input_sequence) <= 1
    if not single and not (flat and step.axis in _ORDERED_AXES):
        results = document_order(results)
    return results, (len(results) <= 1
                     or ((single or flat) and step.axis in _FLAT_AXES))


def _eval_expression_step(step: object, input_sequence: list,
                          context: Context) -> tuple[list, bool]:
    """A non-axis step (``$d/string()``, ``a/(b|c)``): the expression
    once per input item, with that item as the focus."""
    results: list = []
    size = len(input_sequence)
    for position, item in enumerate(input_sequence, start=1):
        results.extend(evaluate(step, context.focus(item, position, size)))
    return _step_result(results)


def _step_result(results: list) -> tuple[list, bool]:
    """Order an expression step's result: atomic values as they came,
    nodes into document order unless they are a run of distinct
    documents in serial order (as ``collection()`` returns them)."""
    any_node = any_atom = False
    for item in results:
        if isinstance(item, Node):
            any_node = True
        else:
            any_atom = True
    if any_node and any_atom:
        raise XQueryTypeError(
            "path step mixes nodes and atomic values")
    if not any_node:
        return results, False
    if len(results) == 1 or _is_document_run(results):
        return results, True
    results = document_order(results)
    return results, len(results) <= 1


def _is_document_run(nodes: list) -> bool:
    """True for distinct documents in increasing serial order: that is
    their document order, and no document contains another."""
    previous = 0
    for node in nodes:
        if type(node) is not Document or node.serial <= previous:
            return False
        previous = node.serial
    return True


def _apply_step_predicates(nodes: list, step: ast.AxisStep,
                           context: Context) -> list:
    _obs_count("xquery.nodes_visited", len(nodes))
    current = nodes
    for predicate in step.predicates:
        current = _filter_by_predicate(current, predicate, context)
    profiler = _obs_plan()
    if profiler is not None:
        profiler.leaf("xquery.step", rows_in=len(nodes),
                      rows_out=len(current), axis=step.axis,
                      test=step.test)
    return current


def _filter_by_predicate(sequence: list, predicate: object,
                         context: Context) -> list:
    _obs_count("xquery.predicate_evals", len(sequence))
    kept: list = []
    size = len(sequence)
    for position, item in enumerate(sequence, start=1):
        focused = context.focus(item, position, size)
        result = evaluate(predicate, focused)
        if len(result) == 1 and is_numeric(result[0]):
            if float(result[0]) == position:
                kept.append(item)
        elif effective_boolean(result):
            kept.append(item)
    return kept


def _axis_nodes(node: Node, step: ast.AxisStep) -> list:
    axis, test = step.axis, step.test
    if axis == "child":
        if test in _KIND_TESTS:
            return [child for child in _children_of(node)
                    if _matches(child, test)]
        # A name test: children are never attributes, so only elements
        # can match.
        return [child for child in _children_of(node)
                if type(child) is Element and child.tag == test]
    if axis == "descendant":
        fast = _fast_descendants(node, test)
        if fast is not None:
            return fast
        return [desc for desc in _descendants_of(node)
                if _matches(desc, test)]
    if axis == "descendant-or-self":
        fast = _fast_descendants(node, test)
        if fast is not None:
            if _matches(node, test):
                return [node] + fast
            return fast
        out = [node] if _matches(node, test) else []
        out.extend(desc for desc in _descendants_of(node)
                   if _matches(desc, test))
        return out
    if axis == "attribute":
        if not isinstance(node, Element):
            return []
        if test == "*":
            return list(node.attributes.values())
        attr = node.attributes.get(test)
        return [attr] if attr is not None else []
    if axis == "self":
        return [node] if _matches(node, test) else []
    if axis == "parent":
        parent = node.parent
        if parent is None:
            return []
        return [parent] if _matches(parent, test) else []
    raise XQueryEvalError(f"unsupported axis {axis!r}")


def _children_of(node: Node) -> list:
    if isinstance(node, (Element, Document)):
        return node.children
    return []


def _fast_descendants(node: Node, test: str) -> list | None:
    """Tag-map shortcut for named descendant tests; None -> tree walk.

    Only plain element-name tests qualify (kind tests and ``*`` must
    see text/comment nodes the summary doesn't track), and only for
    nodes attached to a document.
    """
    if test == "*" or test.endswith(")"):
        return None
    fast = fast_descendant_elements(node, test)
    if fast is not None:
        _obs_count("xquery.tagmap_hits")
    return fast


def _descendants_of(node: Node) -> list:
    out: list = []

    def visit(parent: Node) -> None:
        for child in _children_of(parent):
            out.append(child)
            visit(child)

    visit(node)
    return out


#: The node tests ``_matches`` handles specially; any other test is a name.
_KIND_TESTS = frozenset(("node()", "text()", "comment()", "element()", "*"))


def _matches(node: Node, test: str) -> bool:
    if test == "node()":
        return True
    if test == "text()":
        return isinstance(node, Text)
    if test == "comment()":
        return isinstance(node, Comment)
    if test == "element()":
        return isinstance(node, Element)
    if test == "*":
        return isinstance(node, (Element, Attribute))
    if isinstance(node, Element):
        return node.tag == test
    if isinstance(node, Attribute):
        return node.name == test
    return False


def _eval_filter(node: ast.Filter, context: Context) -> list:
    sequence = evaluate(node.base, context)
    for predicate in node.predicates:
        sequence = _filter_by_predicate(sequence, predicate, context)
    return sequence


# -- functions -------------------------------------------------------------------------

def _eval_function_call(node: ast.FunctionCall, context: Context) -> list:
    impl, min_args, max_args = lookup(node.name)
    count = len(node.args)
    if count < min_args or (max_args is not None and count > max_args):
        raise XQueryEvalError(
            f"{node.name}() called with {count} arguments "
            f"(expects {min_args}"
            + (f"..{max_args}" if max_args != min_args else "") + ")")
    args = [evaluate(arg, context) for arg in node.args]
    return impl(context, *args)


# -- constructors ------------------------------------------------------------------------

def _eval_element_constructor(node: ast.ElementConstructor,
                              context: Context) -> list:
    element = Element(node.tag)
    for name, parts in node.attributes:
        element.set_attribute(name, _attr_value(parts, context))
    _append_content(element, node.content, context)
    _assign_local_order(element)
    return [element]


def _attr_value(parts: list, context: Context) -> str:
    chunks: list[str] = []
    for part in parts:
        if isinstance(part, str):
            chunks.append(part)
        else:
            sequence = evaluate(part, context)
            chunks.append(" ".join(string_value(item)
                                   for item in atomize(sequence)))
    return "".join(chunks)


def _append_content(element: Element, parts: list,
                    context: Context) -> None:
    for index, part in enumerate(parts):
        if isinstance(part, str):
            # Boundary whitespace (whitespace-only literal text) is
            # stripped, matching XQuery's default declaration.
            if part.strip() or not _is_boundary(parts, index):
                element.append_text(part)
        elif isinstance(part, ast.ElementConstructor):
            child = _eval_element_constructor(part, context)[0]
            element.append(child)
        else:
            sequence = evaluate(part, context)
            pending_atoms: list[str] = []
            for item in sequence:
                if isinstance(item, Node):
                    if pending_atoms:
                        element.append_text(" ".join(pending_atoms))
                        pending_atoms = []
                    _append_copy(element, item)
                else:
                    pending_atoms.append(string_value(item))
            if pending_atoms:
                element.append_text(" ".join(pending_atoms))


def _is_boundary(parts: list, index: int) -> bool:
    """Whitespace text adjacent to non-text parts (or the edges)."""
    previous_is_text = index > 0 and isinstance(parts[index - 1], str)
    next_is_text = (index + 1 < len(parts)
                    and isinstance(parts[index + 1], str))
    return not (previous_is_text and next_is_text)


def _append_copy(element: Element, item: Node) -> None:
    if isinstance(item, Document):
        _append_copy(element, item.root_element)
    elif isinstance(item, Element):
        element.append(copy_element(item))
    elif isinstance(item, Text):
        element.append_text(item.text)
    elif isinstance(item, Attribute):
        element.set_attribute(item.name, item.value)
    elif isinstance(item, Comment):
        element.append(Comment(item.text))


def copy_element(source: Element) -> Element:
    """Deep-copy an element subtree (constructor content copy semantics)."""
    clone = Element(source.tag)
    for name, attr in source.attributes.items():
        clone.set_attribute(name, attr.value)
    for child in source.children:
        if isinstance(child, Element):
            clone.append(copy_element(child))
        elif isinstance(child, Text):
            clone.append_text(child.text)
        elif isinstance(child, Comment):
            clone.append(Comment(child.text))
    return clone


def _assign_local_order(element: Element) -> None:
    """Give a constructed tree usable document-order keys."""
    counter = 0

    def visit(node: Element) -> None:
        nonlocal counter
        node.order_key = counter
        counter += 1
        for attr in node.attributes.values():
            attr.order_key = counter
            counter += 1
        for child in node.children:
            if isinstance(child, Element):
                visit(child)
            else:
                child.order_key = counter
                counter += 1

    visit(element)


def _eval_attribute_constructor(node: ast.AttributeConstructor,
                                context: Context) -> list:
    return [Attribute(node.name, _attr_value(node.parts, context))]


def _computed_name(name: object, context: Context) -> str:
    if isinstance(name, str):
        return name
    sequence = evaluate(name, context)
    if len(sequence) != 1:
        raise XQueryTypeError(
            "computed constructor name must be a single item")
    return string_value(atomize_item(sequence[0]))


def _eval_computed_element(node: ast.ComputedElementConstructor,
                           context: Context) -> list:
    element = Element(_computed_name(node.name, context))
    if node.content is not None:
        _append_content(element, [node.content], context)
    # Attribute nodes produced by the content expression were attached
    # by _append_content; assign order keys for navigability.
    _assign_local_order(element)
    return [element]


def _eval_computed_attribute(node: ast.ComputedAttributeConstructor,
                             context: Context) -> list:
    value = ""
    if node.value is not None:
        sequence = evaluate(node.value, context)
        value = " ".join(string_value(item)
                         for item in atomize(sequence))
    return [Attribute(_computed_name(node.name, context), value)]


def _eval_text_constructor(node: ast.TextConstructor,
                           context: Context) -> list:
    if node.value is None:
        return []
    sequence = evaluate(node.value, context)
    if not sequence:
        return []
    return [Text(" ".join(string_value(item)
                          for item in atomize(sequence)))]


def _eval_cast(node: ast.CastExpr, context: Context) -> list:
    sequence = evaluate(node.expr, context)
    if not sequence:
        return []
    if len(sequence) > 1:
        raise XQueryTypeError("cast over a multi-item sequence")
    return [cast_value(atomize_item(sequence[0]), node.type_name)]


_HANDLERS = {
    ast.Literal: _eval_literal,
    ast.VarRef: _eval_varref,
    ast.ContextItem: _eval_context_item,
    ast.Sequence: _eval_sequence,
    ast.RangeExpr: _eval_range,
    ast.BinaryOp: _eval_binary,
    ast.UnaryOp: _eval_unary,
    ast.Comparison: _eval_comparison,
    ast.AndOr: _eval_andor,
    ast.Quantified: _eval_quantified,
    ast.IfExpr: _eval_if,
    ast.FLWOR: _eval_flwor,
    ast.PathExpr: _eval_path,
    ast.Filter: _eval_filter,
    ast.FunctionCall: _eval_function_call,
    ast.ElementConstructor: _eval_element_constructor,
    ast.AttributeConstructor: _eval_attribute_constructor,
    ast.ComputedElementConstructor: _eval_computed_element,
    ast.ComputedAttributeConstructor: _eval_computed_attribute,
    ast.TextConstructor: _eval_text_constructor,
    ast.CastExpr: _eval_cast,
}
