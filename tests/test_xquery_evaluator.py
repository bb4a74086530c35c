"""Evaluator tests: paths, predicates, FLWOR, quantifiers, constructors."""

from __future__ import annotations

import pytest

from repro.errors import XQueryEvalError, XQueryTypeError
from repro.xml.nodes import Attribute, Element
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize
from repro.xquery import run_query


@pytest.fixture
def doc(catalog_doc):
    return catalog_doc


class TestArithmetic:
    def test_basic(self):
        assert run_query("1 + 2 * 3") == [7]
        assert run_query("(1 + 2) * 3") == [9]

    def test_div_produces_float(self):
        assert run_query("7 div 2") == [3.5]

    def test_idiv_truncates(self):
        assert run_query("7 idiv 2") == [3]
        assert run_query("-7 idiv 2") == [-3]

    def test_mod(self):
        assert run_query("7 mod 3") == [1]

    def test_division_by_zero(self):
        with pytest.raises(XQueryEvalError):
            run_query("1 div 0")

    def test_empty_operand_yields_empty(self):
        assert run_query("() + 1") == []

    def test_unary(self):
        assert run_query("-(2 + 3)") == [-5]
        assert run_query("--5") == [5]

    def test_string_concat_operator(self):
        assert run_query("'a' || 'b'") == ["ab"]

    def test_untyped_node_arithmetic(self):
        doc = parse_document("<a><n>4</n></a>")
        assert run_query("/a/n + 1", [doc]) == [5]


class TestComparisons:
    def test_general_existential(self):
        assert run_query("(1, 2, 3) = 2") == [True]
        assert run_query("(1, 2) = (3, 4)") == [False]

    def test_general_inequality_both_directions(self):
        # (1,5) != 1 is true because 5 != 1.
        assert run_query("(1, 5) != 1") == [True]

    def test_value_comparison_empty_is_empty(self):
        assert run_query("() eq 1") == []

    def test_value_comparison_multi_raises(self):
        with pytest.raises(XQueryTypeError):
            run_query("(1, 2) eq 1")

    def test_node_identity(self):
        doc = parse_document("<a><b/><b/></a>")
        assert run_query("/a/b[1] is /a/b[1]", [doc]) == [True]
        assert run_query("/a/b[1] is /a/b[2]", [doc]) == [False]

    def test_node_order_comparison(self):
        doc = parse_document("<a><b/><c/></a>")
        assert run_query("/a/b << /a/c", [doc]) == [True]
        assert run_query("/a/b >> /a/c", [doc]) == [False]

    def test_range_expression(self):
        assert run_query("1 to 4") == [1, 2, 3, 4]
        assert run_query("3 to 2") == []


class TestLogic:
    def test_short_circuit_and(self):
        # The right side would raise if evaluated.
        assert run_query("false() and no-such-fn()") == [False]

    def test_short_circuit_or(self):
        assert run_query("true() or no-such-fn()") == [True]

    def test_if(self):
        assert run_query("if (()) then 1 else 2") == [2]


class TestPaths:
    def test_child_steps(self, doc):
        titles = run_query("/catalog/item/title", [doc])
        assert [t.text_content() for t in titles] == \
            ["Alpha", "Beta", "Gamma"]

    def test_descendant(self, doc):
        assert len(run_query("//author", [doc])) == 4

    def test_attribute_axis(self, doc):
        ids = run_query("/catalog/item/@id", [doc])
        assert [a.value for a in ids] == ["I1", "I2", "I3"]
        assert all(isinstance(a, Attribute) for a in ids)

    def test_wildcard(self, doc):
        children = run_query("/catalog/item[1]/*", [doc])
        assert [c.tag for c in children] == ["title", "price", "authors"]

    def test_text_node_test(self, doc):
        texts = run_query("/catalog/item[1]/title/text()", [doc])
        assert texts[0].text == "Alpha"

    def test_parent_axis(self, doc):
        result = run_query("//name[. = 'Bob']/../..", [doc])
        assert [e.tag for e in result] == ["authors"]

    def test_self_axis(self, doc):
        result = run_query("//author/self::author", [doc])
        assert len(result) == 4

    def test_positional_predicate(self, doc):
        second = run_query("/catalog/item[2]", [doc])
        assert second[0].get("id") == "I2"

    def test_last_predicate(self, doc):
        result = run_query("/catalog/item[last()]", [doc])
        assert result[0].get("id") == "I3"

    def test_position_function_predicate(self, doc):
        result = run_query("/catalog/item[position() > 1]", [doc])
        assert len(result) == 2

    def test_boolean_predicate(self, doc):
        result = run_query("/catalog/item[price > 10]/@id", [doc])
        assert [a.value for a in result] == ["I1", "I3"]

    def test_predicate_on_attribute_value(self, doc):
        result = run_query("//item[@id = 'I2']/title", [doc])
        assert result[0].text_content() == "Beta"

    def test_path_result_deduplicated_in_doc_order(self, doc):
        # // over nested matches must not duplicate nodes.
        result = run_query("//author/.. | //authors", [doc])
        assert len(result) == 3

    def test_union_in_document_order(self, doc):
        result = run_query("//price | //title", [doc])
        assert [e.tag for e in result][:2] == ["title", "price"]

    def test_union_of_atoms_rejected(self):
        with pytest.raises(XQueryTypeError):
            run_query("1 | 2")

    def test_mixing_nodes_and_atoms_in_step_rejected(self, doc):
        with pytest.raises(XQueryTypeError):
            run_query("/catalog/item/(if (@id='I1') then 1 else title)",
                      [doc])

    def test_double_slash_midpath(self, doc):
        assert len(run_query("/catalog//country", [doc])) == 4

    def test_filter_on_sequence(self, doc):
        result = run_query("(//author)[2]/name", [doc])
        assert result[0].text_content() == "Bob"


class TestFLWOR:
    def test_for_iterates(self):
        assert run_query("for $x in (1,2,3) return $x * 2") == [2, 4, 6]

    def test_let_binds_sequence(self):
        assert run_query("let $s := (1,2,3) return count($s)") == [3]

    def test_where_filters(self):
        assert run_query(
            "for $x in 1 to 10 where $x mod 3 = 0 return $x") == [3, 6, 9]

    def test_at_position(self):
        result = run_query(
            "for $x at $i in ('a','b') return concat($i, $x)")
        assert result == ["1a", "2b"]

    def test_nested_for_cartesian(self):
        result = run_query(
            "for $x in (1,2) for $y in (10,20) return $x + $y")
        assert result == [11, 21, 12, 22]

    def test_order_by_ascending(self):
        result = run_query("for $x in (3,1,2) order by $x return $x")
        assert result == [1, 2, 3]

    def test_order_by_descending(self):
        result = run_query(
            "for $x in (3,1,2) order by $x descending return $x")
        assert result == [3, 2, 1]

    def test_order_by_string_key(self, doc):
        result = run_query(
            "for $i in //item order by $i/title descending "
            "return string($i/@id)", [doc])
        assert result == ["I3", "I2", "I1"]

    def test_order_by_multiple_keys(self):
        result = run_query(
            "for $x in ('bb','a','cc','d') "
            "order by string-length($x), $x return $x")
        assert result == ["a", "d", "bb", "cc"]

    def test_order_by_empty_least(self):
        result = run_query(
            "for $x in (1, 2, 3) "
            "order by (if ($x = 2) then () else $x) return $x")
        assert result == [2, 1, 3]

    def test_order_by_empty_greatest(self):
        result = run_query(
            "for $x in (1, 2, 3) "
            "order by (if ($x = 2) then () else $x) empty greatest "
            "return $x")
        assert result == [1, 3, 2]

    def test_order_by_descending_empty_least(self):
        # ``descending`` reverses the whole order: least goes last.
        result = run_query(
            "for $x in (1, 2, 3) "
            "order by (if ($x = 2) then () else $x) descending "
            "empty least return $x")
        assert result == [3, 1, 2]
        doc = parse_document("<r><a><k>2</k></a><a/><a><k>1</k></a></r>")
        result = run_query(
            "for $a in /r/a order by $a/k descending empty least "
            "return if ($a/k) then number($a/k) else -1", [doc])
        assert result == [2, 1, -1]

    def test_order_by_descending_empty_greatest(self):
        result = run_query(
            "for $x in (1, 2, 3) "
            "order by (if ($x = 2) then () else $x) descending "
            "empty greatest return $x")
        assert result == [2, 3, 1]

    def test_order_by_date_cast(self):
        result = run_query(
            "for $d in ('2003-02-01', '2001-12-31', '2002-06-15') "
            "order by xs:date($d) return $d")
        assert result == ["2001-12-31", "2002-06-15", "2003-02-01"]

    def test_stable_sort_preserves_ties(self):
        result = run_query(
            "for $p at $i in ('b','a','c') order by string-length($p) "
            "return $p")
        assert result == ["b", "a", "c"]


class TestQuantifiers:
    def test_some_true(self):
        assert run_query("some $x in (1,2,3) satisfies $x > 2") == [True]

    def test_some_false_on_empty(self):
        assert run_query("some $x in () satisfies true()") == [False]

    def test_every_true_on_empty(self):
        assert run_query("every $x in () satisfies false()") == [True]

    def test_every(self, doc):
        result = run_query(
            "for $i in //item where every $a in $i/authors/author "
            "satisfies $a/country = 'US' return string($i/@id)", [doc])
        assert result == ["I2"]

    def test_multi_variable_quantifier(self):
        assert run_query(
            "some $x in (1,2), $y in (2,3) satisfies $x = $y") == [True]


class TestConstructors:
    def test_simple_element(self):
        result = run_query("<a x='1'>t</a>")
        assert serialize(result[0]) == '<a x="1">t</a>'

    def test_enclosed_atomics_space_separated(self):
        result = run_query("<a>{ (1, 2, 3) }</a>")
        assert serialize(result[0]) == "<a>1 2 3</a>"

    def test_node_content_copied(self, doc):
        result = run_query("<wrap>{ /catalog/item[1]/title }</wrap>", [doc])
        assert serialize(result[0]) == "<wrap><title>Alpha</title></wrap>"

    def test_copy_is_deep_and_detached(self, doc):
        result = run_query("<w>{ //author[1] }</w>", [doc])
        original = run_query("//author[1]", [doc])[0]
        copied = result[0].children[0]
        assert copied is not original
        assert serialize(copied) == serialize(original)

    def test_attribute_from_expression(self, doc):
        result = run_query('<r id="{ /catalog/item[1]/@id }"/>', [doc])
        assert result[0].get("id") == "I1"

    def test_attribute_node_in_content_becomes_attribute(self, doc):
        result = run_query("<r>{ /catalog/item[1]/@id }</r>", [doc])
        assert result[0].get("id") == "I1"
        assert not result[0].children

    def test_boundary_whitespace_stripped(self):
        result = run_query("<a>  { 1 }  </a>")
        assert serialize(result[0]) == "<a>1</a>"

    def test_constructed_tree_navigable(self):
        result = run_query("<a><b>1</b><b>2</b></a>/b[2]")
        assert result[0].text_content() == "2"

    def test_nested_constructors_with_flwor(self, doc):
        result = run_query(
            "<cheap>{ for $i in //item[price < 10] "
            "return <t>{ string($i/title) }</t> }</cheap>", [doc])
        assert serialize(result[0]) == "<cheap><t>Beta</t></cheap>"


class TestContextItem:
    def test_context_item_path(self, doc):
        item = run_query("/catalog/item[1]", [doc])[0]
        result = run_query("title", context_item=item)
        assert result[0].text_content() == "Alpha"

    def test_dot_reference(self, doc):
        result = run_query("//name[. = 'Ann']", [doc])
        assert len(result) == 1

    def test_missing_context_raises(self):
        with pytest.raises(XQueryEvalError):
            run_query("/a")

    def test_casting_path_result(self, doc):
        result = run_query("xs:decimal(/catalog/item[1]/price)", [doc])
        assert result == [12.5]
