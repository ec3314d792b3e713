"""Simple query and XML query parsing."""

import pytest

from standpoint_owl.errors import BadName, ParseError
from standpoint_owl.frontend import parse_query_document, parse_simple_query
from standpoint_owl.model import (And, Atom, Box, Conjunction, Diamond, Equiv,
                                  Gci, Negation, Star)

from conftest import C, S


class TestSimpleQueries:
    def test_box_sub(self):
        assert parse_simple_query("[LU](Forest sub Land)") == \
            Box(S("LU"), Atom(Gci(C("Forest"), C("Land"))))

    def test_diamond_eq_star(self):
        assert parse_simple_query("<*>(A eq A)") == \
            Diamond(Star(), Atom(Equiv(C("A"), C("A"))))

    def test_missing_parentheses(self):
        with pytest.raises(ParseError):
            parse_simple_query("[s] Forest sub Land")

    def test_complex_classes(self):
        q = parse_simple_query("[s]((A and B) sub (A or B))")
        assert q.arg.axiom.lhs == And(C("A"), C("B"))

    def test_bad_standpoint_name(self):
        with pytest.raises(BadName):
            parse_simple_query("[9s](A sub B)")

    def test_digit_inside_standpoint_name(self):
        assert parse_simple_query("[a1b](A sub B)") == \
            Box(S("a1b"), Atom(Gci(C("A"), C("B"))))

    def test_base_applied(self):
        q = parse_simple_query("[s](A sub B)", base="urn:x#")
        assert q.arg.axiom == Gci(C("A", "urn:x#"), C("B", "urn:x#"))


class TestQueryDocuments:
    def test_formula_root(self):
        text = ('<AND><Box><Standpoint name="s"/>'
                "<subClassOf><LHS>A</LHS><RHS>B</RHS></subClassOf></Box>"
                "<NOT><subClassOf><LHS>B</LHS><RHS>A</RHS></subClassOf></NOT></AND>")
        assert parse_query_document(text) == Conjunction(
            Box(S("s"), Atom(Gci(C("A"), C("B")))),
            Negation(Atom(Gci(C("B"), C("A")))))

    def test_boolean_combination_wrapper(self):
        text = ("<booleanCombination><subClassOf><LHS>A</LHS><RHS>B</RHS>"
                "</subClassOf></booleanCombination>")
        assert parse_query_document(text) == Atom(Gci(C("A"), C("B")))
