"""Manchester-syntax class expression parsing."""

import pytest
from hypothesis import given, strategies as st

from standpoint_owl.errors import ParseError
from standpoint_owl.frontend import parse_manchester_class
from standpoint_owl.model import (All, And, AtLeast, AtMost, Bottom, HasSelf,
                                  Not, Or, Some, Top)
from standpoint_owl.frontend.manchester import render_manchester

from conftest import C, O, R, Rinv


class TestExamples:
    def test_intersection(self):
        assert parse_manchester_class("ForestlandUse and MCON") == \
            And(C("ForestlandUse"), C("MCON"))

    def test_parenthesised_negation(self):
        assert parse_manchester_class("not (A or B)") == Not(Or(C("A"), C("B")))

    def test_existential(self):
        assert parse_manchester_class("hasLand some Area05ha") == \
            Some(R("hasLand"), C("Area05ha"))


class TestPrecedence:
    def test_and_binds_tighter_than_or(self):
        assert parse_manchester_class("A or B and D") == \
            Or(C("A"), And(C("B"), C("D")))

    def test_not_binds_tighter_than_and(self):
        assert parse_manchester_class("not A and B") == And(Not(C("A")), C("B"))

    def test_restriction_binds_tightest(self):
        assert parse_manchester_class("r some A and B") == \
            And(Some(R("r"), C("A")), C("B"))

    def test_left_fold(self):
        assert parse_manchester_class("A and B and D") == \
            And(And(C("A"), C("B")), C("D"))

    def test_not_applies_to_restriction(self):
        assert parse_manchester_class("not r some A") == Not(Some(R("r"), C("A")))


class TestConstructs:
    def test_universal_restriction(self):
        assert parse_manchester_class("r only (A or B)") == \
            All(R("r"), Or(C("A"), C("B")))

    def test_cardinalities(self):
        assert parse_manchester_class("r min 2 A") == AtLeast(2, R("r"), C("A"))
        assert parse_manchester_class("r max 0 A") == AtMost(0, R("r"), C("A"))

    def test_exactly_desugars(self):
        assert parse_manchester_class("r exactly 1 A") == \
            And(AtLeast(1, R("r"), C("A")), AtMost(1, R("r"), C("A")))

    def test_bare_cardinality_defaults_to_thing(self):
        assert parse_manchester_class("r min 2") == AtLeast(2, R("r"), Top())
        assert parse_manchester_class("r min 2 and A") == \
            And(AtLeast(2, R("r"), Top()), C("A"))

    def test_self(self):
        assert parse_manchester_class("r Self") == HasSelf(R("r"))

    def test_inverse(self):
        assert parse_manchester_class("inverse r some A") == \
            Some(Rinv("r"), C("A"))

    def test_nominal(self):
        assert parse_manchester_class("{bob}") == O("bob")

    def test_builtins(self):
        assert parse_manchester_class("owl:Thing") == Top()
        assert parse_manchester_class("owl:Nothing") == Bottom()

    def test_nested_restriction_filler(self):
        assert parse_manchester_class("r some s only A") == \
            Some(R("r"), All(R("s"), C("A")))

    def test_base_is_applied(self):
        expr = parse_manchester_class("A and r some B", base="urn:x#")
        assert expr == And(C("A", "urn:x#"), Some(R("r", "urn:x#"), C("B", "urn:x#")))


class TestErrors:
    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_manchester_class("A B")

    def test_missing_operand(self):
        with pytest.raises(ParseError):
            parse_manchester_class("A and")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_manchester_class("(A or B")

    def test_reserved_separator(self):
        with pytest.raises(ParseError):
            parse_manchester_class("A__0")

    def test_bad_cardinality(self):
        with pytest.raises(ParseError):
            parse_manchester_class("r min A")


# --- render/parse round-trip property ---------------------------------------

def concepts(depth):
    names = st.sampled_from(["A", "B", "D"]).map(C)
    leaf = st.one_of(names, st.just(Top()), st.just(Bottom()),
                     st.sampled_from(["a", "b"]).map(O))
    if depth == 0:
        return leaf
    sub = concepts(depth - 1)
    roles = st.one_of(st.sampled_from(["r", "s"]).map(R),
                      st.sampled_from(["r", "s"]).map(Rinv))
    return st.one_of(
        leaf,
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Some, roles, sub),
        st.builds(All, roles, sub),
        st.builds(HasSelf, roles),
        st.builds(AtLeast, st.integers(0, 3), roles, sub),
        st.builds(AtMost, st.integers(0, 3), roles, sub),
    )


@given(concepts(3))
def test_render_parse_round_trip(expr):
    assert parse_manchester_class(render_manchester(expr)) == expr
