"""standpointLabel payload parsing (XML annotation grammar)."""

import pytest

from standpoint_owl.errors import BadName, GrammarViolation, XmlSyntaxError
from standpoint_owl.frontend import parse_standpoint_label
from standpoint_owl.frontend.labels import SpAxiomLabel
from standpoint_owl.model import (And, Atom, AxiomRef, Box, Conjunction,
                                  Diamond, Disjunction, Equiv, Gci, Negation,
                                  SpIntersection, SpMinus, SpUnion, Star)
from standpoint_owl.normalizer import desugar_sharpening

from conftest import C, S

EXAMPLE_PAYLOAD = """<booleanCombination> <AND>
    <Box> <Standpoint name="LU"/>
      <equivalentClasses> <LHS>Forest</LHS> <RHS>ForestlandUse and MCON</RHS> </equivalentClasses>
    </Box>
    <Box> <Standpoint name="*"/>
      <subClassOf> <LHS>ForestlandUse</LHS> <RHS>Land</RHS> </subClassOf>
    </Box>
  </AND> </booleanCombination>"""

EXPECTED_EXAMPLE = Conjunction(
    Box(S("LU"), Atom(Equiv(C("Forest"), And(C("ForestlandUse"), C("MCON"))))),
    Box(Star(), Atom(Gci(C("ForestlandUse"), C("Land")))))


class TestBoolComb:
    def test_forestry_example(self):
        construct = parse_standpoint_label(EXAMPLE_PAYLOAD)
        assert construct == EXPECTED_EXAMPLE

    def test_wrapper_element_tolerated(self):
        wrapped = f"<standpointLabel>{EXAMPLE_PAYLOAD}</standpointLabel>"
        assert parse_standpoint_label(wrapped) == EXPECTED_EXAMPLE

    def test_not_or_and_reference(self):
        payload = ("<booleanCombination><OR>"
                   '<NOT><subClassOf><LHS>A</LHS><RHS>B</RHS></subClassOf></NOT>'
                   '<standpointAxiom name="§ax1"/>'
                   "</OR></booleanCombination>")
        construct = parse_standpoint_label(payload)
        assert construct == Disjunction(Negation(Atom(Gci(C("A"), C("B")))),
                                        AxiomRef("ax1"))

    def test_diamond_inside_combination(self):
        payload = ("<booleanCombination><Diamond><Standpoint name=\"s\"/>"
                   "<subClassOf><LHS>A</LHS><RHS>B</RHS></subClassOf>"
                   "</Diamond></booleanCombination>")
        construct = parse_standpoint_label(payload)
        assert construct == Diamond(S("s"), Atom(Gci(C("A"), C("B"))))


class TestSharpening:
    def test_simple(self):
        payload = '<Sharpening><Standpoint name="LC"/><Standpoint name="BFO"/></Sharpening>'
        assert parse_standpoint_label(payload) == desugar_sharpening(S("LC"), S("BFO"))

    def test_with_expressions(self):
        payload = ('<Sharpening><MINUS><Standpoint name="a"/><Standpoint name="b"/>'
                   '</MINUS><Standpoint name="*"/></Sharpening>')
        assert parse_standpoint_label(payload) == desugar_sharpening(
            SpMinus(S("a"), S("b")), Star())

    def test_mixed_letters_digits_accepted(self):
        # the one name rule (model.STANDPOINT_NAME_RE): a letter, then
        # letters and digits in any order
        payload = '<Sharpening><Standpoint name="a1b"/><Standpoint name="c"/></Sharpening>'
        assert parse_standpoint_label(payload) == desugar_sharpening(S("a1b"), S("c"))


class TestSpAxiom:
    def test_named_box(self):
        payload = ('<standpointAxiom name="§ax1"><Box>'
                   '<Standpoint name="s"/></Box></standpointAxiom>')
        assert parse_standpoint_label(payload) == SpAxiomLabel("ax1", Box, S("s"))

    def test_digit_inside_axiom_name(self):
        payload = ('<standpointAxiom name="§a1b"><Box>'
                   '<Standpoint name="s"/></Box></standpointAxiom>')
        assert parse_standpoint_label(payload) == SpAxiomLabel("a1b", Box, S("s"))

    def test_unnamed_diamond(self):
        payload = ('<standpointAxiom><Diamond><Standpoint name="s"/>'
                   "</Diamond></standpointAxiom>")
        assert parse_standpoint_label(payload) == SpAxiomLabel(None, Diamond, S("s"))

    def test_union_intersection_fold(self):
        payload = ('<standpointAxiom><Box><INTERSECTION>'
                   '<Standpoint name="a"/><Standpoint name="b"/><Standpoint name="c"/>'
                   "</INTERSECTION></Box></standpointAxiom>")
        construct = parse_standpoint_label(payload)
        assert construct.expr == SpIntersection(SpIntersection(S("a"), S("b")), S("c"))

    def test_union_binary(self):
        payload = ('<standpointAxiom><Box><UNION>'
                   '<Standpoint name="a"/><Standpoint name="b"/>'
                   "</UNION></Box></standpointAxiom>")
        assert parse_standpoint_label(payload).expr == SpUnion(S("a"), S("b"))


class TestCaseSensitivity:
    def test_element_names_case_insensitive(self):
        lower = parse_standpoint_label(
            '<booleancombination><box><standpoint name="s"/>'
            "<subclassof><lhs>A</lhs><rhs>B</rhs></subclassof>"
            "</box></booleancombination>")
        upper = parse_standpoint_label(
            '<BOOLEANCOMBINATION><BOX><STANDPOINT name="s"/>'
            "<SUBCLASSOF><LHS>A</LHS><RHS>B</RHS></SUBCLASSOF>"
            "</BOX></BOOLEANCOMBINATION>")
        assert lower == upper

    def test_name_attribute_case_sensitive(self):
        one = parse_standpoint_label('<Sharpening><Standpoint name="lc"/>'
                                     '<Standpoint name="LC"/></Sharpening>')
        assert one.standpoint.lhs != one.standpoint.rhs


class TestErrors:
    def test_bad_xml(self):
        with pytest.raises(XmlSyntaxError):
            parse_standpoint_label("<booleanCombination>")

    def test_not_around_and(self):
        payload = ("<booleanCombination><NOT><AND>"
                   "<subClassOf><LHS>A</LHS><RHS>B</RHS></subClassOf>"
                   "<subClassOf><LHS>B</LHS><RHS>A</RHS></subClassOf>"
                   "</AND></NOT></booleanCombination>")
        with pytest.raises(GrammarViolation):
            parse_standpoint_label(payload)

    def test_box_around_box(self):
        payload = ('<booleanCombination><Box><Standpoint name="s"/>'
                   '<Box><Standpoint name="t"/>'
                   "<subClassOf><LHS>A</LHS><RHS>B</RHS></subClassOf></Box>"
                   "</Box></booleanCombination>")
        with pytest.raises(GrammarViolation):
            parse_standpoint_label(payload)

    def test_bad_standpoint_name(self):
        with pytest.raises(BadName):
            parse_standpoint_label('<Sharpening><Standpoint name="2bad"/>'
                                   '<Standpoint name="ok"/></Sharpening>')

    def test_bad_axiom_name(self):
        with pytest.raises(BadName):
            parse_standpoint_label('<standpointAxiom name="ax1"><Box>'
                                   '<Standpoint name="s"/></Box></standpointAxiom>')

    def test_leading_digit_axiom_name(self):
        with pytest.raises(BadName):
            parse_standpoint_label('<standpointAxiom name="§1ax"><Box>'
                                   '<Standpoint name="s"/></Box></standpointAxiom>')

    def test_minus_needs_two(self):
        with pytest.raises(GrammarViolation):
            parse_standpoint_label('<standpointAxiom><Box><MINUS>'
                                   '<Standpoint name="a"/></MINUS></Box>'
                                   "</standpointAxiom>")

    def test_and_needs_exactly_two(self):
        payload = ("<booleanCombination><AND>"
                   "<subClassOf><LHS>A</LHS><RHS>B</RHS></subClassOf>"
                   "</AND></booleanCombination>")
        with pytest.raises(GrammarViolation):
            parse_standpoint_label(payload)
