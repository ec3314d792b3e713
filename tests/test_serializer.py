"""Functional-syntax emission: determinism and round-trips."""

import pytest

from standpoint_owl.frontend import assemble_kb, parse_document
from standpoint_owl.model import (All, And, Atom, Box, Diamond, Equiv, Gci,
                                  Negation, Not, Or, PlainKB, Ria, Signature,
                                  Some, Top, UNIVERSAL, fold, make_kb,
                                  role_name)
from standpoint_owl.normalizer import normalize_kb
from standpoint_owl.serializer import serialize_concept, serialize_kb
from standpoint_owl.translator import translate_kb

from conftest import C, O, R, S

NS = "urn:o#"


def plain_kb(axioms):
    concepts, roles, individuals = set(), set(), set()
    from standpoint_owl.model import entity_names_in
    for ax in axioms:
        for name in entity_names_in(ax):
            {"concept": concepts, "role": roles,
             "individual": individuals}[name.kind].add(name)
    sig = Signature(frozenset(concepts), frozenset(roles),
                    frozenset(individuals), frozenset())
    return PlainKB(tuple(axioms), sig, "urn:o")


class TestAxiomRendering:
    def test_gci_with_union_complement(self):
        kb = plain_kb([Gci(C("A__0", NS), Or(C("B__0", NS), Not(C("C__0", NS))))])
        assert ("SubClassOf(:A__0 ObjectUnionOf(:B__0 ObjectComplementOf(:C__0)))"
                in serialize_kb(kb).splitlines())

    def test_chain(self):
        kb = plain_kb([Ria((R("r__0", NS), R("t__0", NS)), role_name("w__0", NS))])
        assert ("SubObjectPropertyOf(ObjectPropertyChain(:r__0 :t__0) :w__0)"
                in serialize_kb(kb).splitlines())

    def test_universal_marker(self):
        kb = plain_kb([Gci(Top(), All(UNIVERSAL, C("SP__STAR__0", NS)))])
        assert ("SubClassOf(owl:Thing ObjectAllValuesFrom(owl:topObjectProperty "
                ":SP__STAR__0))" in serialize_kb(kb).splitlines())

    def test_declarations_sorted(self):
        kb = plain_kb([Gci(C("B", NS), C("A", NS)),
                       Gci(Some(R("r", NS), O("bob", NS)), C("A", NS))])
        lines = serialize_kb(kb).splitlines()
        decl = [l for l in lines if l.startswith("Declaration")]
        assert decl == ["Declaration(Class(:A))", "Declaration(Class(:B))",
                        "Declaration(ObjectProperty(:r))",
                        "Declaration(NamedIndividual(:bob))"]

    @pytest.mark.parametrize("ctor,word", [(And, "ObjectIntersectionOf"),
                                           (Or, "ObjectUnionOf")])
    def test_wide_left_fold(self, ctor, word):
        # a left fold as deep as p guarded copies of a diamond
        names = [C(f"A{k}__0", NS) for k in range(3000)]
        kb = plain_kb([Gci(fold(ctor, names), C("A0__0", NS))])
        operands = " ".join(f":A{k}__0" for k in range(3000))
        assert f"SubClassOf({word}({operands}) :A0__0)" in serialize_kb(kb).splitlines()


class TestSerializeConcept:
    def test_top(self):
        assert serialize_concept(Top()) == "owl:Thing"

    def test_min_cardinality(self):
        from standpoint_owl.model import AtLeast
        assert serialize_concept(AtLeast(2, R("r"), C("A"))) == \
            "ObjectMinCardinality(2 :r :A)"

    def test_nominal(self):
        assert serialize_concept(O("a")) == "ObjectOneOf(:a)"


class TestRoundTrips:
    def test_determinism(self, forest_kb):
        assert serialize_kb(forest_kb) == serialize_kb(forest_kb)

    def test_standpoint_round_trip_structural(self, forest_kb):
        text = serialize_kb(forest_kb)
        kb2 = assemble_kb(parse_document(text))
        assert kb2.formulas == forest_kb.formulas
        assert kb2.plain_axioms == forest_kb.plain_axioms
        assert kb2.rias == forest_kb.rias
        assert kb2.named_axioms == forest_kb.named_axioms
        assert kb2.signature == forest_kb.signature

    def test_fixed_point_from_second_application(self, forest_text):
        def F(text):
            return serialize_kb(assemble_kb(parse_document(text)))
        once = F(forest_text)
        assert F(once) == once

    def test_plain_round_trip(self, forest_kb):
        plain = translate_kb(normalize_kb(forest_kb))
        text = serialize_kb(plain)
        doc = parse_document(text)
        assert tuple(ax for ax, _ in doc.axioms) == plain.axioms
        decl_names = {d.name for d in doc.declarations}
        assert decl_names == (set(plain.signature.concepts)
                              | set(plain.signature.roles)
                              | set(plain.signature.individuals))

    def test_translated_output_reparses_and_translates_identically(self, forest_kb):
        plain = translate_kb(normalize_kb(forest_kb))
        assert serialize_kb(plain) == serialize_kb(translate_kb(normalize_kb(forest_kb)))

    def test_named_axiom_round_trip(self):
        named = {"ax1": Box(S("s"), Atom(Gci(C("A", NS), C("B", NS))))}
        kb = make_kb(named_axioms=named, base_iri="urn:o")
        kb2 = assemble_kb(parse_document(serialize_kb(kb)))
        assert kb2.named_axioms == named
        assert kb2.formulas == ()

    def test_formula_annotation_round_trip(self):
        formulas = [Negation(Box(S("s"), Atom(Equiv(C("A", NS), C("B", NS))))),
                    Diamond(S("t"), Atom(Gci(C("A", NS),
                                             Some(R("r", NS), C("B", NS)))))]
        kb = make_kb(formulas=formulas, base_iri="urn:o")
        kb2 = assemble_kb(parse_document(serialize_kb(kb)))
        assert kb2.formulas == tuple(formulas)
