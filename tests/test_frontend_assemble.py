"""Document-to-KB assembly."""

import contextlib

import pytest

from standpoint_owl.errors import (DuplicateAxiomName, GrammarViolation,
                                   ReservedName, SPAxiomOnRIA)
from standpoint_owl.frontend import (Annotation, RawDocument, assemble_kb,
                                     parse_document)
from standpoint_owl.frontend.assemble import STANDPOINT_LABEL
from standpoint_owl.model import (And, Atom, Bottom, Box, Conjunction,
                                  Diamond, Equiv, Gci, SpMinus, Some, Star,
                                  Top, rebase_names)
from standpoint_owl.serializer import (_bool_comb_payload, _sp_axiom_payload,
                                       serialize_document)

from conftest import (C, FOREST_BASE, R, S, assembled_label_by_label,
                      label_literals)
from genkb import random_kb, top_level_kb

NS = "http://ex.org/o#"


def kb_from(body):
    return assemble_kb(parse_document(
        f"Prefix(:=<{NS[:-1]}>)\nOntology(<http://ex.org/o>\n{body}\n)"
        .replace(NS[:-1], NS)))


BOX_S = ('<standpointAxiom><Box><Standpoint name="s"/></Box>'
         "</standpointAxiom>")


def annotated(axiom_text, payload):
    literal = payload.replace("\\", "\\\\").replace('"', '\\"')
    head, rest = axiom_text.split("(", 1)
    return f'{head}(Annotation(:standpointLabel "{literal}") {rest}'


class TestAssembly:
    def test_unannotated_goes_plain(self):
        kb = kb_from("SubClassOf(:A :B)")
        assert kb.plain_axioms == (Gci(C("A", NS), C("B", NS)),)
        assert kb.formulas == ()

    def test_named_axiom_not_in_formulas(self):
        body = annotated("SubClassOf(:A :B)",
                         '<standpointAxiom name="§ax1"><Box>'
                         '<Standpoint name="s"/></Box></standpointAxiom>')
        kb = kb_from(body)
        assert kb.formulas == ()
        assert kb.plain_axioms == ()
        assert kb.named_axioms == {
            "ax1": Box(S("s"), Atom(Gci(C("A", NS), C("B", NS))))}

    def test_unnamed_axiom_becomes_formula(self):
        body = annotated("SubClassOf(:A :B)",
                         '<standpointAxiom><Diamond><Standpoint name="s"/>'
                         "</Diamond></standpointAxiom>")
        kb = kb_from(body)
        assert kb.plain_axioms == ()
        assert kb.formulas == (Diamond(S("s"), Atom(Gci(C("A", NS), C("B", NS)))),)

    def test_duplicate_names_rejected(self):
        payload = ('<standpointAxiom name="§ax1"><Box>'
                   '<Standpoint name="s"/></Box></standpointAxiom>')
        body = "\n".join([annotated("SubClassOf(:A :B)", payload),
                          annotated("SubClassOf(:B :A)", payload)])
        with pytest.raises(DuplicateAxiomName):
            kb_from(body)

    def test_annotation_on_ria_rejected(self):
        body = annotated("SubObjectPropertyOf(ObjectPropertyChain(:r :t) :w)",
                         '<standpointAxiom><Box><Standpoint name="s"/></Box>'
                         "</standpointAxiom>")
        with pytest.raises(SPAxiomOnRIA):
            kb_from(body)

    def test_sharpening_desugars(self):
        body = ('Annotation(:standpointLabel "<Sharpening>'
                '<Standpoint name=\\"a\\"/><Standpoint name=\\"b\\"/>'
                '</Sharpening>")')
        kb = kb_from(body)
        assert kb.formulas == (Box(SpMinus(S("a"), S("b")),
                                   Atom(Gci(Top(), Bottom()))),)

    def test_ontology_level_spaxiom_rejected(self):
        body = ('Annotation(:standpointLabel "<standpointAxiom><Box>'
                '<Standpoint name=\\"s\\"/></Box></standpointAxiom>")')
        with pytest.raises(GrammarViolation):
            kb_from(body)

    def test_axiom_level_boolcomb_rejected(self):
        body = annotated(
            "SubClassOf(:A :B)",
            "<booleanCombination><subClassOf><LHS>A</LHS><RHS>B</RHS>"
            "</subClassOf></booleanCombination>")
        with pytest.raises(GrammarViolation):
            kb_from(body)

    def test_reserved_separator_rejected(self):
        with pytest.raises(ReservedName):
            kb_from("SubClassOf(:A__0 :B)")

    def test_multiple_annotations_processed_independently(self):
        body = ('SubClassOf(Annotation(:standpointLabel "<standpointAxiom>'
                '<Box><Standpoint name=\\"s\\"/></Box></standpointAxiom>") '
                'Annotation(:standpointLabel "<standpointAxiom><Diamond>'
                '<Standpoint name=\\"t\\"/></Diamond></standpointAxiom>") '
                ":A :B)")
        kb = kb_from(body)
        atom = Atom(Gci(C("A", NS), C("B", NS)))
        assert kb.formulas == (Box(S("s"), atom), Diamond(S("t"), atom))
        assert kb.plain_axioms == ()

    def test_signature_includes_declared_names(self):
        kb = kb_from("Declaration(Class(:Unused))\nSubClassOf(:A :B)")
        assert {c.local for c in kb.signature.concepts} == {"Unused", "A", "B"}


class TestForestFixture:
    def test_structure(self, forest_kb):
        assert forest_kb.base_iri == "http://example.org/forestry"
        assert forest_kb.plain_axioms == ()
        assert forest_kb.rias == ()
        assert len(forest_kb.formulas) == 7  # F3 combination + 2 sharpenings + F1, F2, F4, F5
        assert forest_kb.named_axioms == {}

    def test_example_payload_shape(self, forest_kb):
        B = FOREST_BASE
        f3 = forest_kb.formulas[0]
        assert f3 == Conjunction(
            Box(S("LU"), Atom(Equiv(C("Forest", B),
                                    And(C("ForestlandUse", B), C("MCON", B))))),
            Box(Star(), Atom(Gci(C("ForestlandUse", B), C("Land", B)))))

    def test_f1_attached_to_axiom(self, forest_kb):
        B = FOREST_BASE
        f1 = forest_kb.formulas[3]
        assert f1 == Box(S("LC"), Atom(Equiv(
            C("Forest", B),
            And(C("ForestEcosystem", B),
                Some(R("hasLand", B), C("Area05ha", B))))))


def genkb_document(kb):
    """A ``tests/genkb.py`` KB as document text in NS: a top-level box or
    diamond of an atom annotates its axiom, every other formula is an
    ontology-level booleanCombination, and plain axioms stay unannotated.
    A formula the payload grammar cannot write (a box over a Boolean
    combination) is left out."""
    ontology, axioms = [], []
    for f in (rebase_names(f, NS) for f in kb.formulas):
        if type(f) in (Box, Diamond) and type(f.arg) is Atom:
            payload = _sp_axiom_payload(None, type(f).__name__, f.standpoint)
            axioms.append((f.arg.axiom, (Annotation("", STANDPOINT_LABEL, payload),)))
            continue
        with contextlib.suppress(GrammarViolation):
            payload = _bool_comb_payload(f, NS)
            ontology.append(Annotation("", STANDPOINT_LABEL, payload))
    axioms += [(rebase_names(ax, NS), ()) for ax in kb.plain_axioms]
    return serialize_document(RawDocument(NS[:-1], (("", NS),), tuple(ontology),
                                          (), tuple(axioms)))


class TestOneParsePerLiteral:
    """Assembly parses each distinct label literal once, and the KB equals
    the one built by parsing every annotation on its own."""

    def check(self, doc, label_parses):
        literals = label_literals(doc)
        kb = assemble_kb(doc)
        assert sorted(label_parses) == sorted(set(literals))
        assert kb == assembled_label_by_label(doc)
        assert len(label_parses) == len(set(literals)) + len(literals)

    def test_forest(self, forest_doc, label_parses):
        self.check(forest_doc, label_parses)

    def test_generated_documents(self, label_parses):
        repeated = 0
        for seed in range(40):
            for kb in (random_kb(seed, normalized=False), top_level_kb(seed)):
                doc = parse_document(genkb_document(kb))
                label_parses.clear()
                self.check(doc, label_parses)
                literals = label_literals(doc)
                repeated += len(literals) - len(set(literals))
        assert repeated > 0  # some literals are shared, so the sharing is tested

    def test_shared_label_of_duplicate_named_axioms(self, label_parses):
        payload = ('<standpointAxiom name="§ax1"><Box>'
                   '<Standpoint name="s"/></Box></standpointAxiom>')
        body = "\n".join([annotated("SubClassOf(:A :B)", payload),
                          annotated("SubClassOf(:B :A)", payload)])
        with pytest.raises(DuplicateAxiomName):
            kb_from(body)
        assert label_parses == [payload]

    def test_bad_literal_reports_its_first_occurrence(self, label_parses):
        bad = "<standpointAxiom><Box></Box></standpointAxiom>"
        lines = ["SubClassOf(:A :B)"] + [annotated(f"SubClassOf(:A{i} :B)", bad)
                                         for i in range(3)]
        col = lines[1].index('"') + 1
        with pytest.raises(GrammarViolation) as info:
            kb_from("\n".join(lines))
        assert f"(standpointLabel at 4:{col}, " in str(info.value)
        assert label_parses == [bad]  # the later occurrences are not reached


class TestReservedNames:
    """The ``__`` check reads the KB's signature, and walks the document in
    order only when a name there holds the separator."""

    @pytest.mark.parametrize("kind", ["Class", "ObjectProperty", "NamedIndividual"])
    def test_name_in_a_declaration_only(self, kind):
        with pytest.raises(ReservedName, match="'Unused__x'"):
            kb_from(f"Declaration({kind}(:Unused__x))\nSubClassOf(:A :B)")

    @pytest.mark.parametrize("body, first", [
        ("SubClassOf(ObjectSomeValuesFrom(:r__x :B) :Z__z)\nSubClassOf(:A__a :B)",
         "r__x"),
        ("Declaration(NamedIndividual(:b__b))\nSubClassOf(:A__a :B)", "b__b"),
        ("SubClassOf(:Z__z :B)\nSubClassOf(:A__a :B)", "Z__z"),
    ])
    def test_message_names_the_first_in_document_order(self, body, first):
        with pytest.raises(ReservedName) as info:
            kb_from(body)
        assert str(info.value) == f"{first!r} contains the reserved separator '__'"

    @pytest.mark.parametrize("body, error", [
        (annotated("SubClassOf(:A__a :B)", "<standpointAxiom><Box></Box></standpointAxiom>"),
         GrammarViolation),
        ("\n".join([annotated("SubClassOf(:A__a :B)", BOX_S.replace(
            "<standpointAxiom>", '<standpointAxiom name="§n">'))] * 2),
         DuplicateAxiomName),
        (annotated("SubObjectPropertyOf(:r__r :t)", BOX_S), SPAxiomOnRIA),
    ])
    def test_other_assembly_errors_come_first(self, body, error):
        with pytest.raises(error):
            kb_from(body)
