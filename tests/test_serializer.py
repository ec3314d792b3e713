"""Functional-syntax emission: determinism and round-trips."""

import hashlib
from typing import get_args

import pytest

from standpoint_owl import model
from standpoint_owl.errors import GrammarViolation
from standpoint_owl.frontend import (assemble_kb, functional, labels,
                                     parse_document, parse_manchester_class)
from standpoint_owl.frontend.manchester import render_manchester
from standpoint_owl.model import (All, And, Atom, Bottom, Box, Conjunction,
                                  Diamond, Disjunction, Equiv, Family, Gci,
                                  INDEX_SENTINEL, Negation, Not, Or, PlainKB,
                                  Ria, Signature, Some, Top, UNIVERSAL,
                                  UniversalRole, iter_nodes, make_kb, role_name)
from standpoint_owl.normalizer import count_precisifications, normalize_kb
from standpoint_owl.serializer import (document_pieces, kb_pieces,
                                       serialize_concept, serialize_document,
                                       serialize_kb)
from standpoint_owl.translator import trans, translate_kb

from conftest import FIXTURES, C, O, R, S, writes_back
from genkb import random_kb, top_level_kb, widened

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
        # as many operands as p guarded copies of a diamond
        names = [C(f"A{k}__0", NS) for k in range(3000)]
        kb = plain_kb([Gci(ctor(*names), C("A0__0", NS))])
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

    @pytest.mark.parametrize("word", ["and", "or"])
    def test_wide_manchester_round_trip(self, word):
        # more operands than the recursion limit
        text = f" {word} ".join(f"A{k}" for k in range(3000))
        wide = parse_manchester_class(text, NS)
        assert render_manchester(wide, NS) == text
        # negated, so that the box stays in a booleanCombination payload
        formulas = [Negation(Box(S("s"), Atom(Gci(wide, C("B", NS)))))]
        kb = make_kb(formulas=formulas, base_iri="urn:o")
        kb2 = assemble_kb(parse_document(serialize_kb(kb)))
        assert kb2.formulas == tuple(formulas)


# sha256 of serialize_kb(assemble_kb(parse_document(fixture))).
KB_SHA256 = {
    "constructors.ofn": "6d27cbdd0b41d1ff4d6bd05580c5e70eb12e2eedcb872a5a13d8f9b3159f29e8",
    "forest.ofn": "332f71b8bd500a131df9e9c1d49ea4afa2b922c072064ba64092c2464d2b4a19",
    "mixed.ofn": "cd6544bb4733b2143ea8c5dd6ef1d7b1006764ca79a8dbb8ebc36e55b94c0ca9",
    "nested.ofn": "c952334b2d0d67afa70429f0703b1ff4a6186c45744dd90812f7dcfab9d5632e",
}

BOX_LABEL = ('Annotation(:standpointLabel "<standpointAxiom><Box>'
             '<Standpoint name=\\"s\\"/></Box></standpointAxiom>")')


class TestWriteBack:
    """``serialize_kb`` writes what the readers read: trailing boxes and
    diamonds over one atom ride their carrier axioms, the default namespace
    is the document's, and Manchester text holds only names the Manchester
    reader reads back."""

    @pytest.mark.parametrize("fixture", sorted(KB_SHA256))
    def test_fixture(self, fixture):
        once = writes_back((FIXTURES / fixture).read_text(encoding="utf-8"))
        assert hashlib.sha256(once.encode("utf-8")).hexdigest() == KB_SHA256[fixture]

    @pytest.mark.parametrize("axiom", [
        "SubClassOf(owl:Thing ObjectAllValuesFrom(owl:topObjectProperty :A))",
        "SubClassOf(:only :B)", "SubClassOf(:_x :B)", "SubClassOf(:A1 ns1:B)"])
    def test_box_over_an_axiom_without_manchester_text(self, axiom):
        once = writes_back("Prefix(ns1:=<urn:n#>)\nOntology(<urn:o>\n"
                           f"{axiom[:11]}{BOX_LABEL} {axiom[11:]}\n)\n")
        assert "<LHS>" not in once

    def test_namespace_other_than_the_ontology_iri(self):
        once = writes_back(
            'Prefix(:=<urn:x#>)\nOntology(<urn:o>\nAnnotation(:standpointLabel '
            '"<booleanCombination><OR><subClassOf><LHS>A</LHS><RHS>B</RHS>'
            '</subClassOf><NOT><subClassOf><LHS>B</LHS><RHS>A</RHS></subClassOf>'
            '</NOT></OR></booleanCombination>")\n)\n')
        assert once.startswith("Prefix(:=<urn:x#>)\n")

    def test_names_in_the_empty_namespace(self):
        """A ``make_kb`` KB, as every draw of ``genkb`` is, has the namespace
        "", and its names too: "" is then its default namespace, written
        ``Prefix(:=<>)``.  A draw that the label grammar cannot write has a
        modality over a Boolean combination of atoms."""
        written = 0
        for draw in (random_kb, top_level_kb):
            for seed in range(200):
                kb = draw(seed)
                try:
                    once = serialize_kb(kb)
                except GrammarViolation as exc:
                    assert "modal operators wrap only standard axioms" in str(exc), seed
                    continue
                again = assemble_kb(parse_document(once))
                assert (again.formulas, again.plain_axioms, again.rias) == (
                    kb.formulas, kb.plain_axioms, kb.rias), seed
                assert serialize_kb(again) == once, seed
                written += 1
        assert written > 150

    @pytest.mark.parametrize("local", ["only", "Self", "inverse", "_x", "a__b", "A-b"])
    def test_manchester_names_the_reader_rejects(self, local):
        formula = Disjunction(Atom(Gci(C(local, NS), C("B", NS))),
                              Atom(Gci(C("B", NS), C("A", NS))))
        with pytest.raises(GrammarViolation, match="Manchester name"):
            serialize_kb(make_kb(formulas=[formula], base_iri="urn:o"))


class TestWalkTables:
    """Each writer is one walk over a class table; a constructor added to
    the model needs a functional word and, in standpoint content, an XML
    tag."""

    def test_every_class_has_a_functional_word(self):
        plain = {*get_args(model.ConceptExpr), *get_args(model.RoleExpr),
                 *get_args(model.PlainAxiom), Family}
        compound = {cls for cls in model._CHILDREN if cls in plain}
        assert compound == plain - {Top, Bottom, UniversalRole}
        assert plain <= set(functional.WORDS)

    def test_every_formula_and_standpoint_class_has_a_tag(self):
        tagged = {*get_args(model.StandpointFormula), *get_args(model.StandpointExpr),
                  *get_args(model.TBoxAxiom)} - {Atom}
        assert tagged <= set(labels.TAGS)


def one_axiom_at_a_time(plain):
    """The document of a translated KB with every axiom of ``axioms``
    rendered on its own, each a family of one copy."""
    return serialize_kb(PlainKB(plain.axioms, plain.signature, plain.base_iri))


class TestFamilies:
    """A translated KB renders each family's template once and joins the
    pieces around the index; the bytes must be those of its axioms."""

    def test_generated_kbs_render_as_their_axioms(self):
        ps, copies = set(), set()
        for seed in range(40):
            for kb in (random_kb(seed), random_kb(seed, two_namespaces=True),
                       top_level_kb(seed)):
                for kb in (kb, widened(kb)):
                    for p in (None, 5):
                        plain = translate_kb(kb, p=p)
                        text = serialize_kb(plain)
                        assert text == one_axiom_at_a_time(plain), seed
                        assert INDEX_SENTINEL not in text
                        ps.add(p or count_precisifications(kb))
                        copies.update(f.copies for f in plain.families)
        assert ps == {1, 2, 3, 4, 5}
        assert {1, 5} <= copies

    def test_witness_index_renders_as_itself(self):
        kb = normalize_kb(make_kb(formulas=[Disjunction(
            Atom(Gci(C("A"), C("B"))), Diamond(S("s"), Atom(Gci(C("B"), C("A")))))],
            base_iri="urn:o"))
        plain = translate_kb(kb, p=12)
        u = "ObjectAllValuesFrom(owl:topObjectProperty"
        assert serialize_kb(plain).splitlines()[-13:-1] == [
            f"SubClassOf(owl:Thing ObjectUnionOf({u} ObjectUnionOf("
            f"ObjectComplementOf(:A__{k}) :B__{k})) ObjectIntersectionOf("
            f"{u} :SP__s__0) {u} ObjectUnionOf(ObjectComplementOf(:B__0) :A__0)))))"
            for k in range(12)]
        assert serialize_kb(plain) == one_axiom_at_a_time(plain)

    BOX = Box(S("s"), Atom(Gci(C("A"), C("B"))))

    @pytest.mark.parametrize("p", [1, 2, 11, 101])
    @pytest.mark.parametrize("other", [Atom(Gci(C("B"), C("D"))),
                                       Diamond(S("t"), Atom(Gci(C("D"), C("A"))))],
                             ids=["bare-atom", "modal"])
    @pytest.mark.parametrize("combine", [
        lambda box, x: Conjunction(box, x), lambda box, x: Conjunction(x, box),
        lambda box, x: Disjunction(box, x), lambda box, x: Disjunction(x, box),
        lambda box, x: Conjunction(Conjunction(box, x), box)],
        ids=["and-first", "and-second", "or-first", "or-second", "nested-and-first"])
    def test_box_in_a_combination_renders_as_its_expansion(self, combine, other, p):
        """A box inside a Boolean combination is one template for its p
        copies; rendered, it must read as the concrete p-way conjunction
        that ``axioms`` holds, spliced where an And splices its first part."""
        kb = normalize_kb(make_kb(formulas=[combine(self.BOX, other)],
                                  base_iri="urn:o"))
        plain = translate_kb(kb, p=p)
        assert serialize_kb(plain) == one_axiom_at_a_time(plain)
        expected = trans(0, self.BOX, p, "urn:o/translated#")
        assert (type(expected) is And) == (p > 1)
        formula_axioms = plain.axioms[p:]  # after the universal markers
        assert len(formula_axioms) == (p if type(other) is Atom else 1)
        for axiom in formula_axioms:
            assert any(node == expected or (type(node) is type(expected)
                                            and node.parts[:len(expected.parts)]
                                            == expected.parts)
                       for node in iter_nodes(axiom))


class TestDeclarations:
    """A translated KB declares each copy of each name as a string made from
    the name's template; the block must sort as the names themselves do."""

    def test_two_digit_indices_sort_among_longer_names(self):
        self.check_sorted(12)

    def test_three_digit_indices_sort_among_longer_names(self):
        self.check_sorted(101)  # 10, 100, 11, …

    @staticmethod
    def check_sorted(p):
        other = "urn:other#"
        kb = normalize_kb(make_kb(
            formulas=[Box(S("s"), Atom(Gci(C("A"), C("A1")))),
                      Box(S("S"), Atom(Gci(C("A10"), Some(R("r"), O("a10"))))),
                      Box(S("s1"), Atom(Gci(C("SP"), Some(R("r1"), O("a"))))),
                      Atom(Gci(C("SPx"), Some(R("r10", other), O("a1")))),
                      Atom(Gci(C("B", other), Some(R("r"), O("b", other))))],
            plain_axioms=[Gci(C("A1", other), C("A"))], base_iri="urn:o"))
        plain = translate_kb(kb, p=p)
        text = serialize_kb(plain)
        assert text == one_axiom_at_a_time(plain)
        classes = [line for line in text.splitlines()
                   if line.startswith("Declaration(Class(")]
        indices = sorted(str(k) for k in range(p))  # 0, 1, 10, 11, 2, …
        assert classes[:3 * p] == [f"Declaration(Class(:{name}__{k}))"
                                   for name in ("A10", "A1", "A") for k in indices]
        assert classes[-2 * p:] == [f"Declaration(Class(ns1:{name}__{k}))"
                                    for name in ("A1", "B") for k in indices]
        assert len(classes) == p * (len(kb.signature.concepts)
                                    + len(kb.signature.standpoints))


class TestPieces:
    """A document comes in pieces made one at a time: the header, the
    declarations of each kind and namespace, one piece per family (or per
    axiom of a parsed document), and the closing line.  The whole document
    is their join."""

    def test_translated_kb(self):
        other = "urn:other#"
        kb = normalize_kb(make_kb(
            formulas=[Box(S("s"), Atom(Gci(C("A"), Some(R("r"), O("a"))))),
                      Diamond(S("s"), Atom(Gci(C("B", other), Some(R("r", other),
                                                                   O("b", other)))))],
            plain_axioms=[Gci(C("A1", other), C("A"))], base_iri="urn:o"))
        plain = translate_kb(kb, p=3)
        pieces = list(kb_pieces(plain))
        assert "".join(pieces) == serialize_kb(plain) == one_axiom_at_a_time(plain)
        assert all(piece.endswith("\n") for piece in pieces)
        n = len(plain.families)
        header, declarations, families = pieces[0], pieces[1:-1 - n], pieces[-1 - n:-1]
        assert header.splitlines()[-1] == f"Ontology(<{plain.base_iri}>"
        assert pieces[-1] == ")\n"
        kinds = [{line.split(":")[0] for line in piece.splitlines()}
                 for piece in declarations]
        assert kinds == [{"Declaration(Class("}, {"Declaration(Class(ns1"},
                         {"Declaration(ObjectProperty("},
                         {"Declaration(ObjectProperty(ns1"},
                         {"Declaration(NamedIndividual("},
                         {"Declaration(NamedIndividual(ns1"}]
        assert [piece.count("\n") for piece in families] == [
            f.copies for f in plain.families]

    def test_parsed_document(self):
        doc = parse_document((FIXTURES / "forest.ofn").read_text(encoding="utf-8"))
        pieces = list(document_pieces(doc))
        assert "".join(pieces) == serialize_document(doc)
        assert len(pieces) == len(doc.axioms) + 2 and pieces[-1] == ")\n"
        assert all(piece.count("\n") == 1 for piece in pieces[1:])


def test_the_readme_library_snippet_runs(tmp_path, monkeypatch, capsys):
    """The code block under README's "## Library" runs as written on the
    forest example, and the document it writes a piece at a time is the
    one it prints."""
    readme = (FIXTURES.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.partition("\n## Library\n")[2]
    snippet = section.partition("```python\n")[2].partition("```")[0]
    assert "serialize_kb(plain)" in snippet
    monkeypatch.chdir(tmp_path)
    scope = {"text": (FIXTURES / "forest.ofn").read_text(encoding="utf-8")}
    exec(snippet, scope)
    assert capsys.readouterr().out == serialize_kb(scope["plain"]) + "\n"
    assert (tmp_path / "out.ofn").read_text(encoding="utf-8") == serialize_kb(scope["plain"])
    assert scope["model"] is not None
