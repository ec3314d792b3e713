"""Functional-style document parsing."""

import hashlib
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from standpoint_owl import cli
from standpoint_owl.errors import (ParseError, StandpointOwlError,
                                   UnsupportedConstruct)
from standpoint_owl.frontend import assemble_kb, parse_document
from standpoint_owl.frontend.functional import _DocParser, _value
from standpoint_owl.model import (All, And, AtLeast, AtMost, Bottom,
                                  ConceptName, Equiv, Gci, HasSelf,
                                  InverseRole, Nominal, Not, Or, Ria, RoleName,
                                  Some, Top, UNIVERSAL, entity_names_in,
                                  iter_nodes, replace)

from conftest import FIXTURES, C, O, R, Rinv

sys.path.insert(0, str(FIXTURES.parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench/gen.py)

NS = "http://ex.org/o#"


def doc(body, prefix="Prefix(:=<http://ex.org/o#>)\n"):
    return f"{prefix}Ontology(<http://ex.org/o>\n{body}\n)"


class TestBasics:
    def test_minimal_document(self):
        parsed = parse_document("Ontology(<http://ex.org/o> SubClassOf(:A :B))")
        assert parsed.base_iri == "http://ex.org/o"
        assert parsed.axioms == ((Gci(C("A", NS), C("B", NS)), ()),)
        assert parsed.ontology_annotations == ()

    def test_default_namespace_from_prefix(self):
        parsed = parse_document(doc("SubClassOf(:A :B)",
                                    prefix="Prefix(:=<urn:other#>)\n"))
        assert parsed.axioms[0][0] == Gci(C("A", "urn:other#"), C("B", "urn:other#"))

    def test_chain_axiom(self):
        parsed = parse_document(doc("SubObjectPropertyOf(ObjectPropertyChain(:r :t) :w)"))
        assert parsed.axioms[0][0] == Ria((R("r", NS), R("t", NS)),
                                          R("w", NS).name)

    def test_plain_subrole(self):
        parsed = parse_document(doc("SubObjectPropertyOf(:r :w)"))
        assert parsed.axioms[0][0] == Ria((R("r", NS),), R("w", NS).name)

    def test_unsupported_construct(self):
        with pytest.raises(UnsupportedConstruct) as err:
            parse_document(doc('DataPropertyAssertion(:d :a "1")'))
        assert err.value.construct == "DataPropertyAssertion"

    def test_unsupported_concept_constructor(self):
        with pytest.raises(UnsupportedConstruct):
            parse_document(doc("SubClassOf(ObjectExactCardinality(2 :r :A) :B)"))

    def test_transitive_desugars_to_chain(self):
        parsed = parse_document(doc("TransitiveObjectProperty(:r)"))
        r = R("r", NS)
        assert parsed.axioms[0][0] == Ria((r, r), r.name)

    def test_class_assertion_sugar(self):
        parsed = parse_document(doc("ClassAssertion(:A :bob)"))
        assert parsed.axioms[0][0] == Gci(O("bob", NS), C("A", NS))

    def test_property_assertion_sugar(self):
        parsed = parse_document(doc("ObjectPropertyAssertion(:r :a :b)"))
        assert parsed.axioms[0][0] == Gci(O("a", NS),
                                          Some(R("r", NS), O("b", NS)))


class TestConceptGrammar:
    def test_nested_expression(self):
        parsed = parse_document(doc(
            "SubClassOf(ObjectUnionOf(:A ObjectComplementOf(:B)) "
            "ObjectAllValuesFrom(:r ObjectIntersectionOf(:A :B)))"))
        assert parsed.axioms[0][0] == Gci(
            Or(C("A", NS), Not(C("B", NS))),
            All(R("r", NS), And(C("A", NS), C("B", NS))))

    def test_nary_left_fold(self):
        parsed = parse_document(doc("SubClassOf(ObjectIntersectionOf(:A :B :D) :E)"))
        assert parsed.axioms[0][0].lhs == And(And(C("A", NS), C("B", NS)), C("D", NS))

    def test_builtins_and_cardinalities(self):
        parsed = parse_document(doc(
            "SubClassOf(ObjectMinCardinality(2 :r owl:Thing) "
            "ObjectMaxCardinality(0 ObjectInverseOf(:r) owl:Nothing))"))
        assert parsed.axioms[0][0] == Gci(
            AtLeast(2, R("r", NS), Top()),
            AtMost(0, Rinv("r", NS), Bottom()))

    def test_self_and_universal_role(self):
        parsed = parse_document(doc(
            "SubClassOf(ObjectHasSelf(:r) "
            "ObjectSomeValuesFrom(owl:topObjectProperty :A))"))
        assert parsed.axioms[0][0] == Gci(HasSelf(R("r", NS)),
                                          Some(UNIVERSAL, C("A", NS)))

    def test_equivalent_classes(self):
        parsed = parse_document(doc("EquivalentClasses(:A :B)"))
        assert parsed.axioms[0][0] == Equiv(C("A", NS), C("B", NS))

    def test_cardinality_in_other_decimal_digits(self):
        # U+0663 ARABIC-INDIC DIGIT THREE is a decimal digit: int() reads 3.
        parsed = parse_document(doc("SubClassOf(ObjectMinCardinality(\u0663 :r :A) :B)"))
        assert parsed.axioms[0][0].lhs == AtLeast(3, R("r", NS), C("A", NS))


class TestLexing:
    def test_comments_stripped_outside_strings(self):
        text = ("# heading comment\n"
                "Ontology(<http://ex.org/o#x> # trailing\n"
                "SubClassOf(:A :B) # another\n)")
        parsed = parse_document(text)
        assert parsed.base_iri == "http://ex.org/o#x"
        assert len(parsed.axioms) == 1

    def test_hash_inside_string_kept(self):
        parsed = parse_document(
            'Ontology(<http://ex.org/o> Annotation(:note "a # not a comment"))')
        assert parsed.ontology_annotations[0].literal == "a # not a comment"

    def test_string_escapes(self):
        parsed = parse_document(
            'Ontology(<http://ex.org/o> Annotation(:standpointLabel '
            '"say \\"hi\\" and \\\\slash"))')
        assert parsed.ontology_annotations[0].literal == 'say "hi" and \\slash'

    def test_unknown_escape_rejected(self):
        with pytest.raises(ParseError):
            parse_document('Ontology(<http://ex.org/o> Annotation(:x "bad \\n"))')

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_document("Ontology(<http://ex.org/o>\nSubClassOf(:A))")
        assert err.value.line == 2

    def test_undeclared_prefix(self):
        with pytest.raises(ParseError):
            parse_document(doc("SubClassOf(foo:A :B)"))

    def test_declarations_recorded(self):
        parsed = parse_document(doc(
            "Declaration(Class(:A))\n"
            "Declaration(ObjectProperty(:r))\n"
            "Declaration(NamedIndividual(:bob))\n"
            "SubClassOf(:A :B)"))
        kinds = [(d.kind, d.name.local) for d in parsed.declarations]
        assert kinds == [("concept", "A"), ("role", "r"), ("individual", "bob")]

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_document("Ontology(<http://ex.org/o>) extra")


class TestNames:
    """The parser hands out one name object per kind, namespace and local
    name."""

    def test_equal_names_are_one_object(self):
        parsed = parse_document(doc("SubClassOf(:A o:A)\nSubClassOf(:B :A)",
                                    prefix=f"Prefix(:=<{NS}>)\nPrefix(o:=<{NS}>)\n"))
        (first, _), (second, _) = parsed.axioms
        assert first.lhs.name is first.rhs.name is second.rhs.name

    def test_kinds_and_namespaces_stay_apart(self):
        parsed = parse_document(doc(
            "SubClassOf(ObjectSomeValuesFrom(:A :A) x:A)\nClassAssertion(:A :A)",
            prefix=f"Prefix(:=<{NS}>)\nPrefix(x:=<urn:x#>)\n"))
        (some, _), (assertion, _) = parsed.axioms
        names = [some.lhs.role.name, some.lhs.filler.name, some.rhs.name,
                 assertion.lhs.individual, assertion.rhs.name]
        assert [(n.kind, n.base) for n in names] == [
            ("role", NS), ("concept", NS), ("concept", "urn:x#"),
            ("individual", NS), ("concept", NS)]
        assert len({id(n) for n in names}) == 4
        assert some.lhs.filler.name is assertion.rhs.name

    def test_owl_prefix_rejected_after_an_alias(self):
        owl = "http://www.w3.org/2002/07/owl#"
        with pytest.raises(ParseError, match="owl:A is not usable here") as err:
            parse_document(doc("SubClassOf(o:A :B)\nSubClassOf(owl:A :B)",
                               prefix=f"Prefix(:=<{NS}>)\nPrefix(o:=<{owl}>)\n"))
        assert (err.value.line, err.value.col) == (5, 12)

    @pytest.mark.parametrize("body, message", [
        ("SubClassOf(<urn:a:b> :B)", "got 'urn:a:b' at 3:12 (expected class expression)"),
        ('SubClassOf(:A "x:y")', "got 'x:y' at 3:15 (expected class expression)"),
        ('Annotation(<urn:p> "v")', "got 'urn:p' at 3:12 (expected annotation property)"),
        ('Annotation("a:b" "v")', "got 'a:b' at 3:12 (expected annotation property)"),
        ("Declaration(Class(<urn:c>))", "got 'urn:c' at 3:19 (expected entity name)"),
        ('SubClassOf(ObjectSomeValuesFrom("r:s" :A) :B)',
         "got 'r:s' at 3:33 (expected role name)"),
    ])
    def test_iris_and_strings_with_a_colon_are_not_names(self, body, message):
        with pytest.raises(ParseError) as err:
            parse_document(f"Prefix(:=<urn:o#>)\nOntology(<urn:o>\n{body}\n)")
        assert str(err.value) == message


class TestDocumentNames:
    """``names`` of a read document are the names the reader built, and
    equal what the walk over its declarations and axioms finds."""

    @staticmethod
    def walked(parsed):
        names = {d.name for d in parsed.declarations}
        for axiom, _ in parsed.axioms:
            names.update(entity_names_in(axiom))
        return names

    def test_fixtures_and_generated_documents(self):
        documents = [path.read_text(encoding="utf-8") for path in FIXTURE_PATHS]
        documents += [text for seed in (0, 1) for _, text in
                      gen.translate_ladder(seed) + gen.ingest_import(seed)]
        for text in documents:
            parsed = parse_document(text)
            assert parsed.names == self.walked(parsed)
            assert replace(parsed).names == parsed.names  # a copy walks

    def test_each_name_is_the_object_in_the_axioms(self):
        parsed = parse_document(doc(
            "Declaration(NamedIndividual(:a))\nSubClassOf(:A o:A)\n"
            "ClassAssertion(:A :a)\nSubObjectPropertyOf(:r :t)",
            prefix=f"Prefix(:=<{NS}>)\nPrefix(o:=<{NS}>)\n"))
        ids = {id(n) for n in parsed.names}
        assert all(id(n) in ids for axiom, _ in parsed.axioms
                   for n in entity_names_in(axiom))
        assert sorted(map(repr, parsed.names)) == ["c:A", "i:a", "r:r", "r:t"]

    def test_a_hand_built_document_walks(self):
        parsed = parse_document(doc("SubClassOf(:A ObjectOneOf(:a))"))
        built = replace(parsed, declarations=())
        assert built.names == {C("A", NS).name, O("a", NS).individual}


class TestNamespace:
    """``parse_document(text, namespace=...)`` reads every entity name into
    the namespace, after checking its prefix."""

    def test_every_name_moves(self):
        text = doc("Declaration(Class(x:A))\nSubClassOf(:A x:A)\n"
                   "SubClassOf(owl:Thing ObjectSomeValuesFrom(x:r :B))",
                   prefix=f"Prefix(:=<{NS}>)\nPrefix(x:=<urn:x#>)\n")
        parsed = parse_document(text, namespace="urn:n#")
        assert {n.base for n in parsed.names} == {"urn:n#"}
        assert sorted(map(repr, parsed.names)) == ["c:A", "c:B", "r:r"]
        (gci, _), _ = parsed.axioms
        assert gci.lhs.name is gci.rhs.name is parsed.declarations[0].name
        assert parsed.prefixes == (("", NS), ("x", "urn:x#"))
        assert parsed.default_namespace == NS

    def test_undeclared_prefix_keeps_its_error(self):
        text = doc("SubClassOf(:A :B)\nSubClassOf(:A zz:B)")
        errors = []
        for namespace in (None, "urn:n#"):
            with pytest.raises(ParseError) as err:
                parse_document(text, namespace=namespace)
            errors.append((str(err.value), err.value.line, err.value.col))
        assert errors[0] == errors[1] == ("undeclared prefix 'zz' at 4:15", 4, 15)


class TestSharedWrappers:
    """The reader builds one ConceptName, RoleName, InverseRole and Nominal
    per token text, the first occurrence included, and hands it out for
    every repeat of the token."""

    TEXT = doc(
        "Declaration(Class(:A))\nDeclaration(NamedIndividual(:a))\n"
        "SubClassOf(:A ObjectSomeValuesFrom(:r ObjectOneOf(:a)))\n"
        "SubClassOf(ObjectAllValuesFrom(ObjectInverseOf(:r) :B) :A)\n"
        "EquivalentClasses(ObjectOneOf(:a) ObjectMinCardinality(1 ObjectInverseOf(:r) :B))\n"
        "TransitiveObjectProperty(:r)\nClassAssertion(:B :b)\n"
        "ObjectPropertyAssertion(:r :a :b)\n"
        "SubObjectPropertyOf(ObjectPropertyChain(:r ObjectInverseOf(:r)) :t)")

    @staticmethod
    def merged_source(text):
        """The source's axioms as ``import`` merges them."""
        merged = cli._merge(parse_document(doc("")), text, "s")
        return merged.axioms

    @pytest.mark.parametrize("read", [
        lambda text: parse_document(text).axioms,
        lambda text: parse_document(text, namespace="urn:n#").axioms,
        merged_source,
    ], ids=["plain", "namespace", "merge"])
    def test_repeated_tokens_share_one_wrapper(self, read):
        kinds = (ConceptName, RoleName, InverseRole, Nominal)
        seen = {kind: {} for kind in kinds}  # wrapper: ids of its occurrences
        for axiom, _ in read(self.TEXT):
            for node in iter_nodes(axiom):
                if type(node) in seen:
                    seen[type(node)].setdefault(node, set()).add(id(node))
        assert {kind: sorted(name.local for n in seen[kind] for name in entity_names_in(n))
                for kind in kinds} == {
            ConceptName: ["A", "B"], RoleName: ["r"], InverseRole: ["r"],
            Nominal: ["a", "b"]}
        assert all(len(ids) == 1 for table in seen.values() for ids in table.values())

    def test_each_wrapper_is_repeated(self):
        axioms = parse_document(self.TEXT).axioms
        occurrences = [type(node) for axiom, _ in axioms for node in iter_nodes(axiom)]
        assert [occurrences.count(kind) for kind in
                (ConceptName, RoleName, InverseRole, Nominal)] == [5, 5, 3, 5]

    def test_top_and_bottom_are_shared(self):
        (gci, _), (equiv, _) = parse_document(doc(
            "SubClassOf(owl:Thing owl:Nothing)\n"
            "EquivalentClasses(owl:Nothing owl:Thing)")).axioms
        assert gci.lhs is equiv.rhs and type(gci.lhs) is Top
        assert gci.rhs is equiv.lhs and type(gci.rhs) is Bottom


class TestAnnotationPrefixes:
    """An annotation property's prefix must be declared, as an entity
    name's must, unless OWL 2 predeclares it."""

    def test_undeclared_prefix_rejected_at_the_property(self):
        with pytest.raises(ParseError) as err:
            parse_document(doc('SubClassOf(:A :B)\n'
                               'SubClassOf(Annotation(zz:standpointLabel "x") :A :B)'))
        assert str(err.value) == "undeclared prefix 'zz' at 4:23"

    def test_ontology_annotation_too(self):
        with pytest.raises(ParseError, match="undeclared prefix 'q' at 3:12"):
            parse_document(doc('Annotation(q:note "x")'))

    @pytest.mark.parametrize("prefix", ["rdf", "rdfs", "xsd", "owl", "", "q"])
    def test_declared_and_predeclared_prefixes_accepted(self, prefix):
        parsed = parse_document(doc(f'Annotation({prefix}:note "x")',
                                    prefix=f"Prefix(q:=<urn:q#>)\nPrefix(:=<{NS}>)\n"))
        assert parsed.ontology_annotations[0].property_prefix == prefix


class TestPositions:
    """Only a newline ends a line; columns count code points, so a carriage
    return is a column of its own."""

    @pytest.mark.parametrize("text, line, col", [
        ("# one\n# two\n#three (\nOntology(<urn:o> # four\n# five\n"
         "  SubClassOf(:A))", 6, 16),
        ('Ontology(<urn:o>\nAnnotation(:a "x\ny\nzz") Annotation(:b "q") '
         "SubClassOf(:A))", 4, 38),
        ("Prefix(p:=<urn:a\nb#>) Ontology(<urn:o>\n  SubClassOf(:A))", 3, 16),
        ('Ontology(<urn:o>\r\nAnnotation(:a "v")\r\n\r SubClassOf(:A))', 3, 16),
    ], ids=["comment-lines", "multi-line-string", "multi-line-iri", "crlf"])
    def test_parse_error_position(self, text, line, col):
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert str(err.value) == f"got ')' at {line}:{col} (expected class expression)"

    def test_annotation_after_multi_line_string(self):
        parsed = parse_document('Ontology(<urn:o>\nAnnotation(:a "x\ny\nzz") '
                                'Annotation(:b "q"))')
        assert [(a.literal, a.line, a.col) for a in parsed.ontology_annotations] == [
            ("x\ny\nzz", 2, 15), ("q", 4, 20)]

    def test_annotation_after_crlf(self):
        parsed = parse_document('Ontology(<urn:o>\r\n\rAnnotation(:a "v"))')
        annotation = parsed.ontology_annotations[0]
        assert (annotation.line, annotation.col) == (2, 16)

    @pytest.mark.parametrize("text, message", [
        ("Ontology(<urn:o", "unterminated IRI at 1:10"),
        ('Ontology(<urn:o>\nAnnotation(:a "x\n\\"', "unterminated string literal at 2:15"),
        ('Ontology(<urn:o>\nAnnotation(:a "x\n\\q"))', "unknown escape in string literal at 3:1"),
        ('Ontology(<urn:o> Annotation(:a "x\\', "unknown escape in string literal at 1:34"),
        ("Ontology(<urn:o>\n SubClassOf(ab: :B))", "expected local name after 'ab:' at 2:13"),
        ("Ontology(<urn:o>\n SubClassOf(: :B))", "expected local name after ':' at 2:13"),
        ("Ontology(<urn:o>\r\n\tSubClassOf(:A \u00b2))", "unexpected character '\u00b2' at 2:16"),
    ])
    def test_lexer_errors(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert str(err.value) == message


# Gaps between tokens: line ends of each kind, and comments that hold quotes,
# parentheses and a backslash.
GAPS = [" ", "\t", "\n", "\r\n", "\r", ' # a "quote" (and parens)\n',
        "\n# ) \\ ( \"\r\n", "#\n"]
# Literal values: quotes and backslashes are escaped when written, and a
# line end makes a multi-line string.
literal_values = st.text(alphabet='ab "\\\n\r()#<>:é', max_size=10)


@st.composite
def annotated_documents(draw):
    """A document with ontology- and axiom-level annotations whose literals
    repeat, and the value of each literal in text order."""
    pool = draw(st.lists(literal_values, min_size=1, max_size=4))
    values = []

    def gap():
        return draw(st.sampled_from(GAPS))

    def annotations():
        out = []
        for _ in range(draw(st.integers(0, 3))):
            value = draw(st.sampled_from(pool))
            values.append(value)
            written = value.replace("\\", "\\\\").replace('"', '\\"')
            out += [gap(), f'Annotation({gap()}:p{gap()}"{written}"{gap()})']
        return out

    parts = [gap(), "Prefix(:=<urn:o#>)", gap(), "Ontology(<urn:o>", *annotations()]
    for _ in range(draw(st.integers(0, 3))):
        parts += [gap(), "SubClassOf(", *annotations(), gap(), ":A", gap(), ":B)"]
    parts += [gap(), ")", gap()]
    return "".join(parts), values


class TestAnnotationCursor:
    """An annotation's line and column, which the reader takes from a cursor
    moving forward through the document, are where its literal token
    stands, as ``where`` computes it for an error; a literal written twice
    keeps the position of each occurrence."""

    @settings(max_examples=300, deadline=None)
    @given(annotated_documents())
    def test_every_annotation_is_at_its_literal(self, drawn):
        text, values = drawn
        parsed = parse_document(text)
        annotations = [*parsed.ontology_annotations,
                       *(a for _, written in parsed.axioms for a in written)]
        assert [a.literal for a in annotations] == values
        parser = _DocParser(text)
        toks = parser.pieces[2::3]
        literals = [i for i in range(3, len(toks)) if toks[i - 3] == "Annotation"]
        assert [(a.line, a.col) for a in annotations] == list(map(parser.where, literals))

    def test_a_repeated_literal(self):
        parsed = parse_document('Ontology(<urn:o>\nAnnotation(:a "x\\"\ny")\r\n'
                                'SubClassOf(Annotation(:a "x\\"\ny") :A :B))')
        (first,), ((_, (second,)),) = parsed.ontology_annotations, parsed.axioms
        assert first.literal == second.literal == 'x"\ny'
        assert (first.line, first.col, second.line, second.col) == (2, 15, 4, 26)


# -- the lexer against the per-character lexer it replaced ------------------

def _reference_lex(text):
    """The per-character lexer the regex lexer replaced, kept as the
    reference: [(kind, value, line, col, prefix)], or ParseError."""
    local_re = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
    word_re = re.compile(r"[A-Za-z][A-Za-z0-9]*")
    tokens = []
    i, line, col = 0, 1, 1

    def advance(k):
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < len(text):
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                advance(1)
            continue
        tline, tcol = line, col
        if ch in "()":
            tokens.append((ch, ch, tline, tcol, ""))
            advance(1)
            continue
        if ch == "<":
            j = text.find(">", i + 1)
            if j < 0:
                raise ParseError("unterminated IRI", tline, tcol)
            tokens.append(("iri", text[i + 1:j], tline, tcol, ""))
            advance(j + 1 - i)
            continue
        if ch == '"':
            advance(1)
            out = []
            while True:
                if i >= len(text):
                    raise ParseError("unterminated string literal", tline, tcol)
                c = text[i]
                if c == "\\":
                    if i + 1 >= len(text) or text[i + 1] not in '"\\':
                        raise ParseError("unknown escape in string literal", line, col)
                    out.append(text[i + 1])
                    advance(2)
                    continue
                if c == '"':
                    advance(1)
                    break
                out.append(c)
                advance(1)
            tokens.append(("string", "".join(out), tline, tcol, ""))
            continue
        if ch == ":":
            if i + 1 < len(text) and text[i + 1] == "=":
                tokens.append((":=", ":=", tline, tcol, ""))
                advance(2)
                continue
            m = local_re.match(text, i + 1)
            if not m:
                raise ParseError("expected local name after ':'", tline, tcol)
            tokens.append(("pname", m.group(), tline, tcol, ""))
            advance(m.end() - i)
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], tline, tcol, ""))
            advance(j - i)
            continue
        m = word_re.match(text, i)
        if m:
            word = m.group()
            j = m.end()
            if j < len(text) and text[j] == ":" and (j + 1 >= len(text) or text[j + 1] != "="):
                m2 = local_re.match(text, j + 1)
                if not m2:
                    raise ParseError(f"expected local name after '{word}:'", tline, tcol)
                tokens.append(("pname", m2.group(), tline, tcol, word))
                advance(m2.end() - i)
            else:
                tokens.append(("word", word, tline, tcol, ""))
                advance(j - i)
            continue
        raise ParseError(f"unexpected character {ch!r}", tline, tcol)
    tokens.append(("eof", "", line, col, ""))
    return tokens


def _regex_lex(text):
    """The reader's tokens up to the end of the text, in the reference's
    terms, or the reader's first lexical error."""
    parser = _DocParser(text)
    error = parser.lex_error()
    if error is not None:
        raise error
    tokens = []
    for i, tok in enumerate(parser.pieces[2::3]):
        kind = _kind(tok)
        prefix = tok.partition(":")[0] if kind == "pname" else ""
        tokens.append((kind, _value(tok), *parser.where(i), prefix))
        if kind == "eof":
            return tokens


def _kind(tok):
    """The reference's kind of a token string that is not bad."""
    if tok in ("(", ")", ":=") or not tok:
        return tok or "eof"
    if tok[0] in '<"':
        return "iri" if tok[0] == "<" else "string"
    return "pname" if ":" in tok else "int" if tok.isdecimal() else "word"


def _outcome(lex, text):
    try:
        return lex(text)
    except ParseError as exc:
        return (type(exc), str(exc), exc.line, exc.col)


FIXTURE_PATHS = sorted(FIXTURES.glob("*.ofn"))
FIXTURE_TEXTS = [path.read_text(encoding="utf-8") for path in FIXTURE_PATHS]
# Characters that start or end tokens, escapes, line ends, and digits that
# str.isdigit() and \d disagree on (superscript two) or agree on (Arabic-
# Indic three).
ALPHABET = '()<>":=#\\_ \t\r\nabzAZ09\u00b2\u0663'
FRAGMENTS = ['"', '\\"', '\\\\', "\\x", "<", ">", "<a\nb>", ":", ":=", "owl:",
             "x:y", ":_a1", "Ab9", "#", "# c (\n", "\n", "\r\n", "\r", " ", "\t",
             "12", "\u00b2", "\u0663", "(", ")", '"s\nt"', "!"]


@st.composite
def mutated_fixtures(draw):
    text = draw(st.sampled_from(FIXTURE_TEXTS))
    at = draw(st.integers(0, len(text)))
    ch = draw(st.sampled_from(ALPHABET))
    edit = draw(st.sampled_from(["insert", "delete", "replace"]))
    if edit == "insert":
        return text[:at] + ch + text[at:]
    if edit == "delete":
        return text[:at] + text[at + 1:]
    return text[:at] + ch + text[at + 1:]


lexer_inputs = st.one_of(
    st.sampled_from(FIXTURE_TEXTS),
    mutated_fixtures(),
    st.text(alphabet=ALPHABET, max_size=40),
    st.lists(st.sampled_from(FRAGMENTS), max_size=16).map("".join))


class TestLexerAgainstReference:
    @pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda path: path.name)
    def test_fixtures_lex_identically(self, path):
        text = path.read_text(encoding="utf-8")
        assert _regex_lex(text) == _reference_lex(text)

    @settings(max_examples=600, deadline=None)
    @given(lexer_inputs)
    def test_same_tokens_or_same_error(self, text):
        got, want = _outcome(_regex_lex, text), _outcome(_reference_lex, text)
        if got == want:
            return
        # The one intended difference: integers are \d+, so a character that
        # only str.isdigit() accepts is an unexpected character.
        odd = {ch for ch in text if ch.isdigit() and not re.fullmatch(r"\d", ch)}
        assert odd, (got, want)
        assert got[0] is ParseError
        assert any(got[1].startswith(f"unexpected character {ch!r} at ") for ch in odd)


# -- parse outcomes pinned across rewrites of the reader ---------------------

def _edit(text, seed):
    """One seeded insertion, deletion or replacement of an ALPHABET
    character."""
    rng = random.Random(seed)
    at = rng.randrange(len(text) + 1)
    ch = rng.choice(ALPHABET)
    kind = rng.choice(["insert", "delete", "replace"])
    if kind == "insert":
        return text[:at] + ch + text[at:]
    if kind == "delete":
        return text[:at] + text[at + 1:]
    return text[:at] + ch + text[at + 1:]


def _parse_digest(text):
    try:
        outcome = repr(parse_document(text))
    except (ParseError, UnsupportedConstruct) as exc:
        outcome = repr((type(exc).__name__, str(exc), exc.line, exc.col))
    return hashlib.sha256(outcome.encode()).hexdigest()[:8]


# The first 8 hex digits of the sha256 of each outcome, recorded before the
# reader parsed from token strings: per fixture, the fixture itself and
# then its edits by seeds 0-49; then the translate-ladder and ingest-import
# documents of benchmark seed 0.
PARSE_DIGESTS = {
    "constructors.ofn": (
        "bc40865a",
        "b213e2a8 aa6d44cd 6863e4c5 af718081 149f7aff 7f412a58 5bf03c9a 75fd199a "
        "c691faa0 9033c601 364b1393 eba93ce3 11a96a7e cd3b557d 5d939c24 e0f95c5d "
        "5fda048e bc40865a 16b1bd7c 5a3ac1a1 b4c828b5 53f23bb2 98db06a6 bce764c8 "
        "fe274fb3 de79203d 2a00faab ea85b282 4681a15b c9a6d5cd 60a376ea b54adb60 "
        "3144ba91 938f72d6 3c45a7f4 0c164990 722df290 a276eb88 9513bf65 86cc1c34 "
        "6416dac6 d099c498 9ec24d20 eb218121 9e361ce0 e9f5a17a f332e210 e1f90ff6 "
        "6863e4c5 b7767315"),
    "forest.ofn": (
        "ccc0abe8",
        "8af15af5 b7ef399c 07ac0610 727ed899 e0cb428c f3482580 efe5ec5c 48a60f12 "
        "8ed14e71 a01eb814 99f54d7c 34505bae 30df2b29 1903b0f3 67672ae2 211e5ab8 "
        "31919609 9cbd5b45 ccc0abe8 671aa00a e9d54825 cd12838d e98c67c3 6c82db30 "
        "5a493481 ef4b5c9f 8d32c787 a382df87 e303219b 1e00500c e1945b09 ccc0abe8 "
        "b5aa869f 18f111b2 dc22e306 ccc0abe8 f99397ef f2891692 3afd05d9 001fe874 "
        "34bfd557 f172f90b 9deea811 ccc0abe8 3bbf3a30 0c0896b7 580029e4 77031568 "
        "ccc0abe8 ccc0abe8"),
    "mixed.ofn": (
        "8647e8c3",
        "e71a7062 41a34bc3 8647e8c3 607d3bac e0cca3a6 b71b467b 4353ab67 556f43c1 "
        "81e6ceec cd11196d bf142bb3 04d72a0c 869d9e05 cb0fea17 b94550d4 42e3805c "
        "4bc4994e 860108d4 bc5e1348 8647e8c3 0c07cdde e2b48e09 2de409ca acbc75ea "
        "642c5d94 34a1a52f 86f2a03a 812143b7 acbc75ea 379a07d5 1e727862 8647e8c3 "
        "2f73a468 6cd38d4f 9cd8853d 8647e8c3 d6f20427 e151d915 67b02460 194178e2 "
        "15e6c603 f3f87ee1 ee68fdaa 8647e8c3 ed22e9e2 59e79f57 3ae9d864 02ebf827 "
        "8647e8c3 8647e8c3"),
    "nested.ofn": (
        "db2dae30",
        "60fa024c d79008b2 24941254 e5ad2e0f 1ca6f431 1c1cca90 93df22aa 8ed7b5c0 "
        "49a77643 97104325 12f244d0 ff2d27d2 08948737 c140990f f4593d01 6a473891 "
        "b15f8041 225f340d c6314eea 49af3664 a59da404 e8246c67 7f3838dc 755454c9 "
        "b6caa6af e17c6498 aa56ccd8 4f67658f 2cfd79d2 a60e339a 4ad9ab9a e1ff9981 "
        "4242bd3d 09306094 64cd6adb d79a0b55 2531a234 74cbd1da 3e3f314a 60557de9 "
        "d904fd44 db2dae30 fa8c14db 3287b992 439e01e2 78bd453d 3b5afe08 261c43de "
        "db2dae30 bfcebd5c"),
}
GENERATED_DIGESTS = "c830f9cb d7d5b142 9fb4c49c 256faaf5 ae47bb13 e62ba177"


class TestRestrictedRoles:
    """The roles the reader hands over as a document's ``restricted_roles``,
    and those ``assemble_kb`` hands over as its KB's, equal what a full
    ``iter_nodes`` walk finds under ``HasSelf``, ``AtMost`` and ``AtLeast``."""

    @staticmethod
    def walked(roots):
        return {node.role for root in roots for node in iter_nodes(root)
                if type(node) in (HasSelf, AtMost, AtLeast)}

    def check(self, doc) -> int:
        """Check ``doc`` and, if it assembles, its KB; the number of roles."""
        assert doc.restricted_roles == self.walked(axiom for axiom, _ in doc.axioms)
        try:
            kb = assemble_kb(doc)
        except StandpointOwlError:
            return len(doc.restricted_roles)
        assert kb.restricted_roles == self.walked(
            (*kb.rias, *kb.plain_axioms, *kb.formulas, *kb.named_axioms.values()))
        assert replace(kb).restricted_roles == kb.restricted_roles  # a copy walks
        return len(kb.restricted_roles)

    def test_fixtures_and_their_edits(self):
        found = edits = 0
        for text in FIXTURE_TEXTS:
            found += self.check(parse_document(text))
            for seed in range(50):
                try:
                    parsed = parse_document(_edit(text, seed))
                except (ParseError, UnsupportedConstruct):
                    continue
                edits += 1
                self.check(parsed)
        assert found and edits > 100

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_documents_and_their_merges(self, seed):
        texts = [text for _, text in gen.translate_ladder(seed) + gen.ingest_import(seed)]
        found = sum(self.check(parse_document(text)) for text in texts)
        for main_text, source_text in zip(texts[::2], texts[1::2]):
            merged = cli._merge(parse_document(main_text), source_text, "s")
            found += self.check(merged)
        assert found

    def test_fixture_merges_the_universal_role_and_a_label(self):
        for main_text in FIXTURE_TEXTS:
            for source_text in FIXTURE_TEXTS:
                self.check(cli._merge(parse_document(main_text), source_text, "s"))
        parsed = parse_document(doc(
            'Annotation(:standpointLabel "<booleanCombination><Box><Standpoint '
            'name=\\"s\\"/><subClassOf><LHS>t min 2 B</LHS><RHS>A</RHS></subClassOf>'
            '</Box></booleanCombination>")\n'
            "SubClassOf(:A ObjectMinCardinality(1 owl:topObjectProperty :B))\n"
            "SubClassOf(:A ObjectHasSelf(ObjectInverseOf(:r)))"))
        assert parsed.restricted_roles == {UNIVERSAL, Rinv("r", NS)}
        assert self.check(parsed) == 3  # t is in the label only


def test_parse_outcomes_are_pinned():
    """Every document parses to the same RawDocument, or fails with the same
    error class, message, line and column, as the reader did when the
    digests were recorded."""
    for path, text in zip(FIXTURE_PATHS, FIXTURE_TEXTS):
        fixture_digest, edit_digests = PARSE_DIGESTS[path.name]
        assert _parse_digest(text) == fixture_digest, path.name
        for seed, want in enumerate(edit_digests.split()):
            assert _parse_digest(_edit(text, seed)) == want, f"{path.name} edit {seed}"
    documents = gen.translate_ladder(0) + gen.ingest_import(0)
    assert [_parse_digest(text) for _, text in documents] == GENERATED_DIGESTS.split()
