"""Functional-style document parsing."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from standpoint_owl.errors import ParseError, UnsupportedConstruct
from standpoint_owl.frontend import parse_document
from standpoint_owl.frontend.functional import _lex, _Lines
from standpoint_owl.model import (All, And, AtLeast, AtMost, Bottom, Equiv,
                                  Gci, HasSelf, Not, Or, Ria, Some, Top,
                                  UNIVERSAL)

from conftest import FIXTURES, C, O, R, Rinv

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
    lines = _Lines(text)
    return [(t.kind, t.value, *lines(t.pos), t.prefix) for t in _lex(text)]


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
