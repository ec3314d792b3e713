"""Reader for the ontology input format (a functional-style syntax subset).

A document is ``Prefix(...)`` declarations followed by one ``Ontology(<IRI>
...)`` block containing ontology annotations, entity declarations and
axioms, in that order.  Line comments run from ``#`` to end of line outside
strings and IRIs.  Annotation literals are quoted strings with ``\\"`` and
``\\\\`` escapes and are kept verbatim (including inner whitespace) for
error reporting and re-emission.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import ParseError, UnsupportedConstruct
from ..model import (All, And, AtLeast, AtMost, Bottom, ConceptExpr,
                     ConceptName, EntityName, Equiv, Gci, HasSelf, InverseRole,
                     Nominal, Not, Or, PlainAxiom, Ria, RoleExpr, RoleName,
                     Some, Top, UNIVERSAL, concept_name, fold,
                     individual_name, role_name)

_LOCAL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")


@dataclass(frozen=True)
class Annotation:
    """One annotation as written: property name parts plus the raw literal."""
    property_prefix: str
    property_local: str
    literal: str
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class Declaration:
    kind: str  # concept | role | individual
    name: EntityName


@dataclass(frozen=True)
class RawDocument:
    base_iri: str
    prefixes: tuple[tuple[str, str], ...]
    ontology_annotations: tuple[Annotation, ...]
    declarations: tuple[Declaration, ...]
    axioms: tuple[tuple[PlainAxiom, tuple[Annotation, ...]], ...]

    @property
    def default_namespace(self) -> str:
        for pname, iri in self.prefixes:
            if pname == "":
                return iri
        return self.base_iri + "#"


@dataclass(frozen=True)
class _Token:
    kind: str  # ( ) := word pname iri string int eof
    value: str
    line: int
    col: int
    prefix: str = ""


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1

    def advance(k: int):
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
            tokens.append(_Token(ch, ch, tline, tcol))
            advance(1)
            continue
        if ch == "<":
            j = text.find(">", i + 1)
            if j < 0:
                raise ParseError("unterminated IRI", tline, tcol)
            tokens.append(_Token("iri", text[i + 1:j], tline, tcol))
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
            tokens.append(_Token("string", "".join(out), tline, tcol))
            continue
        if ch == ":":
            if i + 1 < len(text) and text[i + 1] == "=":
                tokens.append(_Token(":=", ":=", tline, tcol))
                advance(2)
                continue
            m = _LOCAL_RE.match(text, i + 1)
            if not m:
                raise ParseError("expected local name after ':'", tline, tcol)
            tokens.append(_Token("pname", m.group(), tline, tcol, prefix=""))
            advance(m.end() - i)
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], tline, tcol))
            advance(j - i)
            continue
        m = _WORD_RE.match(text, i)
        if m:
            word = m.group()
            j = m.end()
            if j < len(text) and text[j] == ":" and (j + 1 >= len(text) or text[j + 1] != "="):
                m2 = _LOCAL_RE.match(text, j + 1)
                if not m2:
                    raise ParseError(f"expected local name after '{word}:'", tline, tcol)
                tokens.append(_Token("pname", m2.group(), tline, tcol, prefix=word))
                advance(m2.end() - i)
            else:
                tokens.append(_Token("word", word, tline, tcol))
                advance(j - i)
            continue
        raise ParseError(f"unexpected character {ch!r}", tline, tcol)
    tokens.append(_Token("eof", "", line, col))
    return tokens


_AXIOM_WORDS = {"SubClassOf", "EquivalentClasses", "SubObjectPropertyOf",
                "TransitiveObjectProperty", "ClassAssertion",
                "ObjectPropertyAssertion"}
_CE_WORDS = {"ObjectComplementOf", "ObjectIntersectionOf", "ObjectUnionOf",
             "ObjectAllValuesFrom", "ObjectSomeValuesFrom", "ObjectHasSelf",
             "ObjectMaxCardinality", "ObjectMinCardinality", "ObjectOneOf"}


class _DocParser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.i = 0
        self.prefixes: dict[str, str] = {}
        self.base_iri = ""

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, kind: str, what: str = "") -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"got {tok.value!r}", tok.line, tok.col,
                             expected=what or kind)
        return tok

    def expect_word(self, word: str) -> _Token:
        tok = self.next()
        if tok.kind != "word" or tok.value != word:
            raise ParseError(f"got {tok.value!r}", tok.line, tok.col, expected=word)
        return tok

    # -- entity references ------------------------------------------------

    def _resolve(self, tok: _Token) -> str:
        if tok.prefix not in self.prefixes:
            if tok.prefix == "":
                return self.base_iri + "#"
            raise ParseError(f"undeclared prefix {tok.prefix!r}", tok.line, tok.col)
        return self.prefixes[tok.prefix]

    def _name(self, kind: str, what: str) -> EntityName:
        tok = self.next()
        if tok.kind != "pname":
            raise ParseError(f"got {tok.value!r}", tok.line, tok.col, expected=what)
        if tok.prefix == "owl":
            raise ParseError(f"owl:{tok.value} is not usable here", tok.line, tok.col,
                             expected=what)
        base = self._resolve(tok)
        maker = {"concept": concept_name, "role": role_name,
                 "individual": individual_name}[kind]
        return maker(tok.value, base)

    def _is_owl(self, tok: _Token, local: str) -> bool:
        return tok.kind == "pname" and tok.prefix == "owl" and tok.value == local

    # -- grammar ----------------------------------------------------------

    def document(self) -> RawDocument:
        while self.peek().kind == "word" and self.peek().value == "Prefix":
            self.next()
            self.expect("(")
            tok = self.next()
            if tok.kind == ":=":
                pname = ""
            elif tok.kind == "word":
                pname = tok.value
                self.expect(":=")
            else:
                raise ParseError(f"got {tok.value!r}", tok.line, tok.col,
                                 expected="prefix declaration")
            iri = self.expect("iri", "IRI").value
            self.expect(")")
            self.prefixes[pname] = iri
        self.expect_word("Ontology")
        self.expect("(")
        self.base_iri = self.expect("iri", "ontology IRI").value
        if "" not in self.prefixes:
            self.prefixes[""] = self.base_iri + "#"

        annotations = []
        while self.peek().kind == "word" and self.peek().value == "Annotation":
            annotations.append(self.annotation())
        declarations = []
        while self.peek().kind == "word" and self.peek().value == "Declaration":
            declarations.append(self.declaration())
        axioms = []
        while not (self.peek().kind == ")"):
            if self.peek().kind == "eof":
                raise ParseError("unexpected end of document", self.peek().line,
                                 self.peek().col, expected="axiom or ')'")
            axioms.append(self.axiom())
        self.expect(")")
        self.expect("eof", "end of document")
        return RawDocument(base_iri=self.base_iri,
                           prefixes=tuple(self.prefixes.items()),
                           ontology_annotations=tuple(annotations),
                           declarations=tuple(declarations),
                           axioms=tuple(axioms))

    def annotation(self) -> Annotation:
        self.expect_word("Annotation")
        self.expect("(")
        prop = self.next()
        if prop.kind != "pname":
            raise ParseError(f"got {prop.value!r}", prop.line, prop.col,
                             expected="annotation property")
        lit = self.expect("string", "string literal")
        self.expect(")")
        return Annotation(prop.prefix, prop.value, lit.value, lit.line, lit.col)

    def declaration(self) -> Declaration:
        self.expect_word("Declaration")
        self.expect("(")
        tok = self.next()
        kinds = {"Class": "concept", "ObjectProperty": "role",
                 "NamedIndividual": "individual"}
        if tok.kind != "word" or tok.value not in kinds:
            if tok.kind == "word":
                raise UnsupportedConstruct(tok.value, tok.line, tok.col)
            raise ParseError(f"got {tok.value!r}", tok.line, tok.col,
                             expected="declaration type")
        kind = kinds[tok.value]
        self.expect("(")
        name = self._name(kind, "entity name")
        self.expect(")")
        self.expect(")")
        return Declaration(kind, name)

    def axiom(self) -> tuple[PlainAxiom, tuple[Annotation, ...]]:
        tok = self.next()
        if tok.kind != "word":
            raise ParseError(f"got {tok.value!r}", tok.line, tok.col, expected="axiom")
        if tok.value not in _AXIOM_WORDS:
            raise UnsupportedConstruct(tok.value, tok.line, tok.col)
        self.expect("(")
        annotations = []
        while self.peek().kind == "word" and self.peek().value == "Annotation":
            annotations.append(self.annotation())
        word = tok.value
        if word == "SubClassOf":
            axiom: PlainAxiom = Gci(self.concept(), self.concept())
        elif word == "EquivalentClasses":
            axiom = Equiv(self.concept(), self.concept())
        elif word == "TransitiveObjectProperty":
            role = self._name("role", "role name")
            axiom = Ria((RoleName(role), RoleName(role)), role)
        elif word == "ClassAssertion":
            ce = self.concept()
            ind = self._name("individual", "individual name")
            axiom = Gci(Nominal(ind), ce)
        elif word == "ObjectPropertyAssertion":
            role = self._name("role", "role name")
            a = self._name("individual", "individual name")
            b = self._name("individual", "individual name")
            axiom = Gci(Nominal(a), Some(RoleName(role), Nominal(b)))
        else:  # SubObjectPropertyOf
            nxt = self.peek()
            if nxt.kind == "word" and nxt.value == "ObjectPropertyChain":
                self.next()
                self.expect("(")
                chain = [self.object_property()]
                while self.peek().kind != ")":
                    chain.append(self.object_property())
                self.expect(")")
            else:
                chain = [self.object_property()]
            head = self._name("role", "role name")
            axiom = Ria(tuple(chain), head)
        self.expect(")")
        return (axiom, tuple(annotations))

    def object_property(self) -> RoleExpr:
        tok = self.peek()
        if self._is_owl(tok, "topObjectProperty"):
            self.next()
            return UNIVERSAL
        if tok.kind == "word":
            if tok.value == "ObjectInverseOf":
                self.next()
                self.expect("(")
                name = self._name("role", "role name")
                self.expect(")")
                return InverseRole(name)
            raise UnsupportedConstruct(tok.value, tok.line, tok.col)
        return RoleName(self._name("role", "role name"))

    def concept(self) -> ConceptExpr:
        tok = self.peek()
        if self._is_owl(tok, "Thing"):
            self.next()
            return Top()
        if self._is_owl(tok, "Nothing"):
            self.next()
            return Bottom()
        if tok.kind == "pname":
            return ConceptName(self._name("concept", "class name"))
        if tok.kind != "word":
            raise ParseError(f"got {tok.value!r}", tok.line, tok.col,
                             expected="class expression")
        if tok.value not in _CE_WORDS:
            raise UnsupportedConstruct(tok.value, tok.line, tok.col)
        self.next()
        self.expect("(")
        word = tok.value
        if word == "ObjectComplementOf":
            out: ConceptExpr = Not(self.concept())
        elif word in ("ObjectIntersectionOf", "ObjectUnionOf"):
            parts = [self.concept(), self.concept()]
            while self.peek().kind != ")":
                parts.append(self.concept())
            out = fold(And if word == "ObjectIntersectionOf" else Or, parts)
        elif word == "ObjectAllValuesFrom":
            out = All(self.object_property(), self.concept())
        elif word == "ObjectSomeValuesFrom":
            out = Some(self.object_property(), self.concept())
        elif word == "ObjectHasSelf":
            out = HasSelf(self.object_property())
        elif word in ("ObjectMaxCardinality", "ObjectMinCardinality"):
            n_tok = self.expect("int", "non-negative integer")
            role = self.object_property()
            filler = self.concept()
            ctor2 = AtMost if word == "ObjectMaxCardinality" else AtLeast
            out = ctor2(int(n_tok.value), role, filler)
        else:  # ObjectOneOf
            out = Nominal(self._name("individual", "individual name"))
        self.expect(")")
        return out


def parse_document(text: str) -> RawDocument:
    """Parse a document into its raw structure, keeping annotation literals
    verbatim.  Transitivity and ABox assertions are desugared on the fly:
    TransitiveObjectProperty(r) becomes the chain r∘r ⊑ r, ClassAssertion
    becomes {a} ⊑ C and ObjectPropertyAssertion becomes {a} ⊑ ∃r.{b}."""
    return _DocParser(text).document()
