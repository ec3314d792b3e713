"""Reader for the ontology input format (a functional-style syntax subset).

A document is ``Prefix(...)`` declarations followed by one ``Ontology(<IRI>
...)`` block containing ontology annotations, entity declarations and
axioms, in that order.  Line comments run from ``#`` to end of line outside
strings and IRIs.  Annotation literals are quoted strings with ``\\"`` and
``\\\\`` escapes and are kept verbatim (including inner whitespace) for
error reporting and re-emission.

One compiled regular expression tokenizes the whole text (`_lex`).  Tokens
keep their offset; the line and column of an error or an annotation are
derived from it where they are read.  Only ``\\n`` ends a line, and columns
count code points, so a ``\\r`` is a column of its own.  Integers are
``\\d+`` (Unicode decimal digits, which ``int`` reads); other characters
that ``str.isdigit`` accepts, such as superscripts, are unexpected
characters.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from operator import itemgetter
from typing import NamedTuple

from ..errors import ParseError, UnsupportedConstruct
from ..model import (All, And, AtLeast, AtMost, Bottom, ConceptExpr,
                     ConceptName, EntityName, Equiv, Gci, HasSelf, InverseRole,
                     Nominal, Not, Or, PlainAxiom, Ria, RoleExpr, RoleName,
                     Some, Top, UNIVERSAL, concept_name,
                     individual_name, record, role_name)

@record
class Annotation:
    """One annotation as written: property name parts plus the raw literal."""
    property_prefix: str
    property_local: str
    literal: str
    line: int = 0
    col: int = 0


@record
class Declaration:
    kind: str  # concept | role | individual
    name: EntityName


@record
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


class _Token(NamedTuple):
    kind: str  # ( ) := word pname iri string int eof
    value: str
    pos: int  # offset in the text; see _Lines for its line and column
    prefix: str


class _Lines:
    """Maps a text offset to its 1-based (line, column).  Only ``\\n`` ends a
    line, and columns count code points, so a ``\\r`` is one column."""

    def __init__(self, text: str):
        self.starts = [m.end() for m in _NEWLINE_RE.finditer(text)]

    def __call__(self, pos: int) -> tuple[int, int]:
        line = bisect_right(self.starts, pos)
        return line + 1, pos + 1 - (self.starts[line - 1] if line else 0)


_NEWLINE_RE = re.compile("\n")
# A string literal up to its closing quote; escapes are \" and \\ only.
_STRING = r'"[^"\\]*(?:\\["\\][^"\\]*)*'
# Every match is the whitespace and comments before one token plus the
# token; the number of the group that matched gives the token's kind.  The
# last two alternatives match at any position, so the scan never skips
# text: the token after a gap is a bad character or the end of the text.
_TOKEN_RE = re.compile(rf"""
    [ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
    (?:
        ([()])                                             # 1 ( or )
      | (<[^>]*>)                                          # 2 IRI
      | ({_STRING}")                                       # 3 string
      | (:=)                                               # 4
      | ((?:[A-Za-z][A-Za-z0-9]*)?:[A-Za-z_][A-Za-z0-9_]*)  # 5 prefixed name
      | ((?:[A-Za-z][A-Za-z0-9]*)?:(?!=))                  # 6 no local name
      | (\d+)                                              # 7 integer
      | ([A-Za-z][A-Za-z0-9]*)                             # 8 word
      | ()\Z                                               # 9 end of text
      | (.)                                                # 10 anything else
    )""", re.VERBOSE | re.DOTALL)
_STRING_PREFIX_RE = re.compile(_STRING)
_ESCAPE_RE = re.compile(r'\\(["\\])')
_unescape = itemgetter(1)  # the escaped character, without a Python-level call
_new = tuple.__new__


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    add = tokens.append
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        value = m.group(group)
        pos = m.start(group)
        # _new(_Token, ...) skips the namedtuple's Python-level __new__.
        if group == 1:
            add(_new(_Token, (value, value, pos, "")))
        elif group == 5:
            prefix, _, local = value.partition(":")
            add(_new(_Token, ("pname", local, pos, prefix)))
        elif group == 8:
            add(_new(_Token, ("word", value, pos, "")))
        elif group == 3:
            value = value[1:-1]
            if "\\" in value:
                value = _ESCAPE_RE.sub(_unescape, value)
            add(_new(_Token, ("string", value, pos, "")))
        elif group == 2:
            add(_new(_Token, ("iri", value[1:-1], pos, "")))
        elif group == 7:
            add(_new(_Token, ("int", value, pos, "")))
        elif group == 4:
            add(_new(_Token, (":=", value, pos, "")))
        elif group == 9:
            add(_new(_Token, ("eof", "", pos, "")))
            break  # finditer would also match the empty end after trailing space
        else:
            raise _lex_error(text, group, value, pos)
    return tokens


def _lex_error(text: str, group: int, value: str, pos: int) -> ParseError:
    where = _Lines(text)
    if group == 6:
        return ParseError(f"expected local name after '{value}'", *where(pos))
    if value == "<":
        return ParseError("unterminated IRI", *where(pos))
    if value == '"':
        end = _STRING_PREFIX_RE.match(text, pos).end()
        if end == len(text):
            return ParseError("unterminated string literal", *where(pos))
        return ParseError("unknown escape in string literal", *where(end))
    return ParseError(f"unexpected character {value!r}", *where(pos))


_AXIOM_WORDS = {"SubClassOf", "EquivalentClasses", "SubObjectPropertyOf",
                "TransitiveObjectProperty", "ClassAssertion",
                "ObjectPropertyAssertion"}
_CE_WORDS = {"ObjectComplementOf", "ObjectIntersectionOf", "ObjectUnionOf",
             "ObjectAllValuesFrom", "ObjectSomeValuesFrom", "ObjectHasSelf",
             "ObjectMaxCardinality", "ObjectMinCardinality", "ObjectOneOf"}
_OWL_CLASSES = {"Thing": Top, "Nothing": Bottom}
# The declaration word of each entity kind, with the kind and its name
# maker, in the order the serializer writes declarations.
DECLARATION_KINDS = {"Class": ("concept", concept_name),
                     "ObjectProperty": ("role", role_name),
                     "NamedIndividual": ("individual", individual_name)}


class _DocParser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.lines = _Lines(text)
        self.i = 0
        self.prefixes: dict[str, str] = {}
        self.base_iri = ""
        # One EntityName per (maker, namespace, local) of the document; the
        # prefixes are fixed before the first name is read.
        self.names: dict[tuple, EntityName] = {}

    def at(self, tok: _Token) -> tuple[int, int]:
        return self.lines(tok.pos)

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
            raise ParseError(f"got {tok.value!r}", *self.at(tok),
                             expected=what or kind)
        return tok

    def expect_word(self, word: str) -> _Token:
        tok = self.next()
        if tok.kind != "word" or tok.value != word:
            raise ParseError(f"got {tok.value!r}", *self.at(tok), expected=word)
        return tok

    # -- entity references ------------------------------------------------

    def _resolve(self, tok: _Token) -> str:
        if tok.prefix not in self.prefixes:
            if tok.prefix == "":
                return self.base_iri + "#"
            raise ParseError(f"undeclared prefix {tok.prefix!r}", *self.at(tok))
        return self.prefixes[tok.prefix]

    def _name(self, maker, what: str) -> EntityName:
        tok = self.next()
        if tok.kind != "pname":
            raise ParseError(f"got {tok.value!r}", *self.at(tok), expected=what)
        if tok.prefix == "owl":
            raise ParseError(f"owl:{tok.value} is not usable here", *self.at(tok),
                             expected=what)
        key = (maker, self.prefixes.get(tok.prefix), tok.value)
        name = self.names.get(key)
        if name is None:
            name = self.names[key] = maker(tok.value, self._resolve(tok))
        return name

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
                raise ParseError(f"got {tok.value!r}", *self.at(tok),
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
                raise ParseError("unexpected end of document", *self.at(self.peek()),
                                 expected="axiom or ')'")
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
            raise ParseError(f"got {prop.value!r}", *self.at(prop),
                             expected="annotation property")
        lit = self.expect("string", "string literal")
        self.expect(")")
        return Annotation(prop.prefix, prop.value, lit.value, *self.at(lit))

    def declaration(self) -> Declaration:
        self.expect_word("Declaration")
        self.expect("(")
        tok = self.next()
        if tok.kind != "word" or tok.value not in DECLARATION_KINDS:
            if tok.kind == "word":
                raise UnsupportedConstruct(tok.value, *self.at(tok))
            raise ParseError(f"got {tok.value!r}", *self.at(tok),
                             expected="declaration type")
        kind, maker = DECLARATION_KINDS[tok.value]
        self.expect("(")
        name = self._name(maker, "entity name")
        self.expect(")")
        self.expect(")")
        return Declaration(kind, name)

    def axiom(self) -> tuple[PlainAxiom, tuple[Annotation, ...]]:
        tok = self.next()
        if tok.kind != "word":
            raise ParseError(f"got {tok.value!r}", *self.at(tok), expected="axiom")
        if tok.value not in _AXIOM_WORDS:
            raise UnsupportedConstruct(tok.value, *self.at(tok))
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
            role = self._name(role_name, "role name")
            axiom = Ria((RoleName(role), RoleName(role)), role)
        elif word == "ClassAssertion":
            ce = self.concept()
            ind = self._name(individual_name, "individual name")
            axiom = Gci(Nominal(ind), ce)
        elif word == "ObjectPropertyAssertion":
            role = self._name(role_name, "role name")
            a = self._name(individual_name, "individual name")
            b = self._name(individual_name, "individual name")
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
            head = self._name(role_name, "role name")
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
                name = self._name(role_name, "role name")
                self.expect(")")
                return InverseRole(name)
            raise UnsupportedConstruct(tok.value, *self.at(tok))
        return RoleName(self._name(role_name, "role name"))

    def concept(self) -> ConceptExpr:
        tok = self.peek()
        if tok.kind == "pname":
            if tok.prefix == "owl" and tok.value in _OWL_CLASSES:
                self.next()
                return _OWL_CLASSES[tok.value]()
            return ConceptName(self._name(concept_name, "class name"))
        if tok.kind != "word":
            raise ParseError(f"got {tok.value!r}", *self.at(tok),
                             expected="class expression")
        if tok.value not in _CE_WORDS:
            raise UnsupportedConstruct(tok.value, *self.at(tok))
        self.next()
        self.expect("(")
        word = tok.value
        if word == "ObjectComplementOf":
            out: ConceptExpr = Not(self.concept())
        elif word in ("ObjectIntersectionOf", "ObjectUnionOf"):
            parts = [self.concept(), self.concept()]
            while self.peek().kind != ")":
                parts.append(self.concept())
            out = (And if word == "ObjectIntersectionOf" else Or)(*parts)
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
            out = Nominal(self._name(individual_name, "individual name"))
        self.expect(")")
        return out


def parse_document(text: str) -> RawDocument:
    """Parse a document into its raw structure, keeping annotation literals
    verbatim.  Transitivity and ABox assertions are desugared on the fly:
    TransitiveObjectProperty(r) becomes the chain r∘r ⊑ r, ClassAssertion
    becomes {a} ⊑ C and ObjectPropertyAssertion becomes {a} ⊑ ∃r.{b}."""
    return _DocParser(text).document()
