"""Reader for the ontology input format (a functional-style syntax subset),
and the word of each class (``WORDS``), which the reader reads and the
serializer writes.

A document is ``Prefix(...)`` declarations followed by one ``Ontology(<IRI>
...)`` block containing ontology annotations, entity declarations and
axioms, in that order.  Line comments run from ``#`` to end of line outside
strings and IRIs.  Annotation literals are quoted strings with ``\\"`` and
``\\\\`` escapes and are kept verbatim (including inner whitespace) for
error reporting and re-emission.

One ``split`` by one compiled regular expression cuts the text into gap
and token strings; a gap is the whitespace and comments before its token.
The grammar tells the token strings apart by their first character, their
words and the colon of a prefixed name.  Tokens keep no offset.  The
position of an annotation or an error comes from a cursor that moves
forward from the position asked for before it, summing the lengths of the
strings in between.  Only ``\\n`` ends a line, and
columns count code points, so a ``\\r`` is a column of its own.  Integers
are ``\\d+`` (Unicode decimal digits, which ``int`` reads); other
characters that ``str.isdigit`` accepts, such as superscripts, are
unexpected characters.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import itemgetter

from ..errors import ParseError, UnsupportedConstruct
from ..model import (All, And, AtLeast, AtMost, Bottom, ConceptExpr,
                     ConceptName, EntityName, Equiv, Family, Gci, HasSelf,
                     InverseRole, Nominal, Not, Or, PlainAxiom, Ria, RoleExpr,
                     RoleName, Some, Top, UNIVERSAL, UniversalRole,
                     concept_name, individual_name, iter_nodes, record,
                     restricted_roles_in, role_name, with_cached)


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
    """A document as read: its prefixes, its annotations as written, and
    its declarations and axioms, whose names are ``names`` and whose Self
    and number restrictions are over ``restricted_roles``."""
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

    @cached_property
    def names(self) -> frozenset[EntityName]:
        """Every entity name of the declarations and the axioms, found by a
        walk on first use.  ``parse_document`` hands over the names it
        interned instead (see `with_cached`), so a read document is not
        walked."""
        return frozenset(
            [d.name for d in self.declarations]
            + [n for axiom, _ in self.axioms for n in iter_nodes(axiom)
               if type(n) is EntityName])

    @cached_property
    def restricted_roles(self) -> frozenset[RoleExpr]:
        """The role of every Self and number restriction in the axioms,
        found by a walk on first use.  ``parse_document`` hands over the
        roles it put under those restrictions instead."""
        return restricted_roles_in(axiom for axiom, _ in self.axioms)


# A string literal up to its closing quote; escapes are \" and \\ only.
_STRING = r'"[^"\\]*(?:\\["\\][^"\\]*)*'
# Every match is a gap, then a token.  The alternatives start with distinct
# characters, so none backtracks into another; the last two match at any
# position, so the scan never skips text: the token after a gap is a bad
# character or the empty end of the text.
_TOKEN_RE = re.compile(rf"""
    ([ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*)
    (   [()]
      | [A-Za-z][A-Za-z0-9]*                  # word, or prefixed name,
        (?::[A-Za-z_][A-Za-z0-9_]*|:(?!=))?   # or bad: no local name
      | :(?:[A-Za-z_][A-Za-z0-9_]*|=?)        # name, :=, or bad: no local name
      | {_STRING}"                            # string
      | <[^>]*>                               # IRI
      | \d+                                   # integer
      | \Z                                    # end of text
      | .                                     # bad: anything else
    )""", re.VERBOSE | re.DOTALL)
_STRING_PREFIX_RE = re.compile(_STRING)
_ESCAPE_RE = re.compile(r'\\(["\\])')
_unescape = itemgetter(1)  # the escaped character, without a Python-level call


def _is_word(tok: str) -> bool:
    return tok.isascii() and tok.isalnum() and tok[0].isalpha()


def _is_name(tok: str) -> bool:
    """A prefixed name: a colon, no delimiters, and a local name (a bad
    token ends with the colon)."""
    return ":" in tok and tok[0] not in '<"' and tok[-1] not in ":="


def _literal(tok: str) -> str:
    value = tok[1:-1]
    return _ESCAPE_RE.sub(_unescape, value) if "\\" in value else value


def _value(tok: str) -> str:
    """The token as an error quotes it: an IRI without its brackets, a string
    literal unescaped, a prefixed name's local part, anything else whole."""
    if len(tok) > 1 and tok[0] in '<"':
        return _literal(tok) if tok[0] == '"' else tok[1:-1]
    return tok.partition(":")[2] if _is_name(tok) else tok


# The functional-syntax word of each class, which the reader and the
# serializer both use.  A leaf's word is its whole text, a name wrapper has
# none and is written as its name, and any other class writes its word
# around its children.  A family inside a concept is written as the
# intersection of its copies; the reader builds an And from that word.
WORDS = {
    Top: "owl:Thing", Bottom: "owl:Nothing", UniversalRole: "owl:topObjectProperty",
    ConceptName: None, RoleName: None,
    Nominal: "ObjectOneOf", InverseRole: "ObjectInverseOf", Not: "ObjectComplementOf",
    And: "ObjectIntersectionOf", Or: "ObjectUnionOf", Family: "ObjectIntersectionOf",
    All: "ObjectAllValuesFrom", Some: "ObjectSomeValuesFrom", HasSelf: "ObjectHasSelf",
    AtMost: "ObjectMaxCardinality", AtLeast: "ObjectMinCardinality",
    Gci: "SubClassOf", Equiv: "EquivalentClasses", Ria: "SubObjectPropertyOf",
}
# The axiom words: those of the model's axiom classes, and the three that
# the reader unfolds into them (None).
_AXIOM_WORDS = {**{WORDS[cls]: cls for cls in (Gci, Equiv, Ria)},
                "TransitiveObjectProperty": None, "ClassAssertion": None,
                "ObjectPropertyAssertion": None}
_CE_WORDS = {WORDS[cls]: cls for cls in (Not, And, Or, All, Some, HasSelf,
                                         AtMost, AtLeast, Nominal)}
_OWL_CLASSES = {WORDS[cls]: cls for cls in (Top, Bottom)}
# The prefixes OWL 2 declares for every document (Structural Specification,
# section 2.4); an annotation property may use them undeclared.
PREDECLARED_PREFIXES = {"rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
                        "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
                        "xsd": "http://www.w3.org/2001/XMLSchema#",
                        "owl": "http://www.w3.org/2002/07/owl#"}
# The declaration word of each entity kind, with the kind and its name
# maker, in the order the serializer writes declarations.
DECLARATION_KINDS = {"Class": ("concept", concept_name),
                     "ObjectProperty": ("role", role_name),
                     "NamedIndividual": ("individual", individual_name)}


class _DocParser:
    """Recursive descent over the token strings, kept in reverse, so ``pop``
    takes the next one.  The grammar takes no bad token, so only a text
    that fails is searched for one (``lex_error``)."""

    def __init__(self, text: str, namespace: str | None = None):
        self.text = text
        self.namespace = namespace
        # ["", gap, token, "", gap, token, ..., ""]: no text lies between matches.
        self.pieces = _TOKEN_RE.split(text)
        self.toks = self.pieces[-2::-3]
        self.n = len(self.toks)
        self.pop = self.toks.pop
        self.prefixes: dict[str, str] = {}
        self.base_iri = ""
        # One EntityName per (maker, namespace, local), found by token text
        # per maker; two prefixes may name one namespace.
        self.names: dict[tuple, EntityName] = {}
        self.by_text = {concept_name: {}, role_name: {}, individual_name: {}}
        self.classes, self.roles = self.by_text[concept_name], self.by_text[role_name]
        # The role of each Self and number restriction; each literal's value.
        self.restricted: list[RoleExpr] = []
        self.literals: dict[str, str] = {}
        # The position cursor: a piece index, its offset, the line there
        # and the offset at which that line starts.
        self.piece = self.pos = self.line_start = 0
        self.line = 1

    def where(self, i: int, skip: int = 0) -> tuple[int, int]:
        """The line and column of token ``i``, or of ``skip`` characters
        into it.  The cursor moves forward to token ``i`` from the token it
        was last moved to, which must not come after it, over the strings in
        between, so a document's positions measure each string once.  The
        ``skip`` characters do not move it."""
        piece = 3 * i + 2
        text, start = self.text, self.pos
        pos = start + sum(map(len, self.pieces[self.piece:piece]))
        end = pos + skip
        line, line_start = self.line, self.line_start
        lines = text.count("\n", start, end)
        if lines:
            line += lines
            line_start = text.rindex("\n", start, end) + 1
        if not skip:
            self.piece, self.pos, self.line, self.line_start = piece, pos, line, line_start
        return line, end + 1 - line_start

    def at(self) -> tuple[int, int]:
        """The line and column of the token taken last."""
        return self.where(self.n - len(self.toks) - 1)

    def got(self, what: str) -> ParseError:
        tok = self.pieces[3 * (self.n - len(self.toks)) - 1]
        return ParseError(f"got {_value(tok)!r}", *self.at(), expected=what)

    def unexpected(self, tok: str, what: str) -> Exception:
        if _is_word(tok):
            return UnsupportedConstruct(tok, *self.at())
        return self.got(what)

    def expect(self, tok: str) -> None:
        if self.pop() != tok:
            raise self.got(tok)

    def lex_error(self) -> ParseError | None:
        """The error of the text's first bad token: a prefix without a local
        name, or a character that is not a parenthesis, a digit or an ASCII
        letter and starts no longer token."""
        for i, tok in enumerate(self.pieces[2::3]):
            if tok[-1:] == ":" or len(tok) == 1 and not (
                    tok in "()" or tok.isdecimal() or tok.isascii() and tok.isalpha()):
                where, start = self.where(i), self.pos
                if tok[-1] == ":":
                    return ParseError(f"expected local name after '{tok}'", *where)
                if tok == "<":
                    return ParseError("unterminated IRI", *where)
                if tok != '"':
                    return ParseError(f"unexpected character {tok!r}", *where)
                end = _STRING_PREFIX_RE.match(self.text, start).end()
                if end == len(self.text):
                    return ParseError("unterminated string literal", *where)
                return ParseError("unknown escape in string literal",
                                  *self.where(i, end - start))

    # -- entity references ------------------------------------------------

    def _name(self, maker, what: str) -> EntityName:
        tok = self.pop()
        return self.by_text[maker].get(tok) or self._new_name(tok, maker, what)

    def _new_name(self, tok: str, maker, what: str) -> EntityName:
        """The name that ``tok``, just taken, spells for ``maker``."""
        if not _is_name(tok):
            raise self.got(what)
        prefix, _, local = tok.partition(":")
        if prefix == "owl":
            raise ParseError(f"owl:{local} is not usable here", *self.at(),
                             expected=what)
        base = self.prefixes.get(prefix)
        if base is None:
            raise ParseError(f"undeclared prefix {prefix!r}", *self.at())
        if self.namespace is not None:
            base = self.namespace
        name = self.names.get((maker, base, local)) or maker(local, base)
        self.names[maker, base, local] = self.by_text[maker][tok] = name
        return name

    # -- grammar ----------------------------------------------------------

    def document(self) -> RawDocument:
        toks, pop = self.toks, self.pop
        while toks[-1] == "Prefix":
            pop()
            self.expect("(")
            tok = pop()
            if tok == ":=":
                pname = ""
            elif _is_word(tok):
                pname = tok
                self.expect(":=")
            else:
                raise self.got("prefix declaration")
            self.prefixes[pname] = self.iri("IRI")
            self.expect(")")
        self.expect("Ontology")
        self.expect("(")
        self.base_iri = self.iri("ontology IRI")
        if "" not in self.prefixes:
            self.prefixes[""] = self.base_iri + "#"

        annotations = []
        while toks[-1] == "Annotation":
            annotations.append(self.annotation())
        declarations = []
        while toks[-1] == "Declaration":
            declarations.append(self.declaration())
        axioms = []
        while toks[-1] != ")":
            axioms.append(self.axiom())
        pop()
        if pop():
            raise self.got("end of document")
        return RawDocument(base_iri=self.base_iri,
                           prefixes=tuple(self.prefixes.items()),
                           ontology_annotations=tuple(annotations),
                           declarations=tuple(declarations),
                           axioms=tuple(axioms))

    def iri(self, what: str) -> str:
        tok = self.pop()
        if tok[:1] != "<" or tok == "<":
            raise self.got(what)
        return tok[1:-1]

    def annotation(self) -> Annotation:
        pop = self.pop
        pop()  # Annotation
        self.expect("(")
        prop = pop()
        if not _is_name(prop):
            raise self.got("annotation property")
        prefix, _, local = prop.partition(":")
        if prefix not in self.prefixes and prefix not in PREDECLARED_PREFIXES:
            raise ParseError(f"undeclared prefix {prefix!r}", *self.at())
        lit = pop()
        if lit[:1] != '"' or lit == '"':
            raise self.got("string literal")
        line, col = self.at()
        self.expect(")")
        literal = self.literals.get(lit)
        if literal is None:
            literal = self.literals[lit] = _literal(lit)
        return Annotation(prefix, local, literal, line, col)

    def declaration(self) -> Declaration:
        self.pop()  # Declaration
        self.expect("(")
        tok = self.pop()
        if tok not in DECLARATION_KINDS:
            raise self.unexpected(tok, "declaration type")
        kind, maker = DECLARATION_KINDS[tok]
        self.expect("(")
        name = self._name(maker, "entity name")
        self.expect(")")
        self.expect(")")
        return Declaration(kind, name)

    def axiom(self) -> tuple[PlainAxiom, tuple[Annotation, ...]]:
        toks, pop = self.toks, self.pop
        word = pop()
        if word not in _AXIOM_WORDS:
            if not word:
                raise ParseError("unexpected end of document", *self.at(),
                                 expected="axiom or ')'")
            raise self.unexpected(word, "axiom")
        self.expect("(")
        annotations = []
        while toks[-1] == "Annotation":
            annotations.append(self.annotation())
        cls = _AXIOM_WORDS[word]
        if cls is Gci or cls is Equiv:
            axiom: PlainAxiom = cls(self.concept(), self.concept())
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
            if toks[-1] == "ObjectPropertyChain":
                pop()
                self.expect("(")
                chain = [self.object_property()]
                while toks[-1] != ")":
                    chain.append(self.object_property())
                pop()
            else:
                chain = [self.object_property()]
            head = self._name(role_name, "role name")
            axiom = Ria(tuple(chain), head)
        self.expect(")")
        return (axiom, tuple(annotations))

    def object_property(self) -> RoleExpr:
        tok = self.pop()
        name = self.roles.get(tok)
        if name is not None:
            return RoleName(name)
        if tok == WORDS[UniversalRole]:
            return UNIVERSAL
        if tok == WORDS[InverseRole]:
            self.expect("(")
            name = self._name(role_name, "role name")
            self.expect(")")
            return InverseRole(name)
        if _is_word(tok):
            raise UnsupportedConstruct(tok, *self.at())
        return RoleName(self._new_name(tok, role_name, "role name"))

    def concept(self) -> ConceptExpr:
        pop = self.pop
        tok = pop()
        name = self.classes.get(tok)
        if name is not None:
            return ConceptName(name)
        cls = _CE_WORDS.get(tok)
        if cls is None:
            if tok in _OWL_CLASSES:
                return _OWL_CLASSES[tok]()
            if _is_name(tok):
                return ConceptName(self._new_name(tok, concept_name, "class name"))
            raise self.unexpected(tok, "class expression")
        if pop() != "(":
            raise self.got("(")
        if cls is And or cls is Or:
            toks = self.toks
            parts = [self.concept(), self.concept()]
            while toks[-1] != ")":
                parts.append(self.concept())
            out: ConceptExpr = cls(*parts)
        elif cls is Some or cls is All:
            out = cls(self.object_property(), self.concept())
        elif cls is Not:
            out = Not(self.concept())
        elif cls is HasSelf:
            role = self.object_property()
            self.restricted.append(role)
            out = HasSelf(role)
        elif cls is Nominal:
            out = Nominal(self._name(individual_name, "individual name"))
        else:  # AtMost, AtLeast
            n = pop()
            if not n.isdecimal():
                raise self.got("non-negative integer")
            role = self.object_property()
            self.restricted.append(role)
            out = cls(int(n), role, self.concept())
        if pop() != ")":
            raise self.got(")")
        return out


def parse_document(text: str, namespace: str | None = None) -> RawDocument:
    """Parse a document into its raw structure, keeping annotation literals
    verbatim.  Transitivity and ABox assertions are desugared on the fly:
    TransitiveObjectProperty(r) becomes the chain r∘r ⊑ r, ClassAssertion
    becomes {a} ⊑ C and ObjectPropertyAssertion becomes {a} ⊑ ∃r.{b}.

    Each distinct name is built once, and the document's ``names`` are the
    names so built.  Its ``restricted_roles`` are the role expressions the
    reader put under ``ObjectHasSelf``, ``ObjectMinCardinality`` and
    ``ObjectMaxCardinality`` (the universal role among them), so neither
    ``assemble_kb`` nor ``validate_roles`` walks its axioms.  An annotation's
    line and column are those of its literal, and each distinct literal is
    unescaped once.  A prefixed name must use a declared prefix (an
    annotation property may also use one of PREDECLARED_PREFIXES).  Given
    a ``namespace``, every entity name is read into it instead of its
    prefix's namespace, so names equal in kind and local name are one name
    there; prefixes and annotations stay as written."""
    parser = _DocParser(text, namespace)
    try:
        return with_cached(parser.document(),
                           names=frozenset(parser.names.values()),
                           restricted_roles=frozenset(parser.restricted))
    except (ParseError, UnsupportedConstruct, RecursionError):
        error = parser.lex_error()
        if error is None:
            raise
        raise error from None
