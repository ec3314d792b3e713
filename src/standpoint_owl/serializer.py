"""Deterministic emission of knowledge bases as functional-style documents.

Output is byte-stable: prefixes are derived from name bases in sorted
order, declarations are sorted within each kind, and axioms keep their
canonical order.  A conjunction or disjunction writes its parts in order
into the n-ary syntax, and the parser builds the identical tree back.  A
translated KB is rendered one family at a time: the template is rendered
once and ``_expand`` fills in each copy's index, so p copies cost one
rendering and p joins, made in C; ``axioms`` is never built.  A family
inside a concept (a box inside a Boolean combination) is rendered the
same way, as the ObjectIntersectionOf of its copies; as the first part
of an intersection its copies are written in line, without a wrapper, as
And splices an And in first place, so the text reads back as the tree of
``axioms``.  Its declarations are made from the name templates in the
same way, as strings, so neither is ``signature``.  The index strings
are made once per document (``_Namespaces.indices``), and every copy,
of a family or of a declared name, is expanded from them.
``kb_pieces`` and ``document_pieces`` hand a document out in pieces (the
header, the declarations of each kind and namespace, one family or axiom
each, the closing line), made one at a time, so a writer that takes them
in turn holds one piece and its memory does not grow with the output;
``serialize_kb`` and ``serialize_document`` join the same pieces.
This module writes documents only: an expression is one walk over the
word table of its syntax (``functional.WORDS``), and the label payloads
are written by their own syntax's module (``frontend.labels``).
Standpoint content re-emits as annotation literals: top-level formulas as
booleanCombination payloads on the ontology; named standpoint axioms and
the trailing boxes and diamonds over one atom as operator annotations on
their carrier axiom, so the formulas read back in order.  Every output,
``serialize_kb`` of an ``import`` output too, is itself valid input.
"""

from __future__ import annotations

from itertools import count, repeat
from typing import Iterator

from .errors import GrammarViolation
from .model import (And, Atom, AtLeast, AtMost, Box, ConceptExpr, Diamond,
                    EntityName, Family, INDEX_SENTINEL, PlainKB, Ria,
                    StandpointFormula, StandpointKB, children, signature_bases)
from .frontend.functional import DECLARATION_KINDS, WORDS, RawDocument
from .frontend.labels import STANDPOINT_LABEL, bool_comb_payload, sp_axiom_payload


# ---------------------------------------------------------------------------
# Prefix management
# ---------------------------------------------------------------------------

class _Namespaces:
    """The prefix name of each namespace of a document, and the index
    strings its copies read (see ``indices``)."""

    def __init__(self, default_ns: str, bases: set[str]):
        self.table: dict[str, str] = {default_ns: ""}
        extra = sorted(b for b in bases if b != default_ns)
        for k, base in enumerate(extra, start=1):
            self.table[base] = f"ns{k}"
        self.index_strings: list[str] = []

    @classmethod
    def from_table(cls, iri_to_pname: dict[str, str]) -> "_Namespaces":
        ns = cls.__new__(cls)
        ns.table = dict(iri_to_pname)
        ns.index_strings = []
        return ns

    def indices(self, copies: int) -> list[str]:
        """``str(k)`` for each k below ``copies``.  Each string is made once
        per document, however many families and names read it."""
        table = self.index_strings
        if len(table) < copies:
            table += map(str, range(len(table), copies))
        return table[:copies]

    def prefix(self, base: str) -> str:
        if base not in self.table:
            raise GrammarViolation(f"no prefix covers namespace {base!r}")
        return self.table[base]

    def pname(self, name: EntityName) -> str:
        return f"{self.prefix(name.base)}:{name.local}"

    def prefix_lines(self) -> list[str]:
        items = sorted(self.table.items(), key=lambda kv: kv[1])
        return [f"Prefix({pname}:=<{iri}>)" for iri, pname in items]


def _escape_literal(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


# ---------------------------------------------------------------------------
# Concepts, roles and axioms
# ---------------------------------------------------------------------------

# The classes that write their n before their children.
_NUMBERED = (AtMost, AtLeast)


def _functional(x, ns: _Namespaces, annotations: str = "") -> str:
    """Functional-syntax text of a role, a concept or a plain axiom: the
    word of its class (``functional.WORDS``) around its ``annotations``,
    then its children in the order of ``model.children``, a number
    restriction's n first.  A role chain of two or more roles is an
    ObjectPropertyChain, and a family first in an And is spliced in, as
    And splices an And."""
    if type(x) is EntityName:  # the head of a role inclusion
        return ns.pname(x)
    word = WORDS[type(x)]
    if word is None:  # read directly: names are most of the nodes
        return ns.pname(x.name)
    kids = children(x)
    if not kids:
        return word
    if type(x) is Family:
        return f"{word}({_copies(x, ns)})"
    parts = [str(x.n)] if type(x) in _NUMBERED else []
    if type(x) is And and type(kids[0]) is Family:
        parts.append(_copies(kids[0], ns))
        kids = kids[1:]
    # A loop, not a generator: one frame per level, as the parser uses, so
    # what parses and translates also renders.
    for kid in kids:
        parts.append(_functional(kid, ns))
    if type(x) is Ria and len(x.chain) > 1:
        parts[:-1] = [f"ObjectPropertyChain({' '.join(parts[:-1])})"]
    return f"{word}({annotations}{' '.join(parts)})"


def _copies(family: Family, ns: _Namespaces) -> str:
    """The copies of a family inside a concept, joined by spaces: its
    template rendered once, and each copy's index filled in."""
    return " ".join(_expand(_functional(family.template, ns),
                            ns.indices(family.copies)))


def _expand(text: str, indices: list[str]) -> Iterator[str]:
    """One copy of ``text`` per string of ``indices``, in their order: its
    pieces around every INDEX_SENTINEL joined with that string.  Digits in
    the text are never rewritten, so fixed indices keep their numbers.
    ``str.join`` makes each copy, through ``map``: no Python code runs per
    copy.  The serializer expands every family, inside a concept or not,
    and every declared name with it."""
    return map(str.join, indices, repeat(text.split(INDEX_SENTINEL)))


def serialize_concept(c: ConceptExpr, base: str = "") -> str:
    """Functional-syntax rendering of a single class expression whose names
    live in the given namespace (rendered with the default prefix)."""
    return _functional(c, _Namespaces(base, set()))


# ---------------------------------------------------------------------------
# Whole documents
# ---------------------------------------------------------------------------

def _declaration_pieces(names, copies: int, ns: _Namespaces) -> Iterator[str]:
    """One declaration per copy of each name (see ``PlainKB.names``),
    sorted by namespace and then by local name within each kind, one piece
    per kind and namespace.  The copies are made as strings, from the
    index strings in string order ("10" < "100" < "11"), so the copies of
    one name come to the sort as one sorted run; no name is built."""
    indices = sorted(ns.indices(copies))
    for word, (kind, _) in DECLARATION_KINDS.items():
        by_base: dict[str, list[str]] = {}
        for name in getattr(names, f"{kind}s"):  # the Signature field
            group = by_base.setdefault(name.base, [])
            if INDEX_SENTINEL in name.local:
                group.extend(_expand(name.local, indices))
            else:
                group.append(name.local)
        for base in sorted(by_base):
            opening = f"Declaration({word}({ns.prefix(base)}:"
            group = by_base.pop(base)
            group.sort()
            if group:  # empty when its names have no copies
                yield opening + f"))\n{opening}".join(group) + "))\n"


def _annotation(prefix: str, local: str, literal: str) -> str:
    """``Annotation(prefix:local "literal")``, the literal escaped."""
    return f'Annotation({prefix}:{local} "{_escape_literal(literal)}")'


def _on_axiom(f: StandpointFormula) -> bool:
    """Whether ``f`` is a box or diamond over one atom (an axiom-level label)."""
    return isinstance(f, (Box, Diamond)) and isinstance(f.arg, Atom)


def kb_pieces(kb: PlainKB | StandpointKB) -> Iterator[str]:
    """The document of ``serialize_kb`` in pieces, each ending in a
    newline: the header (prefixes, the ``Ontology(`` line and the ontology
    annotations), the declarations of each kind and namespace, one piece
    per family or axiom, and the closing ``)``.  Each piece is made only
    when the one before it has been taken, so a writer that takes them one
    at a time holds one piece, not the document."""
    if isinstance(kb, PlainKB):
        names, copies, default_ns, ontology = kb.names, kb.copies, kb.base_iri + "#", ()
    else:
        names, copies = kb.signature, 1
        # The KB's own namespace, the empty one too when a name has it
        # (``Prefix(:=<>)`` reads back as "").
        default_ns = (kb.namespace if kb.namespace or "" in signature_bases(names)
                      else kb.base_iri + "#")
        # The formulas after the last one that is not a box or diamond over
        # one atom ride their carrier axioms, as they were read.
        top = len(kb.formulas)
        while top and _on_axiom(kb.formulas[top - 1]):
            top -= 1
        ontology, carried = kb.formulas[:top], kb.formulas[top:]
    ns = _Namespaces(default_ns, signature_bases(names))
    head = [*ns.prefix_lines(), f"Ontology(<{kb.base_iri}>"]
    for f in ontology:
        head.append(_annotation("", STANDPOINT_LABEL, bool_comb_payload(f, default_ns)))
    yield "\n".join(head) + "\n"
    yield from _declaration_pieces(names, copies, ns)

    if isinstance(kb, PlainKB):
        for family in kb.families:
            yield "".join(_expand(_functional(family.template, ns) + "\n",
                                  ns.indices(family.copies)))
    else:
        for ax in kb.plain_axioms:
            yield _functional(ax, ns) + "\n"
        for name, formula in [*kb.named_axioms.items(), *((None, f) for f in carried)]:
            if not _on_axiom(formula):
                raise GrammarViolation("named axioms must be modalised standard axioms")
            payload = sp_axiom_payload(name, type(formula), formula.standpoint)
            label = _annotation("", STANDPOINT_LABEL, payload)
            yield _functional(formula.arg.axiom, ns, label + " ") + "\n"
        for ria in kb.rias:
            yield _functional(ria, ns) + "\n"
    yield ")\n"


def serialize_kb(kb: PlainKB | StandpointKB) -> str:
    """Emit a knowledge base as a functional-style document: the pieces of
    ``kb_pieces`` joined.

    Pure and deterministic: equal inputs give byte-identical output.
    """
    return "".join(kb_pieces(kb))


def free_prefix(prefixes: dict[str, str]) -> str:
    """The first prefix name ``ns<k>``, k ≥ 1, that ``prefixes`` does not bind."""
    return next(f"ns{k}" for k in count(1) if f"ns{k}" not in prefixes)


def document_pieces(doc: RawDocument) -> Iterator[str]:
    """The document of ``serialize_document`` in pieces, each ending in a
    newline: the header (prefixes, the ``Ontology(`` line, the ontology
    annotations and the declarations), one piece per axiom, and the
    closing ``)``.  A namespace of ``doc.names`` that no prefix covers gets
    the first free ``ns<k>``, in sorted order."""
    covered = {iri for _, iri in doc.prefixes}
    table = dict(doc.prefixes)
    for base in sorted({n.base for n in doc.names} - covered):
        table[free_prefix(table)] = base

    reverse: dict[str, str] = {}
    for pname, iri in table.items():
        reverse.setdefault(iri, pname)
    ns = _Namespaces.from_table(reverse)

    head = [f"Prefix({pname}:=<{iri}>)" for pname, iri in table.items()]
    head.append(f"Ontology(<{doc.base_iri}>")
    for a in doc.ontology_annotations:
        head.append(_annotation(a.property_prefix, a.property_local, a.literal))
    kind_words = {kind: word for word, (kind, _) in DECLARATION_KINDS.items()}
    for decl in doc.declarations:
        head.append(f"Declaration({kind_words[decl.kind]}({ns.pname(decl.name)}))")
    yield "\n".join(head) + "\n"

    for axiom, annotations in doc.axioms:
        ann_text = "".join(
            _annotation(a.property_prefix, a.property_local, a.literal) + " "
            for a in annotations)
        yield _functional(axiom, ns, ann_text) + "\n"
    yield ")\n"


def serialize_document(doc: RawDocument) -> str:
    """Emit a raw document, re-emitting annotation literals verbatim: the
    pieces of ``document_pieces`` joined."""
    return "".join(document_pieces(doc))
