"""Deterministic emission of knowledge bases as functional-style documents.

Output is byte-stable: prefixes are derived from name bases in sorted
order, declarations are sorted within each kind, and axioms keep their
canonical order.  A conjunction or disjunction writes its parts in order
into the n-ary syntax, and the parser builds the identical tree back.  A
translated KB is rendered one family at a time: the template is rendered
once and ``Family.render`` fills in each copy's index, so p copies cost
one rendering and p joins; ``axioms`` is never built.  A family inside a
concept (a box inside a Boolean combination) is rendered the same way, as
the ObjectIntersectionOf of its copies; as the first part of an
intersection its copies are written in line, without a wrapper, as And
splices an And in first place, so the text reads back as the tree of
``axioms``.  Its declarations are made from the name templates in the
same way, as strings, so neither is ``signature``.
``kb_pieces`` and ``document_pieces`` hand a document out in pieces (the
header, the declarations of each kind and namespace, one family or axiom
each, the closing line), made one at a time, so a writer that takes them
in turn holds one piece and its memory does not grow with the output;
``serialize_kb`` and ``serialize_document`` join the same pieces.
Standpoint content re-emits as annotation literals: top-level formulas as
booleanCombination payloads on the ontology, named standpoint axioms as
operator annotations on their carrier axiom.  Every output is itself
valid input.
"""

from __future__ import annotations

from itertools import count
from typing import Iterator

from .errors import GrammarViolation
from .model import (All, And, Atom, AtLeast, AtMost, AxiomRef, Bottom, Box,
                    ConceptExpr, ConceptName, Conjunction, Diamond,
                    Disjunction, EntityName, Family, Gci, HasSelf,
                    INDEX_SENTINEL, InverseRole, NamedStandpoint, Negation,
                    Nominal, Not, Or, PlainAxiom, PlainKB, Ria, RoleExpr, Some,
                    SpIntersection, SpUnion, StandpointExpr, StandpointFormula,
                    StandpointKB, Star, Top, UniversalRole, signature_bases)
from .frontend.assemble import STANDPOINT_LABEL
from .frontend.functional import DECLARATION_KINDS, RawDocument


# ---------------------------------------------------------------------------
# Prefix management
# ---------------------------------------------------------------------------

class _Namespaces:
    def __init__(self, default_ns: str, bases: set[str]):
        self.table: dict[str, str] = {default_ns: ""}
        extra = sorted(b for b in bases if b != default_ns)
        for k, base in enumerate(extra, start=1):
            self.table[base] = f"ns{k}"

    @classmethod
    def from_table(cls, iri_to_pname: dict[str, str]) -> "_Namespaces":
        ns = cls.__new__(cls)
        ns.table = dict(iri_to_pname)
        return ns

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

def _role_str(role: RoleExpr, ns: _Namespaces) -> str:
    if isinstance(role, UniversalRole):
        return "owl:topObjectProperty"
    if isinstance(role, InverseRole):
        return f"ObjectInverseOf({ns.pname(role.name)})"
    return ns.pname(role.name)


def _concept_str(c: ConceptExpr, ns: _Namespaces) -> str:
    if isinstance(c, Top):
        return "owl:Thing"
    if isinstance(c, Bottom):
        return "owl:Nothing"
    if isinstance(c, ConceptName):
        return ns.pname(c.name)
    if isinstance(c, Nominal):
        return f"ObjectOneOf({ns.pname(c.individual)})"
    if isinstance(c, Not):
        return f"ObjectComplementOf({_concept_str(c.arg, ns)})"
    if isinstance(c, (And, Or)):
        word = "ObjectIntersectionOf" if isinstance(c, And) else "ObjectUnionOf"
        # A family first in an And is spliced in, as And splices an And.
        splice = type(c) is And and type(c.parts[0]) is Family
        # A loop, not a generator: one frame per level, as the parser
        # uses, so what parses and translates also renders.
        parts = [_copies_str(c.parts[0], ns)] if splice else []
        for p in c.parts[len(parts):]:
            parts.append(_concept_str(p, ns))
        return f"{word}({' '.join(parts)})"
    if isinstance(c, Family):
        return f"ObjectIntersectionOf({_copies_str(c, ns)})"
    if isinstance(c, All):
        return f"ObjectAllValuesFrom({_role_str(c.role, ns)} {_concept_str(c.filler, ns)})"
    if isinstance(c, Some):
        return f"ObjectSomeValuesFrom({_role_str(c.role, ns)} {_concept_str(c.filler, ns)})"
    if isinstance(c, HasSelf):
        return f"ObjectHasSelf({_role_str(c.role, ns)})"
    if isinstance(c, AtMost):
        return (f"ObjectMaxCardinality({c.n} {_role_str(c.role, ns)} "
                f"{_concept_str(c.filler, ns)})")
    return (f"ObjectMinCardinality({c.n} {_role_str(c.role, ns)} "
            f"{_concept_str(c.filler, ns)})")


def _copies_str(family: Family, ns: _Namespaces) -> str:
    """The copies of a family inside a concept, joined by spaces: its
    template rendered once, and each copy's index filled in."""
    return " ".join(family.render(_concept_str(family.template, ns)))


def serialize_concept(c: ConceptExpr, base: str = "") -> str:
    """Functional-syntax rendering of a single class expression whose names
    live in the given namespace (rendered with the default prefix)."""
    return _concept_str(c, _Namespaces(base, set()))


def _axiom_str(ax: PlainAxiom, ns: _Namespaces, annotations: str = "") -> str:
    if isinstance(ax, Ria):
        if len(ax.chain) == 1:
            sub = _role_str(ax.chain[0], ns)
        else:
            sub = "ObjectPropertyChain(" + " ".join(
                _role_str(r, ns) for r in ax.chain) + ")"
        return f"SubObjectPropertyOf({annotations}{sub} {ns.pname(ax.head)})"
    word = "SubClassOf" if isinstance(ax, Gci) else "EquivalentClasses"
    return (f"{word}({annotations}{_concept_str(ax.lhs, ns)} "
            f"{_concept_str(ax.rhs, ns)})")


# ---------------------------------------------------------------------------
# Canonical XML for standpoint content
# ---------------------------------------------------------------------------

def _xml_attr(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")


def _xml_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;")


_MANCHESTER_OR, _MANCHESTER_AND, _MANCHESTER_UNARY = 1, 2, 3


def _check_manchester_base(name: EntityName, ns_base: str):
    if name.base != ns_base:
        raise GrammarViolation(
            f"cannot render {name.local!r} from a foreign namespace in Manchester text")


def _manchester(c: ConceptExpr, level: int, ns_base: str) -> str:
    def wrap(text: str, own: int) -> str:
        return f"({text})" if own < level else text

    if isinstance(c, Top):
        return "owl:Thing"
    if isinstance(c, Bottom):
        return "owl:Nothing"
    if isinstance(c, ConceptName):
        _check_manchester_base(c.name, ns_base)
        return c.name.local
    if isinstance(c, Nominal):
        _check_manchester_base(c.individual, ns_base)
        return "{" + c.individual.local + "}"
    if isinstance(c, (And, Or)):
        own, word = ((_MANCHESTER_AND, " and ") if isinstance(c, And)
                     else (_MANCHESTER_OR, " or "))
        return wrap(word.join(_manchester(p, own + 1, ns_base) for p in c.parts), own)
    if isinstance(c, Not):
        return wrap(f"not {_manchester(c.arg, _MANCHESTER_UNARY + 1, ns_base)}",
                    _MANCHESTER_UNARY)

    def role_text(role: RoleExpr) -> str:
        if isinstance(role, UniversalRole):
            raise GrammarViolation("the universal role has no Manchester form here")
        _check_manchester_base(role.name, ns_base)
        inner = role.name.local
        return f"inverse {inner}" if isinstance(role, InverseRole) else inner

    filler_level = _MANCHESTER_UNARY
    if isinstance(c, Some):
        text = f"{role_text(c.role)} some {_manchester(c.filler, filler_level, ns_base)}"
    elif isinstance(c, All):
        text = f"{role_text(c.role)} only {_manchester(c.filler, filler_level, ns_base)}"
    elif isinstance(c, HasSelf):
        text = f"{role_text(c.role)} Self"
    elif isinstance(c, AtLeast):
        text = f"{role_text(c.role)} min {c.n} {_manchester(c.filler, filler_level, ns_base)}"
    else:
        text = f"{role_text(c.role)} max {c.n} {_manchester(c.filler, filler_level, ns_base)}"
    return wrap(text, _MANCHESTER_UNARY + 1)


def render_manchester(c: ConceptExpr, ns_base: str = "") -> str:
    """Manchester-syntax text for a class expression (local names only)."""
    return _manchester(c, 0, ns_base)


def _sp_expr_xml(e: StandpointExpr) -> str:
    if isinstance(e, Star):
        return '<Standpoint name="*"/>'
    if isinstance(e, NamedStandpoint):
        return f'<Standpoint name="{_xml_attr(e.name)}"/>'
    if isinstance(e, SpUnion):
        return f"<UNION>{_sp_expr_xml(e.lhs)}{_sp_expr_xml(e.rhs)}</UNION>"
    if isinstance(e, SpIntersection):
        return (f"<INTERSECTION>{_sp_expr_xml(e.lhs)}{_sp_expr_xml(e.rhs)}"
                f"</INTERSECTION>")
    return f"<MINUS>{_sp_expr_xml(e.lhs)}{_sp_expr_xml(e.rhs)}</MINUS>"


def _std_axiom_xml(atom: Atom, ns_base: str) -> str:
    ax = atom.axiom
    tag = "subClassOf" if isinstance(ax, Gci) else "equivalentClasses"
    lhs = _xml_text(render_manchester(ax.lhs, ns_base))
    rhs = _xml_text(render_manchester(ax.rhs, ns_base))
    return f"<{tag}><LHS>{lhs}</LHS><RHS>{rhs}</RHS></{tag}>"


def _formula_xml(f: StandpointFormula, ns_base: str) -> str:
    if isinstance(f, Atom):
        return _std_axiom_xml(f, ns_base)
    if isinstance(f, AxiomRef):
        return f'<standpointAxiom name="§{_xml_attr(f.name)}"/>'
    if isinstance(f, Negation):
        if not isinstance(f.arg, (Atom, AxiomRef, Box, Diamond)):
            raise GrammarViolation("negation wraps only axioms in the annotation grammar")
        return f"<NOT>{_formula_xml(f.arg, ns_base)}</NOT>"
    if isinstance(f, (Conjunction, Disjunction)):
        tag = "AND" if isinstance(f, Conjunction) else "OR"
        return (f"<{tag}>{_formula_xml(f.lhs, ns_base)}"
                f"{_formula_xml(f.rhs, ns_base)}</{tag}>")
    if isinstance(f, (Box, Diamond)):
        if not isinstance(f.arg, Atom):
            raise GrammarViolation(
                "modal operators wrap only standard axioms in the annotation grammar")
        tag = "Box" if isinstance(f, Box) else "Diamond"
        return (f"<{tag}>{_sp_expr_xml(f.standpoint)}"
                f"{_std_axiom_xml(f.arg, ns_base)}</{tag}>")
    raise GrammarViolation(f"cannot render formula node {type(f).__name__}")


def _bool_comb_payload(f: StandpointFormula, ns_base: str) -> str:
    return f"<booleanCombination>{_formula_xml(f, ns_base)}</booleanCombination>"


def _sp_axiom_payload(name: str | None, op: str, e: StandpointExpr) -> str:
    """The label of a standpoint axiom: ``op`` ("Box" or "Diamond") over
    ``e``, named ``§name`` when a name is given."""
    attr = f' name="§{_xml_attr(name)}"' if name else ""
    return (f"<standpointAxiom{attr}><{op}>{_sp_expr_xml(e)}"
            f"</{op}></standpointAxiom>")


# ---------------------------------------------------------------------------
# Whole documents
# ---------------------------------------------------------------------------

def _declaration_pieces(names, copies: int, ns: _Namespaces) -> Iterator[str]:
    """One declaration per copy of each name (see ``PlainKB.names``),
    sorted by namespace and then by local name within each kind, one piece
    per kind and namespace.  The copies are made as strings; no name is
    built."""
    indices = [str(k) for k in range(copies)]
    for word, (kind, _) in DECLARATION_KINDS.items():
        by_base: dict[str, list[str]] = {}
        for name in getattr(names, f"{kind}s"):  # the Signature field
            group = by_base.setdefault(name.base, [])
            if INDEX_SENTINEL in name.local:
                pieces = name.local.split(INDEX_SENTINEL)
                group.extend(k.join(pieces) for k in indices)
            else:
                group.append(name.local)
        for base in sorted(by_base):
            opening = f"Declaration({word}({ns.prefix(base)}:"
            group = by_base.pop(base)
            group.sort()
            if group:  # empty when its names have no copies
                yield opening + f"))\n{opening}".join(group) + "))\n"


def kb_pieces(kb: PlainKB | StandpointKB) -> Iterator[str]:
    """The document of ``serialize_kb`` in pieces, each ending in a
    newline: the header (prefixes, the ``Ontology(`` line and the ontology
    annotations), the declarations of each kind and namespace, one piece
    per family or axiom, and the closing ``)``.  Each piece is made only
    when the one before it has been taken, so a writer that takes them one
    at a time holds one piece, not the document."""
    default_ns = kb.base_iri + "#"
    if isinstance(kb, StandpointKB):
        names, copies = kb.signature, 1
    else:
        names, copies = kb.names, kb.copies
    ns = _Namespaces(default_ns, signature_bases(names))
    head = ns.prefix_lines()
    head.append(f"Ontology(<{kb.base_iri}>")
    if isinstance(kb, StandpointKB):
        for f in kb.formulas:
            payload = _bool_comb_payload(f, default_ns)
            head.append(f'Annotation(:{STANDPOINT_LABEL} "{_escape_literal(payload)}")')
    yield "\n".join(head) + "\n"
    yield from _declaration_pieces(names, copies, ns)

    if isinstance(kb, StandpointKB):
        for ax in kb.plain_axioms:
            yield _axiom_str(ax, ns) + "\n"
        for name, formula in kb.named_axioms.items():
            if not isinstance(formula, (Box, Diamond)) or not isinstance(formula.arg, Atom):
                raise GrammarViolation("named axioms must be modalised standard axioms")
            op = "Box" if isinstance(formula, Box) else "Diamond"
            payload = _sp_axiom_payload(name, op, formula.standpoint)
            ann = f'Annotation(:{STANDPOINT_LABEL} "{_escape_literal(payload)}") '
            yield _axiom_str(formula.arg.axiom, ns, ann) + "\n"
        for ria in kb.rias:
            yield _axiom_str(ria, ns) + "\n"
    else:
        for family in kb.families:
            yield "".join(family.render(_axiom_str(family.template, ns) + "\n"))
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
    for ann in doc.ontology_annotations:
        prop = f"{ann.property_prefix}:{ann.property_local}"
        head.append(f'Annotation({prop} "{_escape_literal(ann.literal)}")')
    kind_words = {kind: word for word, (kind, _) in DECLARATION_KINDS.items()}
    for decl in doc.declarations:
        head.append(f"Declaration({kind_words[decl.kind]}({ns.pname(decl.name)}))")
    yield "\n".join(head) + "\n"

    for axiom, annotations in doc.axioms:
        ann_text = "".join(
            f'Annotation({a.property_prefix}:{a.property_local} '
            f'"{_escape_literal(a.literal)}") '
            for a in annotations)
        yield _axiom_str(axiom, ns, ann_text) + "\n"
    yield ")\n"


def serialize_document(doc: RawDocument) -> str:
    """Emit a raw document, re-emitting annotation literals verbatim: the
    pieces of ``document_pieces`` joined."""
    return "".join(document_pieces(doc))
