"""Deterministic emission of knowledge bases as functional-style documents.

Output is byte-stable: prefixes are derived from name bases in sorted
order, declarations are sorted within each kind, and axioms keep their
canonical order.  A conjunction or disjunction writes its parts in order
into the n-ary syntax, and the parser builds the identical tree back.  A
translated KB is rendered one family at a time: the template is rendered
once and ``Family.render`` fills in each copy's index, so p copies cost
one rendering and p joins; ``axioms`` is never built.  Its declarations
are made from the name templates in the same way, as strings, so neither
is ``signature``.
Standpoint content re-emits as annotation literals: top-level formulas as
booleanCombination payloads on the ontology, named standpoint axioms as
operator annotations on their carrier axiom.  Every output is itself
valid input.
"""

from __future__ import annotations

from .errors import GrammarViolation
from .model import (All, And, Atom, AtLeast, AtMost, AxiomRef, Bottom, Box,
                    ConceptExpr, ConceptName, Conjunction, Diamond,
                    Disjunction, EntityName, Gci, HasSelf, INDEX_SENTINEL,
                    InverseRole, NamedStandpoint, Negation, Nominal, Not, Or,
                    PlainAxiom, PlainKB, Ria, RoleExpr, Some, SpIntersection,
                    SpUnion, StandpointExpr, StandpointFormula, StandpointKB,
                    Star, Top, UniversalRole, entity_names_in)
from .frontend.assemble import STANDPOINT_LABEL
from .frontend.functional import RawDocument


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
        return f"{word}({' '.join(_concept_str(p, ns) for p in c.parts)})"
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

def _declaration_lines(names, copies: int, ns: _Namespaces) -> list[str]:
    """One declaration per copy of each name (see ``PlainKB.names``),
    sorted by namespace and then by local name within each kind.  The
    copies are made as strings; no name is built."""
    indices = [str(k) for k in range(copies)]
    lines = []
    for kind, word in (("concepts", "Class"), ("roles", "ObjectProperty"),
                       ("individuals", "NamedIndividual")):
        by_base: dict[str, list[str]] = {}
        for name in getattr(names, kind):
            group = by_base.setdefault(name.base, [])
            if INDEX_SENTINEL in name.local:
                pieces = name.local.split(INDEX_SENTINEL)
                group.extend(k.join(pieces) for k in indices)
            else:
                group.append(name.local)
        for base in sorted(by_base):
            prefix = ns.prefix(base)
            lines.extend(f"Declaration({word}({prefix}:{local}))"
                         for local in sorted(by_base[base]))
    return lines


def _bases_of_signature(signature) -> set[str]:
    return ({n.base for n in signature.concepts}
            | {n.base for n in signature.roles}
            | {n.base for n in signature.individuals})


def serialize_kb(kb: PlainKB | StandpointKB) -> str:
    """Emit a knowledge base as a functional-style document.

    Pure and deterministic: equal inputs give byte-identical output.
    """
    default_ns = kb.base_iri + "#"
    if isinstance(kb, StandpointKB):
        names, copies = kb.signature, 1
    else:
        names, copies = kb.names, kb.copies
    ns = _Namespaces(default_ns, _bases_of_signature(names))
    lines = ns.prefix_lines()
    lines.append(f"Ontology(<{kb.base_iri}>")

    if isinstance(kb, StandpointKB):
        for f in kb.formulas:
            payload = _bool_comb_payload(f, default_ns)
            lines.append(f'Annotation(:{STANDPOINT_LABEL} "{_escape_literal(payload)}")')
        lines.extend(_declaration_lines(names, copies, ns))
        for ax in kb.plain_axioms:
            lines.append(_axiom_str(ax, ns))
        for name, formula in kb.named_axioms.items():
            if not isinstance(formula, (Box, Diamond)) or not isinstance(formula.arg, Atom):
                raise GrammarViolation("named axioms must be modalised standard axioms")
            op = "Box" if isinstance(formula, Box) else "Diamond"
            payload = _sp_axiom_payload(name, op, formula.standpoint)
            ann = f'Annotation(:{STANDPOINT_LABEL} "{_escape_literal(payload)}") '
            lines.append(_axiom_str(formula.arg.axiom, ns, ann))
        for ria in kb.rias:
            lines.append(_axiom_str(ria, ns))
    else:
        lines.extend(_declaration_lines(names, copies, ns))
        for family in kb.families:
            lines.extend(family.render(_axiom_str(family.template, ns)))

    lines.append(")")
    return "\n".join(lines) + "\n"


def serialize_document(doc: RawDocument) -> str:
    """Emit a raw document, re-emitting annotation literals verbatim."""
    covered = {iri for _, iri in doc.prefixes}
    bases = {d.name.base for d in doc.declarations}
    for axiom, _ in doc.axioms:
        bases.update(n.base for n in entity_names_in(axiom))
    table = dict(doc.prefixes)
    missing = sorted(b for b in bases if b not in covered)
    used = set(table.keys())
    k = 1
    for base in missing:
        while f"ns{k}" in used:
            k += 1
        table[f"ns{k}"] = base
        used.add(f"ns{k}")

    reverse: dict[str, str] = {}
    for pname, iri in table.items():
        reverse.setdefault(iri, pname)
    ns = _Namespaces.from_table(reverse)

    lines = [f"Prefix({pname}:=<{iri}>)" for pname, iri in table.items()]
    lines.append(f"Ontology(<{doc.base_iri}>")
    for ann in doc.ontology_annotations:
        prop = f"{ann.property_prefix}:{ann.property_local}"
        lines.append(f'Annotation({prop} "{_escape_literal(ann.literal)}")')
    kind_words = {"concept": "Class", "role": "ObjectProperty",
                  "individual": "NamedIndividual"}
    for decl in doc.declarations:
        lines.append(f"Declaration({kind_words[decl.kind]}({ns.pname(decl.name)}))")
    for axiom, annotations in doc.axioms:
        ann_text = "".join(
            f'Annotation({a.property_prefix}:{a.property_local} '
            f'"{_escape_literal(a.literal)}") '
            for a in annotations)
        lines.append(_axiom_str(axiom, ns, ann_text))
    lines.append(")")
    return "\n".join(lines) + "\n"
