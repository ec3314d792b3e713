"""Translation of standpoint knowledge bases into plain description logic.

The encoding materialises a bounded number p of precisifications as indexed
copies of the vocabulary: concept A becomes A__0 … A__(p-1), role r likewise,
and each standpoint s gets marker concepts SP__s__0 … whose universal truth
(∀u.SP__s__π = ⊤, with u the universal role) simulates the nullary statement
"precisification π belongs to s".  Individuals denote rigid domain elements
shared by all precisifications and are rebased but not indexed.

Membership guards translate standpoint expressions pointwise; formulas
translate to concept expressions asserted under ⊤ ⊑ · : an inclusion C ⊑ D
at π becomes ∀u.(¬C__π ⊔ D__π), its negation ∃u.(C__π ⊓ ¬D__π), a box
becomes the conjunction over all indices of guard-implies-body, and a
diamond the disjunction of guard-and-body.  Unannotated axioms and role
chains are emitted once per index over the renamed vocabulary, which is
equivalent to their guarded universal-standpoint translation because the
universal marker is forced to be total.

A translated KB shares immutable subtrees: each mangled name, its wrappers,
each marker and each guard is built once per ``translate_kb`` call and
reused wherever it recurs.
"""

from __future__ import annotations

from itertools import repeat

from .errors import ReservedName, UnresolvedRef
from .model import (All, And, Atom, AtLeast, AtMost, Box, ConceptExpr,
                    ConceptName, Conjunction, Diamond, Disjunction,
                    EntityName, Equiv, Gci, HasSelf, Negation, Nominal, Not,
                    Or, PlainKB, Ria, RoleExpr, Signature, Some,
                    SpIntersection, SpMinus, SpUnion, STAR, Star,
                    StandpointExpr, StandpointFormula, StandpointKB, TOP,
                    UNIVERSAL, UniversalRole, fold, iter_nodes, left_spine,
                    standpoint_entity, walk_refs)
from .normalizer import _check_no_nesting, count_precisifications

STAR_TOKEN = "STAR"


def mangle(name: EntityName, pi: int, base: str) -> EntityName:
    """Fresh per-precisification name: concepts/roles get an __π suffix,
    standpoints become SP__ marker concepts, individuals are rebased only."""
    if "__" in name.local:
        raise ReservedName(f"{name.local!r} already contains '__'")
    if name.kind == "standpoint":
        token = STAR_TOKEN if name.local == "*" else name.local
        return EntityName("concept", f"SP__{token}__{pi}", base)
    if name.kind == "individual":
        return EntityName("individual", name.local, base)
    return EntityName(name.kind, f"{name.local}__{pi}", base)


class _Interner:
    """The leaves one translation repeats, each built once.

    Every box and diamond expands into p guarded copies, so the same mangled
    names and guards recur across axioms and precisifications.  A
    table lives for one ``translate_kb`` call (or one call of a public
    helper) and hands out the same frozen node for equal requests, which
    keeps the output tree free of duplicate leaves without any state that
    outlives the call.  Entries are keyed on what the result depends on:
    the kind and local part of a name (its input base never reaches the
    output) and the index, which individuals ignore.
    """

    def __init__(self, base: str):
        self.base = base
        self.names: dict = {}
        self.wrappers: dict = {}
        self.guards: dict = {}

    def name(self, name: EntityName, pi: int) -> EntityName:
        key = (name.kind, name.local, 0 if name.kind == "individual" else pi)
        out = self.names.get(key)
        if out is None:
            out = self.names[key] = mangle(name, pi, self.base)
        return out

    def _wrap(self, ctor, name: EntityName, pi: int):
        key = (ctor, name.kind, name.local, 0 if name.kind == "individual" else pi)
        out = self.wrappers.get(key)
        if out is None:
            out = self.wrappers[key] = ctor(self.name(name, pi))
        return out

    def role(self, role: RoleExpr, pi: int) -> RoleExpr:
        if isinstance(role, UniversalRole):
            return role
        return self._wrap(type(role), role.name, pi)

    def concept(self, c: ConceptExpr, pi: int) -> ConceptExpr:
        if isinstance(c, ConceptName):
            return self._wrap(ConceptName, c.name, pi)
        if isinstance(c, Nominal):
            return self._wrap(Nominal, c.individual, pi)
        if isinstance(c, Not):
            return Not(self.concept(c.arg, pi))
        if isinstance(c, (And, Or)):
            # along the left spine, so no fold is too wide to translate
            ctor = type(c)
            return fold(ctor, map(self.concept, left_spine(c, ctor), repeat(pi)))
        if isinstance(c, All):
            return All(self.role(c.role, pi), self.concept(c.filler, pi))
        if isinstance(c, Some):
            return Some(self.role(c.role, pi), self.concept(c.filler, pi))
        if isinstance(c, HasSelf):
            return HasSelf(self.role(c.role, pi))
        if isinstance(c, AtMost):
            return AtMost(c.n, self.role(c.role, pi), self.concept(c.filler, pi))
        if isinstance(c, AtLeast):
            return AtLeast(c.n, self.role(c.role, pi), self.concept(c.filler, pi))
        return c  # Top / Bottom

    def guard(self, e: StandpointExpr, pi: int) -> ConceptExpr:
        key = (e, pi)
        out = self.guards.get(key)
        if out is None:
            out = self.guards[key] = self._guard(e, pi)
        return out

    def _guard(self, e: StandpointExpr, pi: int) -> ConceptExpr:
        if isinstance(e, SpUnion):
            return Or(self.guard(e.lhs, pi), self.guard(e.rhs, pi))
        if isinstance(e, SpIntersection):
            return And(self.guard(e.lhs, pi), self.guard(e.rhs, pi))
        if isinstance(e, SpMinus):
            return And(self.guard(e.lhs, pi), Not(self.guard(e.rhs, pi)))
        # a standpoint name: its marker ∀u.SP__s__π
        marker = standpoint_entity("*" if isinstance(e, Star) else e.name)
        return All(UNIVERSAL, self._wrap(ConceptName, marker, pi))

    def trans(self, pi: int, f: StandpointFormula, p: int) -> ConceptExpr:
        if isinstance(f, Atom):
            ax = f.axiom
            if isinstance(ax, Equiv):
                return And(self.trans(pi, Atom(Gci(ax.lhs, ax.rhs)), p),
                           self.trans(pi, Atom(Gci(ax.rhs, ax.lhs)), p))
            return All(UNIVERSAL, Or(Not(self.concept(ax.lhs, pi)),
                                     self.concept(ax.rhs, pi)))
        if isinstance(f, Negation):
            g = f.arg
            if isinstance(g, Atom) and isinstance(g.axiom, Gci):
                return Some(UNIVERSAL, And(self.concept(g.axiom.lhs, pi),
                                           Not(self.concept(g.axiom.rhs, pi))))
            if isinstance(g, Atom) and isinstance(g.axiom, Equiv):
                a, b = g.axiom.lhs, g.axiom.rhs
                return Or(self.trans(pi, Negation(Atom(Gci(a, b))), p),
                          self.trans(pi, Negation(Atom(Gci(b, a))), p))
            raise ValueError("formula is not in negation normal form")
        if isinstance(f, Conjunction):
            return And(self.trans(pi, f.lhs, p), self.trans(pi, f.rhs, p))
        if isinstance(f, Disjunction):
            return Or(self.trans(pi, f.lhs, p), self.trans(pi, f.rhs, p))
        if isinstance(f, Box):
            _check_no_nesting(f.arg, True)
            return fold(And, [Or(Not(self.guard(f.standpoint, k)), self.trans(k, f.arg, p))
                              for k in range(p)])
        if isinstance(f, Diamond):
            _check_no_nesting(f.arg, True)
            return fold(Or, [And(self.guard(f.standpoint, k), self.trans(k, f.arg, p))
                             for k in range(p)])
        raise UnresolvedRef(f.name)


def trans_e(pi: int, e: StandpointExpr, base: str = "") -> ConceptExpr:
    """Guard expression that is total exactly when precisification pi
    belongs to the standpoint expression."""
    return _Interner(base).guard(e, pi)


def trans(pi: int, f: StandpointFormula, p: int, base: str = "") -> ConceptExpr:
    """Translate a normal-form standpoint formula at precisification pi."""
    return _Interner(base).trans(pi, f, p)


def _has_bare_atom(f: StandpointFormula) -> bool:
    """True when some atom sits outside every modality, making the
    translation index-dependent."""
    return any(type(node) is Atom for node in iter_nodes(f, (Atom, Box, Diamond)))


def output_iri(kb: StandpointKB) -> str:
    return kb.base_iri + "/translated" if kb.base_iri else "translated"


def translate_kb(kb: StandpointKB, p: int | None = None,
                 base_iri: str | None = None) -> PlainKB:
    """Translate a validated, reference-free, normal-form KB.

    ``p`` may be forced upward (never below the computed bound) to study
    growth; name bases move to the output ontology's namespace.  Output
    order is deterministic: universal-standpoint marker axioms first, then
    formula translations (one copy for purely modal formulas, p copies
    otherwise), then per-index plain axioms, then per-index role chains.
    """
    for f in kb.formulas:
        for ref in walk_refs(f):
            raise UnresolvedRef(ref.name)
    p_min = count_precisifications(kb)
    if p is None:
        p = p_min
    elif p < p_min:
        raise ValueError(f"p={p} below the required bound {p_min}")
    iri = base_iri if base_iri is not None else output_iri(kb)
    table = _Interner(iri + "#")

    axioms: list = []
    for k in range(p):
        axioms.append(Gci(TOP, table.guard(STAR, k)))
    for f in kb.formulas:
        if _has_bare_atom(f):
            for k in range(p):
                axioms.append(Gci(TOP, table.trans(k, f, p)))
        else:
            axioms.append(Gci(TOP, table.trans(0, f, p)))
    for ax in kb.plain_axioms:
        ctor = Gci if isinstance(ax, Gci) else Equiv
        for k in range(p):
            axioms.append(ctor(table.concept(ax.lhs, k), table.concept(ax.rhs, k)))
    for ria in kb.rias:
        for k in range(p):
            axioms.append(Ria(tuple(table.role(r, k) for r in ria.chain),
                              table.name(ria.head, k)))

    concepts = {table.name(c, k) for c in kb.signature.concepts for k in range(p)}
    concepts |= {table.name(standpoint_entity(s), k)
                 for s in kb.signature.standpoints for k in range(p)}
    roles = {table.name(r, k) for r in kb.signature.roles for k in range(p)}
    individuals = {table.name(i, 0) for i in kb.signature.individuals}
    signature = Signature(concepts=frozenset(concepts), roles=frozenset(roles),
                          individuals=frozenset(individuals),
                          standpoints=frozenset())
    return PlainKB(axioms=tuple(axioms), signature=signature, base_iri=iri)
