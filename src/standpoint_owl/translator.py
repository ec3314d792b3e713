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
inside a Boolean combination the conjunction over all indices of
guard-implies-body, and a diamond the guard and body at its own witness
index: ``translate_kb`` numbers the diamond occurrences 0 … D-1 in
preorder across the formulas, and every copy of a formula reuses them.
Each diamond needs only one witness precisification (which is why p = D),
so the output is equisatisfiable with the input, though not
index-equivalent to it; the public ``trans`` keeps the p-way disjunction
⊔_k guard_k ⊓ body_k as the reference encoding.

A top-level box or bare atom is asserted as one ordinary axiom per index
instead: a box [e]φ is G_k ⊑ trans(k, φ), with G_k the guard of e at k,
and over an atom C ⊑ D the absorbable GCI C__k ⊓ G_k ⊑ D__k (an equivalence
C ≡ D gives C__k ⊓ G_k ≡ D__k ⊓ G_k).  This says the same as the guarded
conjunction because G_k is built from ∀u markers, so it holds everywhere
or nowhere.  The guard of a bare ``*`` is dropped and ⊤ ⊓ X folds to X,
so ``[*](C ⊑ D)`` and a bare atom become C__k ⊑ D__k and a sharpening
G_k ⊑ ⊥.  Unannotated axioms and role chains are emitted once per index
over the renamed vocabulary, which is equivalent to their guarded
universal-standpoint translation because the universal marker is forced to
be total.

Every per-index group of axioms (the universal markers, a top-level box
or bare atom, a formula with a bare atom, a plain axiom, a role chain) is
one ``Family``: its template is translated once, at INDEX_SENTINEL in
place of the index, and copy k reads k there.  Witness indices of
diamonds are fixed numbers inside the template.  A purely modal formula
is a family of one copy.  The signature is held the same way: each input
name once, at the sentinel, with p copies.  ``PlainKB.axioms`` and
``PlainKB.signature`` expand them; the serializer renders each template
once and makes each declared copy as a string.

A translated KB shares immutable subtrees: each mangled name, its wrappers,
each marker and each guard is built once per ``translate_kb`` call and
reused wherever it recurs in the families.
"""

from __future__ import annotations

from itertools import count

from .errors import ReservedName, UnresolvedRef
from .model import (All, And, Atom, AtLeast, AtMost, Box, ConceptExpr,
                    ConceptName, Conjunction, Diamond, Disjunction,
                    EntityName, Equiv, Family, Gci, HasSelf, INDEX_SENTINEL,
                    Negation, Nominal, Not, Or, PlainKB, Ria, RoleExpr,
                    Signature, Some, SpIntersection, SpMinus, SpUnion, STAR, Star,
                    StandpointExpr, StandpointFormula, StandpointKB, TOP, Top,
                    UNIVERSAL, UniversalRole, iter_nodes,
                    standpoint_entity, walk_refs)
from .normalizer import _check_no_nesting, count_precisifications, diamond_count

STAR_TOKEN = "STAR"


def mangle(name: EntityName, pi: int | str, base: str) -> EntityName:
    """Fresh per-precisification name: concepts/roles get an __π suffix,
    standpoints become SP__ marker concepts, individuals are rebased only.
    ``pi`` is an index or INDEX_SENTINEL."""
    if "__" in name.local:
        raise ReservedName(f"{name.local!r} already contains '__'")
    if INDEX_SENTINEL in name.local:
        raise ReservedName(f"{name.local!r} contains the index sentinel")
    if name.kind == "standpoint":
        token = STAR_TOKEN if name.local == "*" else name.local
        return EntityName("concept", f"SP__{token}__{pi}", base)
    if name.kind == "individual":
        return EntityName("individual", name.local, base)
    return EntityName(name.kind, f"{name.local}__{pi}", base)


def output_namespaces(kb: StandpointKB, iri: str) -> dict:
    """The output namespace of every input base other than the document's
    default one: ``<iri>/ns<k>#``, numbered from 1 in sorted base order.
    Names in the default namespace, and the markers, go to ``<iri>#``."""
    sig = kb.signature
    bases = {n.base for names in (sig.concepts, sig.roles, sig.individuals)
             for n in names}
    bases.discard(kb.namespace)
    return {base: f"{iri}/ns{k}#" for k, base in enumerate(sorted(bases), start=1)}


class _Interner:
    """The leaves one translation repeats, each built once.

    Every box and diamond expands into guarded copies, so the same mangled
    names and guards recur across axioms and precisifications.  A
    table lives for one ``translate_kb`` call (or one call of a public
    helper) and hands out the same frozen node for equal requests, which
    keeps the output tree free of duplicate leaves without any state that
    outlives the call.  Entries are keyed on what the result depends on:
    the wrapper class (None for a bare name), the kind, input base and
    local part of a name and the index (a number or INDEX_SENTINEL), which
    individuals ignore.  ``namespaces`` maps input bases to their output
    namespace; every other base, and the markers, go to ``base``.
    """

    def __init__(self, base: str, namespaces: dict | None = None):
        self.base = base
        self.namespaces = namespaces or {}
        self.names: dict = {}
        self.guards: dict = {}

    def name(self, name: EntityName, pi: int, ctor=None):
        """The mangled name, or ``ctor`` of it, such as its ConceptName."""
        key = (ctor, name.kind, name.base, name.local,
               0 if name.kind == "individual" else pi)
        out = self.names.get(key)
        if out is None:
            if ctor is not None:
                out = ctor(self.name(name, pi))
            else:
                base = (self.base if name.kind == "standpoint"
                        else self.namespaces.get(name.base, self.base))
                out = mangle(name, pi, base)
            self.names[key] = out
        return out

    def role(self, role: RoleExpr, pi: int) -> RoleExpr:
        if isinstance(role, UniversalRole):
            return role
        return self.name(role.name, pi, type(role))

    def concept(self, c: ConceptExpr, pi: int) -> ConceptExpr:
        if isinstance(c, ConceptName):
            return self.name(c.name, pi, ConceptName)
        if isinstance(c, Nominal):
            return self.name(c.individual, pi, Nominal)
        if isinstance(c, Not):
            return Not(self.concept(c.arg, pi))
        if isinstance(c, (And, Or)):
            # each part keeps its class, so the copy keeps the shape
            return type(c)(*[self.concept(part, pi) for part in c.parts])
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
        return All(UNIVERSAL, self.name(marker, pi, ConceptName))

    def trans(self, pi: int, f: StandpointFormula, p: int,
              diamonds=None) -> ConceptExpr:
        """``diamonds`` hands out the witness index of each diamond in
        preorder; without it a diamond is the p-way reference disjunction."""
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
            raise ValueError("formula is not in negation normal form")
        if isinstance(f, Conjunction):
            return And(self.trans(pi, f.lhs, p, diamonds),
                       self.trans(pi, f.rhs, p, diamonds))
        if isinstance(f, Disjunction):
            return Or(self.trans(pi, f.lhs, p, diamonds),
                      self.trans(pi, f.rhs, p, diamonds))
        if isinstance(f, Box):
            _check_no_nesting(f.arg, True)
            parts = [Or(Not(self.guard(f.standpoint, k)), self.trans(k, f.arg, p))
                     for k in range(p)]
            return And(*parts) if p > 1 else parts[0]
        if isinstance(f, Diamond):
            _check_no_nesting(f.arg, True)
            if diamonds is not None:
                d = next(diamonds)
                return And(self.guard(f.standpoint, d), self.trans(d, f.arg, p))
            parts = [And(self.guard(f.standpoint, k), self.trans(k, f.arg, p))
                     for k in range(p)]
            return Or(*parts) if p > 1 else parts[0]
        raise UnresolvedRef(f.name)


def trans_e(pi: int, e: StandpointExpr, base: str = "") -> ConceptExpr:
    """Guard expression that is total exactly when precisification pi
    belongs to the standpoint expression."""
    return _Interner(base).guard(e, pi)


def trans(pi: int, f: StandpointFormula, p: int, base: str = "") -> ConceptExpr:
    """Translate a normal-form standpoint formula at precisification pi,
    each diamond as the disjunction over all p indices (the reference
    encoding; ``translate_kb`` gives each diamond its own index)."""
    return _Interner(base).trans(pi, f, p)


def _has_bare_atom(f: StandpointFormula) -> bool:
    """True when some atom sits outside every modality, making the
    translation index-dependent."""
    return any(type(node) is Atom for node in iter_nodes(f, (Atom, Box, Diamond)))


def _per_index_axiom(table: _Interner, f: StandpointFormula, p: int):
    """The template of the axioms a top-level box or bare atom asserts at
    each index (see the module docstring)."""
    k, g = INDEX_SENTINEL, None
    if type(f) is Box:
        _check_no_nesting(f.arg, True)
        if type(f.standpoint) is not Star:
            g = table.guard(f.standpoint, k)
        f = f.arg
    if type(f) is not Atom:
        return Gci(TOP if g is None else g, table.trans(k, f, p))
    ax = f.axiom
    lhs, rhs = table.concept(ax.lhs, k), table.concept(ax.rhs, k)
    if g is not None:
        lhs = _meet(lhs, g)
        if type(ax) is Equiv:
            rhs = _meet(rhs, g)
    return type(ax)(lhs, rhs)


def _meet(c: ConceptExpr, guard: ConceptExpr) -> ConceptExpr:
    return guard if type(c) is Top else And(c, guard)


def output_iri(kb: StandpointKB) -> str:
    return kb.base_iri + "/translated" if kb.base_iri else "translated"


def translate_kb(kb: StandpointKB, p: int | None = None,
                 base_iri: str | None = None) -> PlainKB:
    """Translate a validated, reference-free, normal-form KB.

    ``p`` may be forced upward (never below the computed bound) to study
    growth.  Names in the KB's default namespace move to the output
    ontology's namespace and every other input base to its own one (see
    ``output_namespaces``), so distinct names stay distinct.  The
    families come in a deterministic order: the p universal-standpoint
    markers first, then one family per formula (p per-index axioms for a
    top-level box or atom, one copy for other purely modal formulas, p
    copies otherwise), then p copies of each plain axiom, then p copies of
    each role chain.  The declared names are the input names at the
    sentinel, with p copies (see ``PlainKB``).
    Diamond occurrence d, in preorder across the formulas, is translated
    at index d only.
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
    table = _Interner(iri + "#", output_namespaces(kb, iri))

    k = INDEX_SENTINEL  # every family is built once, at the sentinel index
    families = [Family(Gci(TOP, table.guard(STAR, k)), p)]
    first = 0  # the witness index of the formula's first diamond
    for f in kb.formulas:
        if type(f) in (Atom, Box):  # no diamond inside, so ``first`` stays
            families.append(Family(_per_index_axiom(table, f, p), p))
            continue
        template = Gci(TOP, table.trans(k, f, p, count(first)))
        families.append(Family(template, p if _has_bare_atom(f) else 1))
        first += diamond_count(f)
    for ax in kb.plain_axioms:
        families.append(Family(type(ax)(table.concept(ax.lhs, k),
                                        table.concept(ax.rhs, k)), p))
    for ria in kb.rias:
        families.append(Family(Ria(tuple(table.role(r, k) for r in ria.chain),
                                   table.name(ria.head, k)), p))

    sig = kb.signature
    markers = [table.name(standpoint_entity(s), k) for s in sig.standpoints]
    names = Signature(
        concepts=frozenset([table.name(c, k) for c in sig.concepts] + markers),
        roles=frozenset(table.name(r, k) for r in sig.roles),
        individuals=frozenset(table.name(i, k) for i in sig.individuals),
        standpoints=frozenset())
    return PlainKB(tuple(families), names, iri, copies=p)
