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
is a family of one copy.  A box [e]φ inside a Boolean combination is a
family as well, held in the concept where the box sits: its template,
¬G_k ⊔ trans(k, φ) with the sentinel for its own index k, is built once
and stands for the conjunction of its p copies (at p = 1 the box is its
one copy, built as it is).  The signature is held the same way: each input
name once, at the sentinel, with p copies.  ``PlainKB.axioms`` and
``PlainKB.signature`` expand them; the serializer renders each template
once and makes each declared copy as a string.

Names are copied through the model's child table (``_Interner.copy``),
so a constructor added to the model needs no change here.  A translated KB
shares immutable subtrees: each mangled name, its wrappers, each marker
and each guard is built once per ``translate_kb`` call and reused wherever
it recurs in the families.
"""

from __future__ import annotations

from itertools import count

from .errors import NestedModality, ReservedName, UnresolvedRef
from .model import (All, And, Atom, Box, ConceptExpr, ConceptName,
                    Conjunction, Diamond, Disjunction, EntityName, Equiv,
                    Family, Gci, INDEX_SENTINEL, InverseRole, Negation,
                    Nominal, Not, Or, PlainKB, RoleName, Signature, Some,
                    SpIntersection, SpMinus, SpUnion, STAR, Star, STAR_TOKEN,
                    StandpointExpr, StandpointFormula, StandpointKB, TOP, Top,
                    UNIVERSAL, children, iter_nodes, rebuild,
                    signature_bases, standpoint_entity)
from .normalizer import count_precisifications


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
    bases = signature_bases(kb.signature)
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

    def copy(self, x, pi: int):
        """``x`` over the names at ``pi``: a name, bare or in its wrapper,
        becomes its interned copy from ``name``; any other node is rebuilt
        around its copied children (``model.children``, ``model.rebuild``),
        and a leaf (⊤, ⊥, the universal role) is kept.  A loop, not a
        comprehension: one frame per level, as the parser and the
        serializer use, so what parses also translates."""
        cls = type(x)
        if cls is EntityName:
            return self.name(x, pi)
        if cls in (ConceptName, RoleName, InverseRole):
            return self.name(x.name, pi, cls)
        if cls is Nominal:
            return self.name(x.individual, pi, Nominal)
        kids = []
        for kid in children(x):
            kids.append(self.copy(kid, pi))
        return rebuild(x, kids) if kids else x

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
              diamonds=None, inside: bool = False) -> ConceptExpr:
        """``diamonds`` hands out the witness index of each diamond in
        preorder, and with it a box (for p > 1) is one ``Family`` of p
        copies of its guarded body, built once at INDEX_SENTINEL.  Without
        it a diamond is the p-way reference disjunction and a box the p-way
        conjunction, built concretely.  ``inside`` is true in the scope of
        a modality, where another one is rejected."""
        if isinstance(f, Atom):
            ax = f.axiom
            if isinstance(ax, Equiv):
                return And(self.trans(pi, Atom(Gci(ax.lhs, ax.rhs)), p),
                           self.trans(pi, Atom(Gci(ax.rhs, ax.lhs)), p))
            return All(UNIVERSAL, Or(Not(self.copy(ax.lhs, pi)),
                                     self.copy(ax.rhs, pi)))
        if isinstance(f, Negation):
            g = f.arg
            if isinstance(g, Atom) and isinstance(g.axiom, Gci):
                return Some(UNIVERSAL, And(self.copy(g.axiom.lhs, pi),
                                           Not(self.copy(g.axiom.rhs, pi))))
            raise ValueError("formula is not in negation normal form")
        if isinstance(f, Conjunction):
            return And(self.trans(pi, f.lhs, p, diamonds, inside),
                       self.trans(pi, f.rhs, p, diamonds, inside))
        if isinstance(f, Disjunction):
            return Or(self.trans(pi, f.lhs, p, diamonds, inside),
                      self.trans(pi, f.rhs, p, diamonds, inside))
        if isinstance(f, (Box, Diamond)) and inside:
            raise NestedModality("standpoint modality in the scope of another")
        if isinstance(f, Box):
            def guarded(k):
                return Or(Not(self.guard(f.standpoint, k)),
                          self.trans(k, f.arg, p, inside=True))
            if p == 1:
                return guarded(0)
            if diamonds is not None:
                return Family(guarded(INDEX_SENTINEL), p)
            return And(*[guarded(k) for k in range(p)])
        if isinstance(f, Diamond):
            if diamonds is not None:
                d = next(diamonds)
                return And(self.guard(f.standpoint, d),
                           self.trans(d, f.arg, p, inside=True))
            parts = [And(self.guard(f.standpoint, k),
                         self.trans(k, f.arg, p, inside=True)) for k in range(p)]
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
        if type(f.standpoint) is not Star:
            g = table.guard(f.standpoint, k)
        f = f.arg
    if type(f) is not Atom:
        # only a box's argument gets here
        return Gci(TOP if g is None else g, table.trans(k, f, p, inside=True))
    ax = f.axiom
    if g is None:
        return table.copy(ax, k)
    lhs, rhs = table.copy(ax.lhs, k), table.copy(ax.rhs, k)
    return type(ax)(_meet(lhs, g), _meet(rhs, g) if type(ax) is Equiv else rhs)


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
    at index d only.  A §-reference or a nested modality is rejected where
    the translation meets it.
    """
    p_min = count_precisifications(kb)
    if p is None:
        p = p_min
    elif p < p_min:
        raise ValueError(f"p={p} below the required bound {p_min}")
    iri = base_iri if base_iri is not None else output_iri(kb)
    table = _Interner(iri + "#", output_namespaces(kb, iri))

    k = INDEX_SENTINEL  # every family is built once, at the sentinel index
    families = [Family(Gci(TOP, table.guard(STAR, k)), p)]
    diamonds = count()  # the witness indices, in preorder across the formulas
    for f in kb.formulas:
        if type(f) in (Atom, Box):  # no diamond inside
            families.append(Family(_per_index_axiom(table, f, p), p))
            continue
        template = Gci(TOP, table.trans(k, f, p, diamonds))
        families.append(Family(template, p if _has_bare_atom(f) else 1))
    for ax in (*kb.plain_axioms, *kb.rias):
        families.append(Family(table.copy(ax, k), p))

    sig = kb.signature
    markers = [table.name(standpoint_entity(s), k) for s in sig.standpoints]
    names = Signature(
        concepts=frozenset([table.name(c, k) for c in sig.concepts] + markers),
        roles=frozenset(table.name(r, k) for r in sig.roles),
        individuals=frozenset(table.name(i, k) for i in sig.individuals),
        standpoints=frozenset())
    return PlainKB(tuple(families), names, iri, copies=p)
