"""Syntactic domain types for standpoint-enhanced description logic.

The vocabulary is split into concept, role and individual names (IRIs) plus
standpoint names (plain tokens, ``*`` being the universal standpoint).
Concept and role expressions follow the usual expressive description logic
grammar: Boolean operators, quantified and qualified-number restrictions,
Self, nominals, inverse roles and the universal role.  Axioms are general
concept inclusions (GCIs), equivalences, and role inclusion axioms (RIAs)
over role chains.

Standpoint formulas are Boolean combinations of (possibly negated, possibly
modalised) GCI/equivalence atoms: ``Box(e, f)`` reads "unequivocal according
to e", ``Diamond(e, f)`` "conceivable according to e", where ``e`` is a
standpoint expression built from names with union, intersection and
difference.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Union

from .errors import CyclicRoleOrder, MalformedRIA, NonSimpleInRestriction

# The one rule for standpoint names, which every parser checks: a letter,
# then letters and digits.  Axiom names follow it after their leading §.
STANDPOINT_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")
UNIVERSAL_STANDPOINT = "*"

_KINDS = ("concept", "role", "individual", "standpoint")


@dataclass(frozen=True)
class EntityName:
    """A named entity: kind, local name, and namespace IRI prefix.

    The full IRI is ``base + local``.  Standpoint names carry no namespace
    until translation turns them into marker concepts; by convention their
    ``base`` is the empty string.
    """

    kind: str
    local: str
    base: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"bad entity kind {self.kind!r}")
        if not self.local:
            raise ValueError("empty local name")
        if self.kind == "standpoint" and self.local != UNIVERSAL_STANDPOINT \
                and not STANDPOINT_NAME_RE.match(self.local):
            raise ValueError(f"bad standpoint name {self.local!r}")

    @property
    def iri(self) -> str:
        return self.base + self.local

    def __repr__(self):
        return f"{self.kind[0]}:{self.local}"


def concept_name(local: str, base: str = "") -> EntityName:
    return EntityName("concept", local, base)


def role_name(local: str, base: str = "") -> EntityName:
    return EntityName("role", local, base)


def individual_name(local: str, base: str = "") -> EntityName:
    return EntityName("individual", local, base)


def standpoint_entity(local: str) -> EntityName:
    return EntityName("standpoint", local, "")


# ---------------------------------------------------------------------------
# Role expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoleName:
    name: EntityName


@dataclass(frozen=True)
class InverseRole:
    """Inverse of a named role; only simple roles may be inverted."""
    name: EntityName


@dataclass(frozen=True)
class UniversalRole:
    """The universal role, interpreted as the full binary relation."""


RoleExpr = Union[RoleName, InverseRole, UniversalRole]
UNIVERSAL = UniversalRole()


# ---------------------------------------------------------------------------
# Concept expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConceptName:
    name: EntityName


@dataclass(frozen=True)
class Nominal:
    individual: EntityName


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Not:
    arg: "ConceptExpr"


@dataclass(frozen=True)
class And:
    lhs: "ConceptExpr"
    rhs: "ConceptExpr"


@dataclass(frozen=True)
class Or:
    lhs: "ConceptExpr"
    rhs: "ConceptExpr"


@dataclass(frozen=True)
class All:
    role: RoleExpr
    filler: "ConceptExpr"


@dataclass(frozen=True)
class Some:
    role: RoleExpr
    filler: "ConceptExpr"


@dataclass(frozen=True)
class HasSelf:
    role: RoleExpr


@dataclass(frozen=True)
class AtMost:
    n: int
    role: RoleExpr
    filler: "ConceptExpr"

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("cardinality must be non-negative")


@dataclass(frozen=True)
class AtLeast:
    n: int
    role: RoleExpr
    filler: "ConceptExpr"

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("cardinality must be non-negative")


ConceptExpr = Union[ConceptName, Nominal, Top, Bottom, Not, And, Or,
                    All, Some, HasSelf, AtMost, AtLeast]
TOP = Top()
BOTTOM = Bottom()


# ---------------------------------------------------------------------------
# Axioms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gci:
    """General concept inclusion lhs ⊑ rhs."""
    lhs: ConceptExpr
    rhs: ConceptExpr


@dataclass(frozen=True)
class Equiv:
    """Concept equivalence, kept as its own variant so the translator can
    expand it to two inclusions and the serializer can round-trip it."""
    lhs: ConceptExpr
    rhs: ConceptExpr


@dataclass(frozen=True)
class Ria:
    """Role inclusion axiom chain[0] ∘ … ∘ chain[-1] ⊑ head."""
    chain: tuple[RoleExpr, ...]
    head: EntityName

    def __post_init__(self):
        if not self.chain:
            raise ValueError("empty role chain")


PlainAxiom = Union[Gci, Equiv, Ria]
TBoxAxiom = Union[Gci, Equiv]


# ---------------------------------------------------------------------------
# Standpoint expressions and formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Star:
    """The universal standpoint, comprising all precisifications."""


@dataclass(frozen=True)
class NamedStandpoint:
    name: str

    def __post_init__(self):
        if not STANDPOINT_NAME_RE.match(self.name):
            raise ValueError(f"bad standpoint name {self.name!r}")


@dataclass(frozen=True)
class SpUnion:
    lhs: "StandpointExpr"
    rhs: "StandpointExpr"


@dataclass(frozen=True)
class SpIntersection:
    lhs: "StandpointExpr"
    rhs: "StandpointExpr"


@dataclass(frozen=True)
class SpMinus:
    lhs: "StandpointExpr"
    rhs: "StandpointExpr"


StandpointExpr = Union[Star, NamedStandpoint, SpUnion, SpIntersection, SpMinus]
STAR = Star()


@dataclass(frozen=True)
class Atom:
    """A plain TBox axiom used as a propositional atom."""
    axiom: TBoxAxiom

    def __post_init__(self):
        if isinstance(self.axiom, Ria):
            raise ValueError("role axioms cannot appear inside standpoint formulas")


@dataclass(frozen=True)
class AxiomRef:
    """Reference to a named standpoint axiom (the leading § is stripped)."""
    name: str


@dataclass(frozen=True)
class Negation:
    arg: "StandpointFormula"


@dataclass(frozen=True)
class Conjunction:
    lhs: "StandpointFormula"
    rhs: "StandpointFormula"


@dataclass(frozen=True)
class Disjunction:
    lhs: "StandpointFormula"
    rhs: "StandpointFormula"


@dataclass(frozen=True)
class Box:
    standpoint: StandpointExpr
    arg: "StandpointFormula"


@dataclass(frozen=True)
class Diamond:
    standpoint: StandpointExpr
    arg: "StandpointFormula"


StandpointFormula = Union[Atom, AxiomRef, Negation, Conjunction, Disjunction, Box, Diamond]


# ---------------------------------------------------------------------------
# Signatures and knowledge bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Signature:
    concepts: frozenset[EntityName] = frozenset()
    roles: frozenset[EntityName] = frozenset()
    individuals: frozenset[EntityName] = frozenset()
    standpoints: frozenset[str] = frozenset({UNIVERSAL_STANDPOINT})

    def union(self, other: "Signature") -> "Signature":
        return Signature(self.concepts | other.concepts,
                         self.roles | other.roles,
                         self.individuals | other.individuals,
                         self.standpoints | other.standpoints)


@dataclass(frozen=True)
class StandpointKB:
    """A standpoint-annotated knowledge base.

    ``plain_axioms`` are implicitly universal (they hold at every
    precisification); ``formulas`` are top-level standpoint formulas
    (Boolean combinations, operator-annotated axioms and desugared
    sharpenings); ``named_axioms`` hold the referenceable standpoint axioms,
    which are only translated where a Boolean combination mentions them.
    """

    rias: tuple[Ria, ...] = ()
    plain_axioms: tuple[TBoxAxiom, ...] = ()
    formulas: tuple[StandpointFormula, ...] = ()
    named_axioms: Mapping[str, StandpointFormula] = field(default_factory=dict)
    signature: Signature = Signature()
    base_iri: str = ""


@dataclass(frozen=True)
class PlainKB:
    """Standpoint-free output of the translation: axioms over the mangled
    per-precisification signature plus the universal role."""

    axioms: tuple[PlainAxiom, ...] = ()
    signature: Signature = Signature()
    base_iri: str = ""


def make_kb(rias=(), plain_axioms=(), formulas=(), named_axioms=None,
            base_iri="", declared: Signature | None = None) -> StandpointKB:
    """Build a StandpointKB with its signature computed from the contents
    (plus any explicitly declared names)."""
    named_axioms = dict(named_axioms or {})
    kb = StandpointKB(rias=tuple(rias), plain_axioms=tuple(plain_axioms),
                      formulas=tuple(formulas), named_axioms=named_axioms,
                      base_iri=base_iri)
    sig = signature_of(kb)
    if declared is not None:
        sig = sig.union(declared)
    return StandpointKB(kb.rias, kb.plain_axioms, kb.formulas,
                        named_axioms, sig, base_iri)


# ---------------------------------------------------------------------------
# Generic walkers
# ---------------------------------------------------------------------------

def walk_role_exprs(x) -> Iterator[RoleExpr]:
    """Yield every role expression occurring in a role/concept/axiom/formula."""
    if isinstance(x, (RoleName, InverseRole, UniversalRole)):
        yield x
    elif isinstance(x, (All, Some)):
        yield x.role
        yield from walk_role_exprs(x.filler)
    elif isinstance(x, HasSelf):
        yield x.role
    elif isinstance(x, (AtMost, AtLeast)):
        yield x.role
        yield from walk_role_exprs(x.filler)
    elif isinstance(x, Not):
        yield from walk_role_exprs(x.arg)
    elif isinstance(x, (And, Or)):
        yield from walk_role_exprs(x.lhs)
        yield from walk_role_exprs(x.rhs)
    elif isinstance(x, (Gci, Equiv)):
        yield from walk_role_exprs(x.lhs)
        yield from walk_role_exprs(x.rhs)
    elif isinstance(x, Ria):
        yield from x.chain
        yield RoleName(x.head)
    elif isinstance(x, Atom):
        yield from walk_role_exprs(x.axiom)
    elif isinstance(x, Negation):
        yield from walk_role_exprs(x.arg)
    elif isinstance(x, (Conjunction, Disjunction)):
        yield from walk_role_exprs(x.lhs)
        yield from walk_role_exprs(x.rhs)
    elif isinstance(x, (Box, Diamond)):
        yield from walk_role_exprs(x.arg)


def walk_restriction_roles(x) -> Iterator[RoleExpr]:
    """Yield role expressions in positions that require simple roles
    (Self and qualified number restrictions)."""
    if isinstance(x, HasSelf):
        yield x.role
    elif isinstance(x, (AtMost, AtLeast)):
        yield x.role
        yield from walk_restriction_roles(x.filler)
    elif isinstance(x, Not):
        yield from walk_restriction_roles(x.arg)
    elif isinstance(x, (And, Or)):
        yield from walk_restriction_roles(x.lhs)
        yield from walk_restriction_roles(x.rhs)
    elif isinstance(x, (All, Some)):
        yield from walk_restriction_roles(x.filler)
    elif isinstance(x, (Gci, Equiv)):
        yield from walk_restriction_roles(x.lhs)
        yield from walk_restriction_roles(x.rhs)
    elif isinstance(x, Atom):
        yield from walk_restriction_roles(x.axiom)
    elif isinstance(x, Negation):
        yield from walk_restriction_roles(x.arg)
    elif isinstance(x, (Conjunction, Disjunction)):
        yield from walk_restriction_roles(x.lhs)
        yield from walk_restriction_roles(x.rhs)
    elif isinstance(x, (Box, Diamond)):
        yield from walk_restriction_roles(x.arg)


def walk_atoms(f: StandpointFormula) -> Iterator[Atom]:
    if isinstance(f, Atom):
        yield f
    elif isinstance(f, Negation):
        yield from walk_atoms(f.arg)
    elif isinstance(f, (Conjunction, Disjunction)):
        yield from walk_atoms(f.lhs)
        yield from walk_atoms(f.rhs)
    elif isinstance(f, (Box, Diamond)):
        yield from walk_atoms(f.arg)


def walk_refs(f: StandpointFormula) -> Iterator[AxiomRef]:
    if isinstance(f, AxiomRef):
        yield f
    elif isinstance(f, Negation):
        yield from walk_refs(f.arg)
    elif isinstance(f, (Conjunction, Disjunction)):
        yield from walk_refs(f.lhs)
        yield from walk_refs(f.rhs)
    elif isinstance(f, (Box, Diamond)):
        yield from walk_refs(f.arg)


def walk_standpoint_exprs(f: StandpointFormula) -> Iterator[StandpointExpr]:
    if isinstance(f, Negation):
        yield from walk_standpoint_exprs(f.arg)
    elif isinstance(f, (Conjunction, Disjunction)):
        yield from walk_standpoint_exprs(f.lhs)
        yield from walk_standpoint_exprs(f.rhs)
    elif isinstance(f, (Box, Diamond)):
        yield f.standpoint
        yield from walk_standpoint_exprs(f.arg)


def standpoint_names_in(e: StandpointExpr) -> Iterator[str]:
    if isinstance(e, Star):
        yield UNIVERSAL_STANDPOINT
    elif isinstance(e, NamedStandpoint):
        yield e.name
    else:
        yield from standpoint_names_in(e.lhs)
        yield from standpoint_names_in(e.rhs)


def _collect_entity_names(x, concepts: set, roles: set, individuals: set):
    if isinstance(x, ConceptName):
        concepts.add(x.name)
    elif isinstance(x, Nominal):
        individuals.add(x.individual)
    elif isinstance(x, Not):
        _collect_entity_names(x.arg, concepts, roles, individuals)
    elif isinstance(x, (And, Or)):
        _collect_entity_names(x.lhs, concepts, roles, individuals)
        _collect_entity_names(x.rhs, concepts, roles, individuals)
    elif isinstance(x, (All, Some, AtMost, AtLeast)):
        _collect_role(x.role, roles)
        _collect_entity_names(x.filler, concepts, roles, individuals)
    elif isinstance(x, HasSelf):
        _collect_role(x.role, roles)
    elif isinstance(x, (Gci, Equiv)):
        _collect_entity_names(x.lhs, concepts, roles, individuals)
        _collect_entity_names(x.rhs, concepts, roles, individuals)
    elif isinstance(x, Ria):
        for r in x.chain:
            _collect_role(r, roles)
        roles.add(x.head)


def _collect_role(r: RoleExpr, roles: set):
    if isinstance(r, (RoleName, InverseRole)):
        roles.add(r.name)


def rebase_names(x, base: str):
    """Copy of an axiom/expression with every entity name moved to ``base``."""
    if isinstance(x, EntityName):
        return EntityName(x.kind, x.local, base)
    if isinstance(x, ConceptName):
        return ConceptName(rebase_names(x.name, base))
    if isinstance(x, Nominal):
        return Nominal(rebase_names(x.individual, base))
    if isinstance(x, Not):
        return Not(rebase_names(x.arg, base))
    if isinstance(x, (And, Or)):
        return type(x)(rebase_names(x.lhs, base), rebase_names(x.rhs, base))
    if isinstance(x, (All, Some)):
        return type(x)(rebase_names(x.role, base), rebase_names(x.filler, base))
    if isinstance(x, HasSelf):
        return HasSelf(rebase_names(x.role, base))
    if isinstance(x, (AtMost, AtLeast)):
        return type(x)(x.n, rebase_names(x.role, base), rebase_names(x.filler, base))
    if isinstance(x, (RoleName, InverseRole)):
        return type(x)(rebase_names(x.name, base))
    if isinstance(x, UniversalRole):
        return x
    if isinstance(x, (Gci, Equiv)):
        return type(x)(rebase_names(x.lhs, base), rebase_names(x.rhs, base))
    if isinstance(x, Ria):
        return Ria(tuple(rebase_names(r, base) for r in x.chain),
                   rebase_names(x.head, base))
    return x  # Top / Bottom


def entity_names_in(x) -> Iterator[EntityName]:
    """Concept/role/individual names in an axiom or expression, in first
    left-to-right occurrence order (each yielded once)."""
    seen: set[EntityName] = set()

    def walk(node):
        if isinstance(node, ConceptName):
            emit(node.name)
        elif isinstance(node, Nominal):
            emit(node.individual)
        elif isinstance(node, Not):
            walk(node.arg)
        elif isinstance(node, (And, Or, Gci, Equiv)):
            walk(node.lhs)
            walk(node.rhs)
        elif isinstance(node, (All, Some, AtMost, AtLeast)):
            walk(node.role)
            walk(node.filler)
        elif isinstance(node, HasSelf):
            walk(node.role)
        elif isinstance(node, (RoleName, InverseRole)):
            emit(node.name)
        elif isinstance(node, Ria):
            for r in node.chain:
                walk(r)
            emit(node.head)

    out: list[EntityName] = []

    def emit(name):
        if name not in seen:
            seen.add(name)
            out.append(name)

    walk(x)
    yield from out


def signature_of(kb: StandpointKB) -> Signature:
    """The exact sets of names occurring anywhere in the KB, including inside
    annotations-turned-formulas and standpoint expressions.  The universal
    standpoint ``*`` is always present."""
    concepts: set[EntityName] = set()
    roles: set[EntityName] = set()
    individuals: set[EntityName] = set()
    standpoints: set[str] = {UNIVERSAL_STANDPOINT}
    for ax in list(kb.rias) + list(kb.plain_axioms):
        _collect_entity_names(ax, concepts, roles, individuals)
    for f in list(kb.formulas) + list(kb.named_axioms.values()):
        for atom in walk_atoms(f):
            _collect_entity_names(atom.axiom, concepts, roles, individuals)
        for e in walk_standpoint_exprs(f):
            standpoints.update(standpoint_names_in(e))
    return Signature(frozenset(concepts), frozenset(roles),
                     frozenset(individuals), frozenset(standpoints))


# ---------------------------------------------------------------------------
# Role validation: simplicity and regularity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoleValidationReport:
    """Simple/non-simple partition plus the strict order induced by RIAs.

    ``order`` is the transitive closure of the chain-element-below-head
    relation, witnessing that the RIA set is regular.
    """

    simple: frozenset[EntityName]
    non_simple: frozenset[EntityName]
    order: frozenset[tuple[EntityName, EntityName]]

    def is_simple(self, role: RoleExpr) -> bool:
        if isinstance(role, UniversalRole):
            return False
        return role.name not in self.non_simple


def _role_base(r: RoleExpr) -> EntityName | None:
    """Underlying role name of a chain element; None for the universal role."""
    if isinstance(r, (RoleName, InverseRole)):
        return r.name
    return None


def validate_roles(kb: StandpointKB | PlainKB) -> RoleValidationReport:
    """Classify roles, build the strict order, and check regularity.

    A role is non-simple iff it is the universal role or heads some RIA whose
    chain is not exactly that single role.  The order relates every chain
    element other than the head to the head; it must be irreflexive after
    transitive closure.  Head occurrences inside chains are only allowed at
    the very front, at the very end, or as the transitivity pattern head∘head.
    """
    if isinstance(kb, PlainKB):
        rias = tuple(a for a in kb.axioms if isinstance(a, Ria))
        exprs: list = [a for a in kb.axioms if not isinstance(a, Ria)]
        all_roles = set(kb.signature.roles)
    else:
        rias = kb.rias
        exprs = list(kb.plain_axioms) + list(kb.formulas) + list(kb.named_axioms.values())
        all_roles = set(kb.signature.roles)

    non_simple: set[EntityName] = set()
    pairs: set[tuple[EntityName, EntityName]] = set()
    for ria in rias:
        all_roles.add(ria.head)
        all_roles.update(n for n in map(_role_base, ria.chain) if n is not None)
        if list(ria.chain) != [RoleName(ria.head)]:
            non_simple.add(ria.head)
        head_positions = [i for i, r in enumerate(ria.chain)
                          if isinstance(r, RoleName) and r.name == ria.head]
        n = len(ria.chain)
        if head_positions:
            transitivity = (n == 2 and len(head_positions) == 2)
            front_only = head_positions == [0]
            end_only = head_positions == [n - 1]
            single = (n == 1)
            if not (transitivity or front_only or end_only or single):
                raise MalformedRIA(
                    f"head {ria.head.local!r} occurs mid-chain in an unsupported shape")
        for r in ria.chain:
            base = _role_base(r)
            if base is not None and base != ria.head:
                pairs.add((base, ria.head))

    # Transitive closure and irreflexivity of the induced order.
    closure = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    for (a, b) in closure:
        if a == b:
            raise CyclicRoleOrder(f"role order has a cycle through {a.local!r}")

    # Simple-role side conditions across every concept expression in the KB.
    for x in exprs:
        for role in walk_restriction_roles(x):
            if isinstance(role, UniversalRole) or _role_base(role) in non_simple:
                raise NonSimpleInRestriction(
                    "Self/number restriction over a non-simple role")
        for role in walk_role_exprs(x):
            if isinstance(role, InverseRole) and role.name in non_simple:
                raise NonSimpleInRestriction(
                    f"inverse of non-simple role {role.name.local!r}")
    for ria in rias:
        for role in ria.chain:
            if isinstance(role, InverseRole) and role.name in non_simple:
                raise NonSimpleInRestriction(
                    f"inverse of non-simple role {role.name.local!r}")

    simple = frozenset(r for r in all_roles if r not in non_simple)
    return RoleValidationReport(simple=simple,
                                non_simple=frozenset(non_simple),
                                order=frozenset(closure))
