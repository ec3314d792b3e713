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
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import islice
from operator import is_
from typing import Iterator, Mapping, Union

from .errors import (BadName, CyclicRoleOrder, MalformedRIA,
                     NonSimpleInRestriction)

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


class _NAry:
    """The constructor And and Or share (see And)."""

    def __init__(self, *parts):
        if len(parts) < 2:
            raise ValueError(f"{type(self).__name__} needs two or more operands")
        if type(parts[0]) is type(self):
            parts = parts[0].parts + parts[1:]
        object.__setattr__(self, "parts", parts)


@dataclass(frozen=True, init=False)
class And(_NAry):
    """``And(a, b, …)``: the intersection of two or more ``parts``.  A first
    operand that is itself an And is spliced in, so ``And(And(a, b), c) ==
    And(a, b, c)`` and ``parts[0]`` is never an And; a later operand stays
    nested.  Written with its parts in order, a tree and its n-ary text
    determine each other."""
    parts: tuple["ConceptExpr", ...]


@dataclass(frozen=True, init=False)
class Or(_NAry):
    """``Or(a, b, …)``: the union of two or more ``parts``, spliced as And."""
    parts: tuple["ConceptExpr", ...]


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


def standpoint_expr(name: str) -> Star | NamedStandpoint:
    """The standpoint a parsed name denotes: ``*`` is STAR, any other name
    must follow the standpoint-name rule or raises BadName."""
    if name == UNIVERSAL_STANDPOINT:
        return STAR
    if not STANDPOINT_NAME_RE.match(name):
        raise BadName(f"bad standpoint name {name!r}")
    return NamedStandpoint(name)


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
    ``namespace`` is the default namespace of the source document (its
    ``:`` prefix); the translation keeps the names there in the output
    ontology's own namespace.
    """

    rias: tuple[Ria, ...] = ()
    plain_axioms: tuple[TBoxAxiom, ...] = ()
    formulas: tuple[StandpointFormula, ...] = ()
    named_axioms: Mapping[str, StandpointFormula] = field(default_factory=dict)
    signature: Signature = Signature()
    base_iri: str = ""
    namespace: str = ""


# Stands for a family's own index in the names of its template (see
# Family).  No local name may hold it: ``mangle`` rejects it, and document
# names are made of letters, digits and underscores.
INDEX_SENTINEL = "\x00"


@dataclass(frozen=True)
class Family:
    """``copies`` axioms of one shape: copy k is ``template`` with every
    INDEX_SENTINEL in its names read as k.  A template without the
    sentinel repeats as it is."""
    template: PlainAxiom
    copies: int = 1

    def render(self, template_text: str) -> Iterator[str]:
        """The text of each copy, given the text of the template: its pieces
        around every INDEX_SENTINEL joined with the index.  Digits in the
        text are never rewritten, so fixed indices keep their numbers."""
        pieces = template_text.split(INDEX_SENTINEL)
        return (str(k).join(pieces) for k in range(self.copies))


@dataclass(frozen=True)
class PlainKB:
    """Standpoint-free output of the translation: axiom families over the
    mangled per-precisification signature plus the universal role.  A
    plain axiom given in ``families`` becomes a family of one copy."""

    families: tuple[Family, ...] = ()
    signature: Signature = Signature()
    base_iri: str = ""

    def __post_init__(self):
        object.__setattr__(self, "families", tuple(
            f if type(f) is Family else Family(f) for f in self.families))

    @cached_property
    def axioms(self) -> tuple[PlainAxiom, ...]:
        """Every copy of every family, in order, built on first use.  The
        copies at one index share every node they have in common."""
        copies: list[list] = [[] for _ in self.families]
        for k in range(max((f.copies for f in self.families), default=0)):
            memo: dict = {}
            for out, f in zip(copies, self.families):
                if k < f.copies:
                    out.append(_instantiate(f.template, str(k), memo))
        return tuple(ax for out in copies for ax in out)


def make_kb(rias=(), plain_axioms=(), formulas=(), named_axioms=None,
            base_iri="", declared: Signature | None = None,
            namespace="") -> StandpointKB:
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
                        named_axioms, sig, base_iri, namespace)


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------

# The child fields of each compound node class, in field-declaration order;
# a class not listed here is a leaf.  This order is the visit order of
# iter_nodes, so it fixes the first-occurrence order of entity_names_in and,
# through it, the oracle's slot order and its canonical first witness.
_CHILDREN: dict[type, tuple[str, ...]] = {
    RoleName: ("name",), InverseRole: ("name",),
    ConceptName: ("name",), Nominal: ("individual",), Not: ("arg",),
    And: ("parts",), Or: ("parts",),
    All: ("role", "filler"), Some: ("role", "filler"), HasSelf: ("role",),
    AtMost: ("role", "filler"), AtLeast: ("role", "filler"),
    Gci: ("lhs", "rhs"), Equiv: ("lhs", "rhs"), Ria: ("chain", "head"),
    SpUnion: ("lhs", "rhs"), SpIntersection: ("lhs", "rhs"),
    SpMinus: ("lhs", "rhs"),
    Atom: ("axiom",), Negation: ("arg",),
    Conjunction: ("lhs", "rhs"), Disjunction: ("lhs", "rhs"),
    Box: ("standpoint", "arg"), Diamond: ("standpoint", "arg"),
    Family: ("template",),
}
# Every constructor argument of each compound class, for positional rebuilds.
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in _CHILDREN}
# The classes whose constructor takes exactly their children, one each.
_CHILDREN_ONLY = frozenset(cls for cls in _CHILDREN
                           if _FIELDS[cls] == _CHILDREN[cls] and cls is not Ria)
# Child fields last to first, the order in which a stack takes them;
# iter_nodes reads them inline, since a _children call per node doubled
# the cost of entity_names_in and signature_of.
_PUSH_ORDER = {cls: names[::-1] for cls, names in _CHILDREN.items()}


def _children(node) -> list:
    """Child nodes in visit order; each element of a role chain is a child."""
    out = []
    for name in _CHILDREN.get(type(node), ()):
        value = getattr(node, name)
        if type(value) is tuple:
            out.extend(value)
        else:
            out.append(value)
    return out


def iter_nodes(x, stop=()) -> Iterator:
    """Every node of ``x`` in preorder, left to right, ``x`` first.  Nodes
    whose type is in ``stop`` are yielded but not entered.  The walk keeps
    an explicit stack, so no tree is too wide or deep for it."""
    stack = [x]
    while stack:
        node = stack.pop()
        yield node
        if type(node) not in stop:
            for name in _PUSH_ORDER.get(type(node), ()):
                value = getattr(node, name)
                if type(value) is tuple:
                    stack.extend(reversed(value))
                else:
                    stack.append(value)


def _rebuild(node, kids: list):
    if type(node) in _CHILDREN_ONLY:
        return type(node)(*kids)
    it = iter(kids)
    child_fields = _CHILDREN[type(node)]
    args = []
    for name in _FIELDS[type(node)]:
        value = getattr(node, name)
        if name in child_fields:
            value = tuple(islice(it, len(value))) if type(value) is tuple else next(it)
        args.append(value)
    return type(node)(*args)


def transform(x, replace):
    """Copy of ``x`` in which every node for which ``replace`` returns a
    value (not None) is swapped for that value, which is not entered.  The
    copy is rebuilt bottom-up with an explicit stack; a node none of whose
    children changed is kept as the same object."""
    done: list = []  # finished subtrees, children before their parent
    stack: list = [x]  # nodes to visit, and (node, children) to rebuild
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            node, kids = item
            built = done[-len(kids):]
            del done[-len(kids):]
            done.append(node if all(map(is_, built, kids)) else _rebuild(node, built))
            continue
        new = replace(item)
        kids = _children(item) if new is None else None
        if kids:
            stack.append((item, kids))
            stack.extend(reversed(kids))
        else:
            done.append(item if new is None else new)
    return done[0]


def _instantiate(template, index: str, memo: dict):
    """``template`` with every INDEX_SENTINEL in its names replaced by
    ``index``.  ``memo`` maps the id of each node done so far to its copy,
    so a shared node is copied once; a node without the sentinel below it
    is its own copy.  The walk keeps an explicit stack."""
    stack: list = [template]  # nodes to visit, and (node, children) to copy
    while stack:
        item = stack.pop()
        if type(item) is not tuple:
            if id(item) not in memo:
                kids = _children(item)
                stack.append((item, kids))
                stack.extend(kid for kid in kids if id(kid) not in memo)
            continue
        node, kids = item
        if id(node) in memo:  # reached twice before it was done
            continue
        if type(node) is EntityName and INDEX_SENTINEL in node.local:
            memo[id(node)] = EntityName(
                node.kind, node.local.replace(INDEX_SENTINEL, index), node.base)
        else:
            new = [memo[id(kid)] for kid in kids]
            memo[id(node)] = node if all(map(is_, new, kids)) else _rebuild(node, new)
    return memo[id(template)]


def walk_atoms(f: StandpointFormula) -> Iterator[Atom]:
    return (n for n in iter_nodes(f, (Atom,)) if type(n) is Atom)


def walk_refs(f: StandpointFormula) -> Iterator[AxiomRef]:
    return (n for n in iter_nodes(f, (Atom,)) if type(n) is AxiomRef)


def rebase_names(x, base: str, names: dict | None = None):
    """Copy of an axiom/expression with every entity name moved to ``base``.
    ``names`` maps each source name to its copy; calls that share it copy
    each distinct name once between them."""
    names = {} if names is None else names

    def rebased(n):
        if type(n) is EntityName:
            if n not in names:
                names[n] = EntityName(n.kind, n.local, base)
            return names[n]
    return transform(x, rebased)


def entity_names_in(x) -> Iterator[EntityName]:
    """Concept/role/individual names in an axiom or expression, in first
    left-to-right occurrence order (each yielded once)."""
    seen: set[EntityName] = set()
    for node in iter_nodes(x):
        if type(node) is EntityName and node not in seen:
            seen.add(node)
            yield node


def signature_of(kb: StandpointKB) -> Signature:
    """The exact sets of names occurring anywhere in the KB, including inside
    annotations-turned-formulas and standpoint expressions.  The universal
    standpoint ``*`` is always present."""
    names: dict[str, set] = {"concept": set(), "role": set(), "individual": set()}
    standpoints: set[str] = {UNIVERSAL_STANDPOINT}
    for root in (*kb.rias, *kb.plain_axioms, *kb.formulas, *kb.named_axioms.values()):
        for node in iter_nodes(root):
            if type(node) is EntityName:
                names[node.kind].add(node)
            elif type(node) is NamedStandpoint:
                standpoints.add(node.name)
    return Signature(frozenset(names["concept"]), frozenset(names["role"]),
                     frozenset(names["individual"]), frozenset(standpoints))


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
        roots = kb.axioms
    else:
        rias = kb.rias
        roots = (*kb.plain_axioms, *kb.formulas, *kb.named_axioms.values(), *rias)
    all_roles = set(kb.signature.roles)

    non_simple: set[EntityName] = set()
    successors: dict[EntityName, set[EntityName]] = {}
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
                successors.setdefault(base, set()).add(ria.head)

    # Transitive closure of the induced order, one depth-first search per
    # role, and its irreflexivity.
    closure: set[tuple[EntityName, EntityName]] = set()
    for a in successors:
        reached: set[EntityName] = set()
        stack = [a]
        while stack:
            for b in successors.get(stack.pop(), ()):
                if b not in reached:
                    reached.add(b)
                    stack.append(b)
        if a in reached:
            raise CyclicRoleOrder(f"role order has a cycle through {a.local!r}")
        closure.update((a, b) for b in reached)

    # Simple-role side conditions, in one pass over every node of the KB.
    for root in roots:
        for node in iter_nodes(root):
            if type(node) in (HasSelf, AtMost, AtLeast):
                if isinstance(node.role, UniversalRole) or node.role.name in non_simple:
                    raise NonSimpleInRestriction(
                        "Self/number restriction over a non-simple role")
            elif type(node) is InverseRole and node.name in non_simple:
                raise NonSimpleInRestriction(
                    f"inverse of non-simple role {node.name.local!r}")

    simple = frozenset(r for r in all_roles if r not in non_simple)
    return RoleValidationReport(simple=simple,
                                non_simple=frozenset(non_simple),
                                order=frozenset(closure))
