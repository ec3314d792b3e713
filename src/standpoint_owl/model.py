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

All types are immutable after construction and safe to share across threads:
they are records (see `record`), frozen value types over their annotated
fields.
"""

from __future__ import annotations

import re
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


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

class FrozenInstanceError(AttributeError):
    """An attempt to assign or delete an attribute of a record."""


class _Factory:
    """A field default made afresh for every instance (see `field`)."""

    def __init__(self, make):
        self.make = make


# The parameter default of a field whose value a factory makes.
_HAS_DEFAULT_FACTORY = object()


def field(*, default_factory):
    """The default of a record field that ``default_factory()`` makes anew
    for each instance, as a mutable value needs."""
    return _Factory(default_factory)


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls=None, /, *, init=True):
    """Make ``cls`` a frozen value type over its annotated fields, in the
    order they are declared; ``record(init=False)`` keeps the ``__init__``
    that ``cls`` inherits.

    One source text per class, compiled once, defines ``__init__`` (the
    class attribute of a field is its default; then ``__post_init__``, if
    the class has one), ``__eq__`` (between instances of one class),
    ``__hash__`` (the hash of the tuple of the fields) and ``__repr__``.  A
    method the class body defines is kept.  The bodies are those that
    ``dataclasses`` writes for ``frozen=True``, so a record builds,
    compares and hashes as fast, and to the same hash values, as the
    dataclass did; what is saved is compiling each method on its own at
    start-up.  ``__init__`` sets the fields with ``object.__setattr__``;
    any other assignment or deletion raises FrozenInstanceError.
    """
    if cls is None:
        return lambda cls: record(cls, init=init)
    own = cls.__dict__
    names = dict(own.get("__annotations__", {}))
    env = {"__record_object__": object, "_HAS_DEFAULT_FACTORY": _HAS_DEFAULT_FACTORY}
    params, body = ["self"], []
    for name in names:
        value = name
        if name in own:
            default = own[name]
            if type(default) is _Factory:
                delattr(cls, name)
                env[f"_make_{name}"] = default.make
                default = _HAS_DEFAULT_FACTORY
                value = f"_make_{name}() if {name} is _HAS_DEFAULT_FACTORY else {name}"
            env[f"_dflt_{name}"] = default
            params.append(f"{name}=_dflt_{name}")
        else:
            params.append(name)
        body.append(f"__record_object__.__setattr__(self,{name!r},{value})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")

    def fields_of(obj: str) -> str:
        return "(" + "".join(f"{obj}.{name}," for name in names) + ")"

    methods = {
        "__init__": [f"def __init__({','.join(params)}):", *(body or ["pass"])],
        "__eq__": ["def __eq__(self,other):",
                   "if other.__class__ is self.__class__:",
                   f" return {fields_of('self')}=={fields_of('other')}",
                   "return NotImplemented"],
        "__hash__": ["def __hash__(self):", f"return hash({fields_of('self')})"],
        "__repr__": ["def __repr__(self):",
                     'return self.__class__.__qualname__ + f"(' + ", ".join(
                         f"{n}={{self.{n}!r}}" for n in names) + ')"'],
    }
    if not init:
        del methods["__init__"]
    wanted = [m for m in methods if own.get(m) is None]
    # Compiled for this class alone: the interpreter specialises attribute
    # reads per code object, so methods shared between classes would run
    # slower.
    lines = [f"def __create_fn__({', '.join(env)}):"]
    for m in wanted:
        head, *rest = methods[m]
        lines += [" " + head, *("  " + line for line in rest)]
    lines.append(f" return ({''.join(m + ',' for m in wanted)})")
    ns: dict = {}
    exec("\n".join(lines), {}, ns)
    for fn in ns["__create_fn__"](**env):
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    cls.__record_fields__ = names
    return cls


def is_record(x) -> bool:
    """Whether ``x`` is a record class or an instance of one."""
    return hasattr(x, "__record_fields__")


def fields(x) -> dict[str, str]:
    """The fields of a record class or instance, in declaration order, each
    mapped to its annotation."""
    return x.__record_fields__


def replace(obj, /, **changes):
    """A copy of the record ``obj`` with the named fields changed.  The copy
    is built by the class, so its ``__post_init__`` checks run again."""
    for name in obj.__record_fields__:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)


@record
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

@record
class RoleName:
    name: EntityName


@record
class InverseRole:
    """Inverse of a named role; only simple roles may be inverted."""
    name: EntityName


@record
class UniversalRole:
    """The universal role, interpreted as the full binary relation."""


RoleExpr = Union[RoleName, InverseRole, UniversalRole]
UNIVERSAL = UniversalRole()


# ---------------------------------------------------------------------------
# Concept expressions
# ---------------------------------------------------------------------------

@record
class ConceptName:
    name: EntityName


@record
class Nominal:
    individual: EntityName


@record
class Top:
    pass


@record
class Bottom:
    pass


@record
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


@record(init=False)
class And(_NAry):
    """``And(a, b, …)``: the intersection of two or more ``parts``.  A first
    operand that is itself an And is spliced in, so ``And(And(a, b), c) ==
    And(a, b, c)`` and ``parts[0]`` is never an And; a later operand stays
    nested.  Written with its parts in order, a tree and its n-ary text
    determine each other."""
    parts: tuple["ConceptExpr", ...]


@record(init=False)
class Or(_NAry):
    """``Or(a, b, …)``: the union of two or more ``parts``, spliced as And."""
    parts: tuple["ConceptExpr", ...]


@record
class All:
    role: RoleExpr
    filler: "ConceptExpr"


@record
class Some:
    role: RoleExpr
    filler: "ConceptExpr"


@record
class HasSelf:
    role: RoleExpr


@record
class AtMost:
    n: int
    role: RoleExpr
    filler: "ConceptExpr"

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("cardinality must be non-negative")


@record
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

@record
class Gci:
    """General concept inclusion lhs ⊑ rhs."""
    lhs: ConceptExpr
    rhs: ConceptExpr


@record
class Equiv:
    """Concept equivalence, kept as its own variant so the translator can
    expand it to two inclusions and the serializer can round-trip it."""
    lhs: ConceptExpr
    rhs: ConceptExpr


@record
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

@record
class Star:
    """The universal standpoint, comprising all precisifications."""


@record
class NamedStandpoint:
    name: str

    def __post_init__(self):
        if not STANDPOINT_NAME_RE.match(self.name):
            raise ValueError(f"bad standpoint name {self.name!r}")


@record
class SpUnion:
    lhs: "StandpointExpr"
    rhs: "StandpointExpr"


@record
class SpIntersection:
    lhs: "StandpointExpr"
    rhs: "StandpointExpr"


@record
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


@record
class Atom:
    """A plain TBox axiom used as a propositional atom."""
    axiom: TBoxAxiom

    def __post_init__(self):
        if isinstance(self.axiom, Ria):
            raise ValueError("role axioms cannot appear inside standpoint formulas")


@record
class AxiomRef:
    """Reference to a named standpoint axiom (the leading § is stripped)."""
    name: str


@record
class Negation:
    arg: "StandpointFormula"


@record
class Conjunction:
    lhs: "StandpointFormula"
    rhs: "StandpointFormula"


@record
class Disjunction:
    lhs: "StandpointFormula"
    rhs: "StandpointFormula"


@record
class Box:
    standpoint: StandpointExpr
    arg: "StandpointFormula"


@record
class Diamond:
    standpoint: StandpointExpr
    arg: "StandpointFormula"


StandpointFormula = Union[Atom, AxiomRef, Negation, Conjunction, Disjunction, Box, Diamond]


# ---------------------------------------------------------------------------
# Signatures and knowledge bases
# ---------------------------------------------------------------------------

@record
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


@record
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


@record
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


@record
class PlainKB:
    """Standpoint-free output of the translation: axiom families over the
    mangled per-precisification signature plus the universal role.  A
    plain axiom given in ``families`` becomes a family of one copy.

    ``names`` declares the signature the way a family holds its axioms:
    copy k of a name reads k for every INDEX_SENTINEL in it, for k below
    ``copies``, and a name without the sentinel is its own only copy."""

    families: tuple[Family, ...] = ()
    names: Signature = Signature()
    base_iri: str = ""
    copies: int = 1

    def __post_init__(self):
        object.__setattr__(self, "families", tuple(
            f if type(f) is Family else Family(f) for f in self.families))

    @property
    def axioms(self) -> tuple[PlainAxiom, ...]:
        """Every copy of every family, in order, built on first use."""
        return self._expanded[0]

    @property
    def signature(self) -> Signature:
        """Every copy of every name, built on first use."""
        return self._expanded[1]

    @cached_property
    def _expanded(self) -> tuple[tuple[PlainAxiom, ...], Signature]:
        """The axioms and the signature, built together.  The copies at one
        index share every node they have in common, and each name is one
        object throughout: the copy of a name at k is the name that some
        template already holds at the fixed index k, if one does."""
        shared = {node: node for f in self.families
                  for node in iter_nodes(f.template) if type(node) is EntityName}

        def instantiated(node):  # a name at the loop's current ``index``
            if type(node) is EntityName:
                if INDEX_SENTINEL in node.local:
                    name = EntityName(node.kind,
                                      node.local.replace(INDEX_SENTINEL, index), node.base)
                    return shared.setdefault(name, name)
                return node

        copies: list[list] = [[] for _ in self.families]
        kinds = ("concepts", "roles", "individuals")
        names: dict[str, set] = {kind: set() for kind in kinds}
        for k in range(max([self.copies, *(f.copies for f in self.families)])):
            index, memo = str(k), {}
            for out, f in zip(copies, self.families):
                if k < f.copies:
                    out.append(transform(f.template, instantiated, memo))
            if k < self.copies:
                for kind in kinds:
                    names[kind].update(transform(name, instantiated, memo)
                                       for name in getattr(self.names, kind))
        signature = Signature(*(frozenset(names[kind]) for kind in kinds),
                              self.names.standpoints)
        return tuple(ax for out in copies for ax in out), signature


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
_FIELDS = {cls: tuple(fields(cls)) for cls in _CHILDREN}
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


def transform(x, replace, memo: dict | None = None):
    """Copy of ``x`` in which every node for which ``replace`` returns a
    value (not None) is swapped for that value, which is not entered.  The
    copy is rebuilt bottom-up with an explicit stack; a node none of whose
    children changed is kept as the same object.  ``memo`` maps the id of
    each node done so far to its copy, so a node shared within ``x`` is
    copied once, and calls that pass one memo share their copies; the
    trees of such calls must outlive the memo, or an id is reused."""
    memo = {} if memo is None else memo
    done: list = []  # finished subtrees, children before their parent
    stack: list = [x]  # nodes to visit, and (node, children) to rebuild
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            node, kids = item
            built = done[-len(kids):]
            del done[-len(kids):]
            new = node if all(map(is_, built, kids)) else _rebuild(node, built)
            memo[id(node)] = new
            done.append(new)
            continue
        new = memo.get(id(item))
        if new is None:
            new = replace(item)
        kids = _children(item) if new is None else None
        if kids:
            stack.append((item, kids))
            stack.extend(reversed(kids))
        else:
            new = memo[id(item)] = item if new is None else new
            done.append(new)
    return done[0]


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

@record
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
