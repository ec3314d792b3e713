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
from operator import attrgetter, is_
from types import MappingProxyType
from typing import AbstractSet, Iterable, Iterator, Mapping, Union

from .errors import (BadName, CyclicRoleOrder, MalformedRIA,
                     NonSimpleInRestriction)

# The one rule for standpoint names, which every parser checks: a letter,
# then letters and digits.  Axiom names follow it after their leading §.
STANDPOINT_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")
UNIVERSAL_STANDPOINT = "*"
STAR_TOKEN = "STAR"  # the translation's name for *, which no standpoint takes

_KINDS = ("concept", "role", "individual", "standpoint")


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

class FrozenInstanceError(AttributeError):
    """An attempt to assign or delete an attribute of a record."""


# The default of a mapping field: record defaults are shared between
# instances, so this one is read-only.
EMPTY_MAPPING: Mapping = MappingProxyType({})


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls, /):
    """Make ``cls`` a frozen value type over its annotated fields, in the
    order they are declared.

    One source text per class, compiled once, defines ``__init__`` (the
    class attribute of a field is its default; then ``__post_init__``, if
    the class has one), ``__eq__`` (between instances of one class),
    ``__hash__`` (the hash of the tuple of the fields) and ``__repr__``.  A
    method the class body defines is kept, and so is an ``__init__`` it
    inherits from a base that is not a record (as And and Or do).  The
    bodies are those that ``dataclasses`` writes for ``frozen=True``, so a
    record builds, compares and hashes as fast, and to the same hash
    values, as the dataclass did; what is saved is compiling each method on
    its own at start-up.  ``__init__`` sets the fields with
    ``object.__setattr__``; any other assignment or deletion raises
    FrozenInstanceError.  A default is shared by every instance, so a
    mapping field defaults to the read-only EMPTY_MAPPING.
    """
    own = cls.__dict__
    names = dict(own.get("__annotations__", {}))
    env = {"__record_object__": object}
    params, body = ["self"], []
    for name in names:
        if name in own:
            env[f"_dflt_{name}"] = own[name]
            params.append(f"{name}=_dflt_{name}")
        else:
            params.append(name)
        body.append(f"__record_object__.__setattr__(self,{name!r},{name})")
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
    init_owner = next(k for k in cls.__mro__ if "__init__" in k.__dict__)
    if init_owner is not object and not is_record(init_owner):
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
    """Inverse of a named role.  As for the role itself, only a simple one
    may be used in a number restriction or Self."""
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


@record
class And(_NAry):
    """``And(a, b, …)``: the intersection of two or more ``parts``.  A first
    operand that is itself an And is spliced in, so ``And(And(a, b), c) ==
    And(a, b, c)`` and ``parts[0]`` is never an And; a later operand stays
    nested.  Written with its parts in order, a tree and its n-ary text
    determine each other."""
    parts: tuple["ConceptExpr", ...]


@record
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
        if not STANDPOINT_NAME_RE.match(self.name) or self.name == STAR_TOKEN:
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
    must follow the standpoint-name rule and not be STAR_TOKEN (BadName)."""
    if name == UNIVERSAL_STANDPOINT:
        return STAR
    if not STANDPOINT_NAME_RE.match(name):
        raise BadName(f"bad standpoint name {name!r}")
    if name == STAR_TOKEN:
        raise BadName(f"standpoint name {name!r} is reserved for '*'")
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
    named_axioms: Mapping[str, StandpointFormula] = EMPTY_MAPPING
    signature: Signature = Signature()
    base_iri: str = ""
    namespace: str = ""

    @cached_property
    def restricted_roles(self) -> frozenset[RoleExpr]:
        """The role of every Self and number restriction in the KB, found
        by a walk on first use.  ``assemble_kb`` hands over what the reader
        and its own walk of the labels found instead (see `with_cached`),
        so a KB assembled from a read document is not walked."""
        return restricted_roles_in(
            (*self.plain_axioms, *self.formulas, *self.named_axioms.values()))


# Stands for a family's own index in the names of its template (see
# Family).  No local name may hold it: ``mangle`` rejects it, and document
# names are made of letters, digits and underscores.
INDEX_SENTINEL = "\x00"


@record
class Family:
    """``copies`` axioms of one shape: copy k is ``template`` with every
    INDEX_SENTINEL in its names read as k.  A template without the
    sentinel repeats as it is.

    A family may also sit inside a concept of another family's template,
    with a concept as its template.  It stands for the intersection of its
    copies, ``And(copy 0, copy 1, …)``, spliced into an And whose first
    part it is, as And splices an And there.  Its sentinel is its own
    index: its copies do not depend on the outer family's index, and they
    are filled in first.  The serializer writes the template once and
    fills in each copy's index as a string (``serializer._expand``)."""
    template: PlainAxiom | ConceptExpr
    copies: int = 1


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
        template already holds at the fixed index k, if one does.  A family
        inside a concept becomes the And of its copies, built once."""
        shared = {node: node for f in self.families
                  for node in iter_nodes(f.template) if type(node) is EntityName}
        nested: dict = {}  # id of a family inside a concept: its copies' And

        def at(index: str):
            def instantiated(node):
                if type(node) is EntityName:
                    if INDEX_SENTINEL in node.local:
                        name = EntityName(node.kind, node.local.replace(
                            INDEX_SENTINEL, index), node.base)
                        return shared.setdefault(name, name)
                    return node
                if type(node) is Family:
                    out = nested.get(id(node))
                    if out is None:
                        out = nested[id(node)] = And(*[
                            transform(node.template, at(str(j)))
                            for j in range(node.copies)])
                    return out
            return instantiated

        copies: list[list] = [[] for _ in self.families]
        kinds = ("concepts", "roles", "individuals")
        names: dict[str, set] = {kind: set() for kind in kinds}
        for k in range(max([self.copies, *(f.copies for f in self.families)])):
            instantiated, memo = at(str(k)), {}
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


def with_cached(obj, **values):
    """``obj`` with ``values`` as the values of its cached properties of
    those names, which must be what their walks would find."""
    assert all(type(getattr(type(obj), name, None)) is cached_property
               for name in values), values
    obj.__dict__.update(values)
    return obj


def make_kb(rias=(), plain_axioms=(), formulas=(), named_axioms=None,
            base_iri="", declared: Signature | None = None,
            namespace="") -> StandpointKB:
    """Build a StandpointKB with its signature computed from the contents
    (plus any explicitly declared names)."""
    rias, plain_axioms, formulas = tuple(rias), tuple(plain_axioms), tuple(formulas)
    named_axioms = dict(named_axioms or {})
    sig = signature_over((*rias, *plain_axioms, *formulas, *named_axioms.values()))
    if declared is not None:
        sig = sig.union(declared)
    return StandpointKB(rias, plain_axioms, formulas, named_axioms, sig,
                        base_iri, namespace)


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------

# The child fields of each compound node class, in field-declaration order;
# a class not listed here is a leaf.  Every generic walk reads children
# through `children` and rebuilds through `rebuild`, both derived from this
# table.  Its order is the visit order of iter_nodes, transform and
# entity_names_in; the oracle's compile walk meets names in it too (a test
# ties the two), which fixes its canonical first witness.
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


def _getter(cls):
    """The ``children`` of one class: its child fields as a tuple, and the
    elements of a tuple field (And's and Or's parts, a Ria's chain) in
    place of the field."""
    names = _CHILDREN[cls]
    if cls is Ria:
        return lambda ria: (*ria.chain, ria.head)
    if names == ("parts",):
        return attrgetter("parts")
    if len(names) == 1:  # attrgetter of one field returns the value itself
        get = attrgetter(*names)
        return lambda node: (get(node),)
    return attrgetter(*names)


_GETTERS = {cls: _getter(cls) for cls in _CHILDREN}


def _no_children(node) -> tuple:
    return ()


def children(node) -> tuple:
    """Child nodes in visit order, as a tuple; each element of a role chain
    is a child.  One getter per class (``_GETTERS``, derived from
    ``_CHILDREN``) reads them, so no list is built per node."""
    return _GETTERS.get(type(node), _no_children)(node)


def iter_nodes(x, stop=()) -> Iterator:
    """Every node of ``x`` in preorder, left to right, ``x`` first.  Nodes
    whose type is in ``stop`` are yielded but not entered.  The walk keeps
    an explicit stack, so no tree is too wide or deep for it; it reads
    each node's children through ``children``."""
    stack = [x]
    while stack:
        node = stack.pop()
        yield node
        if type(node) not in stop:
            stack.extend(reversed(children(node)))


def rebuild(node, kids):
    """A node of ``node``'s class with ``kids`` for its children, in the
    order ``children`` lists them, and its other fields (a number
    restriction's n) kept."""
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
            new = node if all(map(is_, built, kids)) else rebuild(node, built)
            memo[id(node)] = new
            done.append(new)
            continue
        new = memo.get(id(item))
        if new is None:
            new = replace(item)
        kids = children(item) if new is None else None
        if kids:
            stack.append((item, kids))
            stack.extend(reversed(kids))
        else:
            new = memo[id(item)] = item if new is None else new
            done.append(new)
    return done[0]


def rebase_names(x, base: str):
    """Copy of an axiom/expression with every entity name moved to ``base``."""
    return transform(x, lambda n: EntityName(n.kind, n.local, base)
                     if type(n) is EntityName else None)


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
    return signature_over(
        (*kb.rias, *kb.plain_axioms, *kb.formulas, *kb.named_axioms.values()))


def signature_over(roots, names: Iterable[EntityName] = (),
                   restricted: set | None = None) -> Signature:
    """The signature of the entity names ``names`` and of every name that
    occurs in ``roots``, with the universal standpoint ``*``.  The same
    walk adds the role of every Self and number restriction in ``roots``
    to ``restricted``, if given."""
    names_of: dict[str, set] = {"concept": set(), "role": set(), "individual": set()}
    for name in names:
        names_of[name.kind].add(name)
    standpoints: set[str] = {UNIVERSAL_STANDPOINT}
    restricted = set() if restricted is None else restricted
    for root in roots:
        for node in iter_nodes(root):
            if type(node) is EntityName:
                names_of[node.kind].add(node)
            elif type(node) is NamedStandpoint:
                standpoints.add(node.name)
            elif type(node) in _RESTRICTIONS:
                restricted.add(node.role)
    return Signature(frozenset(names_of["concept"]), frozenset(names_of["role"]),
                     frozenset(names_of["individual"]), frozenset(standpoints))


# The restrictions whose role must be simple.
_RESTRICTIONS = frozenset({HasSelf, AtMost, AtLeast})


def restricted_roles_in(roots) -> frozenset[RoleExpr]:
    """The role of every Self and number restriction in ``roots``, found by
    one walk down to the names: their EntityName leaves hold no restriction."""
    return frozenset(
        node.role for root in roots
        for node in iter_nodes(root, (ConceptName, RoleName, InverseRole, Nominal))
        if type(node) in _RESTRICTIONS)


def signature_bases(signature: Signature) -> set[str]:
    """The bases of the signature's concept, role and individual names."""
    return {n.base for names in (signature.concepts, signature.roles,
                                 signature.individuals) for n in names}


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


def _role_base(r: RoleExpr) -> EntityName | None:
    """Underlying role name of a chain element; None for the universal role."""
    if isinstance(r, (RoleName, InverseRole)):
        return r.name
    return None


def check_restricted_roles(roles: Iterable[RoleExpr],
                           non_simple: AbstractSet[EntityName]) -> None:
    """Raise NonSimpleInRestriction if one of ``roles``, the roles under a
    Self or number restriction, is the universal role or in ``non_simple``,
    or is the inverse of a role there."""
    for role in roles:
        if isinstance(role, UniversalRole) or role.name in non_simple:
            raise NonSimpleInRestriction(
                "Self/number restriction over a non-simple role")


def validate_roles(kb: StandpointKB | PlainKB) -> RoleValidationReport:
    """Classify roles, build the strict order, and check regularity.

    A role is non-simple iff it is the universal role, heads a chain of two
    or more roles (transitivity included) or a chain of the universal role
    alone, or includes a non-simple role through S ⊑ R or S⁻ ⊑ R, as in
    SROIQ and OWL 2.  Number restrictions and Self must use a simple role
    or its inverse; an inverse of a non-simple role may stand anywhere
    else, under ∃ or ∀ or in a role inclusion, as SROIQ and OWL 2 DL
    allow.  The order relates every chain element other than the head to
    the head; it must be irreflexive after transitive closure.  Head
    occurrences inside chains are only allowed at the very front, at the
    very end, or as the transitivity pattern head∘head.

    The restricted roles are the KB's ``restricted_roles``: for a KB that
    ``assemble_kb`` built from a read document, what the reader and the
    walk of the labels recorded, so no axiom is walked again; any other KB
    (``make_kb``, ``replace``, a hand-built one) is walked once, on first
    use.  A PlainKB's axioms other than its RIAs are walked.  RIAs hold no
    restriction and are never walked.
    """
    if isinstance(kb, PlainKB):
        rias = tuple(a for a in kb.axioms if isinstance(a, Ria))
        restricted = restricted_roles_in(
            a for a in kb.axioms if not isinstance(a, Ria))
    else:
        rias = kb.rias
        restricted = kb.restricted_roles
    all_roles = set(kb.signature.roles)

    non_simple: set[EntityName] = set()
    successors: dict[EntityName, set[EntityName]] = {}
    for ria in rias:
        all_roles.add(ria.head)
        all_roles.update(n for n in map(_role_base, ria.chain) if n is not None)
        if len(ria.chain) != 1 or type(ria.chain[0]) is UniversalRole:
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
    # A role above a non-simple one is above it through S ⊑ R or S⁻ ⊑ R, or
    # heads a chain of two or more roles and so is non-simple already.
    non_simple.update([b for a, b in closure if a in non_simple])

    check_restricted_roles(restricted, non_simple)
    simple = frozenset(r for r in all_roles if r not in non_simple)
    return RoleValidationReport(simple=simple,
                                non_simple=frozenset(non_simple),
                                order=frozenset(closure))
