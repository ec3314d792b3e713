"""Desk-scale brute-force semantics and bounded model search.

This module is the independent ground truth for the translation: it
evaluates concept and role expressions set-theoretically, checks axiom
satisfaction in plain interpretations, checks standpoint formulas in
standpoint structures (domain, precisification set, standpoint assignment,
per-precisification interpretation), and exhaustively searches for models
within explicit domain/precisification bounds.

Search strategy.  Candidate interpretations are explored by assigning one
extension at a time in a fixed canonical order (names in first-occurrence
order, then unconstrained signature names; subset values in ascending
binary order, so the empty extension comes first).  After each assignment
every affected constraint is evaluated three-valuedly via lower/upper
bounds on extensions; branches whose constraints are definitely violated
are cut.  The first surviving complete assignment is therefore the
canonically least model, making witnesses reproducible.  Standpoint
structures are searched by splitting the problem at the atom level: the
Boolean/modal layer only sees which TBox atoms hold at which
precisification, so candidate truth vectors are enumerated propositionally
and each distinct vector is realised (or refuted) once by a bounded
interpretation search.  Exhaustion within bounds is evidence, not proof,
of unsatisfiability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Mapping, Optional

from .errors import SearchSpaceTooLarge, UnknownName, UnresolvedRef
from .model import (All, And, Atom, AtLeast, AtMost, AxiomRef, Bottom, Box,
                    ConceptExpr, ConceptName, Conjunction, Disjunction,
                    EntityName, Equiv, Gci, HasSelf, InverseRole, Negation,
                    Nominal, Not, Or, PlainAxiom, PlainKB, RoleExpr, RoleName,
                    Signature, Some, SpIntersection, SpMinus, SpUnion,
                    StandpointExpr, StandpointFormula, StandpointKB, Star,
                    Top, UNIVERSAL_STANDPOINT, UniversalRole, entity_names_in,
                    make_kb, signature_of, walk_atoms, walk_refs)
from .normalizer import normalize_kb

# ---------------------------------------------------------------------------
# Semantic objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlainInterpretation:
    """A finite interpretation over the domain {0, …, domain_size-1}.

    The universal role is never stored; it always denotes the full
    binary relation over the domain.
    """

    domain_size: int
    concept_ext: Mapping[EntityName, frozenset[int]]
    role_ext: Mapping[EntityName, frozenset[tuple[int, int]]]
    individual_map: Mapping[EntityName, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.domain_size < 1:
            raise ValueError("domain must be non-empty")

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(range(self.domain_size))


@dataclass(frozen=True)
class StandpointStructure:
    """A standpoint model: shared domain, precisifications {0, …, m-1},
    standpoint membership sets, and one interpretation per precisification.

    Individuals are rigid: every precisification shares the individual map.
    The universal standpoint always covers every precisification.
    """

    domain_size: int
    precisifications: int
    sigma: Mapping[str, frozenset[int]]
    gamma: tuple[PlainInterpretation, ...]

    def __post_init__(self):
        if self.precisifications < 1:
            raise ValueError("the precisification set must be non-empty")
        if len(self.gamma) != self.precisifications:
            raise ValueError("gamma must assign every precisification")
        pis = frozenset(range(self.precisifications))
        sigma = {name: frozenset(members) for name, members in self.sigma.items()}
        star = sigma.setdefault(UNIVERSAL_STANDPOINT, pis)
        if star != pis:
            raise ValueError("the universal standpoint must cover all precisifications")
        for name, members in sigma.items():
            if not members <= pis:
                raise ValueError(f"sigma({name}) is not a set of precisifications")
        object.__setattr__(self, "sigma", sigma)
        maps = {tuple(sorted(((k.base, k.local), v)
                             for k, v in g.individual_map.items()))
                for g in self.gamma}
        if len(maps) > 1:
            raise ValueError("individuals must be rigid across precisifications")
        for g in self.gamma:
            if g.domain_size != self.domain_size:
                raise ValueError("all precisifications share one domain")


# ---------------------------------------------------------------------------
# Exact evaluation (the semantics, evaluated literally)
# ---------------------------------------------------------------------------

def eval_role(interp: PlainInterpretation, role: RoleExpr) -> frozenset[tuple[int, int]]:
    if isinstance(role, UniversalRole):
        dom = range(interp.domain_size)
        return frozenset((a, b) for a in dom for b in dom)
    if role.name not in interp.role_ext:
        raise UnknownName(f"role {role.name.local!r} has no extension")
    ext = frozenset(interp.role_ext[role.name])
    if isinstance(role, InverseRole):
        return frozenset((b, a) for (a, b) in ext)
    return ext


def eval_concept(interp: PlainInterpretation, c: ConceptExpr) -> frozenset[int]:
    """Extension of a concept expression, computed by the textbook clauses."""
    dom = interp.domain
    if isinstance(c, Top):
        return dom
    if isinstance(c, Bottom):
        return frozenset()
    if isinstance(c, ConceptName):
        if c.name not in interp.concept_ext:
            raise UnknownName(f"concept {c.name.local!r} has no extension")
        return frozenset(interp.concept_ext[c.name])
    if isinstance(c, Nominal):
        if c.individual not in interp.individual_map:
            raise UnknownName(f"individual {c.individual.local!r} is not mapped")
        return frozenset({interp.individual_map[c.individual]})
    if isinstance(c, Not):
        return dom - eval_concept(interp, c.arg)
    if isinstance(c, And):
        return eval_concept(interp, c.lhs) & eval_concept(interp, c.rhs)
    if isinstance(c, Or):
        return eval_concept(interp, c.lhs) | eval_concept(interp, c.rhs)
    if isinstance(c, All):
        ext = eval_role(interp, c.role)
        filler = eval_concept(interp, c.filler)
        return frozenset(d for d in dom
                         if all(e in filler for (x, e) in ext if x == d))
    if isinstance(c, Some):
        ext = eval_role(interp, c.role)
        filler = eval_concept(interp, c.filler)
        return frozenset(d for d in dom
                         if any(e in filler for (x, e) in ext if x == d))
    if isinstance(c, HasSelf):
        ext = eval_role(interp, c.role)
        return frozenset(d for d in dom if (d, d) in ext)
    if isinstance(c, (AtMost, AtLeast)):
        ext = eval_role(interp, c.role)
        filler = eval_concept(interp, c.filler)
        counts = {d: sum(1 for (x, e) in ext if x == d and e in filler) for d in dom}
        if isinstance(c, AtMost):
            return frozenset(d for d in dom if counts[d] <= c.n)
        return frozenset(d for d in dom if counts[d] >= c.n)
    raise TypeError(f"not a concept expression: {c!r}")


def _compose_exact(rels: list[frozenset[tuple[int, int]]]) -> frozenset[tuple[int, int]]:
    out = rels[0]
    for rel in rels[1:]:
        out = frozenset((a, c) for (a, b) in out for (b2, c) in rel if b == b2)
    return out


def holds_axiom(interp: PlainInterpretation, axiom: PlainAxiom) -> bool:
    if isinstance(axiom, Gci):
        return eval_concept(interp, axiom.lhs) <= eval_concept(interp, axiom.rhs)
    if isinstance(axiom, Equiv):
        return eval_concept(interp, axiom.lhs) == eval_concept(interp, axiom.rhs)
    chain = [eval_role(interp, r) for r in axiom.chain]
    head = eval_role(interp, RoleName(axiom.head))
    return _compose_exact(chain) <= head


def sigma_of(structure: StandpointStructure, e: StandpointExpr) -> frozenset[int]:
    """Standpoint expressions denote precisification sets, by set operations."""
    return _sigma_set(e, structure.sigma)


def holds_formula(structure: StandpointStructure, pi: int,
                  f: StandpointFormula) -> bool:
    """Satisfaction of a standpoint formula at a precisification."""
    if isinstance(f, Atom):
        return holds_axiom(structure.gamma[pi], f.axiom)
    if isinstance(f, AxiomRef):
        raise UnresolvedRef(f.name)
    if isinstance(f, Negation):
        return not holds_formula(structure, pi, f.arg)
    if isinstance(f, Conjunction):
        return (holds_formula(structure, pi, f.lhs)
                and holds_formula(structure, pi, f.rhs))
    if isinstance(f, Disjunction):
        return (holds_formula(structure, pi, f.lhs)
                or holds_formula(structure, pi, f.rhs))
    members = sigma_of(structure, f.standpoint)
    if isinstance(f, Box):
        return all(holds_formula(structure, pi2, f.arg) for pi2 in sorted(members))
    return any(holds_formula(structure, pi2, f.arg) for pi2 in sorted(members))


def kb_holds(structure: StandpointStructure, kb: StandpointKB) -> bool:
    """Whether the structure models the KB: role axioms and plain axioms at
    every precisification, and every top-level formula at every
    precisification."""
    for pi in range(structure.precisifications):
        interp = structure.gamma[pi]
        for axiom in list(kb.rias) + list(kb.plain_axioms):
            if not holds_axiom(interp, axiom):
                return False
    for f in kb.formulas:
        for pi in range(structure.precisifications):
            if not holds_formula(structure, pi, f):
                return False
    return True


# ---------------------------------------------------------------------------
# Three-valued evaluation over partial assignments (bitmask bounds)
# ---------------------------------------------------------------------------
# A partial assignment maps slots ("c", name) / ("r", name) / ("i", name) to
# subset masks (row-major for roles) or domain elements.  Concept bounds are
# (lo, hi) masks: any completion's extension E satisfies lo ⊆ E ⊆ hi.

def _converse(mask: int, n: int) -> int:
    out = 0
    for i in range(n):
        for j in range(n):
            if mask & (1 << (i * n + j)):
                out |= 1 << (j * n + i)
    return out


def _compose_masks(m1: int, m2: int, n: int) -> int:
    row_mask = (1 << n) - 1
    out = 0
    for i in range(n):
        row = (m1 >> (i * n)) & row_mask
        acc = 0
        j = 0
        while row:
            if row & 1:
                acc |= (m2 >> (j * n)) & row_mask
            row >>= 1
            j += 1
        out |= acc << (i * n)
    return out


def _role_bounds(role: RoleExpr, asn: dict, n: int) -> tuple[int, int]:
    full2 = (1 << (n * n)) - 1
    if isinstance(role, UniversalRole):
        return full2, full2
    key = ("r", role.name)
    if key in asn:
        lo = hi = asn[key]
    else:
        lo, hi = 0, full2
    if isinstance(role, InverseRole):
        return _converse(lo, n), _converse(hi, n)
    return lo, hi


def _bounds(c: ConceptExpr, asn: dict, n: int) -> tuple[int, int]:
    full = (1 << n) - 1
    if isinstance(c, Top):
        return full, full
    if isinstance(c, Bottom):
        return 0, 0
    if isinstance(c, ConceptName):
        key = ("c", c.name)
        if key in asn:
            return asn[key], asn[key]
        return 0, full
    if isinstance(c, Nominal):
        key = ("i", c.individual)
        if key in asn:
            bit = 1 << asn[key]
            return bit, bit
        return 0, full
    if isinstance(c, Not):
        lo, hi = _bounds(c.arg, asn, n)
        return full & ~hi, full & ~lo
    if isinstance(c, And):
        lo1, hi1 = _bounds(c.lhs, asn, n)
        lo2, hi2 = _bounds(c.rhs, asn, n)
        return lo1 & lo2, hi1 & hi2
    if isinstance(c, Or):
        lo1, hi1 = _bounds(c.lhs, asn, n)
        lo2, hi2 = _bounds(c.rhs, asn, n)
        return lo1 | lo2, hi1 | hi2
    row_mask = full
    if isinstance(c, Some):
        rlo, rhi = _role_bounds(c.role, asn, n)
        flo, fhi = _bounds(c.filler, asn, n)
        lo = hi = 0
        for d in range(n):
            if ((rlo >> (d * n)) & row_mask) & flo:
                lo |= 1 << d
            if ((rhi >> (d * n)) & row_mask) & fhi:
                hi |= 1 << d
        return lo, hi
    if isinstance(c, All):
        rlo, rhi = _role_bounds(c.role, asn, n)
        flo, fhi = _bounds(c.filler, asn, n)
        lo = hi = 0
        for d in range(n):
            if ((rhi >> (d * n)) & row_mask) & ~flo & full == 0:
                lo |= 1 << d
            if ((rlo >> (d * n)) & row_mask) & ~fhi & full == 0:
                hi |= 1 << d
        return lo, hi
    if isinstance(c, HasSelf):
        rlo, rhi = _role_bounds(c.role, asn, n)
        lo = hi = 0
        for d in range(n):
            bit = 1 << (d * n + d)
            if rlo & bit:
                lo |= 1 << d
            if rhi & bit:
                hi |= 1 << d
        return lo, hi
    if isinstance(c, AtLeast):
        rlo, rhi = _role_bounds(c.role, asn, n)
        flo, fhi = _bounds(c.filler, asn, n)
        lo = hi = 0
        for d in range(n):
            if (((rlo >> (d * n)) & row_mask) & flo).bit_count() >= c.n:
                lo |= 1 << d
            if (((rhi >> (d * n)) & row_mask) & fhi).bit_count() >= c.n:
                hi |= 1 << d
        return lo, hi
    # AtMost
    rlo, rhi = _role_bounds(c.role, asn, n)
    flo, fhi = _bounds(c.filler, asn, n)
    lo = hi = 0
    for d in range(n):
        if (((rhi >> (d * n)) & row_mask) & fhi).bit_count() <= c.n:
            lo |= 1 << d
        if (((rlo >> (d * n)) & row_mask) & flo).bit_count() <= c.n:
            hi |= 1 << d
    return lo, hi


def _gci_state(lhs, rhs, asn, n) -> Optional[bool]:
    lo_l, hi_l = _bounds(lhs, asn, n)
    lo_r, hi_r = _bounds(rhs, asn, n)
    if lo_l & ~hi_r:
        return False
    if hi_l & ~lo_r == 0:
        return True
    return None


def _not3(v):
    return None if v is None else not v


def _and3(a, b):
    if a is False or b is False:
        return False
    if a is True and b is True:
        return True
    return None


def _or3(a, b):
    return _not3(_and3(_not3(a), _not3(b)))


class _Check:
    """One constraint: an axiom required true (or, for atom vectors, false)."""

    __slots__ = ("axiom", "positive", "slots")

    def __init__(self, axiom: PlainAxiom, positive: bool = True):
        self.axiom = axiom
        self.positive = positive
        self.slots = frozenset(
            ({"concept": "c", "role": "r", "individual": "i"}[name.kind], name)
            for name in entity_names_in(axiom))

    def state(self, asn: dict, n: int) -> Optional[bool]:
        ax = self.axiom
        if isinstance(ax, Gci):
            v = _gci_state(ax.lhs, ax.rhs, asn, n)
        elif isinstance(ax, Equiv):
            v = _and3(_gci_state(ax.lhs, ax.rhs, asn, n),
                      _gci_state(ax.rhs, ax.lhs, asn, n))
        else:
            row_full = (1 << (n * n)) - 1
            lo = hi = None
            for r in ax.chain:
                rlo, rhi = _role_bounds(r, asn, n)
                lo = rlo if lo is None else _compose_masks(lo, rlo, n)
                hi = rhi if hi is None else _compose_masks(hi, rhi, n)
            hlo, hhi = _role_bounds(RoleName(ax.head), asn, n)
            if lo & ~hhi & row_full:
                v = False
            elif hi & ~hlo & row_full == 0:
                v = True
            else:
                v = None
        return v if self.positive else _not3(v)


# ---------------------------------------------------------------------------
# Canonical backtracking search for plain interpretations
# ---------------------------------------------------------------------------

def _slot_order(checks: list[_Check], signature: Signature) -> list[tuple]:
    """Names in first-occurrence order over the checks, then any remaining
    signature names in sorted order (these are unconstrained)."""
    order: list[tuple] = []
    seen = set()
    for check in checks:
        for name in entity_names_in(check.axiom):
            slot = ({"concept": "c", "role": "r", "individual": "i"}[name.kind], name)
            if slot not in seen:
                seen.add(slot)
                order.append(slot)
    rest = ([("c", x) for x in sorted(signature.concepts, key=lambda e: (e.base, e.local))]
            + [("r", x) for x in sorted(signature.roles, key=lambda e: (e.base, e.local))]
            + [("i", x) for x in sorted(signature.individuals, key=lambda e: (e.base, e.local))])
    for slot in rest:
        if slot not in seen:
            seen.add(slot)
            order.append(slot)
    return order


def _slot_value_count(slot: tuple, n: int) -> int:
    kind = slot[0]
    if kind == "c":
        return 1 << n
    if kind == "r":
        return 1 << (n * n)
    return n


def _search_assignment(n: int, slots: list[tuple], checks: list[_Check],
                       fixed: dict | None = None) -> dict | None:
    """First (canonical order) complete assignment satisfying all checks.

    Backtracking is conflict-directed: when every value of a slot fails, the
    union of the (greedily minimised) slot sets responsible for the failures
    is propagated upward, and levels whose slot does not occur in that set
    are skipped outright, since re-assigning them cannot repair the conflict.
    This matters because the interval bounds cannot see contradictions
    between far-apart slots until both are assigned.
    """
    asn = dict(fixed or {})
    touching: dict[tuple, list[_Check]] = {slot: [] for slot in slots}
    for check in checks:
        for slot in check.slots:
            if slot in touching:
                touching[slot].append(check)
    for check in checks:
        if check.state(asn, n) is False:
            return None

    def minimised_conflict(check: _Check) -> frozenset:
        """Assigned slots without which the check would no longer refute."""
        involved = []
        for slot in sorted(check.slots, key=lambda s: (s[0], s[1].base, s[1].local)):
            if slot in asn:
                value = asn.pop(slot)
                if check.state(asn, n) is False:
                    involved.append((slot, value, False))
                else:
                    asn[slot] = value
                    involved.append((slot, value, True))
        for slot, value, needed in involved:
            if not needed:
                asn[slot] = value
        return frozenset(slot for slot, _, needed in involved if needed)

    def complete(from_index: int) -> dict:
        for slot in slots[from_index:]:
            if slot not in asn:
                asn[slot] = 0
        return dict(asn)

    def rec(k: int):
        """Return ('model', assignment) or ('conflict', slot set)."""
        if k == len(slots):
            for check in checks:
                if check.state(asn, n) is False:
                    return ("conflict", minimised_conflict(check))
            return ("model", dict(asn))
        slot = slots[k]
        if slot in asn:
            return rec(k + 1)
        conflict: set = set()
        for value in range(_slot_value_count(slot, n)):
            asn[slot] = value
            failed = None
            for check in touching[slot]:
                if check.state(asn, n) is False:
                    failed = check
                    break
            if failed is not None:
                conflict |= minimised_conflict(failed)
                continue
            if all(check.state(asn, n) is True for check in checks):
                return ("model", complete(k + 1))
            kind, result = rec(k + 1)
            if kind == "model":
                return (kind, result)
            if slot not in result:
                del asn[slot]
                return (kind, result)
            conflict |= result
        del asn[slot]
        conflict.discard(slot)
        return ("conflict", frozenset(conflict))

    kind, result = rec(0)
    return result if kind == "model" else None


def _bits_needed(signature: Signature, n: int) -> float:
    return (len(signature.concepts) * n
            + 2 * len(signature.roles) * n * n
            + len(signature.individuals) * (math.log2(n) if n > 1 else 0.0))


def _assignment_to_interp(asn: dict, signature: Signature, n: int) -> PlainInterpretation:
    concepts = {}
    roles = {}
    individuals = {}
    for (kind, name), value in asn.items():
        if kind == "c":
            concepts[name] = frozenset(d for d in range(n) if value & (1 << d))
        elif kind == "r":
            roles[name] = frozenset((i, j) for i in range(n) for j in range(n)
                                    if value & (1 << (i * n + j)))
        else:
            individuals[name] = value
    return PlainInterpretation(n, concepts, roles, individuals)


def _occurring_signature(axioms) -> Signature:
    return signature_of(StandpointKB(plain_axioms=tuple(axioms)))


def find_plain_model(kb: PlainKB, max_domain: int,
                     guard_bits: float = 40.0) -> Optional[PlainInterpretation]:
    """Search domain sizes 1..max_domain for the canonically first model.

    Returns None when no model exists within the bound (which is not an
    unsatisfiability proof).  Raises SearchSpaceTooLarge when a domain size
    would exceed the guard before any model was found.
    """
    signature = _occurring_signature(kb.axioms).union(kb.signature)
    checks = [_Check(ax) for ax in kb.axioms]
    slots = _slot_order(checks, signature)
    for n in range(1, max_domain + 1):
        if _bits_needed(signature, n) > guard_bits:
            raise SearchSpaceTooLarge(
                f"domain size {n} needs {_bits_needed(signature, n):.0f} bits "
                f"of search space (guard: {guard_bits:.0f})")
        asn = _search_assignment(n, slots, checks)
        if asn is not None:
            interp = _assignment_to_interp(asn, signature, n)
            assert all(holds_axiom(interp, ax) for ax in kb.axioms)
            return interp
    return None


# ---------------------------------------------------------------------------
# Standpoint-structure search (atom-vector decomposition)
# ---------------------------------------------------------------------------

def _tri_formula(f: StandpointFormula, pi: int, sigma_sets: dict,
                 vectors: list, atom_index: dict) -> Optional[bool]:
    if isinstance(f, Atom):
        v = vectors[pi]
        if v is None:
            return None
        return bool(v & (1 << atom_index[f.axiom]))
    if isinstance(f, AxiomRef):
        raise UnresolvedRef(f.name)
    if isinstance(f, Negation):
        return _not3(_tri_formula(f.arg, pi, sigma_sets, vectors, atom_index))
    if isinstance(f, Conjunction):
        return _and3(_tri_formula(f.lhs, pi, sigma_sets, vectors, atom_index),
                     _tri_formula(f.rhs, pi, sigma_sets, vectors, atom_index))
    if isinstance(f, Disjunction):
        return _or3(_tri_formula(f.lhs, pi, sigma_sets, vectors, atom_index),
                    _tri_formula(f.rhs, pi, sigma_sets, vectors, atom_index))
    members = _sigma_set(f.standpoint, sigma_sets)
    states = [_tri_formula(f.arg, pi2, sigma_sets, vectors, atom_index)
              for pi2 in sorted(members)]
    if isinstance(f, Box):
        if any(s is False for s in states):
            return False
        if all(s is True for s in states):
            return True
        return None
    if any(s is True for s in states):
        return True
    if all(s is False for s in states):
        return False
    return None


def _sigma_set(e: StandpointExpr, sigma_sets: dict) -> frozenset[int]:
    if isinstance(e, Star):
        return sigma_sets[UNIVERSAL_STANDPOINT]
    if isinstance(e, SpUnion):
        return _sigma_set(e.lhs, sigma_sets) | _sigma_set(e.rhs, sigma_sets)
    if isinstance(e, SpIntersection):
        return _sigma_set(e.lhs, sigma_sets) & _sigma_set(e.rhs, sigma_sets)
    if isinstance(e, SpMinus):
        return _sigma_set(e.lhs, sigma_sets) - _sigma_set(e.rhs, sigma_sets)
    if e.name not in sigma_sets:
        raise UnknownName(f"standpoint {e.name!r} has no assignment")
    return sigma_sets[e.name]


def find_standpoint_model(kb: StandpointKB, max_domain: int, max_prec: int,
                          guard_bits: float = 40.0) -> Optional[StandpointStructure]:
    """Search for the canonically first standpoint structure modelling the KB
    within the given domain and precisification bounds.

    The formulas must be reference-free.  Enumeration order: domain size,
    precisification count, standpoint assignment, shared individual
    placement, then per-precisification atom-truth vectors, each vector
    realised by the canonically first interpretation satisfying the plain
    axioms, role axioms and required atom polarities.
    """
    for f in kb.formulas:
        for ref in walk_refs(f):
            raise UnresolvedRef(ref.name)

    atoms: list = []
    atom_index: dict = {}
    for f in kb.formulas:
        for atom in walk_atoms(f):
            if atom.axiom not in atom_index:
                atom_index[atom.axiom] = len(atoms)
                atoms.append(atom.axiom)
    k = len(atoms)

    base_axioms = list(kb.rias) + list(kb.plain_axioms)
    signature = kb.signature.union(_occurring_signature(base_axioms + atoms))
    sp_names = sorted(signature.standpoints - {UNIVERSAL_STANDPOINT})
    individuals = sorted(signature.individuals, key=lambda e: (e.base, e.local))

    base_checks = [_Check(ax) for ax in base_axioms]

    for n in range(1, max_domain + 1):
        realizable: dict = {}

        def realize(nu: tuple, v: int) -> Optional[PlainInterpretation]:
            key = (nu, v)
            if key not in realizable:
                checks = list(base_checks)
                for i, ax in enumerate(atoms):
                    checks.append(_Check(ax, positive=bool(v & (1 << i))))
                slots = _slot_order(checks, signature)
                fixed = {("i", ind): nu[j] for j, ind in enumerate(individuals)}
                asn = _search_assignment(n, slots, checks, fixed)
                realizable[key] = (None if asn is None
                                   else _assignment_to_interp(asn, signature, n))
            return realizable[key]

        for m in range(1, max_prec + 1):
            if _bits_needed(signature, n) * m > guard_bits:
                raise SearchSpaceTooLarge(
                    f"{m} precisifications over domain size {n} exceed the "
                    f"guard of {guard_bits:.0f} bits")
            all_pis = frozenset(range(m))
            for sigma_tuple in product(range(1 << m), repeat=len(sp_names)):
                sigma_sets = {UNIVERSAL_STANDPOINT: all_pis}
                for name, mask in zip(sp_names, sigma_tuple):
                    sigma_sets[name] = frozenset(b for b in range(m) if mask & (1 << b))
                for nu in product(range(n), repeat=len(individuals)):
                    # Vector candidates per position: propositionally viable
                    # under this sigma and realisable by some interpretation.
                    vectors: list = [None] * m
                    candidates: list[list[int]] = []
                    feasible = True
                    for pi in range(m):
                        cands = []
                        for v in range(1 << k):
                            vectors[pi] = v
                            viable = all(
                                _tri_formula(f, pi, sigma_sets, vectors, atom_index)
                                is not False for f in kb.formulas)
                            vectors[pi] = None
                            if viable and realize(nu, v) is not None:
                                cands.append(v)
                        if not cands:
                            feasible = False
                            break
                        candidates.append(cands)
                    if not feasible:
                        continue

                    def descend(pi: int) -> Optional[StandpointStructure]:
                        if pi == m:
                            gamma = tuple(realize(nu, vectors[q]) for q in range(m))
                            return StandpointStructure(
                                n, m, {s: sigma_sets[s] for s in sp_names}, gamma)
                        for v in candidates[pi]:
                            vectors[pi] = v
                            ok = all(
                                _tri_formula(f, pi2, sigma_sets, vectors, atom_index)
                                is not False
                                for f in kb.formulas for pi2 in range(m))
                            if ok:
                                found = descend(pi + 1)
                                if found is not None:
                                    return found
                        vectors[pi] = None
                        return None

                    structure = descend(0)
                    if structure is not None:
                        assert kb_holds(structure, kb)
                        return structure
    return None


# ---------------------------------------------------------------------------
# Entailment by query negation
# ---------------------------------------------------------------------------

ENTAILED_WITHIN_BOUNDS = "ENTAILED_WITHIN_BOUNDS"
NOT_ENTAILED = "NOT_ENTAILED"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class EntailmentResult:
    status: str
    witness: Optional[StandpointStructure] = None


def check_entailment_bounded(kb: StandpointKB, query: StandpointFormula,
                             max_domain: int, max_prec: int,
                             guard_bits: float = 40.0) -> EntailmentResult:
    """Negate the query, add it to the KB, and search for a countermodel.

    A witness structure refutes the entailment; exhausting the bounds is
    bounded evidence for it (not a proof); tripping the search guard is
    inconclusive.
    """
    extended = make_kb(rias=kb.rias, plain_axioms=kb.plain_axioms,
                       formulas=tuple(kb.formulas) + (Negation(query),),
                       named_axioms=kb.named_axioms, base_iri=kb.base_iri,
                       declared=kb.signature)
    extended = normalize_kb(extended)
    try:
        witness = find_standpoint_model(extended, max_domain, max_prec, guard_bits)
    except SearchSpaceTooLarge:
        return EntailmentResult(INCONCLUSIVE)
    if witness is not None:
        return EntailmentResult(NOT_ENTAILED, witness)
    return EntailmentResult(ENTAILED_WITHIN_BOUNDS)
