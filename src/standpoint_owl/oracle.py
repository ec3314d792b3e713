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
canonically least model, making witnesses reproducible.  The constraints
are compiled once per search into closures over a value list indexed by
slot position (None while unassigned) and over the domain size, which is
set before each size is searched, so a probe neither dispatches on node
types nor hashes names; ∃ and ∀ compile to the two cardinality kernels
(≥1 r.C, ≤0 r.¬C) and C ≡ D to a two-way C ⊑ D.  The search counts the
constraints not yet definitely true, so it sees a finished model without
evaluating every constraint at every node.
Conflict sets are sets of slot indices, and a conflict is minimised by
releasing its slots in a fixed order, by (kind, base, local) of the name.
Standpoint structures are searched by splitting the problem at the atom
level: the Boolean/modal layer only sees which TBox atoms hold at which
precisification, so truth vectors are searched propositionally and each
distinct vector is realised (or refuted) once by a bounded interpretation
search.  The propositional search fixes one atom's polarity at one
precisification at a time and re-evaluates only the formulas that atom
occurs in; the formulas are compiled once per search into closures that
give (true, false) masks with one bit per precisification (see
`_compile`), so a partial assignment that makes a formula false anywhere
is cut at once.
Exhaustion within bounds is evidence, not proof, of unsatisfiability,
except where the bounds are complete: see `check_entailment_bounded`.
"""

from __future__ import annotations

import math
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
                    field, iter_nodes, record, replace, signature_of,
                    walk_atoms, walk_refs)
from .normalizer import normalize_kb

# The most distinct atoms the standpoint search takes on: each position
# has 2**k atom vectors for k atoms, which the bit guard does not count.
# Unlike the bit guard, this cap holds under any ``guard_bits``, infinity
# included.
MAX_ATOMS = 20

# ---------------------------------------------------------------------------
# Semantic objects
# ---------------------------------------------------------------------------


@record
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


@record
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
        out = dom
        for part in c.parts:
            out &= eval_concept(interp, part)
        return out
    if isinstance(c, Or):
        out = frozenset()
        for part in c.parts:
            out |= eval_concept(interp, part)
        return out
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
    if isinstance(e, Star):
        return structure.sigma[UNIVERSAL_STANDPOINT]
    if isinstance(e, SpUnion):
        return sigma_of(structure, e.lhs) | sigma_of(structure, e.rhs)
    if isinstance(e, SpIntersection):
        return sigma_of(structure, e.lhs) & sigma_of(structure, e.rhs)
    if isinstance(e, SpMinus):
        return sigma_of(structure, e.lhs) - sigma_of(structure, e.rhs)
    if e.name not in structure.sigma:
        raise UnknownName(f"standpoint {e.name!r} has no assignment")
    return structure.sigma[e.name]


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
# A search assigns slots ("c", name) / ("r", name) / ("i", name) to subset
# masks (row-major for roles) or domain elements.  Its checks are compiled
# once per search into closures over a value list indexed like the slot
# order, where None marks a slot not yet assigned; the domain size is a
# cell of those closures, set before each size is searched.  Concept
# bounds are (lo, hi) masks: any completion's extension E has lo ⊆ E ⊆ hi.

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


_SLOT_KIND = {"concept": "c", "role": "r", "individual": "i"}


class _Check:
    """One constraint: an axiom required true (or, for atom vectors, false).

    ``slots`` holds the slots of the axiom's names in first-occurrence order;
    a check of the same axiom may pass its own, which saves the walk.
    """

    __slots__ = ("axiom", "positive", "slots")

    def __init__(self, axiom: PlainAxiom, positive: bool = True,
                 slots: tuple | None = None):
        self.axiom = axiom
        self.positive = positive
        self.slots = slots if slots is not None else tuple(
            (_SLOT_KIND[name.kind], name) for name in entity_names_in(axiom))


class _Compiled:
    """A check compiled for one search.

    ``state(vals)`` is the check's three-valued verdict (True, False or None
    for open) on the slot-indexed values ``vals`` at the domain size last
    set; ``slots`` holds the indices of the check's slots in the conflict
    minimisation order.
    """

    __slots__ = ("state", "slots")

    def __init__(self, state, slots: tuple[int, ...]):
        self.state = state
        self.slots = slots


def _compile_checks(checks: list[_Check], slots: list[tuple]):
    """Compile the checks over the slot order; return (compiled, resize).

    Every slot a check names must be in ``slots``.  ``resize(n)`` sets the
    domain size the compiled checks evaluate at, and must be called before
    they are.  A name reads its value from the list, or its widest bounds
    when the value is None; a name operand of an intersection or a union is
    read in place.  The converse of each role mask is computed at most once
    per domain size.
    """
    index = {slot: i for i, slot in enumerate(slots)}
    # Cells that depend on the domain size, rebound by resize.
    n = full = full2 = 0
    top = universal = (0, 0)
    rows: list[tuple[int, int]] = []
    diagonal: list[tuple[int, int]] = []
    converse: dict[int, int] = {}

    def resize(size: int) -> None:
        nonlocal n, full, full2, top, universal, rows, diagonal, converse
        n = size
        full = (1 << n) - 1
        full2 = (1 << (n * n)) - 1
        top, universal = (full, full), (full2, full2)
        rows = [(d * n, 1 << d) for d in range(n)]
        diagonal = [(1 << (d * n + d), 1 << d) for d in range(n)]
        converse = {}

    def role(r: RoleExpr):
        if isinstance(r, UniversalRole):
            return lambda vals: universal
        i = index[("r", r.name)]
        if isinstance(r, InverseRole):
            def inverse(vals):
                x = vals[i]
                if x is None:
                    return 0, full2
                y = converse.get(x)
                if y is None:
                    y = converse[x] = _converse(x, n)
                return y, y
            return inverse

        def name(vals):
            x = vals[i]
            return (0, full2) if x is None else (x, x)
        return name

    def concept(c: ConceptExpr):
        if isinstance(c, Top):
            return lambda vals: top
        if isinstance(c, Bottom):
            return lambda vals: (0, 0)
        if isinstance(c, ConceptName):
            i = index[("c", c.name)]

            def name(vals):
                x = vals[i]
                return (0, full) if x is None else (x, x)
            return name
        if isinstance(c, Nominal):
            i = index[("i", c.individual)]

            def nominal(vals):
                x = vals[i]
                if x is None:
                    return 0, full
                bit = 1 << x
                return bit, bit
            return nominal
        if isinstance(c, Not):
            g = concept(c.arg)

            def complement(vals):
                lo, hi = g(vals)
                return full & ~hi, full & ~lo
            return complement
        if isinstance(c, (And, Or)):
            # Bounds combine bitwise, so name operands can go first.
            names = [index[("c", part.name)] for part in c.parts
                     if isinstance(part, ConceptName)]
            parts = [concept(part) for part in c.parts
                     if not isinstance(part, ConceptName)]
            if isinstance(c, And):
                def intersection(vals):
                    lo = hi = full
                    for i in names:
                        x = vals[i]
                        if x is None:
                            lo = 0
                        else:
                            lo &= x
                            hi &= x
                    for part in parts:
                        plo, phi = part(vals)
                        lo &= plo
                        hi &= phi
                    return lo, hi
                return intersection

            def union(vals):
                lo = hi = 0
                for i in names:
                    x = vals[i]
                    if x is None:
                        hi = full
                    else:
                        lo |= x
                        hi |= x
                for part in parts:
                    plo, phi = part(vals)
                    lo |= plo
                    hi |= phi
                return lo, hi
            return union
        r = role(c.role)
        if isinstance(c, HasSelf):
            def has_self(vals):
                rlo, rhi = r(vals)
                lo = hi = 0
                for pair, bit in diagonal:
                    if rlo & pair:
                        lo |= bit
                    if rhi & pair:
                        hi |= bit
                return lo, hi
            return has_self
        # ∃r.C is ≥1 r.C and ∀r.C is ≤0 r.¬C, with the same bounds.
        if isinstance(c, Some):
            c = AtLeast(1, c.role, c.filler)
        elif isinstance(c, All):
            c = AtMost(0, c.role, Not(c.filler))
        f = concept(c.filler)
        k = c.n
        # The filler masks hold only the n low bits, so a shifted role mask
        # needs no row mask before it is intersected with them.
        if isinstance(c, AtLeast):
            def at_least(vals):
                rlo, rhi = r(vals)
                flo, fhi = f(vals)
                lo = hi = 0
                for shift, bit in rows:
                    if (rlo >> shift & flo).bit_count() >= k:
                        lo |= bit
                    if (rhi >> shift & fhi).bit_count() >= k:
                        hi |= bit
                return lo, hi
            return at_least

        def at_most(vals):
            rlo, rhi = r(vals)
            flo, fhi = f(vals)
            lo = hi = 0
            for shift, bit in rows:
                if (rhi >> shift & fhi).bit_count() <= k:
                    lo |= bit
                if (rlo >> shift & flo).bit_count() <= k:
                    hi |= bit
            return lo, hi
        return at_most

    def check_state(ax: PlainAxiom, positive: bool):
        # Verdicts when the axiom holds in every completion, or in none.
        yes, no = (True, False) if positive else (False, True)
        if isinstance(ax, (Gci, Equiv)):
            # C ≡ D is C ⊑ D and D ⊑ C.
            lhs, rhs = concept(ax.lhs), concept(ax.rhs)
            both = isinstance(ax, Equiv)

            def inclusion(vals):
                lo_l, hi_l = lhs(vals)
                lo_r, hi_r = rhs(vals)
                if lo_l & ~hi_r or both and lo_r & ~hi_l:
                    return no
                if hi_l & ~lo_r == 0 and not (both and hi_r & ~lo_l):
                    return yes
                return None
            return inclusion
        first, *rest = [role(r) for r in ax.chain]
        head = role(RoleName(ax.head))

        def role_inclusion(vals):
            lo, hi = first(vals)
            for r in rest:
                rlo, rhi = r(vals)
                lo = _compose_masks(lo, rlo, n)
                hi = _compose_masks(hi, rhi, n)
            hlo, hhi = head(vals)
            if lo & ~hhi & full2:
                return no
            if hi & ~hlo & full2 == 0:
                return yes
            return None
        return role_inclusion

    def minimisation_order(slot: tuple) -> tuple:
        return (slot[0], slot[1].base, slot[1].local)

    return [_Compiled(check_state(check.axiom, check.positive),
                      tuple(index[s] for s in sorted(check.slots, key=minimisation_order)))
            for check in checks], resize


# ---------------------------------------------------------------------------
# Canonical backtracking search for plain interpretations
# ---------------------------------------------------------------------------

def _slot_order(checks: list[_Check], signature: Signature) -> list[tuple]:
    """Names in first-occurrence order over the checks, then any remaining
    signature names in sorted order (these are unconstrained)."""
    order: list[tuple] = []
    seen = set()
    for check in checks:
        for slot in check.slots:
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


def _search_assignment(n: int, slots: list[tuple], checks: list[_Compiled],
                       fixed: dict[int, int] | None = None) -> dict | None:
    """First (canonical order) complete assignment satisfying all checks.

    ``checks`` are compiled over ``slots``, resized to domain size ``n``,
    and read one value list indexed like ``slots``; ``fixed`` maps slot
    indices to values that are given, not searched.  The result maps each
    slot to its value, fixed slots first, then the others in slot order.

    Backtracking is conflict-directed: when every value of a slot fails, the
    union of the (greedily minimised) slot index sets responsible for the
    failures is propagated upward, and levels whose slot does not occur in
    that set are skipped outright, since re-assigning them cannot repair the
    conflict.  This matters because the interval bounds cannot see
    contradictions between far-apart slots until both are assigned.  A
    conflict is minimised by unassigning the check's slots one at a time in
    a fixed order, by (kind, base, local) of the name, so the search and its
    first witness do not depend on how the slots are indexed.

    The search finishes early once every check is definitely true, which it
    sees from a count of the checks not yet settled.  Bounds only tighten as
    slots are assigned, so a check first settles when one of its slots is
    assigned, and the evaluations of the checks touching that slot see it.
    Each level keeps the checks its current value settled and releases them
    when that value changes or the level is left.
    """
    fixed = fixed or {}
    vals: list = [None] * len(slots)
    for i, value in fixed.items():
        vals[i] = value
    counts = [_slot_value_count(slot, n) for slot in slots]
    states = [check.state for check in checks]
    touching: list[list[int]] = [[] for _ in slots]
    for j, check in enumerate(checks):
        for i in check.slots:
            touching[i].append(j)
    settled = [False] * len(checks)
    unsettled = len(checks)
    for j, state in enumerate(states):
        verdict = state(vals)
        if verdict is False:
            return None
        if verdict:
            settled[j] = True
            unsettled -= 1

    def minimised_conflict(check: _Compiled) -> frozenset:
        """Assigned slots without which the check would no longer refute."""
        needed = []
        freed = []
        for i in check.slots:
            value = vals[i]
            if value is not None:
                vals[i] = None
                if check.state(vals) is False:
                    freed.append((i, value))
                else:
                    vals[i] = value
                    needed.append(i)
        for i, value in freed:
            vals[i] = value
        return frozenset(needed)

    def release(level: list[int]) -> None:
        """Unsettle the checks that a level's value settled."""
        nonlocal unsettled
        for j in level:
            settled[j] = False
        unsettled += len(level)
        level.clear()

    def assignment() -> dict:
        out = {slots[i]: value for i, value in fixed.items()}
        for i, value in enumerate(vals):
            if i not in fixed:
                out[slots[i]] = value
        return out

    # The slots searched, in order, and per slot being enumerated, whose
    # value is in vals, one conflict set and the checks its value settled:
    # the stack replaces one recursion per slot.
    free = [i for i in range(len(slots)) if i not in fixed]
    conflicts: list[set] = []
    settles: list[list[int]] = []
    result = None
    while True:
        if result is None:  # descend to the next free slot
            if len(conflicts) == len(free):
                failed = next((check for check in checks if check.state(vals) is False), None)
                if failed is None:
                    return assignment()
                result = minimised_conflict(failed)
            else:
                conflicts.append(set())
                settles.append([])
        if not conflicts:
            return None
        k, conflict, mine = free[len(conflicts) - 1], conflicts[-1], settles[-1]
        if result is not None:  # a conflict from the level below
            if k not in result:
                vals[k] = None
                release(mine)
                conflicts.pop()
                settles.pop()
                continue
            conflict |= result
            result = None
        for value in range(0 if vals[k] is None else vals[k] + 1, counts[k]):
            vals[k] = value
            if mine:
                release(mine)
            for j in touching[k]:
                verdict = states[j](vals)
                if verdict is False:
                    conflict |= minimised_conflict(checks[j])
                    break
                if verdict and not settled[j]:
                    settled[j] = True
                    mine.append(j)
                    unsettled -= 1
            else:  # no check refutes the value: finish early or descend
                if not unsettled:
                    for i in free[len(conflicts):]:
                        vals[i] = 0
                    return assignment()
                break
        else:  # every value failed: pass the conflict up
            release(mine)
            conflicts.pop()
            settles.pop()
            vals[k] = None
            conflict.discard(k)
            result = frozenset(conflict)


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
    compiled, resize = _compile_checks(checks, slots)
    for n in range(1, max_domain + 1):
        if _bits_needed(signature, n) > guard_bits:
            raise SearchSpaceTooLarge(
                f"domain size {n} needs {_bits_needed(signature, n):.0f} bits "
                f"of search space (guard: {guard_bits:.0f})")
        resize(n)
        asn = _search_assignment(n, slots, compiled)
        if asn is not None:
            interp = _assignment_to_interp(asn, signature, n)
            assert all(holds_axiom(interp, ax) for ax in kb.axioms)
            return interp
    return None


# ---------------------------------------------------------------------------
# Standpoint-structure search (atom-vector decomposition)
# ---------------------------------------------------------------------------

def _compile(formulas, atom_index: dict, sp_names: list[str]):
    """Compile the formulas once per search into three-valued evaluators.

    Returns (evaluators, modals).  ``modals`` holds one function per modal
    operator, mapping (sigma_tuple, full) to the operator's member mask,
    where ``sigma_tuple[j]`` is the member mask of ``sp_names[j]`` and
    ``full`` the mask of all precisifications.  ``evaluators`` holds one
    function per formula, mapping (at, af, members) to its (true, false)
    masks, one bit per precisification: bit pi is set when the formula is
    definitely true (false) at pi.  ``at[i]``/``af[i]`` mask the
    precisifications where atom ``i`` is known true/false, and
    ``members[j]`` is modal ``j``'s member mask.  Bitwise this is the
    three-valued logic: negation swaps, conjunction and disjunction combine
    bitwise, and a box over members M is true when its argument is true
    throughout M (``t & M == M``), false when it is false somewhere in M
    (``f & M``), and unknown otherwise; a diamond dually.  A modal's value
    is the same at every precisification, so it sets all bits (-1) or none;
    over an empty M a box is true and a diamond false.
    """
    sp_pos = {name: j for j, name in enumerate(sp_names)}
    modals: list = []

    def members(e):
        if isinstance(e, Star):
            return lambda sig, full: full
        if isinstance(e, (SpUnion, SpIntersection, SpMinus)):
            a, b = members(e.lhs), members(e.rhs)
            if isinstance(e, SpUnion):
                return lambda sig, full: a(sig, full) | b(sig, full)
            if isinstance(e, SpIntersection):
                return lambda sig, full: a(sig, full) & b(sig, full)
            return lambda sig, full: a(sig, full) & ~b(sig, full)
        if e.name not in sp_pos:
            raise UnknownName(f"standpoint {e.name!r} has no assignment")
        j = sp_pos[e.name]
        return lambda sig, full: sig[j]

    def formula(f):
        if isinstance(f, Atom):
            i = atom_index[f.axiom]
            return lambda at, af, ms: (at[i], af[i])
        if isinstance(f, Negation):
            g = formula(f.arg)

            def negation(at, af, ms):
                t, fl = g(at, af, ms)
                return fl, t
            return negation
        if isinstance(f, (Conjunction, Disjunction)):
            g, h = formula(f.lhs), formula(f.rhs)
            if isinstance(f, Conjunction):
                def conjunction(at, af, ms):
                    t1, f1 = g(at, af, ms)
                    t2, f2 = h(at, af, ms)
                    return t1 & t2, f1 | f2
                return conjunction

            def disjunction(at, af, ms):
                t1, f1 = g(at, af, ms)
                t2, f2 = h(at, af, ms)
                return t1 | t2, f1 & f2
            return disjunction
        j = len(modals)
        modals.append(members(f.standpoint))
        g = formula(f.arg)
        if isinstance(f, Box):
            def box(at, af, ms):
                t, fl = g(at, af, ms)
                mask = ms[j]
                return -1 if t & mask == mask else 0, -1 if fl & mask else 0
            return box

        def diamond(at, af, ms):
            t, fl = g(at, af, ms)
            mask = ms[j]
            return -1 if t & mask else 0, -1 if fl & mask == mask else 0
        return diamond

    return [formula(f) for f in formulas], modals


def domain_cap(kb: StandpointKB) -> Optional[int]:
    """A domain size above which no first model lies, or None.

    It is N = max(1, the number of distinct atoms under a negation) for a
    KB with no role, no individual (so no nominal), no role inclusion and
    no universal role, and None for any other KB.  In such a KB every
    concept is Boolean, so an atom holds at a precisification exactly when
    every element satisfies it, and a false atom has one violating element.
    Take a model, and at each precisification list one violating element
    per atom under a negation that is false there.  On the domain
    {0, …, N-1}, let element i take at each precisification the concept
    memberships of that precisification's i-th listed element (or of any
    element when fewer are listed); concepts are not rigid and nothing ties
    elements together, so with the same precisifications and sigma this is
    a structure.  Each element satisfies a Boolean concept (⊤ and ⊥
    included) exactly when the element it copies does, so a true atom stays
    true, and an atom under a negation keeps its truth value everywhere.
    Every other atom occurs only under ∧, ∨, boxes and diamonds, which are
    monotone, so every plain axiom and formula still holds.  A model with
    m precisifications therefore has one with at most N elements and the
    same m, and as the domain size is the outermost loop of the search,
    sizes above N never hold the first model.  After NNF the atoms under a
    negation are the negated ones, a negated equivalence being two negated
    inclusions; on other formulas the count is an over-approximation.
    """
    signature = kb.signature
    if signature.roles or signature.individuals or kb.rias:
        return None
    negated = set()
    for root in (*kb.plain_axioms, *kb.formulas):
        # A concept name holds no role, so the walk need not enter it.
        for node in iter_nodes(root, (ConceptName,)):
            # owl:topObjectProperty is no name, so the signature lacks it.
            if type(node) is UniversalRole:
                return None
            if type(node) is Negation:
                negated.update(atom.axiom for atom in walk_atoms(node))
    return max(1, len(negated))


def find_standpoint_model(kb: StandpointKB, max_domain: int, max_prec: int,
                          guard_bits: float = 40.0) -> Optional[StandpointStructure]:
    """Search for the canonically first standpoint structure modelling the KB
    within the given domain and precisification bounds.

    The formulas must be reference-free, and ``kb.signature`` must cover
    the KB, as `make_kb`, `assemble_kb` and `negated_query_kb` build it; it
    is taken as given.  Enumeration order: domain size, precisification
    count, standpoint assignment, shared individual placement, then
    per-precisification atom-truth vectors, position by position, each
    vector in ascending order and realised by the canonically first
    interpretation satisfying the plain axioms, role axioms and required
    atom polarities.  A position's vector is built atom by atom, from the
    most significant down, 0 before 1, which visits the vectors in that
    ascending order; a partial assignment that makes a formula false at
    some precisification is cut.  Domain sizes above `domain_cap` are not
    searched: they hold no first model.

    Raises SearchSpaceTooLarge when the guard trips, or when the formulas
    have more than MAX_ATOMS distinct atoms, whatever the guard.
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
    signature = kb.signature
    sp_names = sorted(signature.standpoints - {UNIVERSAL_STANDPOINT})
    individuals = sorted(signature.individuals, key=lambda e: (e.base, e.local))

    base_checks = [_Check(ax) for ax in base_axioms]
    # Both polarities of each atom's check, sharing one walk's slots; the
    # slot order does not depend on polarity, so it is the same for every
    # vector.
    atom_checks = [(_Check(pos.axiom, False, pos.slots), pos)
                   for pos in map(_Check, atoms)]
    slots = _slot_order(base_checks + [pos for _, pos in atom_checks], signature)
    individual_slots = [slots.index(("i", ind)) for ind in individuals]
    compiled, resize = _compile_checks(
        base_checks + [check for pair in atom_checks for check in pair], slots)
    base = compiled[:len(base_checks)]
    atom_pairs = [compiled[j:j + 2] for j in range(len(base_checks), len(compiled), 2)]
    if k > MAX_ATOMS:
        raise SearchSpaceTooLarge(f"{k} distinct atoms exceed the cap of {MAX_ATOMS}")
    evaluators, modals = _compile(kb.formulas, atom_index, sp_names)
    # The evaluators of the formulas each atom occurs in, re-evaluated when
    # the search fixes that atom at a position.
    users: list[list] = [[] for _ in atoms]
    for f, ev in zip(kb.formulas, evaluators):
        for i in {atom_index[atom.axiom] for atom in walk_atoms(f)}:
            users[i].append(ev)

    cap = None
    for n in range(1, max_domain + 1):
        if n == 2:  # a search that ends at size 1 does not pay for the walk
            cap = domain_cap(kb)
        if cap is not None and n > cap:
            break
        realizable: dict = {}
        resize(n)
        # An atom whose check is settled before any name is assigned has one
        # polarity, the other is never realised: it is set at every position
        # before the search, which branches on the free atoms only.
        unassigned = [None] * len(slots)
        forced = [pos.state(unassigned) for _, pos in atom_pairs]
        free = [i for i in reversed(range(k)) if forced[i] is None]
        fixed_bits = sum(1 << i for i, polarity in enumerate(forced) if polarity)

        def realize(nu: tuple, v: int) -> Optional[PlainInterpretation]:
            key = (nu, v)
            if key not in realizable:
                checks = base + [pair[v >> i & 1] for i, pair in enumerate(atom_pairs)]
                asn = _search_assignment(n, slots, checks, dict(zip(individual_slots, nu)))
                realizable[key] = (None if asn is None
                                   else _assignment_to_interp(asn, signature, n))
            return realizable[key]

        def vectors(pi: int, depth: int = 0, v: int = fixed_bits):
            """Position pi's vectors in ascending order that make no formula
            false and are realised under the ``nu`` searched: free atom
            ``free[depth]`` is fixed false, then true, at pi, and the
            formulas it occurs in are evaluated again.  ``at``/``af`` hold a
            vector's bits while it is yielded; a generator that is used up
            has cleared them."""
            if depth == len(free):
                if realize(nu, v) is not None:
                    yield v
                return
            i, bit = free[depth], 1 << pi
            for polarity, known in enumerate((af, at)):
                known[i] |= bit
                for ev in users[i]:
                    if ev(at, af, ms)[1]:
                        break
                else:
                    yield from vectors(pi, depth + 1, v | polarity << i)
                known[i] ^= bit

        for m in range(1, max_prec + 1):
            if _bits_needed(signature, n) * m > guard_bits:
                raise SearchSpaceTooLarge(
                    f"{m} precisifications over domain size {n} exceed the "
                    f"guard of {guard_bits:.0f} bits")
            full = (1 << m) - 1
            at = [full if polarity is True else 0 for polarity in forced]
            af = [full if polarity is False else 0 for polarity in forced]
            for sigma_tuple in product(range(1 << m), repeat=len(sp_names)):
                ms = [mask_of(sigma_tuple, full) for mask_of in modals]
                # Every formula once with only the forced atoms known.
                if any(ev(at, af, ms)[1] for ev in evaluators):
                    continue
                for nu in product(range(n), repeat=len(individuals)):
                    # One generator per position taken so far, and the vector
                    # it yielded last: the stack replaces one recursion per
                    # position, as m may be large.
                    chosen: list[int] = []
                    stack = [vectors(0)]
                    while stack:
                        v = next(stack[-1], None)
                        del chosen[len(stack) - 1:]
                        if v is None:
                            stack.pop()
                            continue
                        chosen.append(v)
                        if len(chosen) == m:
                            gamma = tuple(realize(nu, v) for v in chosen)
                            sigma = {s: frozenset(b for b in range(m) if mask >> b & 1)
                                     for s, mask in zip(sp_names, sigma_tuple)}
                            structure = StandpointStructure(n, m, sigma, gamma)
                            assert kb_holds(structure, kb)
                            return structure
                        stack.append(vectors(len(stack)))
    return None


# ---------------------------------------------------------------------------
# Entailment by query negation
# ---------------------------------------------------------------------------

ENTAILED_WITHIN_BOUNDS = "ENTAILED_WITHIN_BOUNDS"
NOT_ENTAILED = "NOT_ENTAILED"
INCONCLUSIVE = "INCONCLUSIVE"


@record
class EntailmentResult:
    status: str
    witness: Optional[StandpointStructure] = None


def check_entailment_bounded(kb: StandpointKB, query: StandpointFormula,
                             max_domain: int, max_prec: int,
                             guard_bits: float = 40.0) -> EntailmentResult:
    """Negate the query, add it to the KB, and search for a countermodel.

    A witness structure refutes the entailment; tripping the search guard
    is inconclusive.  Exhausting the bounds is bounded evidence for the
    entailment, not a proof, unless the bounds are complete: when
    `domain_cap` of the negated-query KB is not None and at most
    ``max_domain``, and ``max_prec`` is at least its precisification bound
    p (`count_precisifications`), a countermodel of any size would give one
    within the bounds, so the entailment holds.
    """
    return search_countermodel(negated_query_kb(kb, query), max_domain,
                               max_prec, guard_bits)


def negated_query_kb(kb: StandpointKB, query: StandpointFormula) -> StandpointKB:
    """The KB with the negated query added, normalized: the input of
    `search_countermodel`.  ``kb.signature`` must cover the KB, as
    `make_kb` and `assemble_kb` build it; only the query's names are
    added to it."""
    negated = Negation(query)
    signature = kb.signature.union(signature_of(StandpointKB(formulas=(negated,))))
    return normalize_kb(replace(kb, formulas=(*kb.formulas, negated),
                                signature=signature))


def search_countermodel(extended: StandpointKB, max_domain: int, max_prec: int,
                        guard_bits: float = 40.0) -> EntailmentResult:
    """`check_entailment_bounded` on a KB that `negated_query_kb` built."""
    try:
        witness = find_standpoint_model(extended, max_domain, max_prec, guard_bits)
    except SearchSpaceTooLarge:
        return EntailmentResult(INCONCLUSIVE)
    if witness is not None:
        return EntailmentResult(NOT_ENTAILED, witness)
    return EntailmentResult(ENTAILED_WITHIN_BOUNDS)
