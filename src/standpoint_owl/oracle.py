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
are compiled once per search, in the one walk that also gives each name
its slot (`_compile_checks`), so a probe neither dispatches on node types
nor hashes names.
Conflict sets are sets of slot indices, and a conflict is minimised by
releasing its slots in a fixed order, by (kind, base, local) of the name.
Standpoint structures are searched by splitting the problem at the atom
level: the Boolean/modal layer only sees which TBox atoms hold at which
precisification, so truth vectors are searched propositionally and each
distinct vector is realised (or refuted) once by a bounded interpretation
search.  When the slots hold a role and the domain has two elements or
more, that search first runs over the concept slots alone, every role left
at its widest bounds, which hold in every completion: a vector it refutes
is refuted without enumerating a role extension, and any other vector is
searched in full, so no witness moves.  The propositional search fixes
one atom's polarity at one precisification at a time and re-evaluates
only the formulas that atom occurs in; the formulas are compiled once per
search into closures that give (true, false) masks with one bit per
precisification (see `_compile`), so a partial assignment that makes a
formula false anywhere is cut at once.  That one walk over each formula
also numbers the atoms, lists the formulas each atom occurs in and
collects those under an odd number of negations for `domain_cap`.  No
first model has more precisifications than p, the modals that need a
witness (`count_precisifications`).  Renaming the precisifications maps
models to models, so the search takes one standpoint assignment per
orbit, the least in `product` order (`_orbit_leaders`), and gives two
adjacent precisifications in the same standpoints ascending vectors: the
first model obeys both rules, as a renamed copy that broke one would come
before it.
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
                    Top, UNIVERSAL_STANDPOINT, UniversalRole, EMPTY_MAPPING,
                    record, replace, signature_of)
from .normalizer import count_precisifications, normalize_kb

# The most distinct atoms the standpoint search takes on: each position
# has 2**k atom vectors for k atoms, which the bit guard does not count.
# Unlike the bit guard, this cap holds under any ``guard_bits``, infinity
# included.
MAX_ATOMS = 20

# The default search guard: the most bits of search space a search takes
# on (`_bits_needed`; in a standpoint search, plus one bit per named
# standpoint, times the precisification count).
GUARD_BITS = 40.0

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
    individual_map: Mapping[EntityName, int] = EMPTY_MAPPING

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
# A search's slots are the names it assigns subset masks (row-major for
# roles) or, to individuals, domain elements; None marks a slot not yet
# assigned.  Concept bounds are (lo, hi) masks: any completion's extension
# E has lo ⊆ E ⊆ hi.

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


def _compile_checks(checks: list[tuple[PlainAxiom, bool]], signature: Signature):
    """Compile the checks, each an axiom and its required truth value, into
    closures over a list of slot values; return (compiled, slots, resize,
    universal).

    ``slots`` is the slot order: the names of the checks in first-occurrence
    order, then the signature's remaining concepts, roles and individuals,
    each sorted by (base, local); these are unconstrained.  The compile is
    the one walk: it meets names in `entity_names_in` order and numbers each
    when first met.  A check's conflict slots are its axiom's names sorted
    by (kind, base, local).  Each axiom object is compiled once (keyed by
    identity, as hashing an axiom would walk it too), so the two
    polarities of an atom share its operands and conflict slots.
    ``resize(n)`` sets the domain size the compiled checks evaluate at, and
    must be called before they are.  A name reads its value from the list,
    or its widest bounds when the value is None; a name operand of an
    intersection or a union is read in place.  The converse of each role
    mask is computed at most once per domain size.  ``universal`` says
    whether a check holds the universal role, which is no name.
    """
    index: dict[EntityName, int] = {}  # each name's slot, in slot order
    met: set[EntityName] = set()  # the names met in the axiom being compiled

    def slot(name: EntityName) -> int:
        met.add(name)
        return index.setdefault(name, len(index))
    # Cells that depend on the domain size, rebound by resize.
    n = full = full2 = 0
    top = universal = (0, 0)
    rows: list[tuple[int, int]] = []
    diagonal: list[tuple[int, int]] = []
    converse: dict[int, int] = {}
    met_universal = False

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
        nonlocal met_universal
        if isinstance(r, UniversalRole):
            met_universal = True
            return lambda vals: universal
        i = slot(r.name)
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
            i = slot(c.name)

            def name(vals):
                x = vals[i]
                return (0, full) if x is None else (x, x)
            return name
        if isinstance(c, Nominal):
            i = slot(c.individual)

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
            # Bounds combine bitwise, so name operands can be read first.
            names, parts = [], []
            for part in c.parts:
                if isinstance(part, ConceptName):
                    names.append(slot(part.name))
                else:
                    parts.append(concept(part))
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

    def check_state(ax: PlainAxiom, pair: tuple, positive: bool):
        # Verdicts when the axiom holds in every completion, or in none.
        yes, no = (True, False) if positive else (False, True)
        if isinstance(ax, (Gci, Equiv)):
            # C ≡ D is C ⊑ D and D ⊑ C.
            lhs, rhs = pair
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
        (first, *rest), head = pair

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

    compiled = []
    operands: dict[int, tuple] = {}  # by id(axiom): operand closures, conflict slots
    for axiom, positive in checks:
        if id(axiom) not in operands:
            met.clear()
            if isinstance(axiom, (Gci, Equiv)):
                pair = concept(axiom.lhs), concept(axiom.rhs)
            else:
                pair = [role(r) for r in axiom.chain], role(RoleName(axiom.head))
            conflict = sorted(met, key=lambda e: (e.kind, e.base, e.local))
            operands[id(axiom)] = pair, tuple(index[name] for name in conflict)
        pair, conflict = operands[id(axiom)]
        compiled.append(_Compiled(check_state(axiom, pair, positive), conflict))
    for names in (signature.concepts, signature.roles, signature.individuals):
        for name in sorted(names, key=lambda e: (e.base, e.local)):
            index.setdefault(name, len(index))
    return compiled, list(index), resize, met_universal


# ---------------------------------------------------------------------------
# Canonical backtracking search for plain interpretations
# ---------------------------------------------------------------------------

def _slot_value_count(name: EntityName, n: int) -> int:
    if name.kind == "concept":
        return 1 << n
    if name.kind == "role":
        return 1 << (n * n)
    return n


def _search_assignment(n: int, slots: list[EntityName], checks: list[_Compiled],
                       fixed: dict[int, int] | None = None,
                       order: list[int] | None = None) -> dict | None:
    """First (canonical order) complete assignment satisfying all checks.

    ``checks`` are compiled over ``slots``, resized to domain size ``n``,
    and read one value list indexed like ``slots``; ``fixed`` maps slot
    indices to values that are given, not searched.  ``order`` lists the
    indices of the slots searched, in the order they are assigned; by
    default every slot that is not fixed, in slot order.  The result maps
    each slot to its value, fixed slots first, then the others in slot
    order.  A slot neither fixed nor in ``order`` stays None, so every
    check reads it at its widest bounds, which hold in every completion:
    a None result then means that no value of it satisfies the checks
    either, and a result is only an assignment of the other slots.

    Backtracking is conflict-directed: when every value of a slot fails, the
    union of the (greedily minimised) slot index sets responsible for the
    failures is propagated upward, and levels whose slot does not occur in
    that set are skipped outright, since re-assigning them cannot repair the
    conflict.  This matters because the interval bounds cannot see
    contradictions between far-apart slots until both are assigned.  A
    conflict is minimised by unassigning the check's slots one at a time in
    a fixed order, by (kind, base, local) of the name, so the search and its
    first witness do not depend on how the slots are indexed.
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
    if any(state(vals) is False for state in states):
        return None

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

    def assignment() -> dict:
        out = {slots[i]: value for i, value in fixed.items()}
        for i, value in enumerate(vals):
            if i not in fixed:
                out[slots[i]] = value
        return out

    # The slots searched, in order, and one conflict set per slot being
    # enumerated, whose value is in vals: the stack replaces one recursion
    # per slot.
    free = [i for i in range(len(slots)) if i not in fixed] if order is None else order
    conflicts: list[set] = []
    result = None
    while True:
        if result is None:  # descend to the next free slot
            if len(conflicts) == len(free):
                # No check is false here: one without a searched slot held
                # before the search, and every other one held when the last
                # of its searched slots took its current value.
                return assignment()
            conflicts.append(set())
        if not conflicts:
            return None
        k, conflict = free[len(conflicts) - 1], conflicts[-1]
        if result is not None:  # a conflict from the level below
            if k not in result:
                vals[k] = None
                conflicts.pop()
                continue
            conflict |= result
            result = None
        for value in range(0 if vals[k] is None else vals[k] + 1, counts[k]):
            vals[k] = value
            for j in touching[k]:
                if states[j](vals) is False:
                    conflict |= minimised_conflict(checks[j])
                    break
            else:  # no check refutes the value: descend
                break
        else:  # every value failed: pass the conflict up
            conflicts.pop()
            vals[k] = None
            conflict.discard(k)
            result = frozenset(conflict)


def _bits_needed(slots: list[EntityName], n: int) -> float:
    """What the guard counts for an interpretation search over the slots at
    domain size n: n bits per concept, 2n² per role (twice the bits of its
    extension) and log2 n per individual."""
    weight = {"concept": n, "role": 2 * n * n, "individual": math.log2(n)}
    return sum(weight[name.kind] for name in slots)


def _assignment_to_interp(asn: dict, n: int) -> PlainInterpretation:
    concepts = {}
    roles = {}
    individuals = {}
    for name, value in asn.items():
        if name.kind == "concept":
            concepts[name] = frozenset(d for d in range(n) if value & (1 << d))
        elif name.kind == "role":
            roles[name] = frozenset((i, j) for i in range(n) for j in range(n)
                                    if value & (1 << (i * n + j)))
        else:
            individuals[name] = value
    return PlainInterpretation(n, concepts, roles, individuals)


def find_plain_model(kb: PlainKB, max_domain: int,
                     guard_bits: float = GUARD_BITS) -> Optional[PlainInterpretation]:
    """Search domain sizes 1..max_domain for the canonically first model.

    Returns None when no model exists within the bound (which is not an
    unsatisfiability proof).  Raises SearchSpaceTooLarge when a domain size
    would exceed the guard before any model was found, and ValueError when
    the bound is below 1, as the domain is never empty.
    """
    if max_domain < 1:
        raise ValueError(f"the domain bound must be at least 1, got {max_domain}")
    compiled, slots, resize, _ = _compile_checks([(ax, True) for ax in kb.axioms],
                                                 kb.signature)
    for n in range(1, max_domain + 1):
        bits = _bits_needed(slots, n)
        if bits > guard_bits:
            raise SearchSpaceTooLarge(f"domain size {n} needs {bits:.0f} bits of search "
                                      f"space (guard: {guard_bits:.0f})")
        resize(n)
        asn = _search_assignment(n, slots, compiled)
        if asn is not None:
            interp = _assignment_to_interp(asn, n)
            assert all(holds_axiom(interp, ax) for ax in kb.axioms)
            return interp
    return None


# ---------------------------------------------------------------------------
# Standpoint-structure search (atom-vector decomposition)
# ---------------------------------------------------------------------------

def _compile(formulas, sp_names: list[str]):
    """Compile the formulas once per search into three-valued evaluators, in
    one walk over each formula.

    Returns (atoms, evaluators, users, modals, negated): ``atoms``, the
    distinct TBox axioms of the atoms, numbered in first-occurrence order,
    in preorder across the formulas.  ``evaluators`` holds one function per
    formula, mapping (at, af, members) to its (true, false) masks, one bit
    per precisification: bit pi is set when the formula is definitely true
    (false) at pi.  ``at[i]``/``af[i]`` mask the precisifications where
    atom ``i`` is known true/false, and ``members[j]`` is modal ``j``'s
    member mask.  ``users[i]`` holds the evaluators of the formulas atom
    ``i`` occurs in, in formula order.  ``modals`` holds one function per
    modal operator, mapping (sigma_tuple, full) to the operator's member
    mask, where ``sigma_tuple[j]`` is the member mask of ``sp_names[j]``
    and ``full`` the mask of all precisifications.  ``negated`` holds the
    numbers of the atoms under an odd number of negations, the negated
    atoms after NNF.
    Bitwise this is the three-valued logic: negation swaps, conjunction
    and disjunction combine bitwise, and a box over members M is true when
    its argument is true throughout M (``t & M == M``), false when it is
    false somewhere in M (``f & M``), and unknown otherwise; a diamond
    dually.  A modal's value is the same at every precisification, so it
    sets all bits (-1) or none; over an empty M a box is true and a diamond
    false.  A §-reference raises UnresolvedRef.
    """
    sp_pos = {name: j for j, name in enumerate(sp_names)}
    atoms: list = []
    atom_index: dict = {}
    users: list[list] = []
    modals: list = []
    negative: set[int] = set()

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

    def formula(f, negated):
        if isinstance(f, Atom):
            i = atom_index.get(f.axiom)
            if i is None:
                i = atom_index[f.axiom] = len(atoms)
                atoms.append(f.axiom)
                users.append([])
            met.add(i)
            if negated:
                negative.add(i)
            return lambda at, af, ms: (at[i], af[i])
        if isinstance(f, Negation):
            g = formula(f.arg, not negated)

            def negation(at, af, ms):
                t, fl = g(at, af, ms)
                return fl, t
            return negation
        if isinstance(f, (Conjunction, Disjunction)):
            g, h = formula(f.lhs, negated), formula(f.rhs, negated)
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
        if isinstance(f, AxiomRef):
            raise UnresolvedRef(f.name)
        j = len(modals)
        modals.append(members(f.standpoint))
        g = formula(f.arg, negated)
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

    evaluators = []
    for f in formulas:
        met = set()  # the atoms ``formula`` meets in f
        ev = formula(f, False)
        evaluators.append(ev)
        for i in met:
            users[i].append(ev)
    return atoms, evaluators, users, modals, negative


def domain_cap(kinds: set[str], universal: bool, negated: int) -> Optional[int]:
    """A domain size above which no first model lies, or None, from what
    the compile walks saw (`_compile`, `_compile_checks`).

    It is N = max(1, negated), ``negated`` atoms being under an odd number
    of negations, when every slot is a concept (``kinds`` holds the slots'
    kinds) and no check holds the ``universal`` role: a KB with no role, no
    individual (so no nominal), no role inclusion and no universal role.
    Every concept is then Boolean, so an atom holds at a precisification
    exactly when every element satisfies it, and a false atom has one
    violating element.  Take a model, and at each precisification list one
    violating element per atom under an odd number of negations that is
    false there.  On the domain {0, …, N-1}, let element i take at each
    precisification the concept memberships of that precisification's i-th
    listed element (or of any element when fewer are listed); concepts are
    not rigid and nothing ties elements together, so with the same
    precisifications and sigma this is a structure.  Each element satisfies
    a Boolean concept (⊤ and ⊥ included) exactly when the element it copies
    does, so a true atom stays true, and a listed atom keeps its truth value
    everywhere.  Every other atom occurs only under an even number of
    negations, where a formula is monotone in it, so every plain axiom and
    formula still holds.  A model with m precisifications therefore has one
    with at most N elements and the same m, and as the domain size is the
    outermost loop of the search, sizes above N never hold the first model.
    After NNF these atoms are the negated ones, a negated equivalence being
    two negated inclusions.
    """
    if universal or kinds - {"concept"}:
        return None
    return max(1, negated)


def _orbit_leaders(m: int, s: int):
    """The tuples of s member masks over m precisifications that are the
    least of their orbit under renaming the precisifications, lazily and in
    `product` order.

    Read row pi as pi's membership in each standpoint, a word whose most
    significant bit is the first mask's.  Renaming permutes the rows, and
    a tuple is the least of its orbit exactly when its rows do not
    increase, so there are C(m + 2^s − 1, m) of them, one per multiset of
    rows.  They are counted per block of equal rows, from one block of all
    m positions: each mask puts its ones on a prefix of every block, one
    digit per block, the block at the highest positions the most
    significant, which is ascending mask order.  Each block then splits at
    its prefix for the masks after it.  Once every block is one position,
    the masks after it are free, in `product` order; at m = 1 that is from
    the start.
    """
    def extend(prefix: tuple, blocks: list):
        # ``blocks`` holds (start, size) pairs, highest positions first.
        if len(blocks) == m:  # no two rows are equal, so no mask is bound
            yield from map(prefix.__add__, product(range(1 << m), repeat=s - len(prefix)))
            return
        last = len(prefix) + 1 == s
        for ones in product(*[range(size + 1) for _, size in blocks]):
            mask = 0
            for (start, _), k in zip(blocks, ones):
                mask |= ((1 << k) - 1) << start
            if last:
                yield (*prefix, mask)
                continue
            split = []
            for (start, size), k in zip(blocks, ones):
                if k < size:
                    split.append((start + k, size - k))
                if k:
                    split.append((start, k))
            yield from extend((*prefix, mask), split)
    return extend((), [(0, m)]) if s else iter([()])


def find_standpoint_model(kb: StandpointKB, max_domain: int, max_prec: int,
                          guard_bits: float = GUARD_BITS) -> Optional[StandpointStructure]:
    """Search for the canonically first standpoint structure modelling the KB
    within the given domain and precisification bounds.

    The formulas must be reference-free, and ``kb.signature`` must cover
    the KB, as `make_kb`, `assemble_kb` and `negated_query_kb` build it; it
    is taken as given.  Enumeration order: domain size, precisification
    count, standpoint assignment, shared individual placement, then
    per-precisification atom-truth vectors, position by position, each
    vector in ascending order and realised by the canonically first
    interpretation satisfying the plain axioms, role axioms and required
    atom polarities; each atom is compiled required false and required
    true, in one `_compile_checks` call, so one slot order serves every
    vector.  If the slots hold a role and n ≥ 2, a vector is first searched
    with its roles left open (see the module docstring).  A position's
    vector is built atom by atom, from the most significant down, 0 before
    1, which visits the vectors in that ascending order; a partial
    assignment that makes a formula false at some precisification is cut.
    Domain sizes above `domain_cap`, taken from the two compile walks, are
    not searched: they hold no first model.  Nor are precisification counts
    above p, the modals that need a witness (`count_precisifications`): a
    model with more precisifications stays one on a witness for each such
    modal, at the same domain size, so the first model has at most p.

    Of the (2^m)^s standpoint assignments for s named standpoints, only
    the C(m + 2^s − 1, m) whose rows do not increase are searched (see
    `_orbit_leaders`), row pi being pi's membership in each standpoint; and
    a position whose row equals the one before takes no vector below that
    one's.  Renaming the precisifications maps a model to a model with the
    same ``nu`` (individuals are rigid) and the vectors renamed with it.
    So the first model's assignment is the least of its orbit, and its
    vectors do not decrease where rows are equal: otherwise a renamed copy
    would come earlier in the enumeration.  Neither rule moves the first
    witness.  `search_countermodel` reports the bounds searched.

    Raises SearchSpaceTooLarge when the guard trips, or when the formulas
    have more than MAX_ATOMS distinct atoms, whatever the guard; and
    ValueError when a bound is below 1, as neither set is ever empty.
    """
    return _search_structures(kb, max_domain, max_prec, guard_bits).witness


def _search_structures(kb: StandpointKB, max_domain: int, max_prec: int, guard_bits: float):
    """`find_standpoint_model`'s search, as a NOT_ENTAILED result with the
    model found or an ENTAILED_WITHIN_BOUNDS one with the bounds searched.
    The domain cap is computed once, before the domain loop.

    The sigma tuples of each count m come from `_orbit_leaders`, lazily in
    `product` order.  Per tuple, one mask marks the adjacent positions whose
    rows differ; a position whose row equals the one before passes that
    position's vector to `vectors` as its lower bound.  At m = 1 there is
    no such position, and the bound stays 0."""
    if max_domain < 1 or max_prec < 1:
        raise ValueError(f"the bounds must be at least 1, got domain {max_domain} "
                         f"and precisifications {max_prec}")
    signature = kb.signature
    sp_names = sorted(signature.standpoints - {UNIVERSAL_STANDPOINT})
    # ``users[i]`` is re-evaluated when the search fixes atom i at a position.
    atoms, evaluators, users, modals, negated = _compile(kb.formulas, sp_names)
    p = count_precisifications(kb)
    k = len(atoms)
    if k > MAX_ATOMS:
        raise SearchSpaceTooLarge(f"{k} distinct atoms exceed the cap of {MAX_ATOMS}")

    base_axioms = list(kb.rias) + list(kb.plain_axioms)
    individuals = sorted(signature.individuals, key=lambda e: (e.base, e.local))
    compiled, slots, resize, universal = _compile_checks(
        [(ax, True) for ax in base_axioms]
        + [(ax, polarity) for ax in atoms for polarity in (False, True)], signature)
    individual_slots = [slots.index(ind) for ind in individuals]
    base = compiled[:len(base_axioms)]
    atom_pairs = [compiled[j:j + 2] for j in range(len(base_axioms), len(compiled), 2)]
    # The concept slots, the atoms' names first, last atom first: the order
    # of the search with the roles left open that a vector must pass before
    # it is searched in full.  Without a role there is nothing to leave open.
    kinds = {slot.kind for slot in slots}
    roles_open = None
    if "role" in kinds:
        first = [i for _, pos in reversed(atom_pairs) for i in pos.slots]
        roles_open = [i for i in dict.fromkeys([*first, *range(len(slots))])
                      if slots[i].kind == "concept"]

    cap = domain_cap(kinds, universal, len(negated))
    domain = max_domain if cap is None else min(max_domain, cap)
    for n in range(1, domain + 1):
        realizable: dict = {}
        resize(n)
        # An atom whose check is decided before any name is assigned has one
        # polarity, the other is never realised: it is set at every position
        # before the search, which branches on the free atoms only.
        unassigned = [None] * len(slots)
        forced = [pos.state(unassigned) for _, pos in atom_pairs]
        free = [i for i in reversed(range(k)) if forced[i] is None]
        fixed_bits = sum(1 << i for i, polarity in enumerate(forced) if polarity)

        # At one element a role has two values, as a concept has, and a
        # vector refuted with its roles open costs more than it saves.
        relaxed = roles_open if n > 1 else None

        def realize(nu: tuple, v: int) -> Optional[PlainInterpretation]:
            key = (nu, v)
            if key not in realizable:
                checks = base + [pair[v >> i & 1] for i, pair in enumerate(atom_pairs)]
                fixed = dict(zip(individual_slots, nu))
                if (relaxed is not None
                        and _search_assignment(n, slots, checks, fixed, relaxed) is None):
                    realizable[key] = None
                else:
                    asn = _search_assignment(n, slots, checks, fixed)
                    realizable[key] = None if asn is None else _assignment_to_interp(asn, n)
            return realizable[key]

        def vectors(pi: int, low: int = 0, depth: int = 0, v: int = fixed_bits):
            """Position pi's vectors from ``low`` up, in ascending order,
            that make no formula false and are realised under the ``nu``
            searched: free atom ``free[depth]`` is fixed false, then true,
            at pi, and the formulas it occurs in are evaluated again.  While
            the atoms fixed so far agree with ``low``, a polarity below
            low's is not tried, and a subtree above low's is searched from
            0.  ``at``/``af`` hold a vector's bits while it is yielded; a
            generator that is used up has cleared them."""
            if depth == len(free):
                if realize(nu, v) is not None:
                    yield v
                return
            i, bit = free[depth], 1 << pi
            floor = low >> i & 1
            for polarity, known in enumerate((af, at)):
                if polarity < floor:
                    continue
                known[i] |= bit
                for ev in users[i]:
                    if ev(at, af, ms)[1]:
                        break
                else:
                    yield from vectors(pi, low if polarity == floor else 0, depth + 1,
                                       v | polarity << i)
                known[i] ^= bit

        bits = _bits_needed(slots, n) + len(sp_names)
        for m in range(1, min(max_prec, p) + 1):
            if bits * m > guard_bits:
                raise SearchSpaceTooLarge(
                    f"{m} precisifications over domain size {n} exceed the "
                    f"guard of {guard_bits:.0f} bits")
            full = (1 << m) - 1
            at = [full if polarity is True else 0 for polarity in forced]
            af = [full if polarity is False else 0 for polarity in forced]
            for sigma_tuple in _orbit_leaders(m, len(sp_names)):
                ms = [mask_of(sigma_tuple, full) for mask_of in modals]
                # Every formula once with only the forced atoms known.
                if any(ev(at, af, ms)[1] for ev in evaluators):
                    continue
                # Bit pi - 1 is set where the rows of pi - 1 and pi differ.
                apart = 0
                for mask in sigma_tuple:
                    apart |= mask ^ mask >> 1
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
                            return EntailmentResult(NOT_ENTAILED, structure)
                        # Positions with equal rows may trade vectors, so
                        # the second takes none below the first's.
                        pi = len(stack)
                        stack.append(vectors(pi, 0 if apart >> pi - 1 & 1 else v))
    return EntailmentResult(ENTAILED_WITHIN_BOUNDS, None, domain, min(max_prec, p),
                            cap is not None and cap <= max_domain and max_prec >= p)


# ---------------------------------------------------------------------------
# Entailment by query negation
# ---------------------------------------------------------------------------

ENTAILED_WITHIN_BOUNDS = "ENTAILED_WITHIN_BOUNDS"
NOT_ENTAILED = "NOT_ENTAILED"
INCONCLUSIVE = "INCONCLUSIVE"


@record
class EntailmentResult:
    """A verdict, with the countermodel if NOT_ENTAILED.  If
    ENTAILED_WITHIN_BOUNDS, the bounds searched, min(bound, `domain_cap`)
    and min(bound, p), and ``complete`` when they make the search a proof."""
    status: str
    witness: Optional[StandpointStructure] = None
    domain: Optional[int] = None
    precisifications: Optional[int] = None
    complete: bool = False


def check_entailment_bounded(kb: StandpointKB, query: StandpointFormula,
                             max_domain: int, max_prec: int,
                             guard_bits: float = GUARD_BITS) -> EntailmentResult:
    """Negate the query, add it to the KB, and search for a countermodel.

    A witness structure refutes the entailment; tripping the search guard
    is inconclusive.  Exhausting the bounds is bounded evidence for the
    entailment, not a proof, unless the bounds are complete: when the
    search's `domain_cap` is not None and at most ``max_domain``, and
    ``max_prec`` is at least its precisification bound p, a countermodel of
    any size would give one within the bounds, so the entailment holds; the
    result says which.  Raises ValueError when a bound is below 1.
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
                        guard_bits: float = GUARD_BITS) -> EntailmentResult:
    """`check_entailment_bounded` on a KB that `negated_query_kb` built."""
    try:
        return _search_structures(extended, max_domain, max_prec, guard_bits)
    except SearchSpaceTooLarge:
        return EntailmentResult(INCONCLUSIVE)
