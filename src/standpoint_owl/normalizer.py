"""Normalisation of standpoint formulas.

Brings assembled knowledge bases into the shape the translator expects:
named-axiom references inlined, sharpenings desugared, negation pushed
inward by duality until it sits directly on subclass atoms, and the
precisification bound computed from the diamond count.
"""

from __future__ import annotations

from .errors import NestedModality, UnresolvedRef
from .model import (Atom, AxiomRef, Bottom, Box, Conjunction, Diamond,
                    Disjunction, Equiv, Gci, Negation, SpMinus, StandpointExpr,
                    StandpointFormula, StandpointKB, Top, iter_nodes, replace,
                    transform)


def desugar_sharpening(e1: StandpointExpr, e2: StandpointExpr) -> StandpointFormula:
    """A sharpening e1 ⪯ e2 states that no precisification lies in e1 but
    not in e2; it unfolds to the axiom that ⊤ ⊑ ⊥ holds throughout e1∖e2."""
    return Box(SpMinus(e1, e2), Atom(Gci(Top(), Bottom())))


def _substitute(f: StandpointFormula, named: dict) -> StandpointFormula:
    def swap(node):
        if type(node) is Atom:
            return node  # holds no reference; keep it without entering
        if type(node) is AxiomRef:
            if node.name not in named:
                raise UnresolvedRef(node.name)
            return named[node.name]
        return None

    return transform(f, swap)


def resolve_refs(kb: StandpointKB) -> StandpointKB:
    """Replace every §-reference in the top-level formulas by a copy of the
    named axiom it points to.  The named-axiom table is kept for reporting;
    the returned formulas contain no references."""
    named = dict(kb.named_axioms)
    formulas = tuple(_substitute(f, named) for f in kb.formulas)
    return replace(kb, formulas=formulas)


def to_nnf(f: StandpointFormula) -> StandpointFormula:
    """Push negation inward until it occurs only directly on subclass atoms.

    Negated modalities flip by duality (¬Box e.φ = Diamond e.¬φ and vice
    versa), negated conjunctions/disjunctions by De Morgan, and a negated
    equivalence expands into the disjunction of the two negated inclusions.
    Positive equivalence atoms are left intact.
    """
    if isinstance(f, AxiomRef):
        raise UnresolvedRef(f.name)
    if isinstance(f, Atom):
        return f
    if isinstance(f, Conjunction):
        return Conjunction(to_nnf(f.lhs), to_nnf(f.rhs))
    if isinstance(f, Disjunction):
        return Disjunction(to_nnf(f.lhs), to_nnf(f.rhs))
    if isinstance(f, Box):
        return Box(f.standpoint, to_nnf(f.arg))
    if isinstance(f, Diamond):
        return Diamond(f.standpoint, to_nnf(f.arg))
    # f is a negation
    g = f.arg
    if isinstance(g, AxiomRef):
        raise UnresolvedRef(g.name)
    if isinstance(g, Atom):
        if isinstance(g.axiom, Equiv):
            a, b = g.axiom.lhs, g.axiom.rhs
            return Disjunction(Negation(Atom(Gci(a, b))), Negation(Atom(Gci(b, a))))
        return f
    if isinstance(g, Negation):
        return to_nnf(g.arg)
    if isinstance(g, Conjunction):
        return Disjunction(to_nnf(Negation(g.lhs)), to_nnf(Negation(g.rhs)))
    if isinstance(g, Disjunction):
        return Conjunction(to_nnf(Negation(g.lhs)), to_nnf(Negation(g.rhs)))
    if isinstance(g, Box):
        return Diamond(g.standpoint, to_nnf(Negation(g.arg)))
    return Box(g.standpoint, to_nnf(Negation(g.arg)))


def diamond_count(f: StandpointFormula) -> int:
    """Number of diamond occurrences in f."""
    return sum(type(node) is Diamond for node in iter_nodes(f, (Atom,)))


def count_precisifications(kb: StandpointKB) -> int:
    """Number of precisification copies the translation materialises.

    With formulas in negation normal form every witness-demanding modality
    is a diamond, so the bound is the diamond count, floored at one because
    the set of precisifications is never empty.
    """
    return max(1, sum(map(diamond_count, kb.formulas)))


def _modalities(f: StandpointFormula) -> list:
    """The outermost Box/Diamond subformulas of f."""
    return [node for node in iter_nodes(f, (Atom, Box, Diamond))
            if type(node) in (Box, Diamond)]


def _check_no_nesting(f: StandpointFormula, inside: bool = False):
    for modal in _modalities(f):
        if inside or _modalities(modal.arg):
            raise NestedModality("standpoint modality in the scope of another")


def normalize_kb(kb: StandpointKB) -> StandpointKB:
    """Resolve references and rewrite every top-level formula to NNF.

    Nested modalities cannot be produced by the input syntax; any
    internally constructed nesting is rejected rather than flattened.
    """
    kb = resolve_refs(kb)
    formulas = []
    for f in kb.formulas:
        g = to_nnf(f)
        _check_no_nesting(g)
        formulas.append(g)
    return replace(kb, formulas=tuple(formulas))
