"""Normalisation of standpoint formulas.

Brings assembled knowledge bases into the shape the translator and the
oracle expect: named-axiom references inlined and negation pushed inward
by duality until it sits directly on subclass atoms, in one walk per
formula that also rejects nested modalities; sharpenings desugared; and
the precisification bound counted by polarity, which is the diamond count
in normal form.
"""

from __future__ import annotations

from .errors import NestedModality, UnresolvedRef
from .model import (Atom, AxiomRef, Bottom, Box, Conjunction, Diamond,
                    Disjunction, Equiv, Gci, Negation, SpMinus, StandpointExpr,
                    StandpointFormula, StandpointKB, Top, replace)


def desugar_sharpening(e1: StandpointExpr, e2: StandpointExpr) -> StandpointFormula:
    """A sharpening e1 ⪯ e2 states that no precisification lies in e1 but
    not in e2; it unfolds to the axiom that ⊤ ⊑ ⊥ holds throughout e1∖e2."""
    return Box(SpMinus(e1, e2), Atom(Gci(Top(), Bottom())))


def to_nnf(f: StandpointFormula) -> StandpointFormula:
    """Push negation inward until it occurs only directly on subclass atoms.

    Negated modalities flip by duality (¬Box e.φ = Diamond e.¬φ and vice
    versa), negated conjunctions/disjunctions by De Morgan, and a negated
    equivalence expands into the disjunction of the two negated inclusions.
    Positive equivalence atoms are left intact.  A §-reference, or a
    modality in the scope of another, is rejected.
    """
    return _nnf(f, False, {}, False)


# The dual of each connective: under a negation, each turns into its dual
# and the negation moves on to its arguments.
_DUAL = {Conjunction: Disjunction, Disjunction: Conjunction, Box: Diamond, Diamond: Box}


def _nnf(f: StandpointFormula, negated: bool, named: dict,
         inside: bool) -> StandpointFormula:
    """The NNF of ``f``, or of ¬f when ``negated``, with each §-reference
    replaced by its axiom in ``named``; ``inside`` is true in the scope of
    a modality, where another one is rejected.  A named axiom is inlined
    as it stands: a reference within it is not looked up."""
    while type(f) is Negation:
        f, negated = f.arg, not negated
    if type(f) is AxiomRef:
        if f.name not in named:
            raise UnresolvedRef(f.name)
        return _nnf(named[f.name], negated, {}, inside)
    if type(f) is Atom:
        if not negated:
            return f
        if type(f.axiom) is Equiv:
            a, b = f.axiom.lhs, f.axiom.rhs
            return Disjunction(Negation(Atom(Gci(a, b))), Negation(Atom(Gci(b, a))))
        return Negation(f)
    ctor = _DUAL[type(f)] if negated else type(f)
    if ctor in (Box, Diamond):
        if inside:
            raise NestedModality("standpoint modality in the scope of another")
        return ctor(f.standpoint, _nnf(f.arg, negated, named, True))
    return ctor(_nnf(f.lhs, negated, named, inside), _nnf(f.rhs, negated, named, inside))


def count_precisifications(kb: StandpointKB) -> int:
    """Number of precisification copies the translation materialises: the
    modals that need a witness precisification, floored at one because the
    set of precisifications is never empty.

    A modal needs a witness when it is a diamond under an even number of
    negations or a box under an odd number, so on formulas in negation
    normal form the count is the diamond count, and normalizing does not
    change it.  The walk enters modal arguments.
    """
    return max(1, sum(_witnesses(f, False) for f in kb.formulas))


def _witnesses(f: StandpointFormula, negated: bool) -> int:
    """The modals in ``f`` (in ¬f when ``negated``) that need a witness."""
    kind = type(f)
    if kind is Negation:
        return _witnesses(f.arg, not negated)
    if kind is Conjunction or kind is Disjunction:
        return _witnesses(f.lhs, negated) + _witnesses(f.rhs, negated)
    if kind is Box or kind is Diamond:
        return ((kind is Box) == negated) + _witnesses(f.arg, negated)
    return 0


def normalize_kb(kb: StandpointKB) -> StandpointKB:
    """Rewrite every top-level formula to NNF, inlining its §-references,
    in one pass over it.  The named-axiom table is kept for reporting.

    Nested modalities cannot be produced by the input syntax; any
    internally constructed nesting is rejected rather than flattened.
    """
    named = kb.named_axioms
    return replace(kb, formulas=tuple(_nnf(f, False, named, False) for f in kb.formulas))
