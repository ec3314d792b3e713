"""Reference inlining, sharpening desugaring, NNF, nesting, precisification count."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from standpoint_owl.errors import NestedModality, UnresolvedRef
from standpoint_owl.model import (Atom, AxiomRef, Bottom, Box, Conjunction,
                                  Diamond, Disjunction, Equiv, Gci, Negation,
                                  SpMinus, Star, Top, concept_name, make_kb)
from standpoint_owl.normalizer import (count_precisifications,
                                       desugar_sharpening, normalize_kb,
                                       to_nnf)
from standpoint_owl.oracle import PlainInterpretation, StandpointStructure, holds_formula

from conftest import C, S

A, B = C("A"), C("B")
ATOM_AB = Atom(Gci(A, B))
ATOM_BA = Atom(Gci(B, A))


class TestNormalizeKbRefs:
    def test_substitution(self):
        named = {"ax1": Diamond(S("s"), Atom(Gci(C("CC"), C("D"))))}
        kb = make_kb(formulas=[Disjunction(AxiomRef("ax1"), ATOM_AB)],
                     named_axioms=named)
        out = normalize_kb(kb)
        assert out.formulas == (Disjunction(named["ax1"], ATOM_AB),)
        assert out.named_axioms == named

    def test_unresolved(self):
        kb = make_kb(formulas=[AxiomRef("ax9")])
        with pytest.raises(UnresolvedRef) as err:
            normalize_kb(kb)
        assert err.value.name == "ax9"

    def test_same_ref_twice_gives_two_copies(self):
        named = {"ax1": Box(S("s"), ATOM_AB)}
        kb = make_kb(formulas=[Conjunction(AxiomRef("ax1"), AxiomRef("ax1"))],
                     named_axioms=named)
        out = normalize_kb(kb)
        assert out.formulas == (Conjunction(named["ax1"], named["ax1"]),)

    @pytest.mark.parametrize("axiom, dual", [
        (Box(S("s"), ATOM_AB), Diamond(S("s"), Negation(ATOM_AB))),
        (Diamond(S("s"), Atom(Equiv(A, B))),
         Box(S("s"), Disjunction(Negation(ATOM_AB), Negation(ATOM_BA))))])
    def test_negated_reference_is_the_dual_of_its_axiom(self, axiom, dual):
        kb = make_kb(formulas=[Disjunction(Negation(AxiomRef("ax1")), ATOM_AB)],
                     named_axioms={"ax1": axiom})
        assert normalize_kb(kb).formulas == (Disjunction(dual, ATOM_AB),)

    def test_a_reference_within_a_named_axiom_is_not_looked_up(self):
        kb = make_kb(formulas=[AxiomRef("ax1")],
                     named_axioms={"ax1": Conjunction(ATOM_AB, AxiomRef("ax1"))})
        with pytest.raises(UnresolvedRef) as err:
            normalize_kb(kb)
        assert err.value.name == "ax1"


class TestNormalizeKbNesting:
    @pytest.mark.parametrize("f", [
        Box(S("s"), Diamond(S("t"), ATOM_AB)),
        Diamond(S("s"), Conjunction(ATOM_AB, Box(S("t"), ATOM_BA))),
        Negation(Box(S("s"), Negation(Diamond(S("t"), ATOM_AB)))),
        Disjunction(ATOM_AB, Box(S("s"), Disjunction(ATOM_BA, Diamond(S("t"), ATOM_AB))))])
    def test_nested_modality_rejected(self, f):
        with pytest.raises(NestedModality):
            normalize_kb(make_kb(formulas=[f]))

    def test_nesting_through_a_reference_rejected(self):
        kb = make_kb(formulas=[Box(S("s"), Disjunction(ATOM_AB, AxiomRef("ax1")))],
                     named_axioms={"ax1": Diamond(S("t"), ATOM_BA)})
        with pytest.raises(NestedModality):
            normalize_kb(kb)

    def test_a_reference_beside_a_box_is_no_nesting(self):
        named = {"ax1": Diamond(S("t"), ATOM_BA)}
        kb = make_kb(formulas=[Conjunction(Box(S("s"), ATOM_AB), AxiomRef("ax1"))],
                     named_axioms=named)
        assert normalize_kb(kb).formulas == (Conjunction(Box(S("s"), ATOM_AB), named["ax1"]),)


class TestDesugarSharpening:
    def test_named_pair(self):
        assert desugar_sharpening(S("LC"), S("BFO")) == \
            Box(SpMinus(S("LC"), S("BFO")), Atom(Gci(Top(), Bottom())))

    def test_reflexive(self):
        assert desugar_sharpening(S("s"), S("s")) == \
            Box(SpMinus(S("s"), S("s")), Atom(Gci(Top(), Bottom())))

    def test_star_narrower(self):
        assert desugar_sharpening(Star(), S("s")) == \
            Box(SpMinus(Star(), S("s")), Atom(Gci(Top(), Bottom())))


class TestToNnf:
    def test_negated_box(self):
        assert to_nnf(Negation(Box(S("s"), ATOM_AB))) == \
            Diamond(S("s"), Negation(ATOM_AB))

    def test_negated_diamond(self):
        assert to_nnf(Negation(Diamond(S("s"), ATOM_AB))) == \
            Box(S("s"), Negation(ATOM_AB))

    def test_negated_equiv_expands(self):
        assert to_nnf(Negation(Atom(Equiv(A, B)))) == \
            Disjunction(Negation(ATOM_AB), Negation(ATOM_BA))

    def test_double_negation(self):
        assert to_nnf(Negation(Negation(ATOM_AB))) == ATOM_AB

    def test_de_morgan(self):
        f = Negation(Conjunction(ATOM_AB, ATOM_BA))
        assert to_nnf(f) == Disjunction(Negation(ATOM_AB), Negation(ATOM_BA))

    def test_positive_equiv_kept(self):
        f = Box(S("s"), Atom(Equiv(A, B)))
        assert to_nnf(f) == f


class TestCountPrecisifications:
    def test_forest_is_one(self, forest_kb):
        assert count_precisifications(normalize_kb(forest_kb)) == 1

    def test_diamond_and_negated_box(self):
        kb = make_kb(formulas=[Diamond(S("s"), ATOM_AB),
                               Negation(Box(S("t"), ATOM_AB))])
        assert count_precisifications(normalize_kb(kb)) == 2

    def test_empty_floor(self):
        assert count_precisifications(make_kb()) == 1

    def test_one_more_diamond_adds_one(self):
        base = [Diamond(S("s"), ATOM_AB)]
        kb1 = make_kb(formulas=base)
        kb2 = make_kb(formulas=base + [Diamond(S("s"), ATOM_BA)])
        assert count_precisifications(kb2) == count_precisifications(kb1) + 1


# --- semantic preservation against the exact evaluator ----------------------

def formula_pool(depth):
    atoms = [ATOM_AB, ATOM_BA, Atom(Equiv(A, B))]
    if depth == 0:
        return atoms
    sub = formula_pool(depth - 1)
    out = list(sub)
    out += [Negation(f) for f in sub]
    out += [Box(S("s"), f) for f in atoms]
    out += [Diamond(S("s"), f) for f in atoms]
    out += [Conjunction(f, g) for f, g in zip(sub, reversed(sub))]
    out += [Disjunction(f, g) for f, g in zip(sub, reversed(sub))]
    return out


def tiny_structures():
    """All standpoint structures with one domain element, one or two
    precisifications, concepts A/B, and a single standpoint s."""
    a, b = concept_name("A"), concept_name("B")
    structures = []
    exts = [frozenset(), frozenset({0})]
    for m in (1, 2):
        interps = [PlainInterpretation(1, {a: ea, b: eb}, {})
                   for ea in exts for eb in exts]
        for gamma in itertools.product(interps, repeat=m):
            for sigma_mask in range(1 << m):
                sigma = {"s": frozenset(i for i in range(m) if sigma_mask & (1 << i))}
                structures.append(StandpointStructure(1, m, sigma, tuple(gamma)))
    return structures


STRUCTURES = tiny_structures()


def test_nnf_preserves_semantics_exhaustively():
    """Depth-two formulas over a two-concept signature keep their truth value
    at every precisification of every tiny structure."""
    for f in formula_pool(2):
        g = to_nnf(f)
        for structure in STRUCTURES:
            for pi in range(structure.precisifications):
                assert holds_formula(structure, pi, f) == \
                    holds_formula(structure, pi, g), (f, g, structure, pi)


@st.composite
def deep_formulas(draw, depth=4):
    if depth == 0:
        return draw(st.sampled_from([ATOM_AB, ATOM_BA, Atom(Equiv(A, B))]))
    kind = draw(st.sampled_from(["atom", "not", "and", "or", "box", "diamond"]))
    if kind == "atom":
        return draw(st.sampled_from([ATOM_AB, ATOM_BA, Atom(Equiv(A, B))]))
    if kind == "not":
        return Negation(draw(deep_formulas(depth=depth - 1)))
    if kind in ("and", "or"):
        ctor = Conjunction if kind == "and" else Disjunction
        return ctor(draw(deep_formulas(depth=depth - 1)),
                    draw(deep_formulas(depth=depth - 1)))
    ctor = Box if kind == "box" else Diamond
    return ctor(S("s"), draw(st.sampled_from([ATOM_AB, ATOM_BA, Atom(Equiv(A, B)),
                                              Negation(ATOM_AB)])))


@settings(max_examples=150, deadline=None)
@given(deep_formulas())
def test_nnf_preserves_semantics_sampled(f):
    g = to_nnf(f)
    for structure in STRUCTURES[:24]:
        for pi in range(structure.precisifications):
            assert holds_formula(structure, pi, f) == holds_formula(structure, pi, g)


@settings(max_examples=150, deadline=None)
@given(deep_formulas())
def test_nnf_idempotent(f):
    g = to_nnf(f)
    assert to_nnf(g) == g


@settings(max_examples=100, deadline=None)
@given(deep_formulas())
def test_nnf_shape(f):
    """Negation ends up only directly on subclass atoms."""
    def check(g):
        if isinstance(g, Negation):
            assert isinstance(g.arg, Atom) and isinstance(g.arg.axiom, Gci)
        elif isinstance(g, (Conjunction, Disjunction)):
            check(g.lhs)
            check(g.rhs)
        elif isinstance(g, (Box, Diamond)):
            check(g.arg)
    check(to_nnf(f))
