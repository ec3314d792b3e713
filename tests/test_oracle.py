"""Exact semantics and bounded model search."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from standpoint_owl.errors import SearchSpaceTooLarge, UnknownName
from standpoint_owl.model import (All, And, AtLeast, AtMost, Atom, Bottom,
                                  Box, Diamond, Disjunction, Equiv, Gci,
                                  HasSelf, Not, Or,
                                  PlainKB, Ria, Some, SpMinus, SpIntersection,
                                  SpUnion, Star, Top, UNIVERSAL, concept_name,
                                  individual_name, make_kb, role_name)
from standpoint_owl.oracle import (ENTAILED_WITHIN_BOUNDS, INCONCLUSIVE,
                                   NOT_ENTAILED, PlainInterpretation,
                                   StandpointStructure,
                                   check_entailment_bounded, eval_concept,
                                   eval_role, find_plain_model,
                                   find_standpoint_model, holds_axiom,
                                   holds_formula, kb_holds, sigma_of)

from conftest import C, O, R, Rinv, S

cA, cB = concept_name("A"), concept_name("B")
rR, rS = role_name("r"), role_name("s")
iA, iB = individual_name("a"), individual_name("b")

# Fixed two-element interpretation used for the constructor table.
I2 = PlainInterpretation(
    domain_size=2,
    concept_ext={cA: frozenset({0}), cB: frozenset({1})},
    role_ext={rR: frozenset({(0, 0), (0, 1)}), rS: frozenset({(1, 0)})},
    individual_map={iA: 0, iB: 1},
)


def ext(c):
    return eval_concept(I2, c)


class TestConstructorTable:
    """Hand-enumerated extensions on the fixed two-element interpretation."""

    def test_name(self):
        assert ext(C("A")) == {0}

    def test_nominal(self):
        assert ext(O("a")) == {0}
        assert ext(O("b")) == {1}

    def test_top_bottom(self):
        assert ext(Top()) == {0, 1}
        assert ext(Bottom()) == set()

    def test_not(self):
        assert ext(Not(C("A"))) == {1}

    def test_and_or(self):
        assert ext(And(C("A"), C("B"))) == set()
        assert ext(Or(C("A"), C("B"))) == {0, 1}

    def test_all(self):
        assert ext(All(R("r"), C("A"))) == {1}

    def test_some(self):
        assert ext(Some(R("r"), C("A"))) == {0}

    def test_self(self):
        assert ext(HasSelf(R("r"))) == {0}

    def test_at_most(self):
        assert ext(AtMost(1, R("r"), C("A"))) == {0, 1}
        assert ext(AtMost(0, R("r"), Top())) == {1}

    def test_at_least(self):
        assert ext(AtLeast(1, R("r"), Top())) == {0}
        assert ext(AtLeast(2, R("r"), Top())) == {0}

    def test_inverse_role(self):
        assert eval_role(I2, Rinv("s")) == {(0, 1)}
        assert ext(Some(Rinv("s"), Top())) == {0}

    def test_universal_role(self):
        assert ext(All(UNIVERSAL, C("A"))) == set()
        assert ext(Some(UNIVERSAL, C("B"))) == {0, 1}

    def test_spec_examples(self):
        small = PlainInterpretation(2, {cA: frozenset({0})},
                                    {rR: frozenset({(0, 1)})})
        assert eval_concept(small, Not(C("A"))) == {1}
        assert eval_concept(small, Some(R("r"), Top())) == {0}
        counting = PlainInterpretation(2, {cA: frozenset({0, 1})},
                                       {rR: frozenset({(0, 0), (0, 1)})})
        assert eval_concept(counting, AtMost(1, R("r"), C("A"))) == {1}

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            ext(C("Missing"))
        with pytest.raises(UnknownName):
            ext(Some(R("missing"), Top()))


class TestHoldsAxiom:
    def test_gci(self):
        small = PlainInterpretation(2, {cA: frozenset({0}), cB: frozenset({0, 1})}, {})
        assert holds_axiom(small, Gci(C("A"), C("B")))
        assert not holds_axiom(small, Gci(C("B"), C("A")))

    def test_composition(self):
        rT, rW = role_name("t"), role_name("w")
        interp = PlainInterpretation(2, {}, {rR: frozenset({(0, 1)}),
                                             rT: frozenset({(1, 0)}),
                                             rW: frozenset()})
        assert not holds_axiom(interp, Ria((R("r"), R("t")), rW))
        interp2 = PlainInterpretation(2, {}, {rR: frozenset({(0, 1)}),
                                              rT: frozenset({(1, 0)}),
                                              rW: frozenset({(0, 0)})})
        assert holds_axiom(interp2, Ria((R("r"), R("t")), rW))

    def test_tautology(self):
        assert holds_axiom(I2, Gci(Top(), Top()))

    def test_equiv(self):
        same = PlainInterpretation(1, {cA: frozenset({0}), cB: frozenset({0})}, {})
        assert holds_axiom(same, Equiv(C("A"), C("B")))
        other = PlainInterpretation(1, {cA: frozenset(), cB: frozenset({0})}, {})
        assert not holds_axiom(other, Equiv(C("A"), C("B")))

    def test_chain_with_inverse_and_universal(self):
        rW = role_name("w")
        interp = PlainInterpretation(2, {}, {rS: frozenset({(1, 0)}),
                                             rW: frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})})
        # s⁻ ∘ u ⊑ w: composition is {0}×Δ ⊆ Δ×Δ
        assert holds_axiom(interp, Ria((Rinv("s"), UNIVERSAL), rW))


def structure(sigma_s, gammas):
    return StandpointStructure(1, len(gammas), {"s": frozenset(sigma_s)},
                               tuple(gammas))


def interp1(a_holds):
    # one-element interpretation where A ⊑ B holds iff a_holds
    return PlainInterpretation(1, {cA: frozenset({0}),
                                   cB: frozenset({0} if a_holds else ())}, {})


class TestHoldsFormula:
    def test_empty_box_vacuous(self):
        D = structure([], [interp1(True)])
        assert holds_formula(D, 0, Box(S("s"), Atom(Gci(Top(), Bottom()))))

    def test_empty_diamond_false(self):
        D = structure([], [interp1(True)])
        assert not holds_formula(D, 0, Diamond(S("s"), Atom(Gci(Top(), Top()))))

    def test_box_looks_only_at_members(self):
        D = structure([1], [interp1(False), interp1(True)])
        assert holds_formula(D, 0, Box(S("s"), Atom(Gci(C("A"), C("B")))))
        assert not holds_formula(D, 0, Atom(Gci(C("A"), C("B"))))

    def test_sigma_operations(self):
        for m in (1, 2, 3):
            pis = frozenset(range(m))
            for sa_bits, sb_bits in itertools.product(range(1 << m), repeat=2):
                sa = frozenset(i for i in range(m) if sa_bits & (1 << i))
                sb = frozenset(i for i in range(m) if sb_bits & (1 << i))
                D = StandpointStructure(1, m, {"a": sa, "b": sb},
                                        tuple(interp1(True) for _ in range(m)))
                assert sigma_of(D, SpUnion(S("a"), S("b"))) == sa | sb
                assert sigma_of(D, SpIntersection(S("a"), S("b"))) == sa & sb
                assert sigma_of(D, SpMinus(S("a"), S("b"))) == sa - sb
                assert sigma_of(D, Star()) == pis


class TestStructureInvariants:
    def test_rigid_individuals_enforced(self):
        g1 = PlainInterpretation(2, {}, {}, {iA: 0, iB: 1})
        g2 = PlainInterpretation(2, {}, {}, {iA: 0, iB: 1})
        StandpointStructure(2, 2, {}, (g1, g2))
        g3 = PlainInterpretation(2, {}, {}, {iA: 1, iB: 0})
        with pytest.raises(ValueError):
            StandpointStructure(2, 2, {}, (g1, g3))

    def test_star_must_cover_everything(self):
        g = PlainInterpretation(1, {}, {})
        with pytest.raises(ValueError):
            StandpointStructure(1, 1, {"*": frozenset()}, (g,))

    def test_mismatched_domains_rejected(self):
        with pytest.raises(ValueError):
            StandpointStructure(1, 2, {}, (PlainInterpretation(1, {}, {}),
                                           PlainInterpretation(2, {}, {})))


class TestKbHolds:
    def test_empty_kb(self):
        assert kb_holds(structure([], [interp1(False)]), make_kb())

    def test_plain_must_hold_everywhere(self):
        kb = make_kb(plain_axioms=[Gci(C("A"), C("B"))])
        assert not kb_holds(structure([], [interp1(True), interp1(False)]), kb)
        assert kb_holds(structure([], [interp1(True), interp1(True)]), kb)

    def test_forest_all_empty(self, forest_kb):
        from standpoint_owl.normalizer import normalize_kb
        kb = normalize_kb(forest_kb)
        names = {c: frozenset() for c in kb.signature.concepts}
        roles = {r: frozenset() for r in kb.signature.roles}
        gamma = PlainInterpretation(1, names, roles)
        D = StandpointStructure(1, 1, {s: frozenset()
                                       for s in kb.signature.standpoints - {"*"}},
                                (gamma,))
        assert kb_holds(D, kb)


def plain(axioms):
    from standpoint_owl.oracle import _occurring_signature
    return PlainKB(tuple(axioms), _occurring_signature(axioms), "urn:o")


class TestFindPlainModel:
    def test_contradiction(self):
        kb = plain([Gci(Top(), C("A")), Gci(C("A"), Bottom())])
        for n in (1, 2, 3):
            assert find_plain_model(kb, n) is None

    def test_smallest_witness(self):
        kb = plain([Gci(Top(), Some(R("r"), C("A")))])
        model = find_plain_model(kb, 1)
        assert model is not None
        assert model.domain_size == 1
        assert model.role_ext[rR] == {(0, 0)}
        assert model.concept_ext[cA] == {0}

    def test_empty_extension_first(self):
        kb = plain([Gci(C("A"), Bottom())])
        model = find_plain_model(kb, 2)
        assert model.domain_size == 1
        assert model.concept_ext[cA] == frozenset()

    def test_guard(self):
        axioms = [Gci(C(f"X{i}"), C(f"X{i+1}")) for i in range(30)]
        with pytest.raises(SearchSpaceTooLarge):
            find_plain_model(plain(axioms), 3, guard_bits=20)

    def test_cardinality_needs_larger_domain(self):
        kb = plain([Gci(Top(), AtLeast(2, R("r"), Top()))])
        assert find_plain_model(kb, 1) is None
        model = find_plain_model(kb, 2)
        assert model is not None and model.domain_size == 2

    def test_nominals_and_individuals(self):
        kb = plain([Gci(O("a"), C("A")), Gci(C("A"), Bottom())])
        assert find_plain_model(kb, 2) is None


class TestFindStandpointModel:
    def test_unsatisfiable_diamond(self):
        kb = make_kb(formulas=[Diamond(S("s"), Atom(Gci(Top(), Bottom())))])
        assert find_standpoint_model(kb, 2, 2) is None

    def test_conflicting_diamonds_need_two_precisifications(self):
        kb = make_kb(formulas=[Diamond(S("s"), Atom(Gci(C("A"), Bottom()))),
                               Diamond(S("s"), Atom(Gci(Top(), C("A"))))])
        assert find_standpoint_model(kb, 2, 1) is None
        D = find_standpoint_model(kb, 2, 2)
        assert D is not None
        assert D.precisifications == 2
        assert D.sigma["s"] == {0, 1}
        assert kb_holds(D, kb)

    def test_forest_minimal(self, forest_kb):
        from standpoint_owl.normalizer import normalize_kb
        D = find_standpoint_model(normalize_kb(forest_kb), 2, 2, guard_bits=200)
        assert D is not None
        assert (D.domain_size, D.precisifications) == (1, 1)

    def test_canonical_sigma_is_minimal(self):
        kb = make_kb(formulas=[Box(S("s"), Atom(Gci(C("A"), C("B"))))])
        D = find_standpoint_model(kb, 2, 2)
        assert D.sigma["s"] == frozenset()

    def test_individuals_are_rigid_across_precisifications(self):
        # one individual, contradictory demands at different precisifications
        kb = make_kb(formulas=[Diamond(S("s"), Atom(Gci(O("a"), C("A")))),
                               Diamond(S("s"), Atom(Gci(O("a"), Not(C("A")))))])
        assert find_standpoint_model(kb, 2, 1) is None
        D = find_standpoint_model(kb, 2, 2)
        assert D is not None
        maps = {tuple(g.individual_map.items()) for g in D.gamma}
        assert len(maps) == 1  # same element denotes the individual everywhere

    def test_rigidity_makes_global_demands_unsatisfiable(self):
        kb = make_kb(plain_axioms=[Gci(O("a"), C("B"))],
                     formulas=[Diamond(S("s"), Atom(Gci(C("B"), Bottom())))])
        assert find_standpoint_model(kb, 2, 2) is None

    def test_rias_constrain_every_precisification(self):
        rT, rW = role_name("t"), role_name("w")
        kb = make_kb(rias=[Ria((R("r"), R("t")), rW)],
                     formulas=[Diamond(S("s"), Atom(Gci(Top(), Some(R("r"), Top()))))])
        D = find_standpoint_model(kb, 2, 2, guard_bits=60)
        assert D is not None
        for g in D.gamma:
            assert holds_axiom(g, Ria((R("r"), R("t")), rW))


class TestEntailment:
    def test_forest_box_lu_entailed(self, forest_kb):
        query = Box(S("LU"), Atom(Gci(C("Forest", forest_kb.base_iri + "#"),
                                      C("Land", forest_kb.base_iri + "#"))))
        result = check_entailment_bounded(forest_kb, query, 2, 2, guard_bits=200)
        assert result.status == ENTAILED_WITHIN_BOUNDS

    def test_forest_diamond_lc_not_entailed(self, forest_kb):
        base = forest_kb.base_iri + "#"
        query = Diamond(S("LC"), Atom(Gci(C("Forest", base), C("Forest", base))))
        result = check_entailment_bounded(forest_kb, query, 2, 2, guard_bits=200)
        assert result.status == NOT_ENTAILED
        assert result.witness.sigma["LC"] == frozenset()

    def test_forest_first_witness_golden(self, forest_kb):
        """The canonical first countermodel is a contract: sigma and the
        extension of every name at every precisification."""
        base = forest_kb.base_iri + "#"
        query = Disjunction(Box(S("LC"), Atom(Gci(C("Forest", base), Bottom()))),
                            Box(S("LU"), Atom(Gci(Top(), Bottom()))))
        result = check_entailment_bounded(forest_kb, query, 2, 2, guard_bits=200)
        assert result.status == NOT_ENTAILED
        w = result.witness
        assert (w.domain_size, w.precisifications) == (1, 2)
        assert w.sigma == {"*": {0, 1}, "BFO": {0, 1}, "LC": {0}, "LU": {1}}
        concepts = {c.local for c in forest_kb.signature.concepts}
        occupied = [{"Area05ha", "Ecosystem", "Forest", "ForestEcosystem",
                     "TreeCanopy20"},
                    {"Forest", "ForestEcosystem", "ForestlandUse", "Land", "MCON"}]
        has_land = [{(0, 0)}, set()]
        for g, full, pairs in zip(w.gamma, occupied, has_land):
            assert {n.local: v for n, v in g.concept_ext.items()} == {
                c: ({0} if c in full else set()) for c in concepts}
            assert {n.local: v for n, v in g.role_ext.items()} == {"hasLand": pairs}
            assert g.individual_map == {}

    def test_tautology_entailed(self):
        kb = make_kb(plain_axioms=[Gci(C("A"), C("B"))])
        query = Box(Star(), Atom(Gci(Top(), Top())))
        result = check_entailment_bounded(kb, query, 2, 2)
        assert result.status == ENTAILED_WITHIN_BOUNDS

    def test_guard_inconclusive(self):
        kb = make_kb(plain_axioms=[Gci(C(f"X{i}"), C(f"X{i+1}")) for i in range(30)])
        query = Box(Star(), Atom(Gci(Top(), Bottom())))
        result = check_entailment_bounded(kb, query, 3, 2, guard_bits=10)
        assert result.status == INCONCLUSIVE


# --- algebraic properties on random interpretations --------------------------

def interps(n):
    subsets = st.sets(st.integers(0, n - 1)).map(frozenset)
    pairs = st.sets(st.tuples(st.integers(0, n - 1),
                              st.integers(0, n - 1))).map(frozenset)
    return st.builds(
        PlainInterpretation,
        st.just(n),
        st.fixed_dictionaries({cA: subsets, cB: subsets}),
        st.fixed_dictionaries({rR: pairs, rS: pairs}),
        st.fixed_dictionaries({iA: st.integers(0, n - 1)}),
    )


def small_concepts(depth):
    leaf = st.one_of(st.sampled_from([C("A"), C("B"), Top(), Bottom(), O("a")]))
    if depth == 0:
        return leaf
    sub = small_concepts(depth - 1)
    roles = st.sampled_from([R("r"), R("s"), Rinv("r"), UNIVERSAL])
    return st.one_of(leaf, st.builds(Not, sub), st.builds(And, sub, sub),
                     st.builds(Or, sub, sub), st.builds(Some, roles, sub),
                     st.builds(All, roles, sub))


@settings(max_examples=200, deadline=None)
@given(interps(3), small_concepts(2), small_concepts(2))
def test_de_morgan_and_double_negation(interp, c, d):
    assert eval_concept(interp, Not(Not(c))) == eval_concept(interp, c)
    assert eval_concept(interp, Not(And(c, d))) == \
        eval_concept(interp, Or(Not(c), Not(d)))


@settings(max_examples=200, deadline=None)
@given(interps(3), small_concepts(2))
def test_quantifier_duality(interp, c):
    for role in (R("r"), Rinv("s"), UNIVERSAL):
        some = eval_concept(interp, Some(role, c))
        allneg = eval_concept(interp, All(role, Not(c)))
        assert some == interp.domain - allneg


@settings(max_examples=200, deadline=None)
@given(interps(3), small_concepts(2))
def test_at_least_one_is_some(interp, c):
    for role in (R("r"), Rinv("s")):
        assert eval_concept(interp, AtLeast(1, role, c)) == \
            eval_concept(interp, Some(role, c))


# --- the search's three-valued pruning against the exact evaluator -----------

def _assignment_of(interp):
    asn = {}
    for name, members in interp.concept_ext.items():
        asn[("c", name)] = sum(1 << d for d in members)
    n = interp.domain_size
    for name, pairs in interp.role_ext.items():
        asn[("r", name)] = sum(1 << (i * n + j) for (i, j) in pairs)
    for name, element in interp.individual_map.items():
        asn[("i", name)] = element
    return asn


@settings(max_examples=200, deadline=None)
@given(interps(3), small_concepts(2), small_concepts(2))
def test_check_state_exact_on_complete_assignments(interp, c, d):
    from standpoint_owl.oracle import _Check
    asn = _assignment_of(interp)
    for axiom in (Gci(c, d), Equiv(c, d)):
        for positive in (True, False):
            state = _Check(axiom, positive).state(asn, interp.domain_size)
            assert state is (holds_axiom(interp, axiom) is positive)


@settings(max_examples=120, deadline=None)
@given(st.data(), small_concepts(2), small_concepts(2))
def test_check_state_sound_on_partial_assignments(data, c, d):
    """A definite verdict on a partial assignment holds in every completion."""
    from standpoint_owl.oracle import _Check
    n = 2
    check = _Check(Gci(c, d))
    partial = {}
    for slot in sorted(check.slots, key=repr):
        if data.draw(st.booleans()):
            bits = n if slot[0] == "c" else n * n
            if slot[0] == "i":
                partial[slot] = data.draw(st.integers(0, n - 1))
            else:
                partial[slot] = data.draw(st.integers(0, (1 << bits) - 1))
    verdict = check.state(partial, n)
    if verdict is None:
        return
    free = [slot for slot in check.slots if slot not in partial]
    spaces = [range(n) if slot[0] == "i" else
              range(1 << (n if slot[0] == "c" else n * n)) for slot in free]
    for combo in itertools.product(*spaces):
        full = dict(partial)
        full.update(zip(free, combo))
        assert check.state(full, n) is verdict
