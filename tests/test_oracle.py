"""Exact semantics and bounded model search."""

import contextlib
import hashlib
import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from standpoint_owl.errors import SearchSpaceTooLarge, UnknownName, UnresolvedRef
from standpoint_owl import model, oracle
from standpoint_owl.frontend import (assemble_kb, parse_document,
                                     parse_simple_query)
from standpoint_owl.model import (All, And, AtLeast, AtMost, Atom, AxiomRef,
                                  Bottom, Box, ConceptName, Conjunction, Diamond,
                                  Disjunction, Equiv, Gci, HasSelf, Negation, Not,
                                  Or, PlainKB, Ria, Signature, Some, SpMinus,
                                  SpIntersection, SpUnion, STAR, Star, Top,
                                  UNIVERSAL, UNIVERSAL_STANDPOINT, UniversalRole,
                                  concept_name, entity_names_in,
                                  individual_name, make_kb, role_name,
                                  walk_atoms)
from standpoint_owl.normalizer import count_precisifications, normalize_kb
from standpoint_owl.oracle import (ENTAILED_WITHIN_BOUNDS, INCONCLUSIVE,
                                   NOT_ENTAILED, PlainInterpretation,
                                   StandpointStructure, _assignment_to_interp,
                                   _compile_checks, _search_assignment,
                                   check_entailment_bounded, eval_concept,
                                   eval_role, find_plain_model,
                                   find_standpoint_model, holds_axiom,
                                   holds_formula, kb_holds, negated_query_kb,
                                   sigma_of)
from standpoint_owl.translator import translate_kb

import genkb
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
        kb = normalize_kb(forest_kb)
        names = {c: frozenset() for c in kb.signature.concepts}
        roles = {r: frozenset() for r in kb.signature.roles}
        gamma = PlainInterpretation(1, names, roles)
        D = StandpointStructure(1, 1, {s: frozenset()
                                       for s in kb.signature.standpoints - {"*"}},
                                (gamma,))
        assert kb_holds(D, kb)


def plain(axioms):
    return PlainKB(tuple(axioms), make_kb(plain_axioms=axioms).signature, "urn:o")


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
        # The second KB declares no signature: the guard counts the names
        # that occur only in its axioms.
        axioms = [Gci(C(f"X{i}"), C(f"X{i+1}")) for i in range(30)]
        for kb in (plain(axioms), PlainKB(tuple(axioms))):
            with pytest.raises(SearchSpaceTooLarge):
                find_plain_model(kb, 3, guard_bits=20)

    def test_cardinality_needs_larger_domain(self):
        kb = plain([Gci(Top(), AtLeast(2, R("r"), Top()))])
        assert find_plain_model(kb, 1) is None
        model = find_plain_model(kb, 2)
        assert model is not None and model.domain_size == 2

    def test_nominals_and_individuals(self):
        kb = plain([Gci(O("a"), C("A")), Gci(C("A"), Bottom())])
        assert find_plain_model(kb, 2) is None

    def test_a_domain_bound_below_one_is_rejected(self):
        # No model has an empty domain, so a None here would read as
        # "no model within the bound" for a satisfiable KB.
        kb = plain([Gci(C("A"), C("B"))])
        for bound in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                find_plain_model(kb, bound)


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

    def test_bare_atom_holds_at_every_later_precisification(self):
        # A top-level formula without a modal is checked at each position on
        # its own: the vector of position 1 must make ⊤ ⊑ B true there too.
        kb = make_kb(formulas=[Diamond(S("s"), Atom(Gci(C("A"), Bottom()))),
                               Diamond(S("s"), Atom(Gci(Top(), C("A")))),
                               Disjunction(Atom(Gci(Top(), C("B"))),
                                           Atom(Gci(Top(), Bottom())))])
        D = find_standpoint_model(kb, 1, 2)
        assert D.precisifications == 2
        assert [g.concept_ext[cB] for g in D.gamma] == [{0}, {0}]

    def test_guard_trips_before_the_lane_masks_are_built(self):
        # 43 concepts exceed the default guard at n = m = 1, and 70 atoms
        # are over the atom cap: 2**70 vectors per position.
        atoms = [Atom(Gci(C(f"X{i}"), C(f"X{i + d}"))) for i in range(35) for d in (1, 8)]
        kb = make_kb(formulas=[Box(S("s"), atom) for atom in atoms])
        with pytest.raises(SearchSpaceTooLarge):
            find_standpoint_model(kb, 1, 1)

    @pytest.mark.parametrize("guard", [40.0, 0.0, math.inf])
    def test_guard_allows_the_search_a_caller_asks_for(self, guard):
        # 7 concepts are 7 guard bits at domain size 1: no guard stops the
        # one precisification that suffices, except a guard of 0 bits.
        kb = make_kb(formulas=[Box(S("s"), Atom(Gci(C(f"X{i}"), C(f"X{i + 1}"))))
                               for i in range(6)])
        if guard == 0:
            with pytest.raises(SearchSpaceTooLarge):
                find_standpoint_model(kb, 1, 300, guard_bits=guard)
            return
        D = find_standpoint_model(kb, 1, 300, guard_bits=guard)
        assert (D.domain_size, D.precisifications) == (1, 1)
        assert kb_holds(D, kb)

    def test_an_unrealisable_diamond_needs_no_interpretation_search(self, monkeypatch):
        # ⊤ ⊑ ⊥ holds in no interpretation, so it is false at every
        # precisification before any vector is built, and so is the diamond.
        calls, search = [], oracle._search_assignment

        def counting(*args):
            calls.append(args)
            return search(*args)
        monkeypatch.setattr(oracle, "_search_assignment", counting)
        pairs = [Disjunction(Atom(Gci(C(f"X{i}"), C(f"Y{i}"))),
                             Atom(Gci(C(f"Y{i}"), C(f"X{i}")))) for i in range(6)]
        kb = make_kb(formulas=[Diamond(S("s"), Atom(Gci(Top(), Bottom())))]
                     + [Box(S("s"), pair) for pair in pairs])
        assert find_standpoint_model(kb, 1, 2) is None
        assert calls == []

    def test_a_vector_refuted_by_its_concepts_needs_no_role_search(self, monkeypatch):
        # The query restates the boxed axiom, so every vector that makes
        # the negated query true at two elements puts C3 ⊑ C1 ⊓ C5 against
        # C3 ⋢ (C1 ⊓ C5) ⊔ C2: the concept slots alone refute it, and no
        # search at n = 2 assigns r0 or r1, the first slots in slot order.
        calls, search = [], oracle._search_assignment

        def counting(*args):
            calls.append(args)
            return search(*args)
        monkeypatch.setattr(oracle, "_search_assignment", counting)
        C0, C1, C2, C3, C4, C5 = (C(f"C{i}") for i in range(6))
        kb = make_kb(plain_axioms=[Gci(Some(R("r0"), C4), C0), Gci(C1, Some(R("r1"), C0))],
                     formulas=[Box(S("s0"), Atom(Gci(C3, And(C1, C5))))])
        query = Box(S("s0"), Atom(Gci(C3, Or(And(C1, C5), C2))))
        assert check_entailment_bounded(kb, query, 2, 1).status == ENTAILED_WITHIN_BOUNDS
        at_two = [args for args in calls if args[0] == 2]
        assert at_two
        for n, slots, checks, fixed, *order in at_two:
            assert order and not any(slots[i].kind == "role" for i in order[0])

    def test_forest_minimal(self, forest_kb):
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


def walked_domain_cap(kb):
    """The domain cap by a walk of its own over the KB: None for a KB with
    a role, an individual, a role inclusion or the universal role, else
    max(1, the distinct atoms under a negation).  The reference for the cap
    the search takes from its compile walks."""
    signature = kb.signature
    if signature.roles or signature.individuals or kb.rias:
        return None
    negated = set()
    for root in (*kb.plain_axioms, *kb.formulas):
        for node in model.iter_nodes(root, (ConceptName,)):
            if type(node) is UniversalRole:
                return None
            if type(node) is Negation:
                negated.update(atom.axiom for atom in walk_atoms(node))
    return max(1, len(negated))


@contextlib.contextmanager
def searched_caps():
    """The list of the values `domain_cap` gives the searches in the block."""
    caps = []
    cap = oracle.domain_cap
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "domain_cap",
                      lambda *facts: caps.append(cap(*facts)) or caps[-1])
        yield caps


def search_cap(kb):
    """The domain cap of the search for a model of ``kb``, computed once."""
    with searched_caps() as caps:
        find_standpoint_model(kb, 1, 1, guard_bits=math.inf)
    (cap,) = caps
    return cap


class TestDomainCap:
    AB, BA = Gci(C("A"), C("B")), Gci(C("B"), C("A"))

    def test_counts_distinct_negated_atoms(self):
        # After NNF the negated equivalence is two negated inclusions, and
        # A ⊑ B is one of them.
        kb = normalize_kb(make_kb(formulas=[
            Negation(Atom(self.AB)),
            Diamond(S("s"), Negation(Atom(Equiv(C("A"), C("B"))))),
            Box(S("s"), Atom(Gci(C("D"), Bottom())))]))
        assert search_cap(kb) == 2

    def test_a_kb_without_negation_needs_one_element(self):
        assert search_cap(make_kb(formulas=[Box(S("s"), Atom(self.AB))])) == 1

    def test_counts_the_atoms_under_an_odd_number_of_negations_before_nnf(self):
        """¬(A ⊑ B ∧ ¬(B ⊑ A)) holds A ⊑ B under one negation and B ⊑ A
        under two, so the cap is 1 where the walk counted 2.  It is sound:
        the formula is monotone in B ⊑ A, so the copy argument of
        `domain_cap` need not keep a violating element for it, and a sound
        cap does not move the first witness, as the domain size is the
        outermost loop.  After NNF the two counts agree."""
        kb = make_kb(formulas=[Negation(Conjunction(Atom(self.AB),
                                                    Negation(Atom(self.BA))))])
        assert (search_cap(kb), walked_domain_cap(kb)) == (1, 2)
        assert search_cap(normalize_kb(kb)) == walked_domain_cap(normalize_kb(kb)) == 1

    @pytest.mark.parametrize("kb", [
        make_kb(plain_axioms=[Gci(C("A"), Some(R("r"), C("B")))]),
        make_kb(formulas=[Negation(Atom(Gci(O("a"), C("A"))))]),
        make_kb(rias=[Ria((R("r"),), rS)]),
        make_kb(plain_axioms=[Gci(Top(), Some(UNIVERSAL, C("A")))]),
        make_kb(formulas=[Box(S("s"), Atom(Gci(All(UNIVERSAL, C("A")), Bottom())))]),
        normalize_kb(make_kb(
            formulas=[Negation(Atom(Gci(C("A"), C("B")))), Box(S("s"), AxiomRef("u"))],
            named_axioms={"u": Atom(Gci(Top(), Some(UNIVERSAL, C("A"))))}))],
        ids=["role", "nominal", "ria", "universal-role-in-plain-axiom",
             "universal-role-in-formula", "universal-role-through-a-reference"])
    def test_none_with_roles_or_individuals(self, kb):
        assert search_cap(kb) is walked_domain_cap(kb) is None

    def test_none_with_the_universal_role_in_the_query(self):
        """The universal role only in the query, which no name shows: some
        element is A and not B, so every element reaches one outside B.
        The search exhausts every size up to the bound, as a proof."""
        kb = make_kb(formulas=[Negation(Atom(Gci(C("A"), C("B"))))])
        query = Box(STAR, Atom(Gci(Top(), Some(UNIVERSAL, Not(C("B"))))))
        assert search_cap(kb) == 1
        with searched_caps() as caps:
            result = check_entailment_bounded(kb, query, 3, 2, guard_bits=math.inf)
        assert caps == [None]
        assert walked_domain_cap(negated_query_kb(kb, query)) is None
        assert (result.status, result.domain, result.complete) == \
            (ENTAILED_WITHIN_BOUNDS, 3, False)

    @pytest.mark.parametrize("family", ["random", "role_free", "top_level", "widened",
                                        "chain"])
    def test_the_search_cap_is_the_walked_cap_after_nnf(self, family):
        """On normalized draws of every ``genkb`` family the cap the search
        takes from its compile walks equals the walked one; the role-free
        draws cap a fair share, some at more than one element."""
        make = {"random": genkb.random_kb,
                "role_free": lambda seed: genkb.random_kb(seed, role_free=True),
                "top_level": genkb.top_level_kb,
                "widened": lambda seed: genkb.widened(genkb.random_kb(seed)),
                "chain": genkb.chain_kb}[family]
        caps = []
        for seed in range(100):
            kb = normalize_kb(make(seed))
            caps.append(search_cap(kb))
            assert caps[-1] == walked_domain_cap(kb), seed
        if family in ("role_free", "top_level", "chain"):
            assert sum(cap is not None and cap > 1 for cap in caps) > 10
        if family == "widened":
            assert caps == [None] * len(caps)


def _role_free_kbs():
    """``genkb.random_kb`` drawn role-free, the same with ¬(⊤ ⊑ X) ∧
    ¬(X ⊑ ⊥) added, whose models need an element in X and one outside it,
    and the ``genkb.top_level_kb`` draws that have no role."""
    for seed in range(150):
        kb = genkb.random_kb(seed, role_free=True)
        yield kb
        x = genkb.CONCEPTS[seed % 3]
        split = Conjunction(Negation(Atom(Gci(Top(), x))), Negation(Atom(Gci(x, Bottom()))))
        yield normalize_kb(make_kb(formulas=kb.formulas + (split,),
                                   plain_axioms=kb.plain_axioms, base_iri=kb.base_iri))
        kb = genkb.top_level_kb(seed)
        if search_cap(kb) is not None:
            yield kb


def test_capped_search_matches_the_uncapped_search(monkeypatch):
    """At the precisification bound p and a domain bound 2 above the cap,
    the capped and the uncapped search give the same first witness, and the
    translation has a plain model exactly when they find one.  The
    uncapped search is the same search with `domain_cap` giving None."""
    cases = [(kb, search_cap(kb) + 2, count_precisifications(kb)) for kb in _role_free_kbs()]
    capped = [find_standpoint_model(kb, n, p, guard_bits=math.inf) for kb, n, p in cases]
    for (kb, n, _), found in zip(cases, capped):
        assert (find_plain_model(translate_kb(kb), n, guard_bits=math.inf) is None) == \
            (found is None)
    uncapped = []
    monkeypatch.setattr(oracle, "domain_cap", lambda *facts: uncapped.append(facts))
    for (kb, n, p), found in zip(cases, capped):
        assert repr(find_standpoint_model(kb, n, p, guard_bits=math.inf)) == repr(found)
    assert len(uncapped) == len(cases)
    # Both verdicts are common, and so are witnesses of more than one element.
    sizes = [found.domain_size for found in capped if found is not None]
    assert len(sizes) > len(cases) / 4 and len(cases) - len(sizes) > len(cases) / 4
    assert sum(size > 1 for size in sizes) > len(cases) / 8


def _searched_kbs():
    """``genkb.random_kb`` normalized and not (the latter keep ¬[e]φ and
    ¬<e>φ, whose diamond after NNF is the negated box)."""
    for seed in range(150):
        yield genkb.random_kb(seed)
        yield genkb.random_kb(seed, normalized=False)


class TestPrecisificationCap:
    """The search stops at p, the modals that need a witness, counted by
    polarity (`count_precisifications`)."""

    @pytest.mark.parametrize("make", [
        genkb.random_kb, lambda seed: genkb.random_kb(seed, normalized=False),
        genkb.top_level_kb, lambda seed: genkb.widened(genkb.random_kb(seed))],
        ids=["random", "not-normalized", "top_level", "widened"])
    def test_p_is_the_diamond_count_after_nnf(self, make):
        for seed in range(60):
            kb = make(seed)
            assert count_precisifications(kb) == count_precisifications(normalize_kb(kb)), seed

    def test_negated_box_needs_a_witness_and_negated_diamond_none(self):
        ab = Atom(Gci(C("A"), C("B")))
        formulas = [Negation(Box(S("s"), ab)), Negation(Diamond(S("s"), ab)),
                    Negation(Negation(Diamond(S("s"), ab)))]
        assert count_precisifications(make_kb(formulas=formulas)) == 2

    def test_a_negated_box_gets_its_witness(self):
        # A is empty at one precisification and not at another.
        empty = Atom(Gci(C("A"), Bottom()))
        kb = make_kb(formulas=[Negation(Box(S("s"), empty)), Diamond(S("s"), empty)])
        assert find_standpoint_model(kb, 1, 5).precisifications == 2

    def test_witness_at_p_is_the_witness_at_p_plus_three(self):
        kbs = [*_searched_kbs(), *map(genkb.top_level_kb, range(60))]
        for kb in kbs:
            p = count_precisifications(normalize_kb(kb))
            assert repr(find_standpoint_model(kb, 2, p, guard_bits=math.inf)) == \
                repr(find_standpoint_model(kb, 2, p + 3, guard_bits=math.inf))

    def test_capped_search_matches_the_search_up_to_p_plus_three(self, monkeypatch):
        """The first witness at bound p + 3 is the same when the search
        takes every count up to the bound.  Each verdict holds for at least
        a tenth of the KBs."""
        cases = [(kb, count_precisifications(normalize_kb(kb))) for kb in _searched_kbs()]
        capped = [find_standpoint_model(kb, 2, p, guard_bits=math.inf) for kb, p in cases]
        monkeypatch.setattr(oracle, "count_precisifications", lambda kb: 1 << 30)
        for (kb, p), found in zip(cases, capped):
            assert repr(find_standpoint_model(kb, 2, p + 3, guard_bits=math.inf)) == \
                repr(found)
        found = sum(model is not None for model in capped)
        assert len(cases) / 10 < found < len(cases) * 9 / 10

    def test_reference_rejected(self):
        kb = make_kb(formulas=[Disjunction(AxiomRef("ax1"), Atom(Gci(C("A"), C("B"))))],
                     named_axioms={"ax1": Box(S("s"), Atom(Gci(C("B"), C("A"))))})
        with pytest.raises(UnresolvedRef) as err:
            find_standpoint_model(kb, 1, 1)
        assert err.value.name == "ax1"


class TestEntailment:
    @pytest.mark.parametrize("bounds", [(0, 1), (1, 0), (0, 0), (-1, 2)])
    def test_a_bound_below_one_is_rejected(self, bounds):
        """A search over no element or no precisification finds no
        countermodel, so it would call a refuted query entailed."""
        kb = make_kb(plain_axioms=[Gci(C("A"), C("B"))])
        query = Box(Star(), Atom(Gci(C("B"), C("A"))))
        assert check_entailment_bounded(kb, query, 2, 1).status == NOT_ENTAILED
        with pytest.raises(ValueError, match="at least 1"):
            check_entailment_bounded(kb, query, *bounds)
        with pytest.raises(ValueError, match="at least 1"):
            find_standpoint_model(kb, *bounds)

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

    def test_sharpening_chain_first_witness_golden(self):
        """Four standpoints in a sharpening chain a ⊑ b ⊑ c ⊑ d, one
        diamond: the canonical first countermodel, recorded before the
        standpoint formulas were evaluated bit-parallel."""
        def label(op, s):
            return (f'Annotation(:standpointLabel "<standpointAxiom><{op}>'
                    f'<Standpoint name=\\"{s}\\"/></{op}></standpointAxiom>")')

        def sharpening(a, b):
            return (f'Annotation(:standpointLabel "<Sharpening><Standpoint '
                    f'name=\\"{a}\\"/><Standpoint name=\\"{b}\\"/></Sharpening>")')

        doc = parse_document("\n".join([
            "Prefix(:=<urn:chain#>)", "Ontology(<urn:chain>",
            sharpening("a", "b"), sharpening("b", "c"), sharpening("c", "d"),
            f"SubClassOf({label('Box', 'd')} :A :B)",
            f"SubClassOf({label('Box', 'b')} :B ObjectIntersectionOf(:C :D))",
            f"SubClassOf({label('Diamond', 'a')} :D ObjectComplementOf(:A))",
            "SubClassOf(:C ObjectSomeValuesFrom(:r :D))", ")"]))
        query = parse_simple_query("[c](A sub C)", doc.default_namespace)
        result = check_entailment_bounded(assemble_kb(doc), query, 2, 2)
        assert result.status == NOT_ENTAILED
        w = result.witness
        assert (w.domain_size, w.precisifications) == (1, 2)
        assert w.sigma == {"*": {0, 1}, "a": {0}, "b": {0}, "c": {0, 1},
                           "d": {0, 1}}
        concepts = [{"A": set(), "B": set(), "C": set(), "D": set()},
                    {"A": {0}, "B": {0}, "C": set(), "D": {0}}]
        for g, exts in zip(w.gamma, concepts):
            assert {n.local: v for n, v in g.concept_ext.items()} == exts
            assert {n.local: v for n, v in g.role_ext.items()} == {"r": set()}
            assert g.individual_map == {}

    def test_three_precisifications_first_witness_golden(self):
        """Box and diamond over ∪, ∩ and ∖ standpoint expressions, one
        Boolean combination, three precisifications needed: the canonical
        first countermodel, recorded before the standpoint formulas were
        evaluated over all atom vectors at once."""
        A, B, D = C("A"), C("B"), C("D")
        c_minus_a = SpMinus(S("c"), S("a"))
        kb = make_kb(plain_axioms=[Gci(D, Some(R("r"), A))], formulas=[
            Diamond(SpUnion(S("a"), S("b")), Atom(Gci(Top(), And(A, Not(B))))),
            Conjunction(Diamond(c_minus_a, Atom(Gci(Top(), Not(A)))),
                        Negation(Box(S("b"), Atom(Gci(D, Bottom())))))])
        query = Box(SpIntersection(S("a"), S("c")), Atom(Gci(B, Bottom())))
        result = check_entailment_bounded(kb, query, 2, 3)
        assert result.status == NOT_ENTAILED
        w = result.witness
        assert (w.domain_size, w.precisifications) == (1, 3)
        assert w.sigma == {"*": {0, 1, 2}, "a": {0}, "b": {1}, "c": {0, 2}}
        concepts = [{"A": {0}, "B": {0}, "D": {0}},
                    {"A": {0}, "B": set(), "D": {0}},
                    {"A": set(), "B": {0}, "D": set()}]
        roles = [{(0, 0)}, {(0, 0)}, set()]
        for g, exts, pairs in zip(w.gamma, concepts, roles):
            assert {n.local: v for n, v in g.concept_ext.items()} == exts
            assert {n.local: v for n, v in g.role_ext.items()} == {"r": pairs}
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
    roles = st.sampled_from([R("r"), R("s"), Rinv("r"), Rinv("s"), UNIVERSAL])
    counts = st.integers(0, 3)
    return st.one_of(leaf, st.builds(Not, sub), st.builds(And, sub, sub),
                     st.builds(Or, sub, sub), st.builds(Some, roles, sub),
                     st.builds(All, roles, sub), st.builds(HasSelf, roles),
                     st.builds(AtLeast, counts, roles, sub),
                     st.builds(AtMost, counts, roles, sub))


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
        asn[name] = sum(1 << d for d in members)
    n = interp.domain_size
    for name, pairs in interp.role_ext.items():
        asn[name] = sum(1 << (i * n + j) for (i, j) in pairs)
    asn.update(interp.individual_map)
    return asn


def _state(axiom, positive, asn, n):
    """The compiled verdict of ``axiom`` required ``positive`` on a dict
    assignment: the dict becomes a value list over the check's slot order,
    None where unassigned."""
    (compiled,), slots, resize, _ = _compile_checks([(axiom, positive)], Signature())
    resize(n)
    return compiled.state([asn.get(name) for name in slots])


@settings(max_examples=200, deadline=None)
@given(interps(3), small_concepts(2), small_concepts(2))
def test_check_state_exact_on_complete_assignments(interp, c, d):
    asn = _assignment_of(interp)
    for axiom in (Gci(c, d), Equiv(c, d), Ria((R("r"), R("s")), rR)):
        for positive in (True, False):
            state = _state(axiom, positive, asn, interp.domain_size)
            assert state is (holds_axiom(interp, axiom) is positive)


@settings(max_examples=120, deadline=None)
@given(st.data(), small_concepts(2), small_concepts(2))
def test_check_state_sound_on_partial_assignments(data, c, d):
    """A definite verdict on a partial assignment holds in every completion,
    for an inclusion and an equivalence over the same slots, required true
    or false."""
    n = 2
    names = tuple(entity_names_in(Gci(c, d)))
    partial = {}
    for name in sorted(names, key=repr):
        if data.draw(st.booleans()):
            bits = n if name.kind == "concept" else n * n
            if name.kind == "individual":
                partial[name] = data.draw(st.integers(0, n - 1))
            else:
                partial[name] = data.draw(st.integers(0, (1 << bits) - 1))
    free = [name for name in names if name not in partial]
    spaces = [range(n) if name.kind == "individual" else
              range(1 << (n if name.kind == "concept" else n * n)) for name in free]
    for axiom in (Gci(c, d), Equiv(c, d)):
        for positive in (True, False):
            verdict = _state(axiom, positive, partial, n)
            if verdict is None:
                continue
            for combo in itertools.product(*spaces):
                full = dict(partial)
                full.update(zip(free, combo))
                assert _state(axiom, positive, full, n) is verdict


# --- the canonical first witness against brute-force enumeration ------------

def _interp_of(slots, values, n):
    concepts, roles, individuals = {}, {}, {}
    for name, value in zip(slots, values):
        if name.kind == "concept":
            concepts[name] = frozenset(d for d in range(n) if value >> d & 1)
        elif name.kind == "role":
            roles[name] = frozenset((i, j) for i in range(n) for j in range(n)
                                    if value >> (i * n + j) & 1)
        else:
            individuals[name] = value
    return PlainInterpretation(n, concepts, roles, individuals)


def _first_by_enumeration(axioms, max_domain):
    """The first model in slot order with ascending values, found by trying
    every assignment of every domain size in turn."""
    _, slots, _, _ = _compile_checks([(ax, True) for ax in axioms],
                                     plain(axioms).signature)
    for n in range(1, max_domain + 1):
        spaces = [range(n) if name.kind == "individual" else
                  range(1 << (n if name.kind == "concept" else n * n)) for name in slots]
        for values in itertools.product(*spaces):
            interp = _interp_of(slots, values, n)
            if all(holds_axiom(interp, ax) for ax in axioms):
                return interp
    return None


def plain_axioms(concepts="AB", max_axioms=3):
    """Small plain KBs over the given concept names, a role r and an
    individual a: concepts, the role and its inverse, a nominal, and
    optionally a role inclusion.  Global "at least 2" demands make some of
    them need two elements.  Three-operand intersections and unions mix
    names with compound operands, also a name after a compound operand."""
    names = st.sampled_from([C(local) for local in concepts])
    leaf = st.one_of(names, st.sampled_from([Top(), Bottom(), O("a")]))
    roles = st.sampled_from([R("r"), Rinv("r")])
    compound = st.one_of(st.builds(Not, leaf), st.builds(Some, roles, leaf),
                         st.builds(Or, leaf, leaf), st.builds(And, leaf, leaf))
    concept = st.one_of(leaf, st.builds(Not, leaf), st.builds(And, leaf, leaf),
                        st.builds(Or, leaf, leaf), st.builds(Some, roles, leaf),
                        st.builds(All, roles, leaf),
                        st.builds(AtLeast, st.just(2), roles, leaf),
                        *(st.builds(ctor, *operands) for ctor in (And, Or)
                          for operands in ((compound, names, leaf),
                                           (names, compound, names))))
    axiom = st.one_of(st.builds(Gci, concept, concept),
                      st.builds(Gci, st.just(Top()), concept),
                      st.builds(Equiv, concept, concept))
    rias = st.sampled_from([(), (Ria((R("r"), R("r")), rR),),
                            (Ria((Rinv("r"),), rR),)])
    return st.builds(lambda gcis, ria: list(gcis) + list(ria),
                     st.lists(axiom, min_size=1, max_size=max_axioms), rias)


# Slots A, B, C at one element.  Both KBs refute every value of C while A is
# empty, by a conflict on A alone, so the search jumps back over B, whose
# value made ⊤ ⊑ B true.  In the second, ⊤ ⊑ C is true at the refuted value
# C = {0}.  A check found true under a value holds no longer once that
# value is withdrawn, and the first model must still satisfy it.
@settings(max_examples=300, deadline=None)
@given(plain_axioms())
@example([Gci(Top(), Or(And(C("A"), Bottom()), C("B"))),
          Gci(Top(), Or(C("A"), C("C"))), Gci(C("C"), C("A"))])
@example([Gci(Top(), Or(And(C("A"), Bottom()), C("B"))),
          Gci(Top(), Or(And(C("A"), Bottom()), C("C"))), Gci(C("C"), C("A"))])
def test_first_witness_is_the_first_by_enumeration(axioms):
    model = find_plain_model(plain(axioms), 2, guard_bits=math.inf)
    expected = _first_by_enumeration(axioms, 2)
    if expected is None:
        assert model is None
        return
    assert model is not None
    assert (model.domain_size, model.concept_ext, model.role_ext,
            model.individual_map) == (expected.domain_size, expected.concept_ext,
                                      expected.role_ext, expected.individual_map)


@pytest.mark.parametrize("n, concepts, max_axioms", [
    (2, "AB", 3),
    # One element and more names: longer searches over more slots.
    (1, "ABCDEF", 6)])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_search_with_fixed_individuals_and_required_false_checks(n, concepts, max_axioms,
                                                                 data):
    """The search as realising an atom vector runs it: the individual slot
    fixed, each axiom required true or false.  Its result is the first
    assignment of the other slots, by enumeration in slot order, under which
    every axiom holds exactly when it is required to."""
    axioms = data.draw(plain_axioms(concepts, max_axioms))
    element = data.draw(st.integers(0, n - 1))
    positive = [data.draw(st.booleans()) for _ in axioms]
    signature = Signature(frozenset(concept_name(c) for c in concepts),
                          frozenset({rR}), frozenset({iA}))
    compiled, slots, resize, _ = _compile_checks(list(zip(axioms, positive)), signature)
    fixed = {slots.index(iA): element}
    resize(n)
    found = _search_assignment(n, slots, compiled, fixed)
    free = [name for name in slots if name.kind != "individual"]
    spaces = [range(1 << (n if name.kind == "concept" else n * n)) for name in free]
    expected = None
    for values in itertools.product(*spaces):
        asn = dict(zip(free, values)) | {iA: element}
        interp = _interp_of(list(asn), list(asn.values()), n)
        if all(holds_axiom(interp, ax) is pos for ax, pos in zip(axioms, positive)):
            expected = asn
            break
    assert found == expected


@pytest.mark.parametrize("n, concepts", [(1, "AB"), (2, "AB"), (3, "A")])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_search_with_the_role_left_open_refutes_only_what_no_role_repairs(n, concepts,
                                                                           data):
    """The search as realising an atom vector first runs it: the individual
    slot fixed, each axiom required true or false, the role slot neither
    fixed nor searched, and the concept slots in any order.  Where it finds
    nothing, no assignment of every slot, the role's included, makes every
    axiom hold exactly when it is required to."""
    axioms = data.draw(plain_axioms(concepts, 3))
    element = data.draw(st.integers(0, n - 1))
    positive = [data.draw(st.booleans()) for _ in axioms]
    signature = Signature(frozenset(concept_name(c) for c in concepts),
                          frozenset({rR}), frozenset({iA}))
    compiled, slots, resize, _ = _compile_checks(list(zip(axioms, positive)), signature)
    resize(n)
    order = data.draw(st.permutations(
        [i for i, name in enumerate(slots) if name.kind == "concept"]))
    if _search_assignment(n, slots, compiled, {slots.index(iA): element}, order) is not None:
        return
    free = [name for name in slots if name.kind != "individual"]
    spaces = [range(1 << (n if name.kind == "concept" else n * n)) for name in free]
    for values in itertools.product(*spaces):
        interp = _interp_of([*free, iA], [*values, element], n)
        assert not all(holds_axiom(interp, ax) is pos for ax, pos in zip(axioms, positive))


def test_a_search_with_the_roles_left_open_keeps_every_realisable_vector():
    """Every atom vector of ``genkb.widened`` KBs (two roles, an inverse,
    role inclusions, nominals of two individuals) at two elements, under
    every placement of the individuals: where the search over the concept
    slots alone finds nothing, the full search finds nothing either."""
    refuted = 0
    for seed in range(12):
        kb = genkb.widened(genkb.random_kb(seed))
        atoms = list(dict.fromkeys(a.axiom for f in kb.formulas for a in walk_atoms(f)))
        base = [(ax, True) for ax in kb.rias + kb.plain_axioms]
        individuals = sorted(kb.signature.individuals, key=lambda e: (e.base, e.local))
        for v in range(1 << len(atoms)):
            compiled, slots, resize, _ = _compile_checks(
                base + [(ax, bool(v >> i & 1)) for i, ax in enumerate(atoms)], kb.signature)
            resize(2)
            order = [i for i, name in enumerate(slots) if name.kind == "concept"]
            placed = [slots.index(ind) for ind in individuals]
            for nu in itertools.product(range(2), repeat=len(individuals)):
                fixed = dict(zip(placed, nu))
                if _search_assignment(2, slots, compiled, fixed, order) is None:
                    refuted += 1
                    assert _search_assignment(2, slots, compiled, fixed) is None, (seed, v, nu)
    assert refuted


def _compiled_check_sets():
    """The checks of the standpoint search of each ``genkb.random_kb``,
    ``top_level_kb`` and ``widened`` seed, as `find_standpoint_model`
    passes them, and those of the plain search of its translation, each
    with its signature."""
    for make in (genkb.random_kb, genkb.top_level_kb,
                 lambda seed: genkb.widened(genkb.random_kb(seed))):
        for seed in range(40):
            kb = make(seed)
            atoms = list(dict.fromkeys(a.axiom for f in kb.formulas for a in walk_atoms(f)))
            yield ([(ax, True) for ax in kb.rias + kb.plain_axioms]
                   + [(ax, positive) for ax in atoms for positive in (False, True)],
                   kb.signature)
            plain = translate_kb(kb)
            yield [(ax, True) for ax in plain.axioms], plain.signature


def test_the_slot_order_is_the_first_occurrence_order_of_the_names():
    """The compile walk hands out the slots: the names of the checks in
    `entity_names_in` order, check by check, then the signature's other
    concepts, roles and individuals, each sorted by (base, local).  Each
    check's conflict slots are its names sorted by (kind, base, local).
    This ties the hand-written compile to the child order of the syntax
    tree, which fixes the first witnesses."""
    for checks, signature in _compiled_check_sets():
        order = dict.fromkeys(name for ax, _ in checks for name in entity_names_in(ax))
        for names in (signature.concepts, signature.roles, signature.individuals):
            order.update(dict.fromkeys(sorted(names, key=lambda e: (e.base, e.local))))
        compiled, slots, _, _ = _compile_checks(checks, signature)
        assert slots == list(order)
        for check, (ax, _) in zip(compiled, checks):
            assert [slots[i] for i in check.slots] == sorted(
                entity_names_in(ax), key=lambda e: (e.kind, e.base, e.local))


def test_a_model_of_one_element_is_found_without_walking_a_tree(monkeypatch):
    """The compile walks find the slots and the domain cap, so the search
    walks no syntax tree of a KB with roles, nominals and a role inclusion."""
    kb = make_kb(rias=[Ria((R("r"), Rinv("s")), role_name("t"))],
                 plain_axioms=[Gci(O("a"), Some(R("r"), And(C("A"), O("b"))))],
                 formulas=[Box(S("s"), Atom(Gci(C("A"), AtMost(1, R("t"), C("B"))))),
                           Diamond(S("s"), Atom(Equiv(O("b"), HasSelf(R("s")))))])

    def forbidden(*args, **kwargs):
        raise AssertionError("iter_nodes called")
    monkeypatch.setattr(model, "iter_nodes", forbidden)
    found = find_standpoint_model(kb, 3, 2)
    assert (found.domain_size, found.precisifications) == (1, 1)

# --- the first standpoint witness against enumeration of vector tuples ----

def _first_structure_by_enumeration(kb, max_domain, max_prec):
    """The first structure in the order domain size, precisification count,
    standpoint assignment, individual placement, then tuples of atom
    vectors in `product` order, whose vectors the interpretation search
    realises one by one and which models the KB."""
    atoms = list(dict.fromkeys(a.axiom for f in kb.formulas for a in walk_atoms(f)))
    signature = kb.signature
    sp_names = sorted(signature.standpoints - {UNIVERSAL_STANDPOINT})
    individuals = sorted(signature.individuals, key=lambda e: (e.base, e.local))
    base = [(ax, True) for ax in kb.rias + kb.plain_axioms]
    for n in range(1, max_domain + 1):
        def realize(nu, v):
            compiled, slots, resize, _ = _compile_checks(
                base + [(ax, bool(v >> i & 1)) for i, ax in enumerate(atoms)], signature)
            resize(n)
            placed = [slots.index(ind) for ind in individuals]
            asn = _search_assignment(n, slots, compiled, dict(zip(placed, nu)))
            return None if asn is None else _assignment_to_interp(asn, n)
        for m in range(1, max_prec + 1):
            for sigma_tuple in itertools.product(range(1 << m), repeat=len(sp_names)):
                sigma = {s: frozenset(b for b in range(m) if mask >> b & 1)
                         for s, mask in zip(sp_names, sigma_tuple)}
                for nu in itertools.product(range(n), repeat=len(individuals)):
                    gammas = {v: realize(nu, v) for v in range(1 << len(atoms))}
                    for vectors in itertools.product(range(1 << len(atoms)), repeat=m):
                        if any(gammas[v] is None for v in vectors):
                            continue
                        D = StandpointStructure(n, m, sigma, tuple(gammas[v] for v in vectors))
                        if kb_holds(D, kb):
                            return D
    return None


def _rows(sigma_tuple, m):
    """Row pi of a sigma tuple: pi's membership in each standpoint, the
    first standpoint's most significant."""
    return [[mask >> pi & 1 for mask in sigma_tuple] for pi in range(m)]


@pytest.mark.parametrize("m", range(1, 6))
def test_orbit_leaders_are_the_product_whose_rows_do_not_increase(m):
    """In `product` order, and C(m + 2^s − 1, m) of them."""
    for s in range(4):
        expected = [t for t in itertools.product(range(1 << m), repeat=s)
                    if all(a >= b for a, b in itertools.pairwise(_rows(t, m)))]
        assert list(oracle._orbit_leaders(m, s)) == expected, s
        assert len(expected) == math.comb(m + 2 ** s - 1, m)


@pytest.mark.parametrize("m", range(1, 5))
def test_orbit_leaders_are_the_least_of_their_orbits(m):
    """Each is the least of its tuple's images under the m! renamings of
    the precisifications; with no standpoint there is one, empty, tuple."""
    for s in range(4):
        least = {min(tuple(sum((mask >> pi & 1) << perm[pi] for pi in range(m))
                           for mask in t)
                     for perm in itertools.permutations(range(m)))
                 for t in itertools.product(range(1 << m), repeat=s)}
        assert set(oracle._orbit_leaders(m, s)) == least, s
    assert list(oracle._orbit_leaders(m, 0)) == [()]


@pytest.mark.parametrize("family", ["random", "top_level", "widened", "chain"])
def test_first_standpoint_witness_is_the_first_by_enumeration(family):
    """Generated KBs with at most 4 atoms and 2 named standpoints, at domain
    and precisification bounds 2.  The first witness of random seed 189
    and of widened seed 127 has two elements.  The chains have 3 named
    standpoints and are searched at domain bound 1 and precisification
    bound 3, where sigma tuples share orbits and positions share rows: the
    first witnesses of chain seeds 3, 6, 39, 51 and 57 have three
    precisifications, those of 4 and 30 two with equal rows, and seed 0
    has none, so every tuple is enumerated."""
    make = {"random": genkb.random_kb, "top_level": genkb.top_level_kb,
            "widened": lambda seed: genkb.widened(genkb.random_kb(seed)),
            "chain": genkb.chain_kb}[family]
    seeds, bounds, named = [*range(30), 127, 189], (2, 2), 2
    if family == "chain":
        seeds, bounds, named = [0, 3, 4, 6, 30, 39, 51, 57], (1, 3), 3
    for seed in seeds:
        kb = make(seed)
        atoms = {a.axiom for f in kb.formulas for a in walk_atoms(f)}
        if len(atoms) > 4 or len(kb.signature.standpoints) > named + 1:
            continue
        expected = _first_structure_by_enumeration(kb, *bounds)
        found = find_standpoint_model(kb, *bounds, guard_bits=math.inf)
        assert repr(found) == repr(expected), seed


# The first 8 hex digits of the sha256 of each first witness's repr
# (dc937b59 is None), seed by seed from 0, recorded before the search slots
# became the names themselves; those of ``genkb.widened`` (roles, an
# inverse, role inclusions, individuals placed by the standpoint search)
# before a vector was first searched with its roles left open.  The plain
# digests are of every third seed.
WITNESS_DIGESTS = {
    "random": (
        "ae955770 dc937b59 dc937b59 dc937b59 d83ec50f 1eb43609 13b0e5ec dc937b59 "
        "b43c3b6c a63cb779 0fcfc0de 0fcfc0de eb45b9c2 9b822ef2 83d933aa 15a5cedb "
        "428eb529 d4711bac d8d8b357 dc937b59 58117e6d 04544879 b44307e1 d7b076f6 "
        "58e05db2 04544879 dc937b59 d460aa2f 0af042a4 5f1604af 561ac21e dc937b59 "
        "92def9b2 dc937b59 88a7ef18 06ea331b 65313be8 a78ffb05 1c2ed459 f4e5a411 "
        "e3ddc285 bdaae8ee de87de84 002ddf78 970aa502 8461d753 dc937b59 9821bbc4 "
        "f3211dd9 bf1a1bdd 04b7d64e dc937b59 7bb2f9f4 7cddf7d5 534a9434 44bc2bee "
        "f4792251 b7ad68b6 baeca114 17384b54",
        "3a1b97b4 dc937b59 4caccc6a e38f8309 ff506aa3 576eca7a 42735ac2 dfb9477d "
        "5a18c6da 0bf9c986 7956f7eb dc937b59 8bd94864 64ba9480 8a9815ca 0adc5478 "
        "dfb9477d dc937b59 82b4c8f4 9996e28a"),
    "top_level": (
        "e8e05e9a 41335027 ad78930a dc937b59 e9469c9f cf39e55d 7806aeff 305719df "
        "9515f256 927c9f9d bbfccd46 dc937b59 dc937b59 9b90f87a e8788873 dc937b59 "
        "e3a93ac4 a820149e f21f2b77 0676a6d6 dc937b59 dc937b59 617499b3 dc937b59 "
        "fcfdd4d5 8fb39c71 bf49355d 1822be49 dc937b59 dc937b59 dc937b59 cf2c0ba7 "
        "dc937b59 dc937b59 7c8a4ab0 dc937b59 dc937b59 dc937b59 2bf10195 f8544255 "
        "491271a1 bf0af2c9 dc937b59 dc937b59 dc937b59 37e1293b 50dc19f7 b96bfa9d "
        "89f099b6 dc937b59 dc937b59 d3c36391 8796c665 b4dda34b dc937b59 8c5229c6 "
        "dc937b59 dc937b59 f31ae95d c2a22adf",
        "1baff18b dc937b59 0e1f70a3 0a42ae4a dc937b59 dc937b59 40f23d07 dc937b59 "
        "f3a8f707 fbc4cfa9 dc937b59 dc937b59 dc937b59 4183afcc dc937b59 033feec9 "
        "a21e5ca8 24550db2 dc937b59 dc937b59"),
    "widened": (
        "db2e2b60 dc937b59 dc937b59 dc937b59 57f5d974 2d9d8cfa 5dac448b dc937b59 "
        "4198432f f0441075 200cfbd3 200cfbd3 232fe376 b442a001 b442a001 e6307ffa "
        "66b64a98 274eab38 fc8e59f9 dc937b59 e5585b53 d5790e9c 91761416 91761416 "
        "5267f613 2a01e824 dc937b59 f3301e36 57f5d974 200cfbd3 0eb0bdde dc937b59 "
        "5926d726 dc937b59 73007d78 6d0ceb73 032c53ff 79a99314 886ad5cd e6307ffa "
        "b0f79fb0 57f5d974 85e4fedd 57f5d974 e6307ffa dc937b59 dc937b59 7cab1edc "
        "eaf2b773 c438c507 7d3216ae dc937b59 fc8e59f9 dc937b59 82fa454e fc8e59f9 "
        "7a0b3dc6 2a01e824 59fbd39f fc8e59f9",
        "06fd641f dc937b59 3f45de50 313e957a 678c742a c6bf27f3 54237667 bc13cfac "
        "859b23de dadfa615 b1c43e82 dc937b59 cd50a016 e9758baf 1b96738c dc937b59 "
        "bc13cfac dc937b59 15dbd16e 65f0e938"),
}


@pytest.mark.parametrize("family", sorted(WITNESS_DIGESTS))
def test_first_witnesses_are_pinned(family):
    """The canonical first witness is a contract: at domain bound 2 and the
    precisification bound p, the standpoint witness of each seed 0–59, and
    the plain witness of the translation of every third seed, keep their
    repr.  Reordering the compiled checks or the slots moves them."""
    make = {"random": genkb.random_kb, "top_level": genkb.top_level_kb,
            "widened": lambda seed: genkb.widened(genkb.random_kb(seed))}[family]

    def digest(found):
        return hashlib.sha256(repr(found).encode()).hexdigest()[:8]

    standpoint_digests, plain_digests = (text.split() for text in WITNESS_DIGESTS[family])
    for seed in range(60):
        kb = make(seed)
        found = find_standpoint_model(kb, 2, count_precisifications(kb), guard_bits=math.inf)
        assert digest(found) == standpoint_digests[seed], f"standpoint witness of seed {seed}"
        if seed % 3 == 0:
            found = find_plain_model(translate_kb(kb), 2, guard_bits=math.inf)
            assert digest(found) == plain_digests[seed // 3], f"plain witness of seed {seed}"


# --- the compiled (true, false) evaluation against a per-precisification walk -

def _ref_not(v):
    return None if v is None else not v


def _ref_and(a, b):
    if a is False or b is False:
        return False
    if a is True and b is True:
        return True
    return None


def _ref_sigma(e, sigma_sets):
    if isinstance(e, Star):
        return sigma_sets["*"]
    if isinstance(e, SpUnion):
        return _ref_sigma(e.lhs, sigma_sets) | _ref_sigma(e.rhs, sigma_sets)
    if isinstance(e, SpIntersection):
        return _ref_sigma(e.lhs, sigma_sets) & _ref_sigma(e.rhs, sigma_sets)
    if isinstance(e, SpMinus):
        return _ref_sigma(e.lhs, sigma_sets) - _ref_sigma(e.rhs, sigma_sets)
    return sigma_sets[e.name]


def _ref_tri(f, pi, sigma_sets, known, atom_index):
    """The three-valued value of ``f`` at one precisification, None when it
    is open: ``known[pi][i]`` is atom i's polarity at pi, None if unknown."""
    if isinstance(f, Atom):
        return known[pi][atom_index[f.axiom]]
    if isinstance(f, Negation):
        return _ref_not(_ref_tri(f.arg, pi, sigma_sets, known, atom_index))
    if isinstance(f, Conjunction):
        return _ref_and(_ref_tri(f.lhs, pi, sigma_sets, known, atom_index),
                        _ref_tri(f.rhs, pi, sigma_sets, known, atom_index))
    if isinstance(f, Disjunction):
        return _ref_not(_ref_and(
            _ref_not(_ref_tri(f.lhs, pi, sigma_sets, known, atom_index)),
            _ref_not(_ref_tri(f.rhs, pi, sigma_sets, known, atom_index))))
    states = [_ref_tri(f.arg, pi2, sigma_sets, known, atom_index)
              for pi2 in sorted(_ref_sigma(f.standpoint, sigma_sets))]
    if isinstance(f, Box):
        if any(s is False for s in states):
            return False
        return True if all(s is True for s in states) else None
    if any(s is True for s in states):
        return True
    return False if all(s is False for s in states) else None


ATOMS = [Gci(C("A"), C("B")), Gci(C("B"), Bottom()), Gci(Top(), C("A"))]
SP_NAMES = ["a", "b", "c"]


def standpoint_exprs(depth):
    leaf = st.one_of(st.just(Star()), st.sampled_from(SP_NAMES).map(S))
    if depth == 0:
        return leaf
    sub = standpoint_exprs(depth - 1)
    return st.one_of(leaf, st.builds(SpUnion, sub, sub),
                     st.builds(SpIntersection, sub, sub),
                     st.builds(SpMinus, sub, sub))


def formulas(depth):
    leaf = st.sampled_from(ATOMS).map(Atom)
    if depth == 0:
        return leaf
    sub = formulas(depth - 1)
    return st.one_of(leaf, st.builds(Negation, sub),
                     st.builds(Conjunction, sub, sub),
                     st.builds(Disjunction, sub, sub),
                     st.builds(Box, standpoint_exprs(2), sub),
                     st.builds(Diamond, standpoint_exprs(2), sub))


@settings(max_examples=400, deadline=None)
@given(st.data(), formulas(3))
def test_compiled_formulas_match_the_three_valued_walk(data, f):
    """Every precisification's bits of the compiled masks against the walk,
    with each atom true, false or unknown at each precisification on its
    own."""
    from standpoint_owl.oracle import _compile
    m = data.draw(st.integers(1, 4))
    k = len(ATOMS)
    atom_index = {ax: i for i, ax in enumerate(ATOMS)}
    sigma_tuple = tuple(data.draw(st.integers(0, (1 << m) - 1)) for _ in SP_NAMES)
    known = [[data.draw(st.sampled_from([True, False, None])) for _ in range(k)]
             for _ in range(m)]
    atoms, (evaluate,), _, modals, _ = _compile([f], SP_NAMES)
    assert atoms == list(dict.fromkeys(a.axiom for a in walk_atoms(f)))
    order = [atom_index[ax] for ax in atoms]  # compiled atom -> ATOMS position
    at = [sum(1 << pi for pi in range(m) if known[pi][i] is True) for i in order]
    af = [sum(1 << pi for pi in range(m) if known[pi][i] is False) for i in order]
    full = (1 << m) - 1
    true, false = evaluate(at, af, [mask_of(sigma_tuple, full) for mask_of in modals])
    sigma_sets = {"*": frozenset(range(m))}
    for name, mask in zip(SP_NAMES, sigma_tuple):
        sigma_sets[name] = frozenset(b for b in range(m) if mask >> b & 1)
    for pi in range(m):
        expected = _ref_tri(f, pi, sigma_sets, known, atom_index)
        assert (bool(true >> pi & 1), bool(false >> pi & 1)) == \
            (expected is True, expected is False)
