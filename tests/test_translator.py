"""Name mangling and the precisification-copy translation."""

import pytest

from standpoint_owl.errors import NestedModality, ReservedName, UnresolvedRef
from standpoint_owl import translator
from standpoint_owl.model import (All, And, Atom, AxiomRef, Bottom, Box,
                                  ConceptName, Conjunction, Diamond,
                                  Disjunction, EntityName, Equiv, Gci,
                                  INDEX_SENTINEL, InverseRole, Negation,
                                  Nominal, Not, Or, PlainKB, Ria, RoleName,
                                  Signature, Some, SpIntersection, SpMinus,
                                  SpUnion, Star, Top, UNIVERSAL, concept_name,
                                  fields, individual_name, is_record,
                                  iter_nodes, make_kb, rebase_names, replace,
                                  role_name, standpoint_entity, validate_roles)
from standpoint_owl.normalizer import count_precisifications, normalize_kb
from standpoint_owl.oracle import find_plain_model, find_standpoint_model
from standpoint_owl.serializer import serialize_kb
from standpoint_owl.translator import mangle, trans, trans_e, translate_kb

from conftest import C, O, R, Rinv, S
from genkb import SECOND_NS, random_kb, top_level_kb, widened

A, B, D = C("A"), C("B"), C("D")


def u_all(c):
    return All(UNIVERSAL, c)


def u_some(c):
    return Some(UNIVERSAL, c)


class TestMangle:
    def test_concept(self):
        assert mangle(concept_name("Forest"), 0, "ns#") == \
            EntityName("concept", "Forest__0", "ns#")

    def test_universal_standpoint(self):
        assert mangle(standpoint_entity("*"), 2, "ns#") == \
            EntityName("concept", "SP__STAR__2", "ns#")

    def test_named_standpoint(self):
        assert mangle(standpoint_entity("LU"), 1, "ns#") == \
            EntityName("concept", "SP__LU__1", "ns#")

    def test_individual_rebased_not_indexed(self):
        assert mangle(individual_name("bob", "old#"), 3, "new#") == \
            EntityName("individual", "bob", "new#")

    def test_role(self):
        assert mangle(role_name("r"), 1, "ns#") == EntityName("role", "r__1", "ns#")

    def test_reserved(self):
        with pytest.raises(ReservedName):
            mangle(concept_name("A__x"), 0, "ns#")

    def test_index_sentinel_reserved(self):
        with pytest.raises(ReservedName):
            mangle(concept_name("A" + INDEX_SENTINEL), 0, "ns#")


class TestTransE:
    def test_named(self):
        assert trans_e(0, S("LU")) == u_all(C("SP__LU__0"))

    def test_star(self):
        assert trans_e(1, Star()) == u_all(C("SP__STAR__1"))

    def test_union(self):
        assert trans_e(1, SpUnion(S("LC"), S("LU"))) == \
            Or(u_all(C("SP__LC__1")), u_all(C("SP__LU__1")))

    def test_intersection(self):
        assert trans_e(0, SpIntersection(S("a"), S("b"))) == \
            And(u_all(C("SP__a__0")), u_all(C("SP__b__0")))

    def test_minus(self):
        assert trans_e(0, SpMinus(S("s"), S("s"))) == \
            And(u_all(C("SP__s__0")), Not(u_all(C("SP__s__0"))))


class TestTrans:
    def test_subclass_atom(self):
        assert trans(0, Atom(Gci(C("CC"), D)), 1) == \
            u_all(Or(Not(C("CC__0")), C("D__0")))

    def test_negated_subclass_atom(self):
        assert trans(0, Negation(Atom(Gci(C("CC"), D))), 1) == \
            u_some(And(C("CC__0"), Not(C("D__0"))))

    def test_negated_equivalence_is_not_in_normal_form(self):
        # to_nnf rewrites ¬(C ≡ D) into two negated inclusions beforehand.
        with pytest.raises(ValueError, match="not in negation normal form"):
            trans(0, Negation(Atom(Equiv(A, B))), 1)

    def test_equiv_as_conjunction(self):
        assert trans(0, Atom(Equiv(A, B)), 1) == \
            And(u_all(Or(Not(C("A__0")), C("B__0"))),
                u_all(Or(Not(C("B__0")), C("A__0"))))

    def test_conjunction_disjunction(self):
        f = Conjunction(Atom(Gci(A, B)), Atom(Gci(B, A)))
        assert trans(0, f, 1) == And(trans(0, Atom(Gci(A, B)), 1),
                                     trans(0, Atom(Gci(B, A)), 1))
        g = Disjunction(Atom(Gci(A, B)), Atom(Gci(B, A)))
        assert trans(0, g, 1) == Or(trans(0, Atom(Gci(A, B)), 1),
                                    trans(0, Atom(Gci(B, A)), 1))

    def test_box_guard_implication(self):
        f = Box(S("s"), Atom(Gci(A, B)))
        assert trans(0, f, 2) == And(
            Or(Not(u_all(C("SP__s__0"))), u_all(Or(Not(C("A__0")), C("B__0")))),
            Or(Not(u_all(C("SP__s__1"))), u_all(Or(Not(C("A__1")), C("B__1")))))

    def test_diamond_guard_conjunction(self):
        f = Diamond(S("s"), Atom(Gci(A, B)))
        assert trans(0, f, 2) == Or(
            And(u_all(C("SP__s__0")), u_all(Or(Not(C("A__0")), C("B__0")))),
            And(u_all(C("SP__s__1")), u_all(Or(Not(C("A__1")), C("B__1")))))

    def test_roles_and_nominals_in_atoms(self):
        f = Atom(Gci(Some(R("r"), O("bob")), Some(InverseRole(role_name("s")), Top())))
        out = trans(0, f, 1, "ns#")
        assert out == u_all(Or(
            Not(Some(R("r__0", "ns#"), Nominal(EntityName("individual", "bob", "ns#")))),
            Some(InverseRole(EntityName("role", "s__0", "ns#")), Top())))

    def test_nested_modality_rejected(self):
        f = Box(S("s"), Diamond(S("t"), Atom(Gci(A, B))))
        with pytest.raises(NestedModality):
            trans(0, f, 1)

    def test_singleton_fold_has_no_wrapper(self):
        f = Diamond(S("s"), Atom(Gci(A, B)))
        assert trans(0, f, 1) == And(u_all(C("SP__s__0")),
                                     u_all(Or(Not(C("A__0")), C("B__0"))))


class TestTranslateKb:
    def test_diamond_plus_plain(self):
        kb = make_kb(formulas=[Diamond(S("s"), Atom(Gci(A, B)))],
                     plain_axioms=[Gci(A, C("CC"))], base_iri="urn:o")
        out = translate_kb(kb)
        ns = "urn:o/translated#"
        assert out.base_iri == "urn:o/translated"
        assert out.axioms == (
            Gci(Top(), All(UNIVERSAL, C("SP__STAR__0", ns))),
            Gci(Top(), And(All(UNIVERSAL, C("SP__s__0", ns)),
                           All(UNIVERSAL, Or(Not(C("A__0", ns)), C("B__0", ns))))),
            Gci(C("A__0", ns), C("CC__0", ns)),
        )

    def test_ria_copies(self):
        kb = make_kb(rias=[Ria((R("r"), R("t")), role_name("w"))],
                     formulas=[Diamond(S("s"), Atom(Gci(A, B))),
                               Diamond(S("s"), Atom(Gci(B, A)))],
                     base_iri="urn:o")
        out = translate_kb(kb)
        ns = "urn:o/translated#"
        rias = [ax for ax in out.axioms if isinstance(ax, Ria)]
        assert rias == [Ria((R("r__0", ns), R("t__0", ns)), role_name("w__0", ns)),
                        Ria((R("r__1", ns), R("t__1", ns)), role_name("w__1", ns))]
        markers = [ax for ax in out.axioms
                   if isinstance(ax, Gci) and isinstance(ax.rhs, All)
                   and ax.rhs.filler.name.local.startswith("SP__STAR")]
        assert len(markers) == 2

    def test_empty_kb(self):
        out = translate_kb(make_kb(base_iri="urn:o"))
        assert out.axioms == (
            Gci(Top(), All(UNIVERSAL, C("SP__STAR__0", "urn:o/translated#"))),)

    def test_universal_role_untouched_in_chains(self):
        kb = make_kb(rias=[Ria((UNIVERSAL, R("r")), role_name("w"))], base_iri="urn:o")
        out = translate_kb(kb)
        ria = [ax for ax in out.axioms if isinstance(ax, Ria)][0]
        assert ria.chain[0] == UNIVERSAL

    def test_unresolved_ref_rejected(self):
        kb = make_kb(formulas=[AxiomRef("ax1")],
                     named_axioms={"ax1": Box(S("s"), Atom(Gci(A, B)))})
        with pytest.raises(UnresolvedRef):
            translate_kb(kb)

    @pytest.mark.parametrize("f", [
        Box(S("s"), Diamond(S("t"), Atom(Gci(A, B)))),
        Box(Star(), Conjunction(Atom(Gci(A, B)), Box(S("t"), Atom(Gci(B, A))))),
        Disjunction(Atom(Gci(A, B)), Box(S("s"), Diamond(S("t"), Atom(Gci(B, A))))),
        Conjunction(Diamond(S("s"), Disjunction(Atom(Gci(A, B)), Box(S("t"), Atom(Gci(B, A))))),
                    Atom(Gci(B, A)))],
        ids=["top-level-box", "top-level-box-over-a-conjunction",
             "box-in-a-combination", "diamond-in-a-combination"])
    @pytest.mark.parametrize("p", [None, 3])
    def test_nested_modality_rejected(self, f, p):
        with pytest.raises(NestedModality):
            translate_kb(make_kb(formulas=[f]), p)

    @pytest.mark.parametrize("name", [C("A" + INDEX_SENTINEL),
                                      O(INDEX_SENTINEL + "a"),
                                      R("r" + INDEX_SENTINEL)])
    @pytest.mark.parametrize("place", [
        lambda ax: {"plain_axioms": [ax]},
        lambda ax: {"formulas": [Box(S("s"), Atom(ax))]},
        lambda ax: {"formulas": [Diamond(S("s"), Atom(ax))]}])
    def test_index_sentinel_in_a_name_rejected(self, name, place):
        # no name made through the library may split a family's template
        ax = Gci(Some(name, A) if isinstance(name, RoleName) else name, B)
        with pytest.raises(ReservedName):
            translate_kb(make_kb(**place(ax)))

    def test_forced_p_below_bound_rejected(self):
        kb = make_kb(formulas=[Diamond(S("s"), Atom(Gci(A, B))),
                               Diamond(S("s"), Atom(Gci(B, A)))])
        with pytest.raises(ValueError):
            translate_kb(kb, p=1)


class TestInvariants:
    def test_pi_independence_for_pure_modal(self):
        f = Conjunction(Box(S("s"), Atom(Gci(A, B))),
                        Diamond(SpUnion(S("s"), Star()), Atom(Equiv(A, B))))
        for p in (1, 2, 3):
            reference = trans(0, f, p)
            for pi in range(1, p):
                assert trans(pi, f, p) == reference

    def test_pi_dependence_with_bare_atom(self):
        f = Conjunction(Atom(Gci(A, B)), Box(S("s"), Atom(Gci(A, B))))
        assert trans(0, f, 2) != trans(1, f, 2)

    def test_signature_discipline(self):
        kb = make_kb(formulas=[Diamond(S("s"), Atom(Gci(A, Some(R("r"), O("x")))))],
                     plain_axioms=[Gci(B, D)], base_iri="urn:o")
        out = translate_kb(kb)
        for name in out.signature.concepts:
            local = name.local
            assert local.startswith("SP__") or local.rsplit("__", 1)[1].isdigit()
        for name in out.signature.roles:
            assert name.local.rsplit("__", 1)[1].isdigit()
        for name in out.signature.individuals:
            assert "__" not in name.local

    def test_size_bound_and_exact_linearity(self):
        kb = make_kb(formulas=[Diamond(S("s"), Atom(Gci(A, B))),
                               Conjunction(Atom(Gci(B, A)), Box(S("s"), Atom(Gci(A, D))))],
                     plain_axioms=[Gci(A, B), Gci(B, D)],
                     rias=[Ria((R("r"), R("t")), role_name("w"))],
                     base_iri="urn:o")
        counts = {p: len(translate_kb(kb, p=p).axioms) for p in (1, 2, 4)}
        for p, count in counts.items():
            assert count <= p * (1 + len(kb.formulas) + len(kb.plain_axioms)
                                 + len(kb.rias))
        slope = counts[2] - counts[1]
        intercept = counts[1] - slope
        assert counts[4] == intercept + 4 * slope  # exactly affine in p

    def test_simplicity_preserved(self, forest_kb):
        kb = make_kb(rias=[Ria((R("r"), R("t")), role_name("w"))],
                     plain_axioms=[Gci(Some(R("w"), A), B)],
                     formulas=[Diamond(S("s"), Atom(Gci(A, Some(R("q"), B))))],
                     base_iri="urn:o")
        report_in = validate_roles(kb)
        out = translate_kb(normalize_kb(kb))
        report_out = validate_roles(out)
        simple_in = {x.local for x in report_in.simple}
        simple_out = {x.local for x in report_out.simple}
        for local in simple_in:
            copies = {f"{local}__{k}" for k in (0,)}
            assert copies <= simple_out


def _nodes(root):
    """Every record node under root, through tuples and frozensets."""
    stack, seen = [root], []
    while stack:
        node = stack.pop()
        if isinstance(node, (tuple, frozenset)):
            stack.extend(node)
        elif is_record(node):
            seen.append(node)
            stack.extend(getattr(node, name) for name in fields(node))
    return seen


class TestSharing:
    def test_equal_leaves_are_one_object(self, forest_kb):
        kb = normalize_kb(forest_kb)
        out = translate_kb(kb, p=3)
        leaves = [n for n in _nodes(out)
                  if isinstance(n, (EntityName, ConceptName, RoleName,
                                    InverseRole, Nominal))]
        by_value = {}
        for leaf in leaves:
            by_value.setdefault(leaf, set()).add(id(leaf))
        assert len(by_value) < len(leaves)  # the fixture does repeat names
        assert all(len(ids) == 1 for ids in by_value.values())
        # the signature holds the very names the axioms use
        names = {id(n) for n in leaves if isinstance(n, EntityName)}
        for name in out.signature.concepts | out.signature.roles:
            if name in by_value:
                assert id(name) in names

    def test_equal_guards_are_one_object(self):
        union = SpUnion(S("s"), S("t"))
        kb = make_kb(formulas=[Diamond(union, Atom(Gci(A, B))),
                               Box(SpUnion(S("s"), S("t")), Atom(Gci(B, D))),
                               Box(S("s"), Atom(Gci(D, A))),
                               Disjunction(Box(union, Atom(Gci(A, D))),
                                           Diamond(S("s"), Atom(Gci(D, B))))],
                     base_iri="urn:o")
        out = translate_kb(kb)
        ns = "urn:o/translated#"
        _, diamond, box, single, mixed = (f.template for f in out.families)
        # the first diamond is guard ⊓ body at index 0; each box is one
        # template B__⋆ ⊓ guard_⋆ ⊑ D__⋆ (⋆ the sentinel) for its p axioms
        assert diamond.rhs.parts[0] == trans_e(0, union, ns)
        assert box.lhs.parts[1] == trans_e(INDEX_SENTINEL, union, ns)
        # the boxed disjunct is one template guard_⋆ ⇒ body for its p
        # copies, guarded by the top-level box's guard at the sentinel, and
        # the second diamond is guard ⊓ body at index 1
        boxed, second = mixed.rhs.parts
        assert boxed.copies == 2
        assert boxed.template.parts[0].arg is box.lhs.parts[1]
        assert second.parts[0] == trans_e(1, S("s"), ns)
        # the marker inside a composite guard is the plain guard of s
        assert box.lhs.parts[1].parts[0] is single.lhs.parts[1]
        # a copy keeps the template's subtrees that hold no family index
        assert out.axioms[2] is diamond
        assert out.axioms[4].lhs.parts[1] == trans_e(1, union, ns)
        # the boxed disjunct expands to the conjunction of guard_k ⇒ body
        box_guards = [part.parts[0].arg for part in out.axioms[7].rhs.parts[0].parts]
        assert box_guards == [trans_e(k, union, ns) for k in range(2)]

    def test_boxed_disjunct_cost_does_not_depend_on_p(self, monkeypatch):
        """A box inside a Boolean combination is built once, as a template,
        not once per index."""
        built = []
        init = ConceptName.__init__

        def counting(self, name):
            built.append(name)
            init(self, name)

        monkeypatch.setattr(ConceptName, "__init__", counting)
        kb = make_kb(formulas=[Disjunction(Atom(Gci(A, B)),
                                           Box(S("s"), Atom(Gci(B, D))))],
                     base_iri="urn:o")
        counts = {}
        for p in (8, 64):
            built.clear()
            translate_kb(kb, p=p)
            counts[p] = len(built)
        assert 0 < counts[8] == counts[64]


class TestIsolation:
    def test_consecutive_calls_with_different_bases(self):
        kb = normalize_kb(make_kb(
            formulas=[Diamond(S("s"), Atom(Gci(A, Some(R("r"), O("x"))))),
                      Conjunction(Atom(Gci(B, A)), Box(S("s"), Atom(Gci(A, D))))],
            plain_axioms=[Gci(B, D)], rias=[Ria((R("r"), R("r")), role_name("r"))],
            base_iri="urn:o"))
        first = translate_kb(kb, base_iri="urn:one")
        second = translate_kb(kb, base_iri="urn:two")
        again = translate_kb(kb, base_iri="urn:one")
        for out, iri in ((first, "urn:one"), (second, "urn:two")):
            assert out.base_iri == iri
            bases = {n.base for n in _nodes(out) if isinstance(n, EntityName)}
            assert bases == {iri + "#"}
        assert again == first
        assert tuple(rebase_names(ax, "urn:two#") for ax in first.axioms) == second.axioms
        # nothing built in one call is handed out by the next
        first_ids = {id(n) for n in _nodes(first) if isinstance(n, EntityName)}
        assert not first_ids & {id(n) for n in _nodes(again)
                                if isinstance(n, EntityName)}

    def test_no_module_level_cache(self):
        scopes = [vars(translator)] + [vars(value) for value in vars(translator).values()
                                       if isinstance(value, type)
                                       and value.__module__ == translator.__name__]
        state = [name for scope in scopes for name, value in scope.items()
                 if not name.startswith("__")
                 and (isinstance(value, (dict, list, set)) or hasattr(value, "cache_info"))]
        assert state == []


def reference_translation(kb):
    """The translation of a RIA-free KB with the public p-way ``trans``:
    every formula and plain axiom at every index, each diamond as the
    disjunction over all indices."""
    assert not kb.rias
    p = count_precisifications(kb)
    axioms = [Gci(Top(), trans_e(k, Star())) for k in range(p)]
    axioms += [Gci(Top(), trans(k, f, p)) for f in kb.formulas for k in range(p)]
    axioms += [Gci(Top(), trans(k, Atom(ax), p))
               for ax in kb.plain_axioms for k in range(p)]
    return PlainKB(tuple(axioms))


# {a} ⊑ ∃t.⊤.  With widened's ∃t⁻.{a} ≡ A, it makes A non-empty only
# where t⁻ is read as the inverse of t, not as t.
A_HAS_T = Gci(O("a"), Some(R("t"), Top()))


def check_widened(draw, seeds=range(150)):
    """The translation's verdict on each KB ``widened(draw(seed))``, and on
    it with A_HAS_T added, is the oracle's at domain bound 2 (bound 3 takes
    minutes), and both verdicts are common for each input."""
    models = [0, 0]
    for seed in seeds:
        kb = widened(draw(seed))
        with_t = replace(kb, plain_axioms=kb.plain_axioms + (A_HAS_T,))
        for k, kb in enumerate((kb, with_t)):
            p = count_precisifications(kb)
            ours = find_plain_model(translate_kb(kb), 2, guard_bits=1000) is not None
            oracle = find_standpoint_model(kb, 2, p, guard_bits=1000) is not None
            assert ours == oracle, (seed, k)
            models[k] += ours
    for n in models:
        assert len(seeds) // 5 < n < len(seeds) * 4 // 5, models


class TestDifferential:
    """The translation against the oracle and against the reference
    encoding, over generated fragment KBs."""

    def test_two_namespaces_equisatisfiable(self):
        agree, split = 0, 0
        seeds = range(120)
        for seed in seeds:
            kb = random_kb(seed, two_namespaces=True)
            p = count_precisifications(kb)
            sp_sat = find_standpoint_model(kb, 3, p, guard_bits=1000) is not None
            pl_sat = find_plain_model(translate_kb(kb), 3, guard_bits=1000) is not None
            agree += sp_sat == pl_sat
            split += {n.base for n in kb.signature.concepts} == {"", SECOND_NS}
        assert agree == len(seeds)
        assert split > len(seeds) // 2  # most KBs do mix the namespaces

    def test_witness_indices_agree_with_the_reference(self):
        seeds = range(150)
        for seed in seeds:
            kb = random_kb(seed)
            ours = find_plain_model(translate_kb(kb), 3, guard_bits=1000)
            ref = find_plain_model(reference_translation(kb), 3, guard_bits=1000)
            assert (ours is None) == (ref is None), seed

    def test_one_guard_per_diamond(self):
        n = 6
        kb = make_kb(formulas=[Diamond(S("s"), Atom(Gci(C(f"A{i}"), C(f"B{i}"))))
                               for i in range(n)], base_iri="urn:o")
        out = translate_kb(kb)
        guards = [node.filler.name.local for ax in out.axioms
                  for node in iter_nodes(ax)
                  if type(node) is All and type(node.filler) is ConceptName
                  and node.filler.name.local.startswith("SP__s__")]
        assert sorted(guards) == sorted(f"SP__s__{d}" for d in range(n))

    def test_widened_kbs_agree_with_the_oracle(self):
        """Role chains, inverse roles, nominals and ≤ restrictions, which
        the translation copies through the model's child table."""
        check_widened(random_kb)

    # With w transitive, {a} starts a w-chain to a D, or a w-cycle back to
    # itself through a D, and w⁻ stands under ∃, under ∀ or in w⁻ ⊑ v.  The
    # chain tells w⁻ from w and the cycle needs transitivity, so reading
    # either wrongly changes some verdicts.
    W, W_INV = R("w"), Rinv("w")
    STARTS = (Gci(O("a"), And(A, Some(W, Some(W, D)))),
              Gci(O("a"), And(A, Some(W, And(D, Some(W, O("a")))))))
    INVERSE_USES = {
        "some": ((), Gci(Some(W_INV, O("a")), B)),
        "only": ((), Gci(A, All(W_INV, B))),
        "ria": ((Ria((W_INV,), role_name("v")),), Gci(Some(R("v"), A), B)),
    }

    @pytest.mark.parametrize("use", sorted(INVERSE_USES))
    def test_inverse_of_a_transitive_role_agrees_with_the_oracle(self, use):
        rias, axiom = self.INVERSE_USES[use]
        rias += (Ria((self.W, self.W), role_name("w")),)
        models, kbs = 0, 0
        for draw in (random_kb, top_level_kb):
            for seed in range(60):
                base = draw(seed)
                for start in self.STARTS:
                    kb = normalize_kb(make_kb(
                        rias=rias, plain_axioms=base.plain_axioms + (axiom, start),
                        formulas=base.formulas, base_iri=base.base_iri))
                    validate_roles(kb)
                    p = count_precisifications(kb)
                    ours = find_plain_model(translate_kb(kb), 2, guard_bits=1000)
                    oracle = find_standpoint_model(kb, 2, p, guard_bits=1000)
                    assert (ours is None) == (oracle is None), (draw.__name__, seed, start)
                    models += ours is not None
                    kbs += 1
        assert kbs // 5 < models < kbs * 4 // 5  # both verdicts are common


class TestTopLevelAxioms:
    """Top-level boxes and bare atoms as per-index axioms, against the
    reference encoding and the oracle: sharpening chains, ``[*]`` boxes,
    boxes over equivalences and over Boolean combinations, and bare
    inclusions and equivalences, next to diamonds (see ``top_level_kb``)."""

    SEEDS = range(200)

    def test_verdicts_agree_with_the_reference_and_the_oracle(self):
        models = 0
        for seed in self.SEEDS:
            kb = top_level_kb(seed)
            p = count_precisifications(kb)
            ours = find_plain_model(translate_kb(kb), 2, guard_bits=1000) is not None
            ref = find_plain_model(reference_translation(kb), 2, guard_bits=1000) is not None
            oracle = find_standpoint_model(kb, 2, p, guard_bits=1000) is not None
            assert ours == ref == oracle, seed
            models += ours
        # both verdicts are common, so a wrong guard shows in either direction
        assert len(self.SEEDS) // 4 < models < len(self.SEEDS) * 3 // 4

    def test_widened_verdicts_agree_with_the_oracle(self):
        check_widened(top_level_kb)

    def test_no_constant_wrapping_and_no_star_guard(self):
        for seed in self.SEEDS:
            kb = top_level_kb(seed)
            p = count_precisifications(kb)
            out = translate_kb(kb)
            assert out.axioms[:p] == tuple(Gci(Top(), trans_e(k, Star(), "urn:gen/translated#"))
                                           for k in range(p))
            for ax in out.axioms[p:]:
                for node in iter_nodes(ax):
                    assert node != Not(Top()), seed
                    assert not (type(node) is EntityName
                                and node.local.startswith("SP__STAR")), seed

    def test_shapes(self):
        ns = "urn:o/translated#"
        s0, t0 = u_all(C("SP__s__0", ns)), u_all(C("SP__t__0", ns))
        a0, b0 = C("A__0", ns), C("B__0", ns)
        kb = normalize_kb(make_kb(formulas=[
            Box(SpMinus(S("s"), S("t")), Atom(Gci(Top(), Bottom()))),
            Box(Star(), Atom(Gci(A, B))),
            Box(S("s"), Atom(Gci(A, B))),
            Box(S("s"), Atom(Equiv(A, B))),
            Box(S("t"), Disjunction(Atom(Gci(A, B)), Negation(Atom(Gci(B, A))))),
            Atom(Equiv(A, B))], base_iri="urn:o"))
        assert translate_kb(kb).axioms[1:] == (
            Gci(And(s0, Not(t0)), Bottom()),
            Gci(a0, b0),
            Gci(And(a0, s0), b0),
            Equiv(And(a0, s0), And(b0, s0)),
            Gci(t0, Or(u_all(Or(Not(a0), b0)), u_some(And(b0, Not(a0))))),
            Equiv(a0, b0))


class TestSignature:
    """The translation declares each input name once, at the sentinel, and
    ``plain.signature`` expands the copies on first use."""

    KB = normalize_kb(make_kb(
        formulas=[Box(S("s"), Atom(Gci(A, B))), Box(Star(), Atom(Equiv(B, D))),
                  Box(SpUnion(S("s"), S("t")), Atom(Gci(D, Some(R("r"), O("x"))))),
                  Atom(Gci(B, A))],
        plain_axioms=[Gci(A, D)], rias=[Ria((R("r"), R("q")), role_name("w"))],
        declared=Signature(frozenset({concept_name("Unused")}),
                           frozenset({role_name("idle")}), frozenset(),
                           frozenset({"u"})),
        base_iri="urn:o"))

    def test_name_count_does_not_depend_on_p(self, monkeypatch):
        built = []
        check = EntityName.__post_init__

        def counting(name):
            built.append(name)
            check(name)

        monkeypatch.setattr(EntityName, "__post_init__", counting)
        counts = {}
        for p in (8, 64):
            built.clear()
            text = serialize_kb(translate_kb(self.KB, p=p))
            counts[p] = len(built)
            sig = self.KB.signature
            assert text.count("Declaration(Class(") == p * (len(sig.concepts)
                                                            + len(sig.standpoints))
            assert text.count("Declaration(ObjectProperty(") == p * len(sig.roles)
        assert 0 < counts[8] == counts[64]

    def test_signature_is_every_copy_of_every_name(self):
        ns = "urn:o/translated#"
        out = translate_kb(self.KB, p=3)
        assert out.copies == 3
        assert out.signature == Signature(
            frozenset(concept_name(f"{local}__{k}", ns) for k in range(3)
                      for local in ("A", "B", "D", "Unused", "SP__STAR",
                                    "SP__s", "SP__t", "SP__u")),
            frozenset(role_name(f"{local}__{k}", ns) for k in range(3)
                      for local in ("r", "q", "w", "idle")),
            frozenset({individual_name("x", ns)}), frozenset())

    def test_every_generated_translation_passes_validate_roles(self):
        chains = 0
        for seed in range(300):
            for kb in (random_kb(seed), top_level_kb(seed)):
                for kb in (kb, widened(kb)):
                    report = validate_roles(translate_kb(kb))
                    chains += bool(report.non_simple)
        assert chains == 600  # every widened KB has a non-simple role
