"""Name mangling and the precisification-copy translation."""

import dataclasses

import pytest

from standpoint_owl.errors import NestedModality, ReservedName, UnresolvedRef
from standpoint_owl import translator
from standpoint_owl.model import (All, And, Atom, AxiomRef, Box, ConceptName,
                                  Conjunction, Diamond, Disjunction,
                                  EntityName, Equiv, Gci, InverseRole,
                                  Negation, Nominal, Not, Or, Ria, RoleName,
                                  Some, SpIntersection, SpMinus, SpUnion,
                                  Star, Top, UNIVERSAL, concept_name,
                                  individual_name, left_spine, make_kb,
                                  rebase_names, role_name, standpoint_entity,
                                  validate_roles)
from standpoint_owl.normalizer import normalize_kb
from standpoint_owl.translator import mangle, trans, trans_e, translate_kb

from conftest import C, O, R, S

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
    """Every dataclass node under root, through tuples and frozensets."""
    stack, seen = [root], []
    while stack:
        node = stack.pop()
        if isinstance(node, (tuple, frozenset)):
            stack.extend(node)
        elif dataclasses.is_dataclass(node):
            seen.append(node)
            stack.extend(getattr(node, f.name) for f in dataclasses.fields(node))
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
                               Diamond(S("s"), Atom(Gci(D, A)))],
                     base_iri="urn:o")
        out = translate_kb(kb)
        p = 2
        diamond, box, single = (ax.rhs for ax in out.axioms[p:p + 3])
        diamond_guards = [part.lhs for part in left_spine(diamond, Or)]
        box_guards = [part.lhs.arg for part in left_spine(box, And)]
        for k in range(p):
            assert diamond_guards[k] is box_guards[k]
            assert diamond_guards[k] == trans_e(k, union, "urn:o/translated#")
            # the marker inside the composite guard is the plain guard of s
            assert diamond_guards[k].lhs is left_spine(single, Or)[k].lhs


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
