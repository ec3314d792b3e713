"""Domain types, traversal, role validation, and signature extraction."""

import itertools

import pytest
from hypothesis import given, strategies as st

from standpoint_owl.errors import (CyclicRoleOrder, MalformedRIA,
                                   NonSimpleInRestriction)
from standpoint_owl import model
from standpoint_owl.model import (All, And, AtLeast, AtMost, Atom, Bottom, Box,
                                  EntityName, Equiv, Gci, HasSelf, Not, Or,
                                  Ria, Signature, Some, Top, UNIVERSAL,
                                  entity_names_in, iter_nodes, make_kb,
                                  rebase_names, role_name, signature_of,
                                  transform, validate_roles)

from conftest import C, O, R, Rinv, S


def simple_ria(chain, head):
    return Ria(tuple(R(c) for c in chain), role_name(head))


class TestEntityName:
    def test_standpoint_pattern(self):
        EntityName("standpoint", "LC")
        EntityName("standpoint", "*")
        with pytest.raises(ValueError):
            EntityName("standpoint", "2bad")

    def test_empty_local_rejected(self):
        with pytest.raises(ValueError):
            EntityName("concept", "")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            EntityName("klass", "A")


class TestNAry:
    @pytest.mark.parametrize("ctor", [And, Or])
    def test_leading_operand_spliced_later_ones_kept(self, ctor):
        a, b, c = C("A"), C("B"), C("D")
        assert ctor(ctor(a, b), c).parts == (a, b, c)
        assert ctor(a, ctor(b, c)).parts == (a, ctor(b, c))
        other = Or if ctor is And else And
        assert ctor(other(a, b), c).parts == (other(a, b), c)
        with pytest.raises(ValueError):
            ctor(a)


class TestTraversal:
    def test_children_table_covers_every_node_class(self):
        """A syntax record lists its node-valued fields in _CHILDREN, in
        declaration order; any other field holds plain data."""
        containers = {Signature, model.StandpointKB, model.PlainKB,
                      model.RoleValidationReport}
        visited = 0
        for cls in vars(model).values():
            if (not isinstance(cls, type) or not model.is_record(cls)
                    or cls in containers):
                continue
            visited += 1
            nodes = [name for name, annotation in model.fields(cls).items()
                     if annotation not in ("str", "int")]
            assert list(model._CHILDREN.get(cls, ())) == nodes, cls.__name__
        # Every syntax class of the model: the name, 3 role, 12 concept,
        # 3 axiom, 5 standpoint-expression and 7 formula classes, Family.
        assert visited == 32

    @pytest.mark.parametrize("ctor", [Gci, Equiv])
    def test_entity_names_order(self, ctor):
        """First-occurrence order over every concept and role node kind; the
        oracle's slot order, and so its first witness, rests on it."""
        tree = ctor(And(Not(C("A")), Or(O("a"), Bottom())),
                    Some(Rinv("r"), All(R("s"), AtMost(1, R("t"), And(
                        AtLeast(2, UNIVERSAL, C("r")),
                        Or(HasSelf(R("u")), Some(R("r"), And(Top(), C("A")))))))))
        assert [(n.kind, n.local) for n in entity_names_in(tree)] == [
            ("concept", "A"), ("individual", "a"), ("role", "r"), ("role", "s"),
            ("role", "t"), ("concept", "r"), ("role", "u")]

    def test_entity_names_chain_before_head(self):
        ria = Ria((R("p"), Rinv("q"), UNIVERSAL, R("p")), role_name("h"))
        assert [n.local for n in entity_names_in(ria)] == ["p", "q", "h"]

    def test_iter_nodes_stop_is_yielded_not_entered(self):
        f = Box(S("s"), Atom(Gci(C("A"), C("B"))))
        assert [type(n).__name__ for n in iter_nodes(f, (Atom,))] == [
            "Box", "NamedStandpoint", "Atom"]

    def test_transform_keeps_unchanged_subtrees(self):
        ax = Gci(And(C("A"), Top()), AtMost(2, R("r"), Not(C("B"))))
        assert transform(ax, lambda n: None) is ax
        moved = transform(ax, lambda n: C("X") if n == C("A") else None)
        assert moved == Gci(And(C("X"), Top()), ax.rhs)
        assert moved.rhs is ax.rhs

    def test_transform_copies_a_shared_node_once(self):
        n = Not(C("A"))
        moved = transform(Gci(n, Some(R("r"), n)),
                          lambda node: C("X") if node == C("A") else None)
        assert moved == Gci(Not(C("X")), Some(R("r"), Not(C("X"))))
        assert moved.lhs is moved.rhs.filler

    def test_transform_calls_that_share_a_memo_share_copies(self):
        n = Not(C("A"))
        rename = lambda node: C("X") if node == C("A") else None  # noqa: E731
        trees, memo = (Gci(n, Top()), Some(R("r"), n)), {}  # held while memo is used
        first, second = (transform(tree, rename, memo) for tree in trees)
        assert first.lhs == Not(C("X")) and first.lhs is second.filler
        assert transform(n, rename) is not first.lhs  # a fresh memo copies anew

    def test_wide_and_deep_trees(self):
        """Neither walk is bounded by the recursion limit."""
        wide = And(*[C(f"A{k}") for k in range(5000)])
        deep, nested = C("A"), C("A")
        for k in range(5000):
            deep = Not(deep)
            nested = Or(C(f"A{k}"), nested)  # a trailing operand stays nested
        for tree in (wide, deep, nested):
            rebased = rebase_names(Gci(tree, Top()), "urn:x#")
            assert {n.base for n in entity_names_in(rebased)} == {"urn:x#"}


class TestValidateRoles:
    def test_single_chain_acyclic(self):
        kb = make_kb(rias=[simple_ria(["r", "t"], "w")])
        report = validate_roles(kb)
        assert {x.local for x in report.non_simple} == {"w"}
        assert not report.is_simple(UNIVERSAL)
        assert {(a.local, b.local) for a, b in report.order} == {("r", "w"), ("t", "w")}

    def test_order_is_transitive(self):
        kb = make_kb(rias=[simple_ria(["a"], "b"), simple_ria(["b", "x"], "c"),
                           simple_ria(["c"], "d")])
        order = {(a.local, b.local) for a, b in validate_roles(kb).order}
        assert order == {("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                         ("b", "d"), ("c", "d"), ("x", "c"), ("x", "d")}

    def test_two_cycle_detected(self):
        kb = make_kb(rias=[simple_ria(["r", "t"], "w"), simple_ria(["w", "v"], "r")])
        with pytest.raises(CyclicRoleOrder):
            validate_roles(kb)

    def test_non_simple_in_restriction(self):
        kb = make_kb(plain_axioms=[Gci(AtLeast(2, R("w"), C("A")), Top())],
                     rias=[simple_ria(["r", "t"], "w")])
        with pytest.raises(NonSimpleInRestriction):
            validate_roles(kb)

    @pytest.mark.parametrize("restriction", [
        AtMost(1, UNIVERSAL, Top()), AtLeast(2, UNIVERSAL, Top()), HasSelf(UNIVERSAL)])
    def test_universal_role_in_restriction_rejected(self, restriction):
        # The universal role is non-simple with no RIA in the KB at all.
        plain = make_kb(plain_axioms=[Gci(restriction, Bottom())])
        boxed = make_kb(formulas=[Box(S("s"), Atom(Gci(C("A"), restriction)))])
        for kb in (plain, boxed):
            with pytest.raises(NonSimpleInRestriction):
                validate_roles(kb)

    def test_transitivity_shape_allowed(self):
        kb = make_kb(rias=[simple_ria(["r", "r"], "r")])
        report = validate_roles(kb)
        assert {x.local for x in report.non_simple} == {"r"}
        assert report.order == frozenset()

    def test_head_at_front_and_end_allowed(self):
        validate_roles(make_kb(rias=[simple_ria(["w", "r"], "w")]))
        validate_roles(make_kb(rias=[simple_ria(["r", "w"], "w")]))

    def test_head_mid_chain_rejected(self):
        with pytest.raises(MalformedRIA):
            validate_roles(make_kb(rias=[simple_ria(["r", "w", "t"], "w")]))
        with pytest.raises(MalformedRIA):
            validate_roles(make_kb(rias=[simple_ria(["w", "r", "w"], "w")]))

    def test_trivial_self_inclusion_keeps_simple(self):
        kb = make_kb(rias=[simple_ria(["r"], "r")])
        report = validate_roles(kb)
        assert report.non_simple == frozenset()

    def test_subrole_head_becomes_non_simple(self):
        # A proper single-role chain under a different head marks the head.
        report = validate_roles(make_kb(rias=[simple_ria(["s"], "w")]))
        assert {x.local for x in report.non_simple} == {"w"}

    def test_inverse_of_non_simple_rejected(self):
        bad = make_kb(rias=[simple_ria(["r", "t"], "w")],
                      plain_axioms=[Gci(Some(Rinv("w"), C("A")), C("B"))])
        with pytest.raises(NonSimpleInRestriction):
            validate_roles(bad)

    def test_permutation_invariance(self):
        rias = [simple_ria(["a", "b"], "x"), simple_ria(["x", "c"], "y"),
                simple_ria(["d"], "z")]
        reports = []
        for perm in itertools.permutations(rias):
            reports.append(validate_roles(make_kb(rias=list(perm))))
        assert len({(r.simple, r.non_simple, r.order) for r in reports}) == 1


class TestSignature:
    def test_empty_kb(self):
        sig = signature_of(make_kb())
        assert sig == Signature(frozenset(), frozenset(), frozenset(),
                                frozenset({"*"}))

    def test_forest_standpoints(self, forest_kb):
        assert forest_kb.signature.standpoints == frozenset({"*", "LC", "LU", "BFO"})

    def test_ria_only(self):
        sig = signature_of(make_kb(rias=[simple_ria(["r", "t"], "w")]))
        assert {x.local for x in sig.roles} == {"r", "t", "w"}
        assert sig.concepts == frozenset()

    def test_compositionality(self):
        kb1 = make_kb(plain_axioms=[Gci(C("A"), C("B"))])
        kb2 = make_kb(formulas=[Box(S("s"), Atom(Gci(C("B"), C("D"))))])
        both = make_kb(plain_axioms=kb1.plain_axioms, formulas=kb2.formulas)
        assert signature_of(both) == signature_of(kb1).union(signature_of(kb2))


def concept_trees(role_pool, depth):
    from standpoint_owl.model import (All, And, AtMost, HasSelf, Not, Or,
                                      Some, Top)
    roles = st.sampled_from([R(x) for x in role_pool])
    leaf = st.sampled_from([C("A"), C("B"), Top()])
    if depth == 0:
        return leaf
    sub = concept_trees(role_pool, depth - 1)
    return st.one_of(leaf, st.builds(Not, sub), st.builds(And, sub, sub),
                     st.builds(Or, sub, sub), st.builds(Some, roles, sub),
                     st.builds(All, roles, sub), st.builds(HasSelf, roles),
                     st.builds(AtMost, st.integers(0, 2), roles, sub))


@given(concept_trees("rt", 3))
def test_well_formed_trees_validate(tree):
    """Restrictions drawn over plain (never chain-defined) roles pass."""
    kb = make_kb(plain_axioms=[Gci(tree, Top())],
                 rias=[simple_ria(["r", "t"], "w")])
    validate_roles(kb)


@given(concept_trees("rw", 3))
def test_trees_with_chain_head_restrictions_rejected(tree):
    uses_w = any(node.role == R("w") for node in iter_nodes(tree)
                 if isinstance(node, (AtMost, HasSelf)))
    kb = make_kb(plain_axioms=[Gci(tree, Top())],
                 rias=[simple_ria(["r", "t"], "w")])
    if uses_w:
        with pytest.raises(NonSimpleInRestriction):
            validate_roles(kb)
    else:
        validate_roles(kb)


@given(st.lists(st.tuples(st.sampled_from("abxy"), st.sampled_from("abxy"),
                          st.sampled_from("xy")), max_size=4))
def test_random_chains_deterministic(pairs):
    """validate_roles either raises or returns the same report regardless of
    axiom order."""
    rias = [simple_ria([p, q], h) for p, q, h in pairs]
    outcomes = []
    for perm in itertools.permutations(rias):
        try:
            rep = validate_roles(make_kb(rias=list(perm)))
            outcomes.append(("ok", rep.simple, rep.non_simple, rep.order))
        except CyclicRoleOrder:
            outcomes.append(("cycle",))
        except MalformedRIA:
            outcomes.append(("malformed",))
    assert len(set(outcomes)) == 1
