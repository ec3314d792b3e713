"""The record decorator: what every value type of the program relies on.

Each record class of ``model``, ``frontend.functional``,
``frontend.labels`` and ``oracle`` is checked on one sample instance:
frozen, equal only within its class, hashed as the tuple of its fields
(which fixes set iteration order, and so the serialized bytes and the
oracle's first witness), shown as ``Name(field=...)``, and built by
keyword, by default and by ``replace``.
"""

import pytest

from standpoint_owl import model, oracle
from standpoint_owl.frontend import functional, labels
from standpoint_owl.model import (And, AtMost, Atom, EntityName, Equiv,
                                  FrozenInstanceError, Gci, Or, Signature,
                                  StandpointKB, concept_name, fields,
                                  individual_name, is_record, make_kb,
                                  replace, role_name)

from conftest import C, R, S

A, B = C("A"), C("B")
GCI = Gci(A, B)
ATOM = Atom(GCI)
INTERP = oracle.PlainInterpretation(1, {concept_name("A"): frozenset({0})}, {})

SAMPLES = [
    concept_name("A", "http://example.org/x#"), R("r"), model.InverseRole(role_name("r")),
    model.UniversalRole(), A, model.Nominal(individual_name("a")), model.Top(),
    model.Bottom(), model.Not(A), And(A, B, A), Or(A, B), model.All(R("r"), A),
    model.Some(R("r"), A), model.HasSelf(R("r")), AtMost(1, R("r"), A),
    model.AtLeast(2, R("r"), B), GCI, Equiv(A, B),
    model.Ria((R("r"), R("s")), role_name("t")),
    model.Star(), S("s"), model.SpUnion(S("s"), S("t")),
    model.SpIntersection(S("s"), S("t")), model.SpMinus(S("s"), model.Star()),
    ATOM, model.AxiomRef("ax"), model.Negation(ATOM), model.Conjunction(ATOM, ATOM),
    model.Disjunction(ATOM, ATOM), model.Box(S("s"), ATOM), model.Diamond(S("s"), ATOM),
    Signature(frozenset({concept_name("A")})),
    make_kb(plain_axioms=[GCI], named_axioms={"ax": ATOM}, namespace="http://x#"),
    model.Family(GCI, 3), model.PlainKB((GCI,)),
    model.RoleValidationReport(frozenset(), frozenset(), frozenset()),
    functional.Annotation("", "label", '"text"', 3, 7),
    functional.Declaration("concept", concept_name("A")),
    functional.RawDocument("http://x", (("", "http://x#"),), (), (), ()),
    labels.SpAxiomLabel("ax", model.Box, S("s")),
    INTERP, oracle.StandpointStructure(1, 1, {"s": {0}}, (INTERP,)),
    oracle.EntailmentResult(oracle.NOT_ENTAILED),
]
# The records that keep the __init__ of their base instead of a generated one.
OWN_INIT = {And, Or}


def sample_id(x):
    return type(x).__name__


def values(x) -> tuple:
    return tuple(getattr(x, name) for name in fields(x))


def test_samples_cover_every_record_class():
    classes = {cls for module in (model, functional, labels, oracle)
               for cls in vars(module).values()
               if isinstance(cls, type) and is_record(cls)}
    assert {type(x) for x in SAMPLES} == classes
    assert len(classes) == 43


@pytest.mark.parametrize("x", SAMPLES, ids=sample_id)
def test_frozen(x):
    for name in [*fields(x), "extra"]:
        with pytest.raises(FrozenInstanceError):
            setattr(x, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(x, name)
    assert isinstance(FrozenInstanceError(), AttributeError)


@pytest.mark.parametrize("x", SAMPLES, ids=sample_id)
def test_hash_is_the_hash_of_the_field_tuple(x):
    try:
        expected = hash(values(x))
    except TypeError:  # a field holds a dict, as in StandpointKB
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected


@pytest.mark.parametrize("x", SAMPLES, ids=sample_id)
def test_repr_names_every_field(x):
    if type(x) is EntityName:
        assert repr(x) == "c:A"  # its own repr is kept
        return
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields(x), values(x)))
    assert repr(x) == f"{type(x).__qualname__}({shown})"


@pytest.mark.parametrize("x", [x for x in SAMPLES if type(x) not in OWN_INIT],
                         ids=sample_id)
def test_keyword_construction_and_replace_give_an_equal_record(x):
    by_keyword = type(x)(**dict(zip(fields(x), values(x))))
    assert by_keyword == x and by_keyword is not x
    assert replace(x) == x


def test_equality_only_within_one_class():
    assert Gci(A, B) == Gci(A, B)
    assert Gci(A, B) != Equiv(A, B)
    assert And(A, B) != Or(A, B)
    assert model.Top() != model.Bottom()
    assert (A == concept_name("A")) is False
    assert Gci(A, B).__eq__((A, B)) is NotImplemented


def test_defaults():
    name = EntityName("concept", "A")
    assert name.base == "" and name == concept_name("A")
    assert Signature().standpoints == frozenset({"*"})
    assert functional.Annotation("", "p", "l").line == 0
    assert model.Family(GCI).copies == 1
    first, second = StandpointKB(), StandpointKB()
    assert first.named_axioms == {} == second.named_axioms
    assert first.named_axioms is second.named_axioms
    with pytest.raises(TypeError):
        first.named_axioms["x"] = ATOM
    assert INTERP.individual_map == {}
    assert oracle.EntailmentResult("x").witness is None


def test_post_init_checks_run_on_construction_and_replace():
    with pytest.raises(ValueError):
        AtMost(-1, R("r"), A)
    with pytest.raises(ValueError):
        replace(concept_name("A"), kind="class")
    with pytest.raises(ValueError):
        Atom(model.Ria((R("r"),), role_name("s")))
    with pytest.raises(TypeError):
        replace(GCI, middle=A)


def test_replace_keeps_the_fields_it_does_not_name():
    kb = SAMPLES[[type(x) for x in SAMPLES].index(StandpointKB)]
    formulas = (model.Box(S("s"), ATOM),)
    moved = replace(kb, formulas=formulas)
    assert moved.formulas == formulas
    assert moved.namespace == kb.namespace == "http://x#"
    assert all(getattr(moved, name) is getattr(kb, name)
               for name in fields(kb) if name != "formulas")


def test_fields_list_annotations_in_declaration_order():
    assert fields(EntityName) == {"kind": "str", "local": "str", "base": "str"}
    assert list(fields(AtMost)) == ["n", "role", "filler"]
    assert list(fields(And)) == ["parts"]
    assert not is_record(A.name.kind) and not is_record(tuple)
