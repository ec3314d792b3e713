"""Deterministic random knowledge bases in the small test fragment:
at most three concept names, one role, two standpoints, three formulas of
modal depth one, and a translation bound of at most three.  With a second
namespace, D becomes the A of another namespace and the plain axioms use
that namespace's r, so equal local names from two namespaces meet.
``top_level_kb`` draws the top-level shapes that ``translate_kb`` emits
as per-index axioms: boxes and bare atoms, next to sharpening chains and
diamonds.  ``widened`` adds role chains, inverse roles, nominals and
individuals to any of them."""

import random

from standpoint_owl.model import (All, And, AtMost, Atom, Bottom, Box,
                                  Conjunction, ConceptName, Diamond,
                                  Disjunction, Equiv, Gci, InverseRole,
                                  NamedStandpoint, Negation, Nominal, Not, Or,
                                  Ria, RoleName, Some, SpIntersection,
                                  SpMinus, SpUnion, Star, Top, concept_name,
                                  individual_name, make_kb, rebase_names,
                                  role_name, transform)
from standpoint_owl.normalizer import (count_precisifications,
                                       desugar_sharpening, normalize_kb)

CONCEPTS = [ConceptName(concept_name(x)) for x in "ABD"]
ROLE = RoleName(role_name("r"))
STANDPOINTS = [NamedStandpoint("s"), NamedStandpoint("t")]
SECOND_NS = "urn:gen2#"


def _second_namespace(x, role_too):
    """Copy of x with D renamed to SECOND_NS's A and, if role_too, every
    role moved to SECOND_NS."""
    def swap(node):
        if node == CONCEPTS[2]:
            return ConceptName(concept_name("A", SECOND_NS))
        if role_too and type(node) is RoleName:
            return rebase_names(node, SECOND_NS)
        return None

    return transform(x, swap)


def _concept(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(CONCEPTS + [Top(), Bottom()])
    k = rng.randrange(5)
    if k == 0:
        return Not(_concept(rng, depth - 1))
    if k == 1:
        return And(_concept(rng, depth - 1), _concept(rng, depth - 1))
    if k == 2:
        return Or(_concept(rng, depth - 1), _concept(rng, depth - 1))
    if k == 3:
        return Some(ROLE, _concept(rng, depth - 1))
    return All(ROLE, _concept(rng, depth - 1))


def _atom(rng):
    if rng.random() < 0.25:
        return Atom(Equiv(_concept(rng, 2), _concept(rng, 2)))
    return Atom(Gci(_concept(rng, 2), _concept(rng, 2)))


def _standpoint_expr(rng):
    k = rng.randrange(6)
    if k == 0:
        return Star()
    if k <= 2:
        return rng.choice(STANDPOINTS)
    ctor = rng.choice([SpUnion, SpIntersection, SpMinus])
    return ctor(rng.choice(STANDPOINTS), rng.choice(STANDPOINTS))


def _modal(rng):
    ctor = rng.choice([Box, Diamond])
    f = ctor(_standpoint_expr(rng), _atom(rng))
    if rng.random() < 0.3:
        f = Negation(f)
    return f


def _formula(rng):
    k = rng.randrange(6)
    if k == 0:
        return _atom(rng)
    if k == 1:
        return Negation(_atom(rng))
    if k <= 3:
        return _modal(rng)
    ctor = rng.choice([Conjunction, Disjunction])
    return ctor(_modal(rng) if rng.random() < 0.7 else _atom(rng),
                _modal(rng) if rng.random() < 0.7 else _atom(rng))


def _without_roles(x):
    """Copy of x with each ∃r.C and ∀r.C replaced by C."""
    def swap(node):
        if type(node) in (Some, All):
            return _without_roles(node.filler)
        return None

    return transform(x, swap)


def random_kb(seed, normalized=True, two_namespaces=False, role_free=False):
    """One fragment KB per seed; redraws until the bound p is at most 3.
    The draws do not depend on ``two_namespaces`` or ``role_free``: the one
    changes only the names, the other replaces each ∃r.C and ∀r.C by C."""
    rng = random.Random(seed)
    while True:
        formulas = [_formula(rng) for _ in range(rng.randrange(1, 4))]
        plain = [Gci(_concept(rng, 1), _concept(rng, 1))
                 for _ in range(rng.randrange(0, 3))]
        if role_free:
            formulas = [_without_roles(f) for f in formulas]
            plain = [_without_roles(ax) for ax in plain]
        if two_namespaces:
            formulas = [_second_namespace(f, False) for f in formulas]
            plain = [_second_namespace(ax, True) for ax in plain]
        kb = make_kb(formulas=formulas, plain_axioms=plain, base_iri="urn:gen")
        if count_precisifications(normalize_kb(kb)) <= 3:
            return normalize_kb(kb) if normalized else kb


SHARPENED = STANDPOINTS + [NamedStandpoint("v")]


def _side(rng):
    """A concept of depth at most one that is not ⊤ and holds no ¬⊤."""
    k = rng.randrange(7)
    if k <= 2:
        return rng.choice(CONCEPTS)
    if k == 3:
        return Bottom()
    if k == 4:
        return Not(rng.choice(CONCEPTS))
    if k == 5:
        return rng.choice([And, Or])(rng.choice(CONCEPTS), rng.choice(CONCEPTS))
    return Some(ROLE, rng.choice(CONCEPTS))


def _top_level_atom(rng, top_lhs=0.0):
    lhs = Top() if rng.random() < top_lhs else _side(rng)
    ctor = Equiv if rng.random() < 0.3 else Gci
    return Atom(ctor(lhs, _side(rng)))


def _named_expr(rng):
    """A standpoint expression over the named standpoints only."""
    if rng.random() < 0.6:
        return rng.choice(SHARPENED)
    ctor = rng.choice([SpUnion, SpIntersection, SpMinus])
    return ctor(rng.choice(SHARPENED), rng.choice(SHARPENED))


def _combination(rng):
    parts = [Negation(_top_level_atom(rng)) if rng.random() < 0.3
             else _top_level_atom(rng) for _ in range(2)]
    return rng.choice([Conjunction, Disjunction])(*parts)


def _box_or_atom(rng):
    k = rng.randrange(6)
    if k == 0:
        return _top_level_atom(rng, top_lhs=0.2)
    if k == 1:
        return Box(Star(), _top_level_atom(rng, top_lhs=0.2))
    if k == 2:
        return Box(_named_expr(rng), Atom(Equiv(_side(rng), _side(rng))))
    if k == 3:
        return Box(rng.choice([Star(), _named_expr(rng)]), _combination(rng))
    return Box(_named_expr(rng), _top_level_atom(rng, top_lhs=0.2))


def top_level_kb(seed):
    """A normalized KB of one to three top-level boxes or bare atoms, a
    sharpening chain over up to three standpoints and one or two diamonds
    (so p is one or two).  ``*`` occurs only as the whole standpoint of a
    box, and ⊤ only as the left side of a top-level box or atom, so the
    translation's constant folds and dropped ``*`` guards cover all of it."""
    rng = random.Random(seed)
    chain = rng.sample(SHARPENED, rng.randrange(4))
    formulas = [desugar_sharpening(a, b) for a, b in zip(chain, chain[1:])]
    formulas += [_box_or_atom(rng) for _ in range(rng.randrange(1, 4))]
    formulas += [Diamond(_named_expr(rng), rng.choice([Negation, lambda f: f])(
                     _top_level_atom(rng))) for _ in range(rng.randrange(1, 3))]
    rng.shuffle(formulas)
    return normalize_kb(make_kb(formulas=formulas, base_iri="urn:gen"))


def widened(kb):
    """``kb`` plus what the draws above lack: two role chains (one over an
    inverse), a second role, nominals of two individuals (one in
    SECOND_NS), a plain equivalence and a disjunction of a bare atom with
    a diamond.  Normalized; the diamond raises p by one."""
    r, t = ROLE, RoleName(role_name("t"))
    a = Nominal(individual_name("a"))
    b = Nominal(individual_name("b", SECOND_NS))
    A, B, D = CONCEPTS
    plain = (Gci(a, Some(r, b)), Equiv(Some(InverseRole(t.name), a), A))
    formulas = (Disjunction(Atom(Gci(A, B)),
                            Diamond(STANDPOINTS[0], Atom(Gci(b, AtMost(1, t, D))))),)
    rias = (Ria((r, t), role_name("w")), Ria((InverseRole(t.name),), role_name("v")))
    return normalize_kb(make_kb(rias=rias, plain_axioms=kb.plain_axioms + plain,
                                formulas=kb.formulas + formulas, base_iri=kb.base_iri))
