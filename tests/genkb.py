"""Deterministic random knowledge bases in the small test fragment:
at most three concept names, one role, two standpoints, three formulas of
modal depth one, and a translation bound of at most three.  With a second
namespace, D becomes the A of another namespace and the plain axioms use
that namespace's r, so equal local names from two namespaces meet."""

import random

from standpoint_owl.model import (All, And, Atom, Bottom, Box, Conjunction,
                                  ConceptName, Diamond, Disjunction, Equiv,
                                  Gci, NamedStandpoint, Negation, Not, Or,
                                  RoleName, Some, SpIntersection, SpMinus,
                                  SpUnion, Star, Top, concept_name, make_kb,
                                  rebase_names, role_name, transform)
from standpoint_owl.normalizer import count_precisifications, normalize_kb

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


def random_kb(seed, normalized=True, two_namespaces=False):
    """One fragment KB per seed; redraws until the bound p is at most 3.
    The draws do not depend on ``two_namespaces``; only the names do."""
    rng = random.Random(seed)
    while True:
        formulas = [_formula(rng) for _ in range(rng.randrange(1, 4))]
        plain = [Gci(_concept(rng, 1), _concept(rng, 1))
                 for _ in range(rng.randrange(0, 3))]
        if two_namespaces:
            formulas = [_second_namespace(f, False) for f in formulas]
            plain = [_second_namespace(ax, True) for ax in plain]
        kb = make_kb(formulas=formulas, plain_axioms=plain, base_iri="urn:gen")
        if count_precisifications(normalize_kb(kb)) <= 3:
            return normalize_kb(kb) if normalized else kb
