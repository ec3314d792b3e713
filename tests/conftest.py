"""Shared fixtures and AST shorthand for the test suite."""

import itertools
from pathlib import Path

import pytest

from standpoint_owl.frontend import assemble, assemble_kb, parse_document
from standpoint_owl.model import (ConceptName, InverseRole, NamedStandpoint,
                                  Nominal, RoleName, Star, concept_name,
                                  individual_name, replace, role_name)
from standpoint_owl.serializer import serialize_kb

FIXTURES = Path(__file__).parent / "fixtures"
FOREST_BASE = "http://example.org/forestry#"


def C(local, base=""):
    return ConceptName(concept_name(local, base))


def R(local, base=""):
    return RoleName(role_name(local, base))


def Rinv(local, base=""):
    return InverseRole(role_name(local, base))


def O(local, base=""):
    return Nominal(individual_name(local, base))


def S(name):
    return Star() if name == "*" else NamedStandpoint(name)


def writes_back(text):
    """Assert that ``serialize_kb`` of the KB read from ``text`` reads back
    as that KB (its formulas in order, plain axioms, role inclusions, named
    axioms and signature), and that a second application changes no byte."""
    kb = assemble_kb(parse_document(text))
    once = serialize_kb(kb)
    again = assemble_kb(parse_document(once))
    assert again == kb
    assert serialize_kb(again) == once
    return once


@pytest.fixture(scope="session")
def forest_text():
    return (FIXTURES / "forest.ofn").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def forest_doc(forest_text):
    return parse_document(forest_text)


@pytest.fixture(scope="session")
def forest_kb(forest_doc):
    return assemble_kb(forest_doc)


@pytest.fixture
def label_parses(monkeypatch):
    """The payloads that ``assemble_kb`` hands to the label parser while the
    test runs, in call order."""
    parsed = []
    parse = assemble.parse_standpoint_label

    def recording(payload, base=""):
        parsed.append(payload)
        return parse(payload, base)

    monkeypatch.setattr(assemble, "parse_standpoint_label", recording)
    return parsed


def assembled_label_by_label(doc):
    """``assemble_kb`` of ``doc`` with every annotation literal made unique by
    its own amount of trailing whitespace, which the XML parser ignores, so
    that each annotation is parsed on its own."""
    pad = itertools.count(1)

    def spread(annotations):
        return tuple(replace(a, literal=a.literal + " " * next(pad))
                     for a in annotations)

    return assemble_kb(replace(
        doc, ontology_annotations=spread(doc.ontology_annotations),
        axioms=tuple((axiom, spread(anns)) for axiom, anns in doc.axioms)))


def label_literals(doc):
    """Every standpointLabel literal of ``doc``, in document order."""
    return [a.literal for a in (*doc.ontology_annotations,
                                *(a for _, anns in doc.axioms for a in anns))
            if a.property_local == assemble.STANDPOINT_LABEL]
