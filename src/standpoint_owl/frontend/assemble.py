"""Assembly of parsed documents into standpoint knowledge bases.

Ontology-level standpointLabel annotations contribute Boolean combinations
and sharpenings; axiom-level ones attach a box/diamond operator to their
carrier axiom.  Named standpoint axioms are collected separately and are
only translated where a Boolean combination references them, so their
carrier axiom never lands among the plain axioms.
"""

from __future__ import annotations

from ..errors import (DuplicateAxiomName, GrammarViolation, ReservedName,
                      SPAxiomOnRIA, StandpointOwlError)
from ..model import (Atom, Equiv, Gci, Ria, Signature, StandpointFormula,
                     StandpointKB, entity_names_in, signature_over, with_cached)
from .functional import Annotation, RawDocument
from .labels import SpAxiomLabel, parse_standpoint_label

STANDPOINT_LABEL = "standpointLabel"


def _standpoint_labels(annotations):
    return [a for a in annotations if a.property_local == STANDPOINT_LABEL]


def _parse_label(ann: Annotation, base: str,
                 parsed: dict[str, StandpointFormula | SpAxiomLabel]
                 ) -> StandpointFormula | SpAxiomLabel:
    """Parse one annotation payload, pinning errors to their source.
    ``parsed`` keeps each literal's label: the document's base is fixed,
    so the literal alone determines it.  A failed parse is not kept, so the
    error names the first occurrence of a bad literal."""
    label = parsed.get(ann.literal)
    if label is None:
        try:
            label = parse_standpoint_label(ann.literal, base)
        except StandpointOwlError as exc:
            raise type(exc)(f"{exc} (standpointLabel at {ann.line}:{ann.col}, "
                            f"payload: {ann.literal!r})") from None
        parsed[ann.literal] = label
    return label


def _check_locals(doc: RawDocument, signature: Signature):
    """Reject a local name holding the mangling separator.  The signature
    holds every name of the document (label payloads cannot hold ``__``),
    so the walk in document order, which finds the first such name, runs
    only when there is one."""
    if not any("__" in name.local for names in
               (signature.concepts, signature.roles, signature.individuals)
               for name in names):
        return
    names = [d.name for d in doc.declarations]
    for axiom, _ in doc.axioms:
        names.extend(entity_names_in(axiom))
    for name in names:
        if "__" in name.local:
            raise ReservedName(
                f"{name.local!r} contains the reserved separator '__'")


def assemble_kb(doc: RawDocument) -> StandpointKB:
    """Build a StandpointKB from a parsed document.

    Raises DuplicateAxiomName if two named standpoint axioms collide,
    SPAxiomOnRIA if a role axiom carries a standpoint annotation, and,
    only when no such error and no bad label is found, ReservedName if any
    entity local uses the mangling separator.
    Unresolved references are deliberately left to the normalizer.  Each
    distinct label literal is parsed once.  The signature is the document's
    ``names`` and the names of each distinct label (of an axiom-level
    label, its standpoint expression).  The KB's
    ``restricted_roles``, which ``validate_roles`` checks, are the
    document's and those that the same walk of the labels finds.
    So the axioms are not walked again.
    """
    base = doc.default_namespace
    formulas = []
    named_axioms: dict = {}
    plain_axioms = []
    rias = []
    parsed: dict[str, StandpointFormula | SpAxiomLabel] = {}

    for ann in _standpoint_labels(doc.ontology_annotations):
        label = _parse_label(ann, base, parsed)
        if isinstance(label, SpAxiomLabel):
            raise GrammarViolation(
                "standpointAxiom annotations must be attached to an axiom, "
                "not to the ontology")
        formulas.append(label)

    for axiom, annotations in doc.axioms:
        labels = _standpoint_labels(annotations)
        if isinstance(axiom, Ria):
            if labels:
                raise SPAxiomOnRIA("role axioms cannot carry standpoint annotations")
            rias.append(axiom)
            continue
        assert isinstance(axiom, (Gci, Equiv))
        if not labels:
            plain_axioms.append(axiom)
            continue
        for ann in labels:
            label = _parse_label(ann, base, parsed)
            if not isinstance(label, SpAxiomLabel):
                raise GrammarViolation(
                    "only standpointAxiom annotations may be attached to axioms")
            formula = label.operator(label.expr, Atom(axiom))
            if label.name is not None:
                if label.name in named_axioms:
                    raise DuplicateAxiomName(
                        f"duplicate named standpoint axiom §{label.name}")
                named_axioms[label.name] = formula
            else:
                formulas.append(formula)

    label_roots = [label.expr if isinstance(label, SpAxiomLabel) else label
                   for label in parsed.values()]
    restricted = set(doc.restricted_roles)
    signature = signature_over(label_roots, doc.names, restricted)
    _check_locals(doc, signature)
    return with_cached(
        StandpointKB(tuple(rias), tuple(plain_axioms), tuple(formulas),
                     named_axioms, signature, doc.base_iri, base),
        restricted_roles=frozenset(restricted))
