"""The standpointLabel XML grammar: its reader and its writer.

A payload is a small XML document carrying one of three constructs: a
Boolean combination of standpoint axioms (attached to the ontology), a
sharpening statement between two standpoint expressions (ontology), or a
standpoint operator that turns the annotated subclass/equivalence axiom
into a standpoint axiom (axiom-level, optionally named for later
reference).  Element names are matched case-insensitively; name attribute
values are case-sensitive.  An XML query is a formula of the same grammar.
The element of each model class is in one table (``TAGS``), which the
reader dispatches through and the writer (``_xml``) writes from; each
element of no model class has one constant, which the writer writes and
the reader matches lower-cased.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from functools import reduce
from typing import Optional

from ..errors import BadName, GrammarViolation, XmlSyntaxError
from ..model import (STANDPOINT_NAME_RE, UNIVERSAL_STANDPOINT, Atom, AxiomRef,
                     Box, Conjunction, Diamond, Disjunction, Equiv, Gci,
                     NamedStandpoint, Negation, SpIntersection, SpMinus,
                     SpUnion, Star, StandpointExpr, StandpointFormula,
                     children, record, standpoint_expr)
from ..normalizer import desugar_sharpening
from .manchester import parse_manchester_class, render_manchester

# Axiom names follow the standpoint-name rule after their leading §.
_AX_NAME_RE = re.compile("§" + STANDPOINT_NAME_RE.pattern)

# The elements of no model class: the label's optional wrapper (its name is
# also the annotation property that carries a label), the two top-level
# constructs, and the sides of a standard axiom.
STANDPOINT_LABEL = "standpointLabel"
BOOLEAN_COMBINATION = "booleanCombination"
SHARPENING = "Sharpening"
LHS, RHS = "LHS", "RHS"

# The XML element of each standpoint expression and formula class, and of
# the standard axiom of an atom.
TAGS = {
    Star: "Standpoint", NamedStandpoint: "Standpoint", AxiomRef: "standpointAxiom",
    SpUnion: "UNION", SpIntersection: "INTERSECTION", SpMinus: "MINUS",
    Gci: "subClassOf", Equiv: "equivalentClasses",
    Negation: "NOT", Conjunction: "AND", Disjunction: "OR", Box: "Box", Diamond: "Diamond",
}
# The class of each element name, as the reader matches it (None for an
# element of no class).  A <Standpoint> reads as either standpoint class.
_CLASSES = {tag.lower(): cls for cls, tag in TAGS.items()}


@record
class SpAxiomLabel:
    """A box or diamond operator (the class Box or Diamond) over ``expr``,
    to put over the annotated axiom, named when ``name`` is given."""
    name: Optional[str]
    operator: type
    expr: StandpointExpr


def _class(elem):
    """The class of ``elem``'s element name, in any case, or None."""
    return _CLASSES.get(elem.tag.lower())


def _is(elem, word: str) -> bool:
    """Whether ``elem`` is the element ``word``, in any case."""
    return elem.tag.lower() == word.lower()


def _attr(elem, name: str) -> Optional[str]:
    for key, value in elem.attrib.items():
        if key.lower() == name.lower():
            return value
    return None


def _children(elem) -> list:
    kids = list(elem)
    for text in [elem.text] + [c.tail for c in kids]:
        if text is not None and text.strip():
            raise GrammarViolation(f"unexpected text {text.strip()!r} in <{elem.tag}>")
    return kids


def _only_child(elem, message: str):
    kids = _children(elem)
    if len(kids) != 1:
        raise GrammarViolation(message)
    return kids[0]


def _xml_root(text: str, what: str):
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlSyntaxError(f"bad XML in {what}: {exc}") from None


def _bool_comb_formula(elem, base: str) -> StandpointFormula:
    return _parse_formula(
        _only_child(elem, f"<{BOOLEAN_COMBINATION}> wraps exactly one formula"), base)


def _parse_sp_expr(elem) -> StandpointExpr:
    cls = _class(elem)
    if cls is NamedStandpoint:
        if _children(elem):
            raise GrammarViolation(f"<{TAGS[NamedStandpoint]}> must be empty")
        name = _attr(elem, "name")
        if name is None:
            raise GrammarViolation(f"<{TAGS[NamedStandpoint]}> requires a name attribute")
        return standpoint_expr(name)
    kids = _children(elem)
    if cls is SpIntersection or cls is SpUnion:
        # The operator is binary in the logic; two or more children are
        # accepted and combined from the left.
        if len(kids) < 2:
            raise GrammarViolation(f"<{elem.tag}> needs at least two operands")
        return reduce(cls, map(_parse_sp_expr, kids))
    if cls is SpMinus:
        if len(kids) != 2:
            raise GrammarViolation(f"<{TAGS[SpMinus]}> needs exactly two operands")
        return SpMinus(_parse_sp_expr(kids[0]), _parse_sp_expr(kids[1]))
    raise GrammarViolation(f"expected standpoint expression, got <{elem.tag}>")


def _class_text(elem, base: str):
    if list(elem):
        raise GrammarViolation(f"<{elem.tag}> must contain Manchester text only")
    return parse_manchester_class(elem.text or "", base)


def _parse_std_axiom(elem, base: str) -> Atom:
    cls = _class(elem)
    if cls is not Gci and cls is not Equiv:
        raise GrammarViolation(f"expected {TAGS[Gci]} or {TAGS[Equiv]}, got <{elem.tag}>")
    kids = _children(elem)
    if len(kids) != 2 or not _is(kids[0], LHS) or not _is(kids[1], RHS):
        raise GrammarViolation(f"<{elem.tag}> needs <{LHS}> then <{RHS}>")
    lhs = _class_text(kids[0], base)
    rhs = _class_text(kids[1], base)
    return Atom(cls(lhs, rhs))


def _ax_ref_name(elem) -> str:
    value = _attr(elem, "name")
    if value is None:
        raise GrammarViolation(
            f"<{TAGS[AxiomRef]}> reference requires a name attribute")
    if not _AX_NAME_RE.match(value):
        raise BadName(f"bad axiom name {value!r} (expected §name)")
    return value[1:]


def _parse_formula(elem, base: str) -> StandpointFormula:
    cls = _class(elem)
    if cls is Negation:
        only = _only_child(elem, f"<{TAGS[Negation]}> wraps exactly one axiom")
        return Negation(_parse_axiom(only, base))
    if cls is Conjunction or cls is Disjunction:
        kids = _children(elem)
        if len(kids) != 2:
            raise GrammarViolation(f"<{elem.tag}> needs exactly two subformulas")
        return cls(_parse_formula(kids[0], base), _parse_formula(kids[1], base))
    return _parse_axiom(elem, base)


def _parse_axiom(elem, base: str) -> StandpointFormula:
    cls = _class(elem)
    if cls is AxiomRef:
        if _children(elem):
            raise GrammarViolation(
                "named standpoint axioms are declared on axioms, not inside combinations")
        return AxiomRef(_ax_ref_name(elem))
    if cls is Box or cls is Diamond:
        kids = _children(elem)
        if len(kids) != 2:
            raise GrammarViolation(
                f"<{elem.tag}> needs a standpoint expression and a standard axiom")
        return cls(_parse_sp_expr(kids[0]), _parse_std_axiom(kids[1], base))
    return _parse_std_axiom(elem, base)


def parse_standpoint_label(payload: str,
                           base: str = "") -> StandpointFormula | SpAxiomLabel:
    """Parse one standpointLabel literal into what it states: the formula of
    a booleanCombination, a Sharpening as the formula that
    ``desugar_sharpening`` makes of it, or the SpAxiomLabel of a
    standpointAxiom, whose operator is the class Box or Diamond.

    Element names are case-insensitive, name attributes case-sensitive.
    A redundant outer <standpointLabel> wrapper is tolerated.
    """
    root = _xml_root(payload, STANDPOINT_LABEL)
    if _is(root, STANDPOINT_LABEL):
        root = _only_child(root, f"<{STANDPOINT_LABEL}> wraps exactly one construct")
    if _is(root, BOOLEAN_COMBINATION):
        return _bool_comb_formula(root, base)
    if _is(root, SHARPENING):
        kids = _children(root)
        if len(kids) != 2:
            raise GrammarViolation(
                f"<{SHARPENING}> needs exactly two standpoint expressions")
        return desugar_sharpening(_parse_sp_expr(kids[0]), _parse_sp_expr(kids[1]))
    if _class(root) is AxiomRef:
        raw = _attr(root, "name")
        name = _ax_ref_name(root) if raw is not None else None
        kids = _children(root)
        op = _class(kids[0]) if len(kids) == 1 else None
        if op is not Box and op is not Diamond:
            raise GrammarViolation(f"<{TAGS[AxiomRef]}> wraps exactly one "
                                   f"<{TAGS[Box]}> or <{TAGS[Diamond]}>")
        expr = _only_child(kids[0], f"<{kids[0].tag}> inside a standpoint axiom wraps "
                                    "exactly one standpoint expression")
        return SpAxiomLabel(name, op, _parse_sp_expr(expr))
    raise GrammarViolation(f"unknown {STANDPOINT_LABEL} construct <{root.tag}>")


def parse_query_document(text: str, base: str = "") -> StandpointFormula:
    """Parse an XML query: a Formula element, optionally wrapped in
    <booleanCombination>."""
    root = _xml_root(text, "query")
    if _is(root, BOOLEAN_COMBINATION):
        return _bool_comb_formula(root, base)
    return _parse_formula(root, base)


# ---------------------------------------------------------------------------
# The writer
# ---------------------------------------------------------------------------

def _xml_attr(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")


def _xml_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;")


def _xml(x, ns_base: str) -> str:
    """Canonical XML of a standpoint expression or formula: the element of
    its class (``TAGS``) around its children, in the order of
    ``model.children``.  A standpoint or a reference is an empty element
    with a name, an atom its axiom's element with each side's Manchester
    text.  What the label grammar cannot wrap raises GrammarViolation."""
    if type(x) is Atom:
        tag = TAGS[type(x.axiom)]
        lhs, rhs = (_xml_text(render_manchester(side, ns_base))
                    for side in children(x.axiom))
        return f"<{tag}><{LHS}>{lhs}</{LHS}><{RHS}>{rhs}</{RHS}></{tag}>"
    tag = TAGS.get(type(x))
    if tag is None:
        raise GrammarViolation(f"cannot render formula node {type(x).__name__}")
    kids = children(x)
    if not kids:
        name = UNIVERSAL_STANDPOINT if type(x) is Star else x.name
        mark = "§" if type(x) is AxiomRef else ""
        return f'<{tag} name="{mark}{_xml_attr(name)}"/>'
    if type(x) is Negation and type(x.arg) not in (Atom, AxiomRef, Box, Diamond):
        raise GrammarViolation("negation wraps only axioms in the annotation grammar")
    if type(x) in (Box, Diamond) and type(x.arg) is not Atom:
        raise GrammarViolation(
            "modal operators wrap only standard axioms in the annotation grammar")
    parts = []
    for kid in kids:
        parts.append(_xml(kid, ns_base))
    return f"<{tag}>{''.join(parts)}</{tag}>"


def bool_comb_payload(f: StandpointFormula, ns_base: str) -> str:
    """The label of a top-level formula whose Manchester names are in
    ``ns_base``: a booleanCombination."""
    return f"<{BOOLEAN_COMBINATION}>{_xml(f, ns_base)}</{BOOLEAN_COMBINATION}>"


def sp_axiom_payload(name: str | None, op: type, expr: StandpointExpr) -> str:
    """The label of a standpoint axiom: ``op`` (the class Box or Diamond)
    over ``expr``, named ``§name`` when a name is given."""
    attr = f' name="§{_xml_attr(name)}"' if name else ""
    tag, op_tag = TAGS[AxiomRef], TAGS[op]
    return f"<{tag}{attr}><{op_tag}>{_xml(expr, '')}</{op_tag}></{tag}>"
