"""Parsing of standpointLabel annotation payloads.

A payload is a small XML document carrying one of three constructs: a
Boolean combination of standpoint axioms (attached to the ontology), a
sharpening statement between two standpoint expressions (ontology), or a
standpoint operator that turns the annotated subclass/equivalence axiom
into a standpoint axiom (axiom-level, optionally named for later
reference).  Element names are matched case-insensitively; name attribute
values are case-sensitive.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Optional

from ..errors import BadName, GrammarViolation, XmlSyntaxError
from ..model import (STANDPOINT_NAME_RE, Atom, AxiomRef, Box, Conjunction,
                     Diamond, Disjunction, Equiv, Gci, NamedStandpoint,
                     Negation, SpIntersection, SpMinus, SpUnion, Star,
                     StandpointExpr, StandpointFormula, fold)
from .manchester import parse_manchester_class

# Axiom names follow the standpoint-name rule after their leading §.
_AX_NAME_RE = re.compile("§" + STANDPOINT_NAME_RE.pattern)


@dataclass(frozen=True)
class BoolCombLabel:
    formula: StandpointFormula


@dataclass(frozen=True)
class SharpeningLabel:
    narrower: StandpointExpr
    wider: StandpointExpr


@dataclass(frozen=True)
class SpAxiomLabel:
    """A box/diamond operator to prepend to the annotated axiom."""
    name: Optional[str]
    operator: str  # "box" | "diamond"
    expr: StandpointExpr


LabeledConstruct = BoolCombLabel | SharpeningLabel | SpAxiomLabel


def _tag(elem) -> str:
    return elem.tag.lower()


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


def _sp_name(elem) -> str:
    value = _attr(elem, "name")
    if value is None:
        raise GrammarViolation("<Standpoint> requires a name attribute")
    if value != "*" and not STANDPOINT_NAME_RE.match(value):
        raise BadName(f"bad standpoint name {value!r}")
    return value


def _parse_sp_expr(elem) -> StandpointExpr:
    tag = _tag(elem)
    if tag == "standpoint":
        if _children(elem):
            raise GrammarViolation("<Standpoint> must be empty")
        name = _sp_name(elem)
        return Star() if name == "*" else NamedStandpoint(name)
    kids = _children(elem)
    if tag in ("intersection", "union"):
        # The operator is binary in the logic; two or more children are
        # accepted and folded from the left.
        if len(kids) < 2:
            raise GrammarViolation(f"<{elem.tag}> needs at least two operands")
        ctor = SpIntersection if tag == "intersection" else SpUnion
        return fold(ctor, [_parse_sp_expr(k) for k in kids])
    if tag == "minus":
        if len(kids) != 2:
            raise GrammarViolation("<MINUS> needs exactly two operands")
        return SpMinus(_parse_sp_expr(kids[0]), _parse_sp_expr(kids[1]))
    raise GrammarViolation(f"expected standpoint expression, got <{elem.tag}>")


def _class_text(elem, base: str):
    if list(elem):
        raise GrammarViolation(f"<{elem.tag}> must contain Manchester text only")
    return parse_manchester_class(elem.text or "", base)


def _parse_std_axiom(elem, base: str) -> Atom:
    tag = _tag(elem)
    if tag not in ("subclassof", "equivalentclasses"):
        raise GrammarViolation(f"expected subClassOf or equivalentClasses, got <{elem.tag}>")
    kids = _children(elem)
    if len(kids) != 2 or _tag(kids[0]) != "lhs" or _tag(kids[1]) != "rhs":
        raise GrammarViolation(f"<{elem.tag}> needs <LHS> then <RHS>")
    lhs = _class_text(kids[0], base)
    rhs = _class_text(kids[1], base)
    return Atom(Gci(lhs, rhs) if tag == "subclassof" else Equiv(lhs, rhs))


def _ax_ref_name(elem) -> str:
    value = _attr(elem, "name")
    if value is None:
        raise GrammarViolation("<standpointAxiom> reference requires a name attribute")
    if not _AX_NAME_RE.match(value):
        raise BadName(f"bad axiom name {value!r} (expected §name)")
    return value[1:]


def _parse_formula(elem, base: str) -> StandpointFormula:
    tag = _tag(elem)
    if tag == "not":
        kids = _children(elem)
        if len(kids) != 1:
            raise GrammarViolation("<NOT> wraps exactly one axiom")
        return Negation(_parse_axiom(kids[0], base))
    if tag in ("and", "or"):
        kids = _children(elem)
        if len(kids) != 2:
            raise GrammarViolation(f"<{elem.tag}> needs exactly two subformulas")
        ctor = Conjunction if tag == "and" else Disjunction
        return ctor(_parse_formula(kids[0], base), _parse_formula(kids[1], base))
    return _parse_axiom(elem, base)


def _parse_axiom(elem, base: str) -> StandpointFormula:
    tag = _tag(elem)
    if tag == "standpointaxiom":
        if _children(elem):
            raise GrammarViolation(
                "named standpoint axioms are declared on axioms, not inside combinations")
        return AxiomRef(_ax_ref_name(elem))
    if tag in ("box", "diamond"):
        kids = _children(elem)
        if len(kids) != 2:
            raise GrammarViolation(
                f"<{elem.tag}> needs a standpoint expression and a standard axiom")
        expr = _parse_sp_expr(kids[0])
        inner = _parse_std_axiom(kids[1], base)
        return Box(expr, inner) if tag == "box" else Diamond(expr, inner)
    return _parse_std_axiom(elem, base)


def parse_standpoint_label(payload: str, base: str = "") -> LabeledConstruct:
    """Parse one standpointLabel literal into its construct.

    Element names are case-insensitive, name attributes case-sensitive.
    A redundant outer <standpointLabel> wrapper is tolerated.
    """
    try:
        root = ET.fromstring(payload)
    except ET.ParseError as exc:
        raise XmlSyntaxError(f"bad XML in standpointLabel: {exc}") from None
    if _tag(root) == "standpointlabel":
        kids = _children(root)
        if len(kids) != 1:
            raise GrammarViolation("<standpointLabel> wraps exactly one construct")
        root = kids[0]
    tag = _tag(root)
    if tag == "booleancombination":
        kids = _children(root)
        if len(kids) != 1:
            raise GrammarViolation("<booleanCombination> wraps exactly one formula")
        return BoolCombLabel(_parse_formula(kids[0], base))
    if tag == "sharpening":
        kids = _children(root)
        if len(kids) != 2:
            raise GrammarViolation("<Sharpening> needs exactly two standpoint expressions")
        return SharpeningLabel(_parse_sp_expr(kids[0]), _parse_sp_expr(kids[1]))
    if tag == "standpointaxiom":
        raw = _attr(root, "name")
        name = _ax_ref_name(root) if raw is not None else None
        kids = _children(root)
        if len(kids) != 1 or _tag(kids[0]) not in ("box", "diamond"):
            raise GrammarViolation("<standpointAxiom> wraps exactly one <Box> or <Diamond>")
        op = kids[0]
        op_kids = _children(op)
        if len(op_kids) != 1:
            raise GrammarViolation(
                f"<{op.tag}> inside a standpoint axiom wraps exactly one standpoint expression")
        return SpAxiomLabel(name, _tag(op), _parse_sp_expr(op_kids[0]))
    raise GrammarViolation(f"unknown standpointLabel construct <{root.tag}>")
