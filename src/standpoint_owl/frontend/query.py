"""The simple query syntax: one modalised subclass or equivalence axiom.

A simple query is ``[s](C sub D)`` or ``<s>(C eq D)`` where ``[s]``/``<s>``
are the box/diamond operators for standpoint ``s`` (``*`` allowed) and the
class expressions use Manchester syntax.  Richer queries arrive as an XML
formula document using the same grammar as booleanCombination bodies
(``labels.parse_query_document``).
"""

from __future__ import annotations

import re

from ..errors import ParseError
from ..model import (Atom, Box, Diamond, Equiv, Gci, StandpointFormula,
                     standpoint_expr)
from .manchester import parse_manchester_class

_HEAD_RE = re.compile(r"\s*(\[(?P<box>[^\]]*)\]|<(?P<dia>[^>]*)>)\s*\((?P<body>.*)\)\s*\Z",
                      re.DOTALL)


def _split_body(body: str) -> tuple[str, str, str]:
    depth = 0
    for m in re.finditer(r"[(){}]|\b(sub|eq)\b", body):
        tok = m.group()
        if tok in "({":
            depth += 1
        elif tok in ")}":
            depth -= 1
        elif depth == 0:
            return body[:m.start()], tok, body[m.end():]
    raise ParseError("query body must be 'Class sub Class' or 'Class eq Class'")


def parse_simple_query(text: str, base: str = "") -> StandpointFormula:
    """Parse a simple query into a modalised subclass/equivalence atom."""
    m = _HEAD_RE.match(text)
    if not m:
        raise ParseError("query must look like [s](C sub D) or <s>(C eq D)")
    name = m.group("box") if m.group("box") is not None else m.group("dia")
    expr = standpoint_expr(name)
    lhs_text, op, rhs_text = _split_body(m.group("body"))
    lhs = parse_manchester_class(lhs_text, base)
    rhs = parse_manchester_class(rhs_text, base)
    atom = Atom(Gci(lhs, rhs) if op == "sub" else Equiv(lhs, rhs))
    return Box(expr, atom) if m.group("box") is not None else Diamond(expr, atom)

