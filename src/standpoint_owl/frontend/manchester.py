"""Manchester-syntax class expressions (the subset used inside annotations).

Supported: names, ``and``/``or``/``not``, ``some``/``only``, ``min n``/
``max n``/``exactly n`` (optional filler, defaulting to owl:Thing),
``Self``, ``inverse r``, nominals ``{a}``, ``owl:Thing``, ``owl:Nothing``
and parentheses.  Precedence is the usual one: restrictions bind tightest,
then ``not``, then ``and``, then ``or``.
"""

from __future__ import annotations

import re

from ..errors import ParseError
from ..model import (All, And, AtLeast, AtMost, Bottom, ConceptExpr,
                     ConceptName, HasSelf, InverseRole, Nominal, Not, Or,
                     RoleExpr, RoleName, Some, Top, concept_name,
                     individual_name, role_name)

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<owl>owl:(?:Thing|Nothing))
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<punct>[(){}])
""", re.VERBOSE)

# The words that follow a role in a restriction.
_RESTRICTION_KEYWORDS = {"some", "only", "min", "max", "exactly", "Self"}
_KEYWORDS = {"and", "or", "not", "inverse", *_RESTRICTION_KEYWORDS}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r} in class expression",
                             col=pos + 1)
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        tokens.append((m.lastgroup, m.group(), m.start() + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, base: str):
        self.tokens = _tokenize(text)
        self.base = base
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, "", 0)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, col = self.next()
        if val != value:
            raise ParseError(f"got {val!r}", col=col, expected=repr(value))

    def at_keyword(self, *words) -> bool:
        kind, val, _ = self.peek()
        return kind == "name" and val in words

    def parse(self) -> ConceptExpr:
        expr = self.or_expr()
        kind, val, col = self.peek()
        if kind is not None:
            raise ParseError(f"trailing input {val!r}", col=col)
        return expr

    def or_expr(self) -> ConceptExpr:
        parts = [self.and_expr()]
        while self.at_keyword("or"):
            self.next()
            parts.append(self.and_expr())
        return Or(*parts) if len(parts) > 1 else parts[0]

    def and_expr(self) -> ConceptExpr:
        parts = [self.unary()]
        while self.at_keyword("and"):
            self.next()
            parts.append(self.unary())
        return And(*parts) if len(parts) > 1 else parts[0]

    def unary(self) -> ConceptExpr:
        if self.at_keyword("not"):
            self.next()
            return Not(self.unary())
        return self.restriction_or_atomic()

    def _role(self) -> RoleExpr:
        if self.at_keyword("inverse"):
            self.next()
            kind, val, col = self.next()
            if kind != "name" or val in _KEYWORDS:
                raise ParseError(f"got {val!r}", col=col, expected="role name")
            return InverseRole(self._entity(val, "role"))
        kind, val, col = self.next()
        return RoleName(self._entity(val, "role"))

    def _entity(self, local: str, entity_kind: str):
        if "__" in local:
            raise ParseError(f"name {local!r} uses the reserved separator '__'")
        if entity_kind == "role":
            return role_name(local, self.base)
        if entity_kind == "individual":
            return individual_name(local, self.base)
        return concept_name(local, self.base)

    def _filler_follows(self) -> bool:
        kind, val, _ = self.peek()
        if kind in ("owl", "int"):
            return kind == "owl"
        if kind == "punct":
            return val in "({"
        if kind == "name":
            return val not in ("and", "or") and val not in _RESTRICTION_KEYWORDS
        return False

    def _cardinality_filler(self) -> ConceptExpr:
        return self.unary() if self._filler_follows() else Top()

    def restriction_or_atomic(self) -> ConceptExpr:
        kind, val, col = self.peek()
        if kind == "punct" and val == "(":
            self.next()
            expr = self.or_expr()
            self.expect(")")
            return expr
        if kind == "punct" and val == "{":
            self.next()
            k2, v2, c2 = self.next()
            if k2 != "name" or v2 in _KEYWORDS:
                raise ParseError(f"got {v2!r}", col=c2, expected="individual name")
            self.expect("}")
            return Nominal(self._entity(v2, "individual"))
        if kind == "owl":
            self.next()
            return Top() if val == "owl:Thing" else Bottom()
        if kind == "name" and val == "inverse":
            role = self._role()
            return self._restriction_tail(role, col)
        if kind == "name" and val not in _KEYWORDS:
            # Could be a bare concept name or the role of a restriction.
            nk, nv, _ = self.tokens[self.i + 1] if self.i + 1 < len(self.tokens) else (None, "", 0)
            if nk == "name" and nv in _RESTRICTION_KEYWORDS:
                role = self._role()
                return self._restriction_tail(role, col)
            self.next()
            return ConceptName(self._entity(val, "concept"))
        raise ParseError(f"got {val!r}" if kind else "unexpected end of input",
                         col=col, expected="class expression")

    def _restriction_tail(self, role: RoleExpr, col: int) -> ConceptExpr:
        kind, val, col = self.next()
        if val == "some":
            return Some(role, self.unary())
        if val == "only":
            return All(role, self.unary())
        if val == "Self":
            return HasSelf(role)
        if val in ("min", "max", "exactly"):
            k2, v2, c2 = self.next()
            if k2 != "int":
                raise ParseError(f"got {v2!r}", col=c2, expected="non-negative integer")
            n = int(v2)
            filler = self._cardinality_filler()
            if val == "min":
                return AtLeast(n, role, filler)
            if val == "max":
                return AtMost(n, role, filler)
            return And(AtLeast(n, role, filler), AtMost(n, role, filler))
        raise ParseError(f"got {val!r}", col=col, expected="restriction keyword")


def parse_manchester_class(text: str, base: str = "") -> ConceptExpr:
    """Parse a Manchester-syntax class expression over the given namespace."""
    return _Parser(text, base).parse()
