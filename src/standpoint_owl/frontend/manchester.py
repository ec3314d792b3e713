"""Manchester-syntax class expressions (the subset used inside annotations).

Supported: names, ``and``/``or``/``not``, ``some``/``only``, ``min n``/
``max n``/``exactly n`` (optional filler, defaulting to owl:Thing),
``Self``, ``inverse r``, nominals ``{a}``, ``owl:Thing``, ``owl:Nothing``
and parentheses.  Precedence is the usual one: restrictions bind tightest,
then ``not``, then ``and``, then ``or``.  The reader and the writer
(``render_manchester``) take the restriction words from one table
(``RESTRICTION_WORDS``); ``exactly`` is read only, as the pair of ``min``
and ``max`` that the writer writes for it.
"""

from __future__ import annotations

import re

from ..errors import GrammarViolation, ParseError
from ..model import (All, And, AtLeast, AtMost, Bottom, ConceptExpr,
                     ConceptName, EntityName, HasSelf, InverseRole, Nominal,
                     Not, Or, RoleExpr, RoleName, Some, Top, UniversalRole,
                     children, concept_name, individual_name, role_name)
from .functional import WORDS

# ⊤ and ⊥, spelt as in the functional syntax.
_OWL_CLASSES = {WORDS[cls]: cls for cls in (Top, Bottom)}
_TOKEN_RE = re.compile(rf"""
    (?P<ws>\s+)
  | (?P<owl>{"|".join(map(re.escape, _OWL_CLASSES))})
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<punct>[(){{}}])
""", re.VERBOSE)

# The Manchester keyword of each restriction, written after its role.
RESTRICTION_WORDS = {Some: "some", All: "only", HasSelf: "Self",
                     AtLeast: "min", AtMost: "max"}
# The restriction of each word that follows a role; ``exactly`` has none.
_RESTRICTIONS = {word: cls for cls, word in RESTRICTION_WORDS.items()}
_RESTRICTION_KEYWORDS = {*_RESTRICTIONS, "exactly"}
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
            return _OWL_CLASSES[val]()
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
        cls = _RESTRICTIONS.get(val)
        if cls is None and val != "exactly":
            raise ParseError(f"got {val!r}", col=col, expected="restriction keyword")
        if cls is Some or cls is All:
            return cls(role, self.unary())
        if cls is HasSelf:
            return HasSelf(role)
        k2, v2, c2 = self.next()
        if k2 != "int":
            raise ParseError(f"got {v2!r}", col=c2, expected="non-negative integer")
        n = int(v2)
        filler = self._cardinality_filler()
        if cls is None:  # exactly
            return And(AtLeast(n, role, filler), AtMost(n, role, filler))
        return cls(n, role, filler)


def parse_manchester_class(text: str, base: str = "") -> ConceptExpr:
    """Parse a Manchester-syntax class expression over the given namespace."""
    return _Parser(text, base).parse()


# ---------------------------------------------------------------------------
# The writer
# ---------------------------------------------------------------------------

_MANCHESTER_OR, _MANCHESTER_AND, _MANCHESTER_UNARY = 1, 2, 3


def _check_manchester_base(name: EntityName, ns_base: str):
    """Reject a name the Manchester reader would not read back as itself: one
    from another namespace, a keyword, a non-name token, or one with '__'."""
    if name.base != ns_base:
        raise GrammarViolation(
            f"cannot render {name.local!r} from a foreign namespace in Manchester text")
    token = _TOKEN_RE.fullmatch(name.local)
    if (name.local in _KEYWORDS or token is None or token.lastgroup != "name"
            or "__" in name.local):
        raise GrammarViolation(f"cannot render {name.local!r} as a Manchester name")


def _manchester(c: ConceptExpr, level: int, ns_base: str) -> str:
    def wrap(text: str, own: int) -> str:
        return f"({text})" if own < level else text

    if type(c) in (Top, Bottom):
        return WORDS[type(c)]
    if isinstance(c, ConceptName):
        _check_manchester_base(c.name, ns_base)
        return c.name.local
    if isinstance(c, Nominal):
        _check_manchester_base(c.individual, ns_base)
        return "{" + c.individual.local + "}"
    if isinstance(c, (And, Or)):
        own, word = ((_MANCHESTER_AND, " and ") if isinstance(c, And)
                     else (_MANCHESTER_OR, " or "))
        return wrap(word.join(_manchester(p, own + 1, ns_base) for p in c.parts), own)
    if isinstance(c, Not):
        return wrap(f"not {_manchester(c.arg, _MANCHESTER_UNARY + 1, ns_base)}",
                    _MANCHESTER_UNARY)

    def role_text(role: RoleExpr) -> str:
        if isinstance(role, UniversalRole):
            raise GrammarViolation("the universal role has no Manchester form here")
        _check_manchester_base(role.name, ns_base)
        inner = role.name.local
        return f"inverse {inner}" if isinstance(role, InverseRole) else inner

    role, *filler = children(c)
    text = f"{role_text(role)} {RESTRICTION_WORDS[type(c)]}"
    if type(c) in (AtLeast, AtMost):
        text += f" {c.n}"
    for f in filler:
        text += f" {_manchester(f, _MANCHESTER_UNARY, ns_base)}"
    return wrap(text, _MANCHESTER_UNARY + 1)


def render_manchester(c: ConceptExpr, ns_base: str = "") -> str:
    """Manchester-syntax text for a class expression (local names only)."""
    return _manchester(c, 0, ns_base)
