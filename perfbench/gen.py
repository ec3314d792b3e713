"""Seeded input generator for the benchmark workloads.

Every document is built as text from ``random.Random(seed)`` alone, so the
same seed gives byte-identical files, and the generator never imports the
program under test.  The knobs of each workload live in ``WORKLOADS``.

The document workloads draw their shape (expression trees, which axioms
carry diamonds, the role hierarchy) from a generator with a fixed seed
and only names and standpoint labels from the seed.  The query workloads
draw whole KBs and queries from the fixed generator and let the seed
rename their concepts, roles and standpoints, which keeps every verdict.
So every seed costs about the same work, and the spread across seeds is
the host's rather than the inputs'.

Class expressions are small tuples rendered twice: in functional syntax
for axiom bodies and in Manchester syntax for ``standpointLabel`` payloads
and queries.
"""

from __future__ import annotations

import random

# Seed of the shape generator of the document workloads.
SHAPE_SEED = 0

WORKLOADS = {
    # A ladder of documents, one per (annotated axioms, diamonds) rung, so
    # the output grows as axioms x p.  Every tenth axiom carries an n-ary
    # intersection or union of `nary_width` names.
    "translate-ladder": {
        "rungs": [(60, 10), (100, 30), (150, 55), (200, 80)],
        "standpoints": 6, "concepts": 60, "roles": 6, "rias": 4,
        "plain": 10, "depth": 2, "width": 3, "nary_width": 8,
    },
    # A large document at p = 2 with a deep role hierarchy (a subproperty
    # ladder of `ria_depth` roles plus `ria_chains` ObjectPropertyChain
    # inclusions), and a plain source ontology that `import` merges.
    "ingest-import": {
        "axioms": 1000, "diamonds": 2, "standpoints": 4, "concepts": 150,
        "ria_depth": 32, "ria_chains": 32, "plain": 0, "depth": 2,
        "width": 3, "nary_width": 6,
        "source": {"axioms": 500, "concepts": 120, "ria_depth": 25,
                   "ria_chains": 20},
    },
    # Small KBs with three or four standpoints and sharpening chains; the
    # oracle's enumeration of standpoint assignments and atom vectors
    # dominates.  KB shapes cycle over the KBs, domain bounds over each
    # KB's queries; a diamond doubles the precisifications to search.
    "query-standpoints": {
        "kbs": 48, "queries_per_kb": 4, "boxes": 3, "guard_bits": 200.0,
        "shapes": [
            {"standpoints": 3, "diamonds": 0, "concepts": 4, "roles": 0,
             "plain": 0, "domain_bounds": (1, 2)},
            {"standpoints": 3, "diamonds": 1, "concepts": 4, "roles": 0,
             "plain": 0, "domain_bounds": (1,)},
            {"standpoints": 4, "diamonds": 0, "concepts": 4, "roles": 0,
             "plain": 0, "domain_bounds": (1, 2)},
            {"standpoints": 4, "diamonds": 0, "concepts": 4, "roles": 0,
             "plain": 0, "domain_bounds": (2,)},
        ],
    },
    # Small KBs with one or two standpoints, unannotated axioms over a few
    # more concepts, and roles in half of them; the interpretation search
    # dominates.  Its cost per query is heavy-tailed, so a pass has many
    # queries and the shapes stay small: a role at domain size 3, or two
    # more concepts, already lets single queries run for seconds.
    "query-domain": {
        "kbs": 144, "queries_per_kb": 4, "boxes": 2, "guard_bits": 200.0,
        "shapes": [
            {"standpoints": 1, "diamonds": 0, "concepts": 6, "roles": 2,
             "plain": 6, "domain_bounds": (2,)},
            {"standpoints": 1, "diamonds": 0, "concepts": 5, "roles": 0,
             "plain": 5, "domain_bounds": (3,)},
            {"standpoints": 2, "diamonds": 0, "concepts": 6, "roles": 1,
             "plain": 6, "domain_bounds": (2,)},
            {"standpoints": 2, "diamonds": 0, "concepts": 4, "roles": 0,
             "plain": 5, "domain_bounds": (3,)},
        ],
    },
}

# ---------------------------------------------------------------------------
# Class expressions
# ---------------------------------------------------------------------------


def fss(x) -> str:
    """Functional-syntax rendering (names in the default prefix)."""
    tag = x[0]
    if tag == "c":
        return f":{x[1]}"
    if tag == "not":
        return f"ObjectComplementOf({fss(x[1])})"
    if tag in ("and", "or"):
        word = "ObjectIntersectionOf" if tag == "and" else "ObjectUnionOf"
        return f"{word}({' '.join(fss(y) for y in x[1])})"
    if tag in ("some", "only"):
        word = "ObjectSomeValuesFrom" if tag == "some" else "ObjectAllValuesFrom"
        return f"{word}({_fss_role(x[1])} {fss(x[2])})"
    word = "ObjectMaxCardinality" if tag == "max" else "ObjectMinCardinality"
    return f"{word}({x[1]} {_fss_role(x[2])} {fss(x[3])})"


def _fss_role(role) -> str:
    return f"ObjectInverseOf(:{role[1]})" if role[0] == "inv" else f":{role[1]}"


def mos(x) -> str:
    """Manchester-syntax rendering; every compound operand is parenthesised."""
    tag = x[0]
    if tag == "c":
        return x[1]
    if tag == "not":
        return f"not {_mos_operand(x[1])}"
    if tag in ("and", "or"):
        return f" {tag} ".join(_mos_operand(y) for y in x[1])
    if tag in ("some", "only"):
        return f"{_mos_role(x[1])} {tag} {_mos_operand(x[2])}"
    return f"{_mos_role(x[2])} {tag} {x[1]} {_mos_operand(x[3])}"


def _mos_operand(x) -> str:
    return mos(x) if x[0] == "c" else f"({mos(x)})"


def _mos_role(role) -> str:
    return f"inverse {role[1]}" if role[0] == "inv" else role[1]


class Vocabulary:
    """Entity names of one document and random class expressions over them.

    The first ``simple_roles`` roles may appear under number restrictions
    and inverses; the others head role inclusions and appear only in
    some/only restrictions.  Names come from ``rng``, the shape of each
    expression from ``shape`` (by default ``rng`` too).
    """

    def __init__(self, rng: random.Random, concepts: list[str],
                 roles: list[str], simple_roles: int = 0,
                 shape: random.Random | None = None):
        self.rng = rng
        self.shape = shape or rng
        self.concepts = concepts
        self.roles = roles
        self.simple = roles[:simple_roles]

    def name(self):
        return ("c", self.rng.choice(self.concepts))

    def expr(self, depth: int, width: int = 2):
        rng, shape = self.rng, self.shape
        if depth == 0 or shape.random() < 0.3:
            return self.name()
        k = shape.randrange(8 if self.roles else 4)
        if k == 0:
            return ("not", self.expr(depth - 1, width))
        if k in (1, 2, 3):
            return ("and" if k != 3 else "or",
                    [self.expr(depth - 1, width) for _ in range(shape.randint(2, width))])
        if k in (4, 5):
            return ("some" if k == 4 else "only", ("r", rng.choice(self.roles)),
                    self.expr(depth - 1, width))
        if k == 6 and self.simple:
            role = rng.choice(self.simple)
            role = ("inv", role) if shape.random() < 0.3 else ("r", role)
            return (shape.choice(("max", "min")), shape.randint(1, 3), role,
                    self.expr(depth - 1, width))
        return ("only", ("r", rng.choice(self.roles)), self.name())

    def without(self, concept: str) -> "Vocabulary":
        return Vocabulary(self.rng, [c for c in self.concepts if c != concept],
                          self.roles, len(self.simple), self.shape)


def names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(count)]


# ---------------------------------------------------------------------------
# Standpoint content (XML payloads) and documents
# ---------------------------------------------------------------------------

def sp_xml(e) -> str:
    """Standpoint expression: a name, '*', or (operator, lhs, rhs)."""
    if isinstance(e, str):
        return f'<Standpoint name="{e}"/>'
    op, lhs, rhs = e
    return f"<{op}>{sp_xml(lhs)}{sp_xml(rhs)}</{op}>"


def modal_xml(op: str, e, lhs, rhs) -> str:
    return (f"<{op}>{sp_xml(e)}<subClassOf><LHS>{mos(lhs)}</LHS>"
            f"<RHS>{mos(rhs)}</RHS></subClassOf></{op}>")


def axiom_label(op: str, e) -> str:
    return f"<standpointAxiom><{op}>{sp_xml(e)}</{op}></standpointAxiom>"


def sharpening(narrower, wider) -> str:
    return f"<Sharpening>{sp_xml(narrower)}{sp_xml(wider)}</Sharpening>"


def ann(payload: str) -> str:
    literal = payload.replace("\\", "\\\\").replace('"', '\\"')
    return f'Annotation(:standpointLabel "{literal}")'


def class_axiom(kind: str, lhs, rhs, label: str | None = None) -> str:
    word = "SubClassOf" if kind == "sub" else "EquivalentClasses"
    head = f"{ann(label)} " if label else ""
    return f"{word}({head}{fss(lhs)} {fss(rhs)})"


def document(iri: str, header: list[str], vocab: Vocabulary,
             axioms: list[str]) -> str:
    lines = [f"Prefix(:=<{iri}#>)", f"Ontology(<{iri}>"]
    lines += [ann(p) for p in header]
    lines += [f"Declaration(Class(:{c}))" for c in vocab.concepts]
    lines += [f"Declaration(ObjectProperty(:{r}))" for r in vocab.roles]
    lines += axioms
    lines.append(")")
    return "\n".join(lines) + "\n"


def role_hierarchy(shape: random.Random, roles: list[str], depth: int,
                   chains: int) -> list[str]:
    """A subproperty ladder over the last ``depth + 1`` roles plus chains
    whose head sits above both chain elements, so the role order stays
    acyclic and the inclusions regular.  Roles before the ladder stay
    simple."""
    ladder = roles[len(roles) - depth - 1:]
    out = [f"SubObjectPropertyOf(:{ladder[i]} :{ladder[i + 1]})" for i in range(depth)]
    for _ in range(chains):
        a, b = shape.randrange(depth - 1), shape.randrange(depth - 1)
        head = shape.randrange(max(a, b) + 1, depth + 1)
        out.append(f"SubObjectPropertyOf(ObjectPropertyChain(:{ladder[a]} "
                   f":{ladder[b]}) :{ladder[head]})")
    return out


def _sp_expr(rng: random.Random, sps: list[str], shape: random.Random):
    """A standpoint expression: its operator from ``shape``, its names
    from ``rng``."""
    k = shape.randrange(10)
    if k == 0:
        return "*"
    if k <= 5:
        return rng.choice(sps)
    a, b = rng.sample(sps, 2)
    return (("UNION", "INTERSECTION", "MINUS")[k % 3], a, b)


# ---------------------------------------------------------------------------
# Document workloads
# ---------------------------------------------------------------------------

def annotated_document(rng: random.Random, shape: random.Random, iri: str,
                       n_axioms: int, n_diamonds: int, cfg: dict, roles: int,
                       rias: list[str], simple_roles: int) -> str:
    """Axioms annotated with a box or a diamond, exactly ``n_diamonds``
    diamonds in all (so p = max(1, n_diamonds)), a sharpening chain, Boolean
    combinations of a diamond and a box, and ``cfg["plain"]`` unannotated
    axioms.  Names and labels come from ``rng``, everything else from
    ``shape``."""
    vocab = Vocabulary(rng, names("C", cfg["concepts"]), names("r", roles),
                       simple_roles, shape)
    depth, width = cfg["depth"], cfg["width"]
    sps = names("s", cfg["standpoints"])
    header = [sharpening(sps[i + 1], sps[i]) for i in range(min(2, len(sps) - 1))]
    combos = min(n_diamonds // 2, 8)
    for _ in range(combos):
        op = shape.choice(("AND", "OR"))
        diamond = modal_xml("Diamond", _sp_expr(rng, sps, shape), vocab.name(),
                            vocab.expr(depth, width))
        box = modal_xml("Box", _sp_expr(rng, sps, shape), vocab.name(),
                        vocab.expr(depth, width))
        header.append(f"<booleanCombination><{op}>{diamond}{box}</{op}>"
                      "</booleanCombination>")
    diamond_slots = set(shape.sample(range(n_axioms), n_diamonds - combos))
    axioms = []
    for i in range(n_axioms):
        op = "Diamond" if i in diamond_slots else "Box"
        kind = "eq" if shape.random() < 0.2 else "sub"
        lhs = vocab.name() if shape.random() < 0.6 else vocab.expr(1, width)
        if i % 10 == 0:
            rhs = (shape.choice(("and", "or")),
                   [vocab.name() for _ in range(cfg["nary_width"])])
        else:
            rhs = vocab.expr(depth, width)
        label = axiom_label(op, _sp_expr(rng, sps, shape))
        axioms.append(class_axiom(kind, lhs, rhs, label))
    for _ in range(cfg["plain"]):
        axioms.append(class_axiom("sub", vocab.expr(1, width), vocab.expr(depth, width)))
    return document(iri, header, vocab, axioms + rias)


def translate_ladder(seed: int) -> list[tuple[str, str]]:
    """[(file name, text)], one document per rung."""
    cfg = WORKLOADS["translate-ladder"]
    rng, shape = random.Random(seed), random.Random(SHAPE_SEED)
    out = []
    for i, (n_axioms, n_diamonds) in enumerate(cfg["rungs"]):
        rias = role_hierarchy(shape, names("r", cfg["roles"]), cfg["rias"], 1)
        simple = cfg["roles"] - cfg["rias"] - 1
        text = annotated_document(rng, shape, f"http://bench.example.org/ladder{i}",
                                  n_axioms, n_diamonds, cfg, cfg["roles"], rias, simple)
        out.append((f"ladder{i}.ofn", text))
    return out


def ingest_import(seed: int) -> list[tuple[str, str]]:
    """[(file name, text)]: the annotated main document and a plain source
    ontology; every role of both heads or feeds a role inclusion."""
    cfg = WORKLOADS["ingest-import"]
    rng, shape = random.Random(seed), random.Random(SHAPE_SEED)
    roles = cfg["ria_depth"] + 1
    rias = role_hierarchy(shape, names("r", roles), cfg["ria_depth"], cfg["ria_chains"])
    main = annotated_document(rng, shape, "http://bench.example.org/main", cfg["axioms"],
                              cfg["diamonds"], cfg, roles, rias, 0)
    src = cfg["source"]
    vocab = Vocabulary(rng, names("D", src["concepts"]), names("r", src["ria_depth"] + 1),
                       shape=shape)
    axioms = [class_axiom("eq" if shape.random() < 0.2 else "sub",
                          vocab.expr(1, cfg["width"]), vocab.expr(cfg["depth"], cfg["width"]))
              for _ in range(src["axioms"])]
    axioms += role_hierarchy(shape, vocab.roles, src["ria_depth"], src["ria_chains"])
    source = document("http://bench.example.org/source", [], vocab, axioms)
    return [("main.ofn", main), ("source.ofn", source)]


# ---------------------------------------------------------------------------
# Query workloads
# ---------------------------------------------------------------------------

def _plain_axiom(vocab: Vocabulary):
    """An unannotated inclusion linking two or three names, through a role
    restriction when the vocabulary has roles."""
    rng = vocab.rng
    a, b, c = vocab.name(), vocab.name(), vocab.name()
    k = rng.randrange(5 if vocab.roles else 3)
    if k == 0:
        return a, ("or", [b, c])
    if k == 1:
        return ("and", [a, b]), c
    if k == 2:
        return a, ("not", b)
    role = ("r", rng.choice(vocab.roles))
    return (a, ("some", role, b)) if k == 3 else (("some", role, a), b)


def _nontrivial(vocab: Vocabulary):
    """An inclusion whose right-hand side does not mention its left-hand
    name, so no drawn axiom or query is a tautology by syntax alone."""
    lhs = vocab.name()
    return lhs, vocab.without(lhs[1]).expr(1)


def query_kbs(workload: str, seed: int) -> list[dict]:
    """Small KB documents, each with its queries.

    Returns [{"file", "text", "queries": [{"query", "domain_bound",
    "prec_bound", "guard_bits"}]}].  KB shapes cycle instead of being
    drawn, so every seed gets the same mix of search shapes.  Per KB, one
    query restates a boxed axiom for a narrower standpoint of the
    sharpening chain and one weakens its right-hand side (both entailed:
    exhaustive search), one states it for the next wider standpoint (mostly
    refuted: first witness) and one is drawn at random.  Boxed axioms and
    queries use concept names only; roles appear in the unannotated axioms.
    The precisification bound is the diamond count of the KB plus the
    negated query, the smallest bound the translation accepts.  The seed
    only renames: it permutes each KB's concept, role and standpoint names.
    """
    cfg = WORKLOADS[workload]
    rng, renaming = random.Random(SHAPE_SEED), random.Random(seed)

    def renamed(prefix: str, count: int) -> list[str]:
        out = names(prefix, count)
        renaming.shuffle(out)
        return out

    out = []
    for i in range(cfg["kbs"]):
        shape = cfg["shapes"][i % len(cfg["shapes"])]
        n_dia = shape["diamonds"]
        sps = renamed("s", shape["standpoints"])
        vocab = Vocabulary(rng, renamed("C", shape["concepts"]),
                           renamed("r", shape["roles"]))
        atoms = Vocabulary(rng, vocab.concepts, [])
        header = [sharpening(sps[j], sps[j + 1]) for j in range(len(sps) - 1)]
        axioms = [class_axiom("sub", *_plain_axiom(vocab)) for _ in range(shape["plain"])]
        boxes = []
        for _ in range(cfg["boxes"]):
            j = rng.randrange(len(sps))
            lhs, rhs = _nontrivial(atoms)
            boxes.append((j, lhs, rhs))
            axioms.append(class_axiom("sub", lhs, rhs, axiom_label("Box", sps[j])))
        for _ in range(n_dia):
            axioms.append(class_axiom("sub", *_nontrivial(atoms),
                                      axiom_label("Diamond", rng.choice(sps))))
        queries = []
        for q in range(cfg["queries_per_kb"]):
            j, lhs, rhs = rng.choice(boxes)
            op = "box"
            if q == 0:
                sp = sps[rng.randrange(j + 1)]
            elif q == 1:
                sp, rhs = sps[j], ("or", [rhs, atoms.name()])
            elif q == 2:
                sp = sps[j + 1] if j + 1 < len(sps) else "*"
            else:
                op = rng.choice(("box", "diamond"))
                sp = rng.choice(sps + ["*"])
                lhs, rhs = _nontrivial(atoms)
            body = f"{mos(lhs)} sub {mos(rhs)}"
            bounds = shape["domain_bounds"]
            queries.append({
                "query": f"[{sp}]({body})" if op == "box" else f"<{sp}>({body})",
                "domain_bound": bounds[q % len(bounds)],
                "prec_bound": max(1, n_dia + (op == "box")),
                "guard_bits": cfg["guard_bits"]})
        iri = f"http://bench.example.org/{workload}/kb{i}"
        out.append({"file": f"kb{i}.ofn", "text": document(iri, header, vocab, axioms),
                    "queries": queries})
    return out
