"""Acceptance suite: one criterion per test, with a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import os
import shutil
import subprocess
import sys
import time

import standpoint_owl
from standpoint_owl.cli import main
from standpoint_owl.frontend import assemble_kb, parse_document
from standpoint_owl.model import (All, And, Atom, AtLeast, AtMost, Bottom,
                                  Box, Conjunction, Diamond, Disjunction,
                                  Equiv, Gci, HasSelf, Negation, Not, Or,
                                  Ria, Some, SpIntersection, SpMinus, SpUnion,
                                  Star, Top, UNIVERSAL, concept_name,
                                  individual_name, role_name, validate_roles)
from standpoint_owl.normalizer import count_precisifications, normalize_kb
from standpoint_owl.oracle import (PlainInterpretation, eval_concept,
                                   find_plain_model, find_standpoint_model,
                                   holds_axiom)
from standpoint_owl.serializer import serialize_kb
from standpoint_owl.translator import trans, trans_e, translate_kb

from conftest import C, FIXTURES, O, R, Rinv, S
from genkb import random_kb


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


# -- 1. forest example end-to-end --------------------------------------------

def test_criterion_1_forest_end_to_end():
    started = time.time()
    text = (FIXTURES / "forest.ofn").read_text(encoding="utf-8")
    kb = normalize_kb(assemble_kb(parse_document(text)))
    validate_roles(kb)
    p = count_precisifications(kb)
    plain = translate_kb(kb)
    model = find_plain_model(plain, 1)
    structure = find_standpoint_model(kb, 1, 1)
    elapsed = time.time() - started
    ok = (p == 1 and model is not None and model.domain_size == 1
          and structure is not None
          and (structure.domain_size, structure.precisifications) == (1, 1)
          and elapsed < 1.0)
    report(1, ok, f"forest translates with p={p}, plain model at n=1, "
                  f"structure at (1,1), in {elapsed:.2f}s (< 1s)")


# -- 2. translation rule suite ------------------------------------------------

def test_criterion_2_trans_rules():
    started = time.time()
    A, B = C("A"), C("B")

    def u_all(x):
        return All(UNIVERSAL, x)

    checks = [
        # membership guards
        trans_e(0, S("LU")) == u_all(C("SP__LU__0")),
        trans_e(1, Star()) == u_all(C("SP__STAR__1")),
        trans_e(1, SpUnion(S("LC"), S("LU"))) ==
        Or(u_all(C("SP__LC__1")), u_all(C("SP__LU__1"))),
        trans_e(0, SpIntersection(S("a"), S("b"))) ==
        And(u_all(C("SP__a__0")), u_all(C("SP__b__0"))),
        trans_e(0, SpMinus(S("s"), S("s"))) ==
        And(u_all(C("SP__s__0")), Not(u_all(C("SP__s__0")))),
        # formula translation
        trans(0, Atom(Gci(C("CC"), C("D"))), 1) ==
        u_all(Or(Not(C("CC__0")), C("D__0"))),
        trans(0, Negation(Atom(Gci(C("CC"), C("D")))), 1) ==
        Some(UNIVERSAL, And(C("CC__0"), Not(C("D__0")))),
        trans(0, Atom(Equiv(A, B)), 1) ==
        And(u_all(Or(Not(C("A__0")), C("B__0"))),
            u_all(Or(Not(C("B__0")), C("A__0")))),
        trans(0, Conjunction(Atom(Gci(A, B)), Atom(Gci(B, A))), 1) ==
        And(u_all(Or(Not(C("A__0")), C("B__0"))),
            u_all(Or(Not(C("B__0")), C("A__0")))),
        trans(0, Disjunction(Atom(Gci(A, B)), Atom(Gci(B, A))), 1) ==
        Or(u_all(Or(Not(C("A__0")), C("B__0"))),
           u_all(Or(Not(C("B__0")), C("A__0")))),
        trans(0, Box(S("s"), Atom(Gci(A, B))), 2) ==
        And(Or(Not(u_all(C("SP__s__0"))), u_all(Or(Not(C("A__0")), C("B__0")))),
            Or(Not(u_all(C("SP__s__1"))), u_all(Or(Not(C("A__1")), C("B__1"))))),
        trans(0, Diamond(S("s"), Atom(Gci(A, B))), 2) ==
        Or(And(u_all(C("SP__s__0")), u_all(Or(Not(C("A__0")), C("B__0")))),
           And(u_all(C("SP__s__1")), u_all(Or(Not(C("A__1")), C("B__1"))))),
    ]
    elapsed = time.time() - started
    ok = all(checks) and elapsed < 1.0
    report(2, ok, f"{sum(bool(c) for c in checks)}/{len(checks)} translation "
                  f"rules reproduced exactly in {elapsed:.2f}s (< 1s)")


# -- 3. bounded equisatisfiability --------------------------------------------

def test_criterion_3_bounded_equisatisfiability():
    started = time.time()
    total, agreements, satisfiable = 200, 0, 0
    for seed in range(total):
        kb = random_kb(seed)
        p = count_precisifications(kb)
        sp_sat = find_standpoint_model(kb, 3, p, guard_bits=1000) is not None
        pl_sat = find_plain_model(translate_kb(kb), 3, guard_bits=1000) is not None
        agreements += (sp_sat == pl_sat)
        satisfiable += sp_sat
    elapsed = time.time() - started
    ok = agreements == total and elapsed < 300
    report(3, ok, f"{agreements}/{total} KBs agree on satisfiability "
                  f"({satisfiable} satisfiable) in {elapsed:.1f}s (< 5min)")


# -- 4. precisification bound and linear growth -------------------------------

def _positive_diamonds_negative_boxes(f, polarity=True):
    """Independent polarity count on the unnormalised formula."""
    if isinstance(f, Atom):
        return 0
    if isinstance(f, Negation):
        return _positive_diamonds_negative_boxes(f.arg, not polarity)
    if isinstance(f, (Conjunction, Disjunction)):
        return (_positive_diamonds_negative_boxes(f.lhs, polarity)
                + _positive_diamonds_negative_boxes(f.rhs, polarity))
    if isinstance(f, Diamond):
        return int(polarity) + _positive_diamonds_negative_boxes(f.arg, polarity)
    return int(not polarity) + _positive_diamonds_negative_boxes(f.arg, polarity)


def test_criterion_4_precisification_bound():
    started = time.time()
    bound_ok = True
    for seed in range(100):
        kb = random_kb(seed, normalized=False)
        expected = max(1, sum(_positive_diamonds_negative_boxes(f)
                              for f in kb.formulas))
        actual = count_precisifications(normalize_kb(kb))
        bound_ok = bound_ok and (expected == actual)

    growth_kb = random_kb(7)
    counts = {p: len(translate_kb(growth_kb, p=p).axioms) for p in (1, 2, 4)}
    slope = counts[2] - counts[1]
    intercept = counts[1] - slope
    predicted = intercept + 4 * slope
    deviation = abs(counts[4] - predicted) / max(1, abs(predicted))
    elapsed = time.time() - started
    ok = bound_ok and deviation < 1e-9 and elapsed < 10
    report(4, ok, f"p equals the polarity count on 100 KBs; axiom counts "
                  f"{counts} fit a line with relative deviation {deviation:.1e} "
                  f"(< 1e-9) in {elapsed:.1f}s (< 10s)")


# -- 5. query verdicts ---------------------------------------------------------

def test_criterion_5_query_verdicts(tmp_path, capsys):
    started = time.time()
    forest = tmp_path / "forest.ofn"
    shutil.copy(FIXTURES / "forest.ofn", forest)
    bounds = ["--domain-bound", "2", "--prec-bound", "2", "--guard-bits", "200"]

    code_entailed = main(["query", str(forest),
                          "--simple", "[LU](Forest sub Land)"] + bounds)
    capsys.readouterr()
    code_refuted = main(["query", str(forest),
                         "--simple", "<LC>(Forest sub Forest)"] + bounds)
    err_refuted = capsys.readouterr().err
    code_star = main(["query", str(forest),
                      "--simple", "[*](Forest sub Forest)"] + bounds)
    capsys.readouterr()
    elapsed = time.time() - started
    ok = (code_entailed == 0 and code_refuted == 3 and code_star == 0
          and "'LC': []" in err_refuted and elapsed < 30)
    report(5, ok, f"query exits (0, 3, 0) with an empty-LC witness "
                  f"in {elapsed:.1f}s (< 30s)")


# -- 6. round-trip and determinism ---------------------------------------------

def test_criterion_6_round_trip_and_determinism(tmp_path):
    fixtures = sorted(FIXTURES.glob("*.ofn"))
    stable = True
    for fixture in fixtures:
        text = fixture.read_text(encoding="utf-8")

        def run(t):
            return serialize_kb(assemble_kb(parse_document(t)))

        once = run(text)
        stable = stable and run(once) == once

    forest = tmp_path / "forest.ofn"
    shutil.copy(FIXTURES / "forest.ofn", forest)
    # the child imports the package this process tests, installed or not
    package_root = os.path.dirname(os.path.dirname(standpoint_owl.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from standpoint_owl.cli import main; "
             "sys.exit(main(['translate', sys.argv[1], '--dump']))",
             str(forest)],
            capture_output=True, env={**os.environ, "PYTHONPATH": path})
        outputs.append(proc.stdout)
    byte_identical = outputs[0] == outputs[1] and proc.returncode == 0
    ok = stable and byte_identical and len(fixtures) >= 1
    report(6, ok, f"{len(fixtures)} fixture(s) reach a serialisation fixed "
                  f"point; two translate runs emit byte-identical output "
                  f"({len(outputs[0])} bytes)")


# -- 7. semantics micro-suite ----------------------------------------------------

def test_criterion_7_semantics_micro_suite():
    started = time.time()
    a, b = concept_name("A"), concept_name("B")
    r, s = role_name("r"), role_name("s")
    bob = individual_name("bob")
    interp = PlainInterpretation(
        2,
        {a: frozenset({0}), b: frozenset({1})},
        {r: frozenset({(0, 0), (0, 1)}), s: frozenset({(1, 0)})},
        {bob: 1})
    expectations = [
        (C("A"), {0}),                                   # concept name
        (O("bob"), {1}),                                 # nominal
        (Top(), {0, 1}),                                 # top
        (Bottom(), set()),                               # bottom
        (Not(C("A")), {1}),                              # negation
        (And(C("A"), C("B")), set()),                    # conjunction
        (Or(C("A"), C("B")), {0, 1}),                    # disjunction
        (All(R("r"), C("A")), {1}),                      # universal restriction
        (Some(R("r"), C("A")), {0}),                     # existential restriction
        (HasSelf(R("r")), {0}),                          # self
        (AtMost(1, R("r"), Top()), {1}),                 # at-most
        (AtLeast(2, R("r"), Top()), {0}),                # at-least
        (Some(Rinv("s"), Top()), {0}),                   # inverse role
        (All(UNIVERSAL, Or(C("A"), C("B"))), {0, 1}),    # universal role
    ]
    table_ok = all(eval_concept(interp, expr) == frozenset(expected)
                   for expr, expected in expectations)

    t_role, w_role = role_name("t"), role_name("w")
    comp = PlainInterpretation(2, {}, {r: frozenset({(0, 1)}),
                                       t_role: frozenset({(1, 0)}),
                                       w_role: frozenset()})
    ria_ok = (not holds_axiom(comp, Ria((R("r"), R("t")), w_role))
              and holds_axiom(comp, Ria((R("r"), R("t")), r))
              is (frozenset({(0, 0)}) <= frozenset({(0, 1)})))
    comp2 = PlainInterpretation(2, {}, {r: frozenset({(0, 1)}),
                                        t_role: frozenset({(1, 0)}),
                                        w_role: frozenset({(0, 0)})})
    ria_ok = ria_ok and holds_axiom(comp2, Ria((R("r"), R("t")), w_role))
    ria_ok = ria_ok and holds_axiom(comp2, Ria((Rinv("r"), UNIVERSAL), w_role)) is False
    elapsed = time.time() - started
    ok = table_ok and ria_ok and elapsed < 1.0
    report(7, ok, f"all {len(expectations)} constructor rows plus chain "
                  f"composition match hand enumeration in {elapsed:.2f}s (< 1s)")
