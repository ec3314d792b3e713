"""Command-line behaviour: exit codes, outputs, external reasoner protocol."""

import hashlib
import os
import shutil
import sys

import pytest

from standpoint_owl.cli import main
from standpoint_owl.frontend import parse_document
from standpoint_owl.model import And, Gci, left_spine

from conftest import FIXTURES

MARKER = "SubClassOf(owl:Thing ObjectAllValuesFrom(owl:topObjectProperty :SP__STAR__0))"

# sha256 of `translate FIXTURE --dump` as emitted before the translator
# shared its leaves; sharing must not change a byte.
GOLDEN_SHA256 = {
    "forest.ofn": "244de316819f35fbc8e801167806c8e78588ea0a3d099ff58abf14312347ad71",
    "mixed.ofn": "7e3945cb267ff0bdb0f93a503cc1766c7538bbe40f4e9c9715eba76674c75d84",
}


@pytest.fixture
def forest_path(tmp_path):
    target = tmp_path / "forest.ofn"
    shutil.copy(FIXTURES / "forest.ofn", target)
    return str(target)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestTranslate:
    def test_forest(self, forest_path, tmp_path, capsys):
        assert main(["translate", forest_path]) == 0
        err = capsys.readouterr().err
        assert "p=1" in err
        out_path = str(tmp_path / "forest.translated.ofn")
        assert os.path.exists(out_path)
        text = open(out_path, encoding="utf-8").read()
        assert MARKER in text.splitlines()

    def test_dump_writes_stdout_only(self, forest_path, tmp_path, capsys):
        assert main(["translate", forest_path, "--dump"]) == 0
        captured = capsys.readouterr()
        assert MARKER in captured.out
        assert not os.path.exists(tmp_path / "forest.translated.ofn")

    def test_broken_payload_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.ofn",
                     'Ontology(<urn:o>\n'
                     'Annotation(:standpointLabel "<booleanCombination>")\n'
                     "SubClassOf(:A :B)\n)")
        assert main(["translate", path]) == 2
        err = capsys.readouterr().err
        assert "error" in err
        assert "2:" in err  # names the annotation's position
        assert "<booleanCombination>" in err  # and the failing payload

    def test_missing_file_exit_2(self, capsys):
        assert main(["translate", "/nonexistent/path.ofn"]) == 2

    def test_rebase(self, forest_path, capsys):
        assert main(["translate", forest_path, "--dump", "--rebase", "urn:out"]) == 0
        out = capsys.readouterr().out
        assert "Ontology(<urn:out>" in out
        assert "Prefix(:=<urn:out#>)" in out

    def test_idempotent_effect(self, forest_path, tmp_path, capsys):
        main(["translate", forest_path, "--dump"])
        first = capsys.readouterr().out
        main(["translate", forest_path, "--dump"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("fixture", sorted(GOLDEN_SHA256))
    def test_golden_output(self, fixture, capsys):
        assert main(["translate", str(FIXTURES / fixture), "--dump"]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == GOLDEN_SHA256[fixture]


SOURCE_DOC = """Prefix(:=<urn:src#>)
Ontology(<urn:src>
Declaration(Class(:Forest))
Declaration(Class(:Woodland))
SubClassOf(:Forest :Woodland)
EquivalentClasses(:Forest :Woodland)
SubObjectPropertyOf(ObjectPropertyChain(:p :q) :pq)
)
"""


class TestImport:
    def test_annotates_imported_axioms(self, forest_path, tmp_path, capsys):
        src = write(tmp_path, "src.ofn", SOURCE_DOC)
        assert main(["import", forest_path, src, "--standpoint", "LC", "--dump"]) == 0
        out = capsys.readouterr().out
        imported_lines = [line for line in out.splitlines()
                          if '<Box><Standpoint name=\\"LC\\"/></Box>' in line
                          and "ns1:" in line]
        assert len(imported_lines) == 2
        merged = parse_document(out)
        # imported names live in a separate namespace; same-named concepts stay apart
        bases = {d.name.base for d in merged.declarations if d.name.local == "Forest"}
        assert bases == {"http://example.org/forestry#",
                         "http://example.org/forestry/imported/LC#"}

    def test_saved_file_default_name(self, forest_path, tmp_path, capsys):
        src = write(tmp_path, "src.ofn", SOURCE_DOC)
        assert main(["import", forest_path, src, "--standpoint", "LC"]) == 0
        assert os.path.exists(tmp_path / "forest.merged.ofn")

    def test_rias_copied_unannotated(self, forest_path, tmp_path, capsys):
        src = write(tmp_path, "src.ofn", SOURCE_DOC)
        main(["import", forest_path, src, "--standpoint", "LC", "--dump"])
        out = capsys.readouterr().out
        merged = parse_document(out)
        ria_lines = [anns for ax, anns in merged.axioms
                     if ax.__class__.__name__ == "Ria"]
        assert ria_lines == [()]

    def test_merged_output_translates(self, forest_path, tmp_path, capsys):
        src = write(tmp_path, "src.ofn", SOURCE_DOC)
        assert main(["import", forest_path, src, "--standpoint", "LC",
                     "--translate", "--dump"]) == 0
        out = capsys.readouterr().out
        assert MARKER in out.splitlines()

    def test_star_standpoint(self, forest_path, tmp_path, capsys):
        src = write(tmp_path, "src.ofn", SOURCE_DOC)
        assert main(["import", forest_path, src, "--standpoint", "*", "--dump"]) == 0
        out = capsys.readouterr().out
        assert out.count('<Box><Standpoint name=\\"*\\"/></Box>') == 2

    def test_bad_standpoint_name(self, forest_path, tmp_path, capsys):
        src = write(tmp_path, "src.ofn", SOURCE_DOC)
        assert main(["import", forest_path, src, "--standpoint", "9x"]) == 2

    def test_digit_inside_standpoint_name(self, forest_path, tmp_path, capsys):
        src = write(tmp_path, "src.ofn", SOURCE_DOC)
        assert main(["import", forest_path, src, "--standpoint", "a1b", "--dump"]) == 0
        out = capsys.readouterr().out
        assert out.count('<Box><Standpoint name=\\"a1b\\"/></Box>') == 2

    def test_duplicate_named_axioms_collide(self, tmp_path, capsys):
        named = ('SubClassOf(Annotation(:standpointLabel "<standpointAxiom '
                 'name=\\"\u00a7ax1\\"><Box><Standpoint name=\\"s\\"/></Box>'
                 '</standpointAxiom>") :A :B)')
        doc_a = write(tmp_path, "a.ofn", f"Ontology(<urn:a>\n{named}\n)")
        doc_b = write(tmp_path, "b.ofn", f"Ontology(<urn:b>\n{named}\n)")
        assert main(["import", doc_a, doc_b, "--standpoint", "s"]) == 2


WIDE_DOC = ("Prefix(:=<urn:w#>)\nOntology(<urn:w>\nSubClassOf(ObjectIntersectionOf("
            + " ".join(f":A{k}" for k in range(3000)) + ") :B)\n)\n")


class TestWideOperands:
    """An n-ary class expression wider than the recursion limit."""

    @pytest.mark.parametrize("args", [["translate"],
                                      ["import", "--standpoint", "s"],
                                      ["import", "--standpoint", "s", "--translate"]])
    def test_exit_0_and_output_parses_back(self, args, tmp_path, capsys):
        path = write(tmp_path, "wide.ofn", WIDE_DOC)
        files = [path] if args[0] == "translate" else [path, path]
        assert main([args[0], *files, *args[1:], "--dump"]) == 0
        doc = parse_document(capsys.readouterr().out)
        assert any(len(left_spine(ax.lhs, And)) == 3000
                   for ax, _ in doc.axioms if isinstance(ax, Gci))


class TestQuery:
    def test_entailed(self, forest_path, capsys):
        code = main(["query", forest_path, "--simple", "[LU](Forest sub Land)",
                     "--domain-bound", "2", "--prec-bound", "2",
                     "--guard-bits", "200"])
        assert code == 0
        assert "entailed within bounds" in capsys.readouterr().err

    def test_not_entailed_with_witness(self, forest_path, capsys):
        code = main(["query", forest_path, "--simple", "<LC>(Forest sub Forest)",
                     "--domain-bound", "2", "--prec-bound", "2",
                     "--guard-bits", "200"])
        assert code == 3
        err = capsys.readouterr().err
        assert "countermodel" in err
        assert "'LC': []" in err

    def test_star_tautology(self, forest_path, capsys):
        code = main(["query", forest_path, "--simple", "[*](Forest sub Forest)",
                     "--domain-bound", "2", "--prec-bound", "2",
                     "--guard-bits", "200"])
        assert code == 0

    def test_digit_inside_standpoint_name(self, forest_path, capsys):
        code = main(["query", forest_path, "--simple", "[a1b](Forest sub Forest)",
                     "--domain-bound", "1", "--prec-bound", "1",
                     "--guard-bits", "200"])
        assert code == 0

    def test_malformed_query(self, forest_path, capsys):
        assert main(["query", forest_path, "--simple", "[s] Forest sub Land"]) == 2

    def test_reported_p_includes_negated_query(self, forest_path, capsys):
        main(["query", forest_path, "--simple", "[LU](Forest sub Land)",
              "--domain-bound", "1", "--prec-bound", "1", "--guard-bits", "200"])
        assert "p=1" in capsys.readouterr().err

    def test_negated_box_query_adds_a_diamond(self, tmp_path, capsys):
        # the mixed fixture already holds one diamond; negating a box query
        # contributes a second witness-demanding modality
        path = str(tmp_path / "mixed.ofn")
        shutil.copy(FIXTURES / "mixed.ofn", path)
        main(["query", path, "--simple", "[strict](Accepted sub Reviewed)",
              "--domain-bound", "1", "--prec-bound", "1", "--guard-bits", "200"])
        assert "p=2" in capsys.readouterr().err

    def test_query_file(self, forest_path, tmp_path, capsys):
        q = write(tmp_path, "q.xml",
                  '<Box><Standpoint name="LU"/><subClassOf><LHS>Forest</LHS>'
                  "<RHS>Land</RHS></subClassOf></Box>")
        code = main(["query", forest_path, "--query-file", q,
                     "--domain-bound", "2", "--prec-bound", "2",
                     "--guard-bits", "200"])
        assert code == 0

    def test_guard_trip_inconclusive(self, forest_path, capsys):
        code = main(["query", forest_path, "--simple", "[LU](Forest sub Land)",
                     "--domain-bound", "3", "--guard-bits", "5"])
        assert code == 4


def fake_reasoner(tmp_path, body):
    path = tmp_path / "reasoner.py"
    path.write_text(body, encoding="utf-8")
    return f"{sys.executable} {path}"


class TestExternalReasoner:
    def test_inconsistent_means_entailed(self, forest_path, tmp_path, capsys):
        cmd = fake_reasoner(tmp_path, "print('inconsistent')\n")
        code = main(["query", forest_path, "--simple", "[LU](Forest sub Land)",
                     "--reasoner-cmd", cmd])
        assert code == 0

    def test_consistent_means_not_entailed(self, forest_path, tmp_path):
        cmd = fake_reasoner(tmp_path, "print('consistent')\n")
        code = main(["query", forest_path, "--simple", "[LU](Forest sub Land)",
                     "--reasoner-cmd", cmd])
        assert code == 3

    def test_reasoner_receives_parseable_document(self, forest_path, tmp_path, capsys):
        echo = tmp_path / "seen.ofn"
        cmd = fake_reasoner(tmp_path,
                            "import shutil, sys\n"
                            f"shutil.copy(sys.argv[1], {str(echo)!r})\n"
                            "print('consistent')\n")
        main(["query", forest_path, "--simple", "[LU](Forest sub Land)",
              "--reasoner-cmd", cmd])
        doc = parse_document(echo.read_text(encoding="utf-8"))
        assert any(True for _ in doc.axioms)

    def test_garbage_verdict(self, forest_path, tmp_path):
        cmd = fake_reasoner(tmp_path, "print('maybe?')\n")
        assert main(["query", forest_path, "--simple", "[LU](Forest sub Land)",
                     "--reasoner-cmd", cmd]) == 4

    def test_crash(self, forest_path, tmp_path):
        cmd = fake_reasoner(tmp_path, "raise SystemExit(9)\n")
        assert main(["query", forest_path, "--simple", "[LU](Forest sub Land)",
                     "--reasoner-cmd", cmd]) == 4
