"""Command-line behaviour: exit codes, outputs, external reasoner protocol."""

import contextlib
import gc
import hashlib
import io
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import standpoint_owl
from standpoint_owl import cli, model, oracle, serializer
from standpoint_owl.cli import main
from standpoint_owl.errors import ParseError
from standpoint_owl.frontend import assemble_kb, parse_document, parse_simple_query
from standpoint_owl.frontend.assemble import STANDPOINT_LABEL
from standpoint_owl.frontend.functional import (PREDECLARED_PREFIXES, Annotation,
                                                Declaration, RawDocument)
from standpoint_owl.frontend.labels import sp_axiom_payload
from standpoint_owl.model import (And, Box, EntityName, Gci, PlainKB, Ria,
                                  iter_nodes, rebase_names, standpoint_expr)
from standpoint_owl.oracle import find_plain_model, negated_query_kb
from standpoint_owl.serializer import serialize_document, serialize_kb
from standpoint_owl.translator import translate_kb

from conftest import FIXTURES, writes_back

sys.path.insert(0, str(FIXTURES.parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench/gen.py)
import run  # noqa: E402  (perfbench/run.py)

MARKER = "SubClassOf(owl:Thing ObjectAllValuesFrom(owl:topObjectProperty :SP__STAR__0))"

# sha256 of `translate FIXTURE --dump` since top-level boxes became
# per-index GCIs; a refactor of the translator must not change a byte.
# nested.ofn pins which nested conjunctions and disjunctions render flat
# (a leading operand of the same kind) and which stay nested.
GOLDEN_SHA256 = {
    "constructors.ofn": "a122a8f76febc22fc458fc740ffcd304152528d1110cd8a34f36d88eccbd338a",
    "forest.ofn": "097d763a1c2db4cce91d6bc058bfd6cec5adf64321e672615a752e8672e0b0ef",
    "mixed.ofn": "1d9cb4580942f4073b3996b31741af5c2bd160c49e20af14f4ce75cd1ac73fed",
    "nested.ofn": "502d055d76f24b1dbc1ec7f4639015d7903a29a202e8f633e491ab881f1290f2",
}

# sha256 of `import MAIN SOURCE --standpoint s --dump` for each pair of
# fixtures that merges (mixed.ofn into itself exits 2 on a duplicate
# §core).  The CLI test of import compares its output with
# serialize_document, the writer itself, so only these pin its bytes.
IMPORT_SHA256 = {
    ("constructors.ofn", "constructors.ofn"):
        "e5c80a99ed2beeb7fcd7d110e24055dc7d42f8f9118be5900737232c07f444e3",
    ("constructors.ofn", "forest.ofn"):
        "adb46381823e5c1fc9670045801e2934cdc6464265002fa9c0911b1b8f4961ac",
    ("constructors.ofn", "mixed.ofn"):
        "f0537c4d74cbaae631c261be8ef89ad1396e537aa7c89472c874597883eba936",
    ("constructors.ofn", "nested.ofn"):
        "fef075e0398ec42a273a31dd5f8d11a56699d743e618c1b7e14164f6aa7edf43",
    ("forest.ofn", "constructors.ofn"):
        "579211866b4e296ca33c871e76af042f73b44e4f8d4141de587a4601d5067ab5",
    ("forest.ofn", "forest.ofn"):
        "a1b5f7f846db7bb1d88a660cbe2510f07c509d0a7b0ba2e99a743a8dbb747914",
    ("forest.ofn", "mixed.ofn"):
        "fce63a1ffdeffff163a01fc2dc1138783768c13686ab27e8aa8a10a2c406c28d",
    ("forest.ofn", "nested.ofn"):
        "75f6ba6ab39cfcb9aa69cd0734bbc30b7b10f01a42c18ffe0c8cac995b9d7618",
    ("mixed.ofn", "constructors.ofn"):
        "9ff630087241992284954cf20caa6e5cfb785f3e20a3876acf0d3d58139a59f8",
    ("mixed.ofn", "forest.ofn"):
        "5717b5b9fe7c6146b18b5d74c0e5cb873e8197e568d1c92a15ea8dfb02dadf9b",
    ("mixed.ofn", "nested.ofn"):
        "738b16ce8ddaba9286aaa6d8314ecccefd14ff3aa2cc4dfa98284576e8b90af1",
    ("nested.ofn", "constructors.ofn"):
        "05ce4262b5a8256321fe3530a05d6b6b51830f4eb13dc3d2b3989bce2ce7d4ab",
    ("nested.ofn", "forest.ofn"):
        "7a1176fcccf0d8ab5b7a0eaeb424de0da574b036c28c585f872f26cdb92ab471",
    ("nested.ofn", "mixed.ofn"):
        "650e376ddd5e312f3f1ce57d80dc2d2f63128690692b24d1afd9930b20b2f4ce",
    ("nested.ofn", "nested.ofn"):
        "e360a8c0c41dd17010aa22270207a566cda30ce12a1bcfc08e3fa83337a208aa",
}

# sha256 of `translate RUNG --dump` for the rungs of gen.translate_ladder(0).
LADDER_SHA256 = {
    "ladder0.ofn": "6e7dcd13ed16c1274d525ae3a12163a2aa52b880cccea63600ec288a0eebeaf4",
    "ladder1.ofn": "0ec734f6d3084cf75bcc37485327d7c7b477928c8e602d4d71219f63cbc2301e",
    "ladder2.ofn": "0ffb4321cb0371b2ceab16b17edad53506d7ab3540b7aabae6136af42ea44249",
    "ladder3.ofn": "fcd0f4cc91ed2a82c97f0ebe4e2488e2fb5811cc30daef3fd6dc93dcc174cf59",
}

# sha256 of the three outputs of the ingest-import workload on
# gen.ingest_import(0), with --dump: the merge, the merge translated, and
# the main document translated.  Both documents hold a RIA ladder with
# chains, so every Ria of them is copied and written.
INGEST_ARGV = {
    "import": ["import", "main.ofn", "source.ofn", "--standpoint", run.IMPORT_STANDPOINT],
    "import-translate": ["import", "main.ofn", "source.ofn",
                         "--standpoint", run.IMPORT_STANDPOINT, "--translate"],
    "translate": ["translate", "main.ofn"],
}
INGEST_SHA256 = {
    "import": "a1a6c9abcea6fea28e877b9719c1cd2bae7ba0108ab42f0236521c58de6c2ac8",
    "import-translate": "bcdbe7fb15b30f1fd7da453590802d470abd7562f70b08664d9d40c3c3ce3781",
    "translate": "295ef7beaafda915f730a78c2ddae9c013d87c122f3a970b8b4058c5547464fd",
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


def run_child(argv, timeout, preexec_fn=None):
    """``python -m standpoint_owl.cli`` with ``argv`` in a child process,
    with a wall-clock limit."""
    package_root = os.path.dirname(os.path.dirname(standpoint_owl.__file__))
    env_path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "standpoint_owl.cli", *argv],
        capture_output=True, encoding="utf-8", timeout=timeout, preexec_fn=preexec_fn,
        env={**os.environ, "PYTHONPATH": env_path, "PYTHONIOENCODING": "utf-8"})


class TestTranslate:
    def test_forest(self, forest_path, tmp_path, capsys):
        assert main(["translate", forest_path]) == 0
        err = capsys.readouterr().err
        assert "p=1" in err
        out_path = str(tmp_path / "forest.translated.ofn")
        assert os.path.exists(out_path)
        text = (tmp_path / "forest.translated.ofn").read_text(encoding="utf-8")
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

    def test_rebase_that_would_not_read_back_exit_2(self, forest_path, tmp_path, capsys):
        # The reader's IRI ends at the first '>', so Prefix(:=<urn:x>y#>)
        # would not parse; nothing is written.
        out = tmp_path / "out.ofn"
        assert main(["translate", forest_path, "--rebase", "urn:x>y",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: --rebase: an IRI cannot hold '>': 'urn:x>y'\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("rung", sorted(LADDER_SHA256))
    def test_ladder_output(self, rung, tmp_path, capsys):
        path = write(tmp_path, rung, dict(gen.translate_ladder(0))[rung])
        assert main(["translate", path, "--dump"]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == LADDER_SHA256[rung]

    @pytest.mark.parametrize("op", sorted(INGEST_SHA256))
    def test_ingest_output(self, op, tmp_path, capsys):
        for name, text in gen.ingest_import(0):
            write(tmp_path, name, text)
        argv = [str(tmp_path / arg) if arg.endswith(".ofn") else arg
                for arg in INGEST_ARGV[op]]
        assert main([*argv, "--dump"]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == INGEST_SHA256[op]


def plain_model(document):
    """A model of a translated document at domain size 1."""
    axioms = tuple(ax for ax, _ in parse_document(document).axioms)
    return find_plain_model(PlainKB(axioms), 1)


class TestNamespaces:
    """Equal local names in different input namespaces stay different."""

    def test_consistent_document_stays_consistent(self, tmp_path, capsys):
        path = write(tmp_path, "two.ofn",
                     "Prefix(:=<urn:a#>)\nPrefix(b:=<urn:b#>)\nOntology(<urn:a>\n"
                     "SubClassOf(:Forest :Land)\n"
                     "SubClassOf(b:Forest ObjectComplementOf(:Land))\n"
                     "SubClassOf(owl:Thing b:Forest)\n)\n")
        assert main(["translate", path, "--dump"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert "Prefix(ns1:=<urn:a/translated/ns1#>)" in lines
        assert "SubClassOf(:Forest__0 :Land__0)" in lines
        assert "SubClassOf(ns1:Forest__0 ObjectComplementOf(:Land__0))" in lines
        assert "SubClassOf(owl:Thing ns1:Forest__0)" in lines
        assert plain_model(out) is not None

    def test_twelve_namespaces_stay_apart(self, tmp_path, capsys):
        # The serializer numbers prefixes in sorted IRI order, so from ten
        # namespaces on `ns<k>:` need not name `<output-iri>/ns<k>#`.
        prefixes = "".join(f"Prefix(p{k}:=<urn:p{k}#>)\n" for k in range(12))
        axioms = "".join(f"SubClassOf(p{k}:Forest :Land)\n" for k in range(12))
        path = write(tmp_path, "twelve.ofn",
                     f"Prefix(:=<urn:a#>)\n{prefixes}Ontology(<urn:a>\n{axioms})\n")
        assert main(["translate", path, "--dump"]) == 0
        out = capsys.readouterr().out
        assert "Prefix(ns2:=<urn:a/translated/ns10#>)" in out.splitlines()
        doc = parse_document(out)
        expected = {f"urn:a/translated/ns{k}#" for k in range(1, 13)}
        assert {d.name.base for d in doc.declarations
                if d.name.local == "Forest__0"} == expected
        assert {ax.lhs.name.base for ax, _ in doc.axioms[1:]} == expected

    def test_imported_local_names_stay_apart(self, tmp_path, capsys):
        main_doc = write(tmp_path, "main.ofn",
                         "Prefix(:=<urn:m#>)\nOntology(<urn:m>\n"
                         "SubClassOf(:Forest :Land)\n)\n")
        source = write(tmp_path, "source.ofn",
                       "Prefix(:=<urn:s#>)\nOntology(<urn:s>\n"
                       "SubClassOf(:Forest ObjectComplementOf(:Land))\n"
                       "SubClassOf(owl:Thing :Forest)\n)\n")
        assert main(["import", main_doc, source, "--standpoint", "*",
                     "--translate", "--dump"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert "Prefix(ns1:=<urn:m/translated/ns1#>)" in lines
        assert "Declaration(Class(:Forest__0))" in lines
        assert "Declaration(Class(ns1:Forest__0))" in lines
        assert plain_model(out) is not None


SOURCE_DOC = """Prefix(:=<urn:src#>)
Ontology(<urn:src>
Declaration(Class(:Forest))
Declaration(Class(:Woodland))
SubClassOf(:Forest :Woodland)
EquivalentClasses(:Forest :Woodland)
SubObjectPropertyOf(ObjectPropertyChain(:p :q) :pq)
)
"""


def import_dump(pair, capsys) -> str:
    """``import MAIN SOURCE --standpoint s --dump`` of a pair of fixtures."""
    assert main(["import", *(str(FIXTURES / name) for name in pair),
                 "--standpoint", "s", "--dump"]) == 0
    return capsys.readouterr().out


class TestImport:
    @pytest.mark.parametrize("pair", sorted(IMPORT_SHA256), ids="+".join)
    def test_fixture_pair_output(self, pair, capsys):
        out = import_dump(pair, capsys).encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == IMPORT_SHA256[pair]

    @pytest.mark.parametrize("pair", sorted(IMPORT_SHA256), ids="+".join)
    def test_merged_kb_writes_back(self, pair, capsys):
        writes_back(import_dump(pair, capsys))

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

    def test_each_source_name_rebased_once(self, forest_path, tmp_path, capsys,
                                           monkeypatch):
        merged = []
        pieces = cli.document_pieces
        monkeypatch.setattr(cli, "document_pieces",
                            lambda doc: merged.append(doc) or pieces(doc))
        assert main(["import", forest_path, forest_path, "--standpoint", "LC",
                     "--dump"]) == 0
        names = [n for d in merged[0].declarations for n in iter_nodes(d.name)]
        names += [n for ax, _ in merged[0].axioms for n in iter_nodes(ax)]
        imported = [n for n in names
                    if type(n) is EntityName and "/imported/" in n.base]
        assert len({id(n) for n in imported}) == len(set(imported)) < len(imported)

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


def rebased_merge(main_text, source_text, standpoint):
    """The merged document as ``import`` built it by copying each source
    name into the imported namespace with ``rebase_names``: the reference
    for reading the source straight into that namespace."""
    doc_in, doc_src = parse_document(main_text), parse_document(source_text)
    token = "STAR" if standpoint == "*" else standpoint
    ns = f"{doc_in.base_iri}/imported/{token}#"
    declarations = list(doc_in.declarations) + [
        Declaration(d.kind, rebase_names(d.name, ns)) for d in doc_src.declarations]
    box = Annotation("", STANDPOINT_LABEL,
                     sp_axiom_payload(None, Box, standpoint_expr(standpoint)))
    axioms = list(doc_in.axioms)
    for axiom, annotations in doc_src.axioms:
        rebased = rebase_names(axiom, ns)
        axioms.append((rebased, ()) if isinstance(rebased, Ria)
                      else (rebased, tuple(annotations) + (box,)))
    return serialize_document(RawDocument(doc_in.base_iri, doc_in.prefixes,
                                          doc_in.ontology_annotations,
                                          tuple(declarations), tuple(axioms)))


TWO_PREFIXES_SOURCE = """Prefix(:=<urn:src#>)
Prefix(x:=<urn:x#>)
Prefix(y:=<urn:src#>)
Ontology(<urn:src>
Declaration(Class(x:A))
SubClassOf(:A x:A)
SubClassOf(owl:Thing ObjectSomeValuesFrom(y:r ObjectUnionOf(:A owl:Nothing)))
SubObjectPropertyOf(ObjectPropertyChain(:r x:r) y:r)
ClassAssertion(x:A y:a)
)
"""


class TestImportReadsIntoTheNamespace:
    """``import`` reads the source into ``<input-iri>/imported/<S>#``; the
    merged document is the one that copying every source name gave."""

    def check(self, tmp_path, capsys, main_text, source_text, standpoint):
        files = [write(tmp_path, "main.ofn", main_text),
                 write(tmp_path, "source.ofn", source_text)]
        assert main(["import", *files, "--standpoint", standpoint, "--dump"]) == 0
        assert capsys.readouterr().out == rebased_merge(main_text, source_text,
                                                        standpoint)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_generated_sources(self, tmp_path, capsys, seed):
        (_, main_text), (_, source_text) = gen.ingest_import(seed)
        self.check(tmp_path, capsys, main_text, source_text, "ext")

    @pytest.mark.parametrize("standpoint", ["s", "*"])
    def test_two_prefixes_sharing_a_local_name(self, tmp_path, capsys, standpoint):
        self.check(tmp_path, capsys, (FIXTURES / "constructors.ofn").read_text(
            encoding="utf-8"), TWO_PREFIXES_SOURCE, standpoint)

    def test_annotated_fixture_into_itself(self, tmp_path, capsys):
        text = (FIXTURES / "forest.ofn").read_text(encoding="utf-8")
        self.check(tmp_path, capsys, text, text, "s")

    def test_undeclared_source_prefix_keeps_its_error(self, tmp_path, capsys):
        source_text = TWO_PREFIXES_SOURCE.replace("ClassAssertion(x:A y:a)",
                                                  "ClassAssertion(x:A zz:a)")
        with pytest.raises(ParseError) as err:
            rebased_merge(SOURCE_DOC, source_text, "s")
        files = [write(tmp_path, "main.ofn", SOURCE_DOC),
                 write(tmp_path, "source.ofn", source_text)]
        assert main(["import", *files, "--standpoint", "s", "--dump"]) == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"
        assert "at 9:20" in str(err.value)

    def test_no_rebase_and_no_walk_for_the_document(self, forest_path, tmp_path,
                                                    capsys, monkeypatch):
        """``import`` calls no ``rebase_names``; ``document_pieces`` of the
        merged document and of a read one walks no axiom for its names."""
        def forbidden(*args, **kwargs):
            raise AssertionError("called")

        merged = []
        pieces = cli.document_pieces
        monkeypatch.setattr(cli, "document_pieces",
                            lambda doc: merged.append(doc) or pieces(doc))
        for module in (model, cli):
            monkeypatch.setattr(module, "rebase_names", forbidden, raising=False)
        src = write(tmp_path, "src.ofn", TWO_PREFIXES_SOURCE)
        assert main(["import", forest_path, src, "--standpoint", "LC", "--dump"]) == 0
        out = capsys.readouterr().out
        read = parse_document(out)
        monkeypatch.setattr(model, "iter_nodes", forbidden)
        for module in (model, serializer):
            monkeypatch.setattr(module, "entity_names_in", forbidden, raising=False)
        assert serialize_document(merged[0]) == out
        assert serialize_document(read) == out


def annotation_iris(doc):
    """The IRI of the property of every axiom annotation of ``doc``."""
    prefixes = dict(doc.prefixes)
    return [prefixes.get(a.property_prefix, PREDECLARED_PREFIXES.get(a.property_prefix))
            + a.property_local for _, anns in doc.axioms for a in anns]


class TestImportedAnnotationPrefixes:
    """A copied source annotation keeps its IRI: its prefix name is
    declared where the main document leaves it free, and moves to the
    first free ``ns<k>`` where the main document binds it elsewhere."""

    SOURCE = """Prefix(:=<urn:src#>)
Prefix(q:=<urn:q#>)
Prefix(p:=<urn:p#>)
Prefix(m:=<urn:m#>)
Ontology(<urn:src>
SubClassOf(Annotation(q:note "a") Annotation(p:note "b") Annotation(rdfs:label "c") \
Annotation(:note "d") Annotation(m:note "e") Annotation(q:other "f") :C :D)
)
"""
    MAIN = """Prefix(:=<urn:m#>)
Prefix(p:=<urn:elsewhere#>)
Prefix(ns1:=<urn:ns1#>)
Ontology(<urn:m>
SubClassOf(Annotation(p:note "g") :A :B)
)
"""

    def test_merged_document_parses_back_with_the_source_iris(self, tmp_path, capsys):
        files = [write(tmp_path, "main.ofn", self.MAIN),
                 write(tmp_path, "src.ofn", self.SOURCE)]
        assert main(["import", *files, "--standpoint", "s", "--dump"]) == 0
        out = capsys.readouterr().out
        merged = parse_document(out)
        assert annotation_iris(merged) == [
            "urn:elsewhere#note", "urn:q#note",
            "urn:p#note", "http://www.w3.org/2000/01/rdf-schema#label",
            "urn:src#note", "urn:m#note", "urn:q#other", "urn:m#standpointLabel"]
        assert dict(merged.prefixes) == {"": "urn:m#", "p": "urn:elsewhere#",
                                         "ns1": "urn:ns1#", "q": "urn:q#",
                                         "ns2": "urn:p#", "ns3": "urn:src#",
                                         "m": "urn:m#", "ns4": "urn:m/imported/s#"}
        assert main(["translate", write(tmp_path, "merged.ofn", out), "--dump"]) == 0

    def test_undeclared_annotation_prefix_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "z.ofn",
                     "Prefix(:=<urn:z#>)\nOntology(<urn:z>\n"
                     'Annotation(zz:standpointLabel "<Sharpening><Standpoint name=\\"a\\"/>'
                     '<Standpoint name=\\"b\\"/></Sharpening>")\n)\n')
        assert main(["translate", path, "--dump"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: undeclared prefix 'zz' at 3:12\n"


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
        assert any(type(ax.lhs) is And and len(ax.lhs.parts) == 3000
                   for ax, _ in doc.axioms if isinstance(ax, Gci))

    def test_query_decides(self, tmp_path, capsys):
        # One repeated operand, so the search guard passes and the oracle
        # evaluates the whole width.
        text = WIDE_DOC.replace(" ".join(f":A{k}" for k in range(3000)),
                                " ".join(":A" for _ in range(3000)))
        path = write(tmp_path, "wide.ofn", text)
        assert main(["query", path, "--simple", "[*](A sub B)"]) in (0, 3)


class TestDeepNesting:
    def test_exit_2_without_traceback(self, tmp_path, capsys):
        path = write(tmp_path, "deep.ofn",
                     "Prefix(:=<urn:d#>)\nOntology(<urn:d>\nSubClassOf("
                     + "ObjectComplementOf(" * 3000 + ":A" + ")" * 3000
                     + " :B)\n)\n")
        assert main(["translate", path, "--dump"]) == 2
        assert capsys.readouterr().err == "error: expression nested too deeply\n"

    def test_what_translates_also_renders(self, tmp_path, capsys):
        """400 nested intersections parse and translate; the serializer
        takes one frame per level as well, so it renders them instead of
        failing after the output file was opened."""
        path = write(tmp_path, "deep.ofn",
                     "Prefix(:=<urn:d#>)\nOntology(<urn:d>\nSubClassOf("
                     + "ObjectIntersectionOf(:C " * 400 + ":A" + ")" * 400
                     + " :B)\n)\n")
        out = tmp_path / "deep.translated.ofn"
        assert main(["translate", path]) == 0
        assert out.read_text(encoding="utf-8").count("ObjectIntersectionOf(") == 400

    @pytest.mark.parametrize("command", [
        ["translate", "DEEP"],
        ["import", "MAIN", "DEEP", "--standpoint", "s", "--translate"]])
    def test_translator_takes_one_frame_per_level(self, tmp_path, capsys, command):
        """495 nested intersections parse, translate and render, through
        ``translate`` and through an import that translates."""
        files = {
            "DEEP": write(tmp_path, "deep.ofn",
                          "Prefix(:=<urn:d#>)\nOntology(<urn:d>\nSubClassOf("
                          + "ObjectIntersectionOf(:C " * 495 + ":A" + ")" * 495
                          + " :B)\n)\n"),
            "MAIN": write(tmp_path, "main.ofn", "Prefix(:=<urn:m#>)\n"
                          "Ontology(<urn:m>\nSubClassOf(:X :Y)\n)\n")}
        assert main([files.get(arg, arg) for arg in command] + ["--dump"]) == 0
        assert capsys.readouterr().out.count("ObjectIntersectionOf(") == 495


class TestLongFlatChain:
    def test_refuted_query_exits_3(self, tmp_path, capsys):
        # 1201 concept slots, more than the recursion limit, none nested.
        path = write(tmp_path, "chain.ofn",
                     "Prefix(:=<urn:c#>)\nOntology(<urn:c>\n"
                     + "".join(f"SubClassOf(:X{i} :X{i + 1})\n" for i in range(1200))
                     + ")\n")
        assert main(["query", path, "--simple", "[*](X5 sub X0)",
                     "--guard-bits", "inf", "--domain-bound", "1"]) == 3
        assert "not entailed; countermodel: domain size 1" in capsys.readouterr().err


class TestManyAtoms:
    def test_over_the_guard_exits_4(self, tmp_path, capsys):
        # 70 annotated axioms over 71 concepts: over the guard at domain
        # size 1 and over the atom cap, so the search stops before it meets
        # 2**71 vectors per position.
        box = ('Annotation(:standpointLabel "<standpointAxiom><Box>'
               '<Standpoint name=\\"s\\"/></Box></standpointAxiom>")')
        path = write(tmp_path, "atoms.ofn",
                     "Prefix(:=<urn:a#>)\nOntology(<urn:a>\n"
                     + "".join(f"SubClassOf({box} :X{i} :X{i + 1})\n" for i in range(70))
                     + ")\n")
        assert main(["query", path, "--simple", "[*](X5 sub X0)"]) == 4
        assert capsys.readouterr().err.endswith(
            "inconclusive: the bounded search guard was exceeded\n")

    @pytest.mark.parametrize("guard", ["40", "inf"])
    @pytest.mark.parametrize("pairs", [21, 10])
    def test_over_the_atom_cap_exits_4(self, tmp_path, capsys, pairs, guard):
        # [s](Ci sub Cj) or [s](Cj sub Ci) over pairs of 7 concepts: 7 guard
        # bits at domain size 1, but 2 atoms a pair plus the query's, 43 or
        # 21, over the cap of 20 atoms (2**k vectors per position for k atoms).
        def box(i, j):
            return (f'<Box><Standpoint name=\\"s\\"/><subClassOf><LHS>C{i}</LHS>'
                    f'<RHS>C{j}</RHS></subClassOf></Box>')
        combinations = [(i, j) for i in range(7) for j in range(i + 1, 7)][:pairs]
        path = write(tmp_path, "atoms.ofn",
                     "Prefix(:=<urn:a#>)\nOntology(<urn:a>\n"
                     + "".join('Annotation(:standpointLabel "<booleanCombination>'
                               f'<OR>{box(i, j)}{box(j, i)}</OR></booleanCombination>")\n'
                               for i, j in combinations)
                     + "".join(f"Declaration(Class(:C{i}))\n" for i in range(7))
                     + ")\n")
        assert main(["query", path, "--simple", "[*](C0 sub C0)",
                     "--domain-bound", "1", "--guard-bits", guard]) == 4
        assert capsys.readouterr().err == (
            "p=1 (including the negated query)\n"
            "inconclusive: the bounded search guard was exceeded\n")


class TestDeepPrecisificationBound:
    def test_four_hundred_precisifications_are_searched(self, tmp_path):
        """``[*](A ⊑ B)`` and ``[*](B ⊑ C)`` entail ``[*](A ⊑ C)``, so the
        search tries every precisification count up to the bound.  It holds
        one bit per precisification and atom, and one generator per
        position.  The child runs under a 1 GB address-space cap, so a
        search that tabled 2**m entries per count fails instead of filling
        the machine's memory."""
        box = ('Annotation(:standpointLabel "<standpointAxiom><Box>'
               '<Standpoint name=\\"*\\"/></Box></standpointAxiom>")')
        path = write(tmp_path, "chain.ofn",
                     "Prefix(:=<urn:d#>)\nOntology(<urn:d>\n"
                     f"SubClassOf({box} :A :B)\nSubClassOf({box} :B :C)\n)\n")

        def capped():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        proc = run_child(["query", path, "--simple", "[*](A sub C)", "--domain-bound", "1",
                          "--prec-bound", "400", "--guard-bits", "inf"],
                         timeout=120, preexec_fn=capped)
        assert (proc.returncode, proc.stderr) == (0, (
            "p=1 (including the negated query)\n"
            "entailed (no countermodel with domain \u2264 1, precisifications "
            "\u2264 1; with no roles or individuals these bounds are complete)\n"))


class TestPrecisificationCap:
    @pytest.mark.parametrize("bound", ["12", "400"])
    def test_search_stops_at_p_whatever_the_bound(self, tmp_path, bound):
        """With only the sharpening a ⪯ b, p is 1 (the negated query's
        diamond), so a bound far above it searches no more: every count up
        to 12 walks 2^(2m) standpoint assignments, which takes most of a
        minute.  The child runs with a wall-clock limit."""
        path = write(tmp_path, "sharpening.ofn",
                     "Prefix(:=<urn:g#>)\nOntology(<urn:g>\n"
                     'Annotation(:standpointLabel "<Sharpening><Standpoint name=\\"a\\"/>'
                     '<Standpoint name=\\"b\\"/></Sharpening>")\n'
                     "Declaration(Class(:A))\n)\n")
        proc = run_child(["query", path, "--simple", "[*](owl:Thing sub owl:Thing)",
                          "--domain-bound", "1", "--prec-bound", bound], timeout=20)
        assert (proc.returncode, proc.stderr) == (0, (
            "p=1 (including the negated query)\n"
            "entailed (no countermodel with domain \u2264 1, precisifications "
            "\u2264 1; with no roles or individuals these bounds are complete)\n"))

    def test_one_standpoint_assignment_per_orbit(self, tmp_path):
        """``a ⪯ b`` and eleven diamonds ``<b>(Xi ⊑ Yi)``: p is 12, and the
        entailed query makes the search try every count up to 12.  Renaming
        precisifications maps models to models, so per count it walks one
        sigma tuple per orbit, C(m + 3, m) of them (455 at m = 12), not all
        2^(2m) tuples, which would take most of a minute.  The child runs
        with a wall-clock limit."""
        sp = '<Standpoint name=\\"{}\\"/>'.format
        diamond = ('Annotation(:standpointLabel "<standpointAxiom><Diamond>'
                   f'{sp("b")}</Diamond></standpointAxiom>")')
        path = write(tmp_path, "diamonds.ofn",
                     "Prefix(:=<urn:g#>)\nOntology(<urn:g>\n"
                     f'Annotation(:standpointLabel "<Sharpening>{sp("a")}{sp("b")}'
                     '</Sharpening>")\n'
                     + "".join(f"SubClassOf({diamond} :X{i} :Y{i})\n" for i in range(11))
                     + ")\n")
        proc = run_child(["query", path, "--simple", "[*](owl:Thing sub owl:Thing)",
                          "--domain-bound", "1", "--guard-bits", "inf"], timeout=20)
        assert (proc.returncode, proc.stderr) == (0, (
            "p=12 (including the negated query)\n"
            "entailed (no countermodel with domain \u2264 1, precisifications "
            "\u2264 12; with no roles or individuals these bounds are complete)\n"))

    def test_the_guard_counts_the_standpoint_assignment(self, tmp_path):
        """Eleven diamonds ``<x>(⊤ ⊑ ⊤)`` over four standpoints name no
        concept, role or individual, so the interpretation search costs no
        bit; the standpoint assignment costs one bit per named standpoint
        and precisification, and trips an 8-bit guard at m = 3.  Counted
        without it, every count up to 12 is searched, which takes minutes.
        The child runs with a wall-clock limit."""
        diamond = ('Annotation(:standpointLabel "<standpointAxiom><Diamond>'
                   '<Standpoint name=\\"{}\\"/></Diamond></standpointAxiom>")').format
        path = write(tmp_path, "nameless.ofn",
                     "Prefix(:=<urn:g#>)\nOntology(<urn:g>\n"
                     + "".join(f"SubClassOf({diamond('abcd'[i % 4])} owl:Thing owl:Thing)\n"
                               for i in range(11))
                     + ")\n")
        proc = run_child(["query", path, "--simple", "[*](owl:Thing sub owl:Thing)",
                          "--domain-bound", "1", "--prec-bound", "12",
                          "--guard-bits", "8"], timeout=10)
        assert (proc.returncode, proc.stderr) == (4, (
            "p=12 (including the negated query)\n"
            "inconclusive: the bounded search guard was exceeded\n"))

    @pytest.mark.parametrize("bound, searched", [
        ("400", "1; the precisification bound is complete"), ("1", "1")])
    def test_bounded_verdict_names_the_precisifications_searched(self, tmp_path, capsys,
                                                                 bound, searched):
        """A role leaves the domain bound incomplete, so the verdict is
        bounded evidence; it names the p precisifications searched, not a
        bound above p, and says that p is complete only when the bound
        exceeds it."""
        label = ('Annotation(:standpointLabel "<standpointAxiom><Box>'
                 '<Standpoint name=\\"*\\"/></Box></standpointAxiom>")')
        path = write(tmp_path, "role.ofn",
                     "Prefix(:=<urn:h#>)\nOntology(<urn:h>\n"
                     f"SubClassOf({label} :A ObjectSomeValuesFrom(:r :B))\n)\n")
        assert main(["query", path, "--simple", "[*](A sub r some B)",
                     "--domain-bound", "1", "--prec-bound", bound]) == 0
        assert capsys.readouterr().err == (
            "p=1 (including the negated query)\n"
            "entailed within bounds (no countermodel with domain \u2264 1, "
            f"precisifications \u2264 {searched}); bounded evidence, not a proof\n")


BOX_STAR = ('Annotation(:standpointLabel "<standpointAxiom><Box>'
            '<Standpoint name=\\"*\\"/></Box></standpointAxiom>")')


class TestCompleteDomainBound:
    """Without roles, individuals or role inclusions, a countermodel has one
    with at most N = max(1, negated atoms) elements, so the search stops at
    N, and an exhausted search up to N and p is a proof.  The universal role
    is no name, so it must stop the cap on its own."""

    def kb(self, tmp_path, *axioms):
        return write(tmp_path, "kb.ofn", "Prefix(:=<urn:d#>)\nOntology(<urn:d>\n"
                     + "".join(f"{axiom}\n" for axiom in axioms) + ")\n")

    UNIVERSAL_ROLE_KBS = [
        # Something is A and something is not, by ∃U on the right ...
        ("SubClassOf(owl:Thing ObjectSomeValuesFrom(owl:topObjectProperty :A))",
         "SubClassOf(owl:Thing ObjectSomeValuesFrom(owl:topObjectProperty "
         "ObjectComplementOf(:A)))"),
        # ... and by ∀U on the left.
        ("SubClassOf(ObjectAllValuesFrom(owl:topObjectProperty :A) owl:Nothing)",
         "SubClassOf(ObjectAllValuesFrom(owl:topObjectProperty "
         "ObjectComplementOf(:A)) owl:Nothing)")]
    CHAIN = tuple(f"SubClassOf({BOX_STAR} :C{i} :C{i + 1})" for i in range(13))
    EQUAL = ("SubClassOf(:A :B)", "SubClassOf(:B :A)",
             f"SubClassOf({BOX_STAR.replace('Box', 'Diamond')} :A :A)")

    @pytest.mark.parametrize("axioms", UNIVERSAL_ROLE_KBS, ids=["some", "all"])
    def test_universal_role_countermodel_needs_two_elements(self, tmp_path, capsys,
                                                            axioms):
        """The negated query has one atom, yet the first countermodel has
        two elements: a cap of 1 would call the query entailed."""
        path = self.kb(tmp_path, *axioms)
        assert main(["query", path, "--simple", "[*](owl:Thing sub A)",
                     "--domain-bound", "3"]) == 3
        assert capsys.readouterr().err == (
            "p=1 (including the negated query)\n"
            "not entailed; countermodel: domain size 2, 1 precisification(s), "
            "sigma={'*': [0]}\n")

    def test_cap_keeps_the_search_under_the_guard(self, tmp_path, capsys):
        """14 concepts: domain size 3 needs 42 bits, over the default guard
        of 40, but the one negated atom ends the search at size 1."""
        path = self.kb(tmp_path, *self.CHAIN)
        assert main(["query", path, "--simple", "[*](C0 sub C3)",
                     "--domain-bound", "3"]) == 0
        assert capsys.readouterr().err == (
            "p=1 (including the negated query)\n"
            "entailed (no countermodel with domain \u2264 1, precisifications "
            "\u2264 1; with no roles or individuals these bounds are complete)\n")

    @pytest.mark.parametrize("bounds, verdict", [
        # The negated equivalence is two negated atoms, so N = 2.
        (("--domain-bound", "1"), "entailed within bounds (no countermodel with "
         "domain \u2264 1, precisifications \u2264 2); bounded evidence, not a proof"),
        (("--domain-bound", "2", "--prec-bound", "1"), "entailed within bounds "
         "(no countermodel with domain \u2264 2, precisifications \u2264 1); "
         "bounded evidence, not a proof"),
        (("--domain-bound", "3"), "entailed (no countermodel with domain \u2264 2, "
         "precisifications \u2264 2; with no roles or individuals these bounds "
         "are complete)"),
        # The search stops at the cap of 2 though the bounds are not complete.
        (("--domain-bound", "3", "--prec-bound", "1"), "entailed within bounds "
         "(no countermodel with domain \u2264 2, precisifications \u2264 1); "
         "bounded evidence, not a proof")])
    def test_verdict_names_complete_bounds_only(self, tmp_path, capsys, bounds, verdict):
        path = self.kb(tmp_path, *self.EQUAL)
        assert main(["query", path, "--simple", "[*](A eq B)", *bounds]) == 0
        assert capsys.readouterr().err == \
            f"p=2 (including the negated query)\n{verdict}\n"

    @pytest.mark.parametrize("axioms, query, bounds", [
        (UNIVERSAL_ROLE_KBS[0], "[*](owl:Thing sub A)", ("--domain-bound", "3")),
        (UNIVERSAL_ROLE_KBS[1], "[*](owl:Thing sub A)", ("--domain-bound", "3")),
        (CHAIN, "[*](C0 sub C3)", ("--domain-bound", "3")),
        (EQUAL, "[*](A eq B)", ("--domain-bound", "1")),
        (EQUAL, "[*](A eq B)", ("--domain-bound", "2", "--prec-bound", "1")),
        (EQUAL, "[*](A eq B)", ("--domain-bound", "3", "--prec-bound", "1")),
        (EQUAL, "[*](A eq B)", ("--domain-bound", "3"))],
        ids=["some", "all", "chain", "equal-1", "equal-2-prec-1", "equal-3-prec-1", "equal-3"])
    def test_the_result_holds_the_bounds_of_the_verdict(self, tmp_path, capsys,
                                                        monkeypatch, axioms, query, bounds):
        """The search reports the bounds it searched and whether they are
        complete; the verdict line names them.  A refuted query has no
        bounds to report."""
        results = []
        search = cli.search_countermodel
        monkeypatch.setattr(cli, "search_countermodel",
                            lambda *args, **kwargs: results.append(search(*args, **kwargs))
                            or results[-1])
        main(["query", self.kb(tmp_path, *axioms), "--simple", query, *bounds])
        verdict = capsys.readouterr().err.splitlines()[1]
        (result,) = results
        if not verdict.startswith("entailed"):
            assert (result.domain, result.precisifications, result.complete) == \
                (None, None, False)
            return
        domain, precisifications = re.search(
            r"domain \u2264 (\d+), precisifications \u2264 (\d+)", verdict).groups()
        assert (result.domain, result.precisifications, result.complete) == \
            (int(domain), int(precisifications), "these bounds are complete" in verdict)

    def test_the_search_makes_no_tree_walk_of_its_own(self, tmp_path, capsys,
                                                       monkeypatch):
        """The search takes its domain cap from its compile walks: on a
        role-free KB with an entailed query it searches sizes 1 and 2 and
        walks no syntax tree.  The verdict line is made from what it
        reports."""
        walks = []
        walk, search = model.iter_nodes, cli.search_countermodel

        def counted(*args, **kwargs):
            walks.append(args)
            return walk(*args, **kwargs)

        def searched(*args, **kwargs):
            with pytest.MonkeyPatch.context() as patch:
                for module in (model, oracle):
                    patch.setattr(module, "iter_nodes", counted, raising=False)
                return search(*args, **kwargs)
        monkeypatch.setattr(cli, "search_countermodel", searched)
        path = self.kb(tmp_path, *self.EQUAL)
        assert main(["query", path, "--simple", "[*](A eq B)", "--domain-bound", "3"]) == 0
        assert "domain \u2264 2" in capsys.readouterr().err
        assert walks == []


class TestReservedStandpointName:
    """``STAR`` is how the translation spells ``*``, so a standpoint of that
    name would be the universal one: every input path rejects it (exit 2)."""

    ERROR = "error: standpoint name 'STAR' is reserved for '*'\n"

    def test_label(self, tmp_path, capsys):
        path = write(tmp_path, "star.ofn",
                     "Prefix(:=<urn:d#>)\nOntology(<urn:d>\nSubClassOf("
                     'Annotation(:standpointLabel "<standpointAxiom><Box>'
                     '<Standpoint name=\\"STAR\\"/></Box></standpointAxiom>") :A :B)\n)\n')
        assert main(["query", path, "--simple", "[*](A sub B)"]) == 2
        assert capsys.readouterr().err.startswith(self.ERROR[:-1] + " (standpointLabel at 3:")

    def test_simple_query(self, forest_path, capsys):
        assert main(["query", forest_path, "--simple", "[STAR](Forest sub Land)"]) == 2
        assert capsys.readouterr().err == self.ERROR

    def test_query_file(self, forest_path, tmp_path, capsys):
        q = write(tmp_path, "q.xml", '<Box><Standpoint name="STAR"/><subClassOf>'
                  "<LHS>Forest</LHS><RHS>Land</RHS></subClassOf></Box>")
        assert main(["query", forest_path, "--query-file", q]) == 2
        assert capsys.readouterr().err == self.ERROR

    def test_import(self, forest_path, tmp_path, capsys):
        src = write(tmp_path, "src.ofn", "Prefix(:=<urn:s#>)\nOntology(<urn:s>\n"
                    "SubClassOf(:A :B)\n)\n")
        assert main(["import", forest_path, src, "--standpoint", "STAR", "--dump"]) == 2
        assert capsys.readouterr() == ("", self.ERROR)


class TestUniversalRoleRestriction:
    def test_self_over_the_universal_role_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "self.ofn",
                     "Prefix(:=<urn:d#>)\nOntology(<urn:d>\n"
                     "SubClassOf(:A ObjectHasSelf(owl:topObjectProperty))\n)\n")
        assert main(["translate", path, "--dump"]) == 2
        assert capsys.readouterr().err == \
            "error: Self/number restriction over a non-simple role\n"


class TestNonSimpleRestrictionPaths:
    """Every way a Self or number restriction over a non-simple role reaches
    role validation ends in the same error: an axiom, an imported source,
    a Boolean-combination payload, a named standpoint axiom that nothing
    references, and the universal role under either cardinality."""

    ERROR = "error: Self/number restriction over a non-simple role\n"

    @staticmethod
    def document(body):
        return ("Prefix(:=<urn:d#>)\nOntology(<urn:d>\n" + body
                + "\nTransitiveObjectProperty(:r)\n)\n")

    def assert_rejected(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", self.ERROR)

    @pytest.mark.parametrize("body", [
        "SubClassOf(:A ObjectMinCardinality(2 :r :B))",
        "SubClassOf(:A ObjectMaxCardinality(1 ObjectInverseOf(:r) :B))",
        "EquivalentClasses(:A ObjectHasSelf(:r))",
        # a named standpoint axiom that no Boolean combination references
        'SubClassOf(Annotation(:standpointLabel "<standpointAxiom name=\\"§ax\\">'
        '<Box><Standpoint name=\\"s\\"/></Box></standpointAxiom>") '
        ":A ObjectMinCardinality(2 :r :B))",
        # a Boolean-combination payload
        'Annotation(:standpointLabel "<booleanCombination><Box><Standpoint '
        'name=\\"s\\"/><subClassOf><LHS>r min 2 B</LHS><RHS>A</RHS></subClassOf>'
        '</Box></booleanCombination>")',
    ], ids=["min", "max-inverse", "self", "unreferenced-named-axiom",
            "boolean-combination"])
    @pytest.mark.parametrize("command", ["translate", "query"])
    def test_document(self, tmp_path, capsys, body, command):
        path = write(tmp_path, "d.ofn", self.document(body))
        argv = {"translate": ["translate", path, "--dump"],
                "query": ["query", path, "--simple", "[*](A sub B)"]}[command]
        self.assert_rejected(argv, capsys)

    @pytest.mark.parametrize("translate", [False, True])
    def test_import_source(self, forest_path, tmp_path, capsys, translate):
        """The source's own transitivity makes its role non-simple."""
        src = write(tmp_path, "src.ofn", self.document(
            "SubClassOf(:A ObjectMaxCardinality(1 :r :B))"))
        self.assert_rejected(["import", forest_path, src, "--standpoint", "s",
                              "--dump", *(["--translate"] if translate else [])],
                             capsys)

    @pytest.mark.parametrize("cardinality", ["ObjectMinCardinality",
                                             "ObjectMaxCardinality"])
    def test_universal_role(self, tmp_path, capsys, cardinality):
        path = write(tmp_path, "u.ofn",
                     "Prefix(:=<urn:d#>)\nOntology(<urn:d>\nSubClassOf(:A "
                     f"{cardinality}(1 owl:topObjectProperty :B))\n)\n")
        self.assert_rejected(["translate", path, "--dump"], capsys)


def write_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


class TestUndecodableInput:
    """A file that is not UTF-8 is an input error (exit 2) naming the file,
    whichever command reads it."""

    BAD = b"Prefix(:=<urn:d#>)\nOntology(<urn:d>\nSubClassOf(:A :B\xff)\n)\n"

    def assert_names(self, path, capsys):
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    def test_translate(self, tmp_path, capsys):
        path = write_bytes(tmp_path, "bad.ofn", self.BAD)
        assert main(["translate", path, "--dump"]) == 2
        self.assert_names(path, capsys)

    @pytest.mark.parametrize("which", ["input", "source"])
    def test_import(self, forest_path, tmp_path, capsys, which):
        bad = write_bytes(tmp_path, "bad.ofn", self.BAD)
        files = [bad, forest_path] if which == "input" else [forest_path, bad]
        assert main(["import", *files, "--standpoint", "s", "--dump"]) == 2
        self.assert_names(bad, capsys)
        assert capsys.readouterr().out == ""

    def test_query(self, tmp_path, capsys):
        path = write_bytes(tmp_path, "bad.ofn", self.BAD)
        assert main(["query", path, "--simple", "[*](A sub B)"]) == 2
        self.assert_names(path, capsys)

    def test_query_file(self, forest_path, tmp_path, capsys):
        q = write_bytes(tmp_path, "q.xml", b'<Box><Standpoint name="LU"/><subClassOf>'
                        b"<LHS>Forest</LHS><RHS>Land\xff</RHS></subClassOf></Box>")
        assert main(["query", forest_path, "--query-file", q]) == 2
        self.assert_names(q, capsys)


class TestByteOrderMark:
    """A UTF-8 byte order mark before the document is dropped on reading;
    U+FEFF anywhere else is an unexpected character."""

    def test_translate_and_import_ignore_it(self, tmp_path, capsys):
        forest = (FIXTURES / "forest.ofn").read_text(encoding="utf-8")
        outputs = []
        for bom in ("", "\ufeff"):
            doc = write(tmp_path, "forest.ofn", bom + forest)
            src = write(tmp_path, "src.ofn", bom + SOURCE_DOC)
            assert main(["translate", doc, "--dump"]) == 0
            assert main(["import", doc, src, "--standpoint", "LC", "--dump"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_later_mark_is_unexpected(self, tmp_path, capsys):
        path = write(tmp_path, "bom.ofn",
                     "\ufeffPrefix(:=<urn:d#>)\nOntology(<urn:d>\n"
                     "SubClassOf(:A \ufeff:B)\n)\n")
        assert main(["translate", path, "--dump"]) == 2
        assert capsys.readouterr().err == "error: unexpected character '\\ufeff' at 3:15\n"


class TestQueryRoleRules:
    """A query obeys the role rules the KB does: with r transitive, it is
    non-simple, so no number restriction may use it.  Its inverse may stand
    under ∃, as SROIQ and OWL 2 DL allow, and the query is decided."""

    TRANSITIVE = ("Prefix(:=<urn:d#>)\nOntology(<urn:d>\n"
                  "TransitiveObjectProperty(:r)\nSubClassOf(:A :B)\n)\n")

    @pytest.mark.parametrize("query, message", [
        ("[*](r min 2 A sub A)", "Self/number restriction over a non-simple role"),
    ])
    def test_non_simple_role_exits_2(self, tmp_path, capsys, query, message):
        path = write(tmp_path, "trans.ofn", self.TRANSITIVE)
        assert main(["query", path, "--simple", query, "--domain-bound", "1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        # the same restriction over a simple role is decided
        simple = query.replace("r ", "s ", 1)
        assert main(["query", path, "--simple", simple, "--domain-bound", "1"]) == 0

    @pytest.mark.parametrize("domain, verdict", [(1, 0), (2, 3)])
    def test_inverse_of_a_non_simple_role_is_decided(self, tmp_path, capsys,
                                                     domain, verdict):
        """Entailed within domain 1, refuted at 2, as the translation path
        of the benchmark finds."""
        path = write(tmp_path, "trans.ofn", self.TRANSITIVE)
        query = "[*](inverse r some A sub A)"
        assert run.reference_verdicts([{"path": path, "query": query, "prec_bound": 1,
                                        "domain_bound": domain}]) == [verdict]
        assert main(["query", path, "--simple", query,
                     "--domain-bound", str(domain)]) == verdict


class TestSubPropertyRoleRules:
    """A sub-property leaves its super-property simple, as in SROIQ and
    OWL 2; non-simplicity passes up from a chain's head to the roles above
    it."""

    HEAD = "Prefix(:=<urn:d#>)\nOntology(<urn:d>\nSubObjectPropertyOf(:s :w)\n"

    @pytest.mark.parametrize("axiom, query", [
        ("SubClassOf(:A ObjectMaxCardinality(1 :w :C))", "[*](A sub w max 1 C)"),
        ("SubClassOf(ObjectSomeValuesFrom(ObjectInverseOf(:w) :C) :A)",
         "[*](inverse w some C sub A)")])
    def test_restriction_over_the_super_property_is_translated_and_decided(
            self, tmp_path, capsys, axiom, query):
        path = write(tmp_path, "sub.ofn", self.HEAD + axiom + "\n)\n")
        assert main(["translate", path, "--dump"]) == 0
        assert main(["query", path, "--simple", query, "--domain-bound", "1"]) == 0
        assert "entailed within bounds" in capsys.readouterr().err

    def test_above_a_chain_head_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "chain.ofn",
                     "Prefix(:=<urn:d#>)\nOntology(<urn:d>\n"
                     "SubObjectPropertyOf(ObjectPropertyChain(:r :t) :w)\n"
                     "SubObjectPropertyOf(:w :v)\n"
                     "SubClassOf(:A ObjectMaxCardinality(1 :v :C))\n)\n")
        assert main(["translate", path, "--dump"]) == 2
        assert capsys.readouterr().err == \
            "error: Self/number restriction over a non-simple role\n"


class TestSuperscriptCardinality:
    def test_exit_2_without_traceback(self, tmp_path, capsys):
        # str.isdigit() accepts U+00B2 SUPERSCRIPT TWO but int() does not.
        path = write(tmp_path, "sup.ofn",
                     "Prefix(:=<urn:d#>)\nOntology(<urn:d>\n"
                     "SubClassOf(:A ObjectMinCardinality(\u00b2 :r :B))\n)\n")
        assert main(["translate", path, "--dump"]) == 2
        assert capsys.readouterr().err == "error: unexpected character '\u00b2' at 3:36\n"


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

    @pytest.mark.parametrize("bound", [["--domain-bound", "0"],
                                       ["--domain-bound", "-1"],
                                       ["--prec-bound", "0"]])
    def test_bound_below_1_is_usage_error(self, bound, tmp_path, capsys):
        # B ⊑ A is not entailed by A ⊑ B; an empty bound must not say it is.
        path = write(tmp_path, "sub.ofn",
                     "Prefix(:=<urn:s#>)\nOntology(<urn:s>\nSubClassOf(:A :B)\n)\n")
        assert main(["query", path, "--simple", "[*](B sub A)", *bound]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bound[0]} must be at least 1, got {bound[1]}\n"

    @pytest.mark.parametrize("bits", ["nan", "-1"])
    def test_bad_guard_bits_is_usage_error(self, bits, tmp_path, capsys):
        # NaN compares false with every budget, so it would switch the guard
        # off; a negative budget would make every query inconclusive.
        path = write(tmp_path, "sub.ofn",
                     "Prefix(:=<urn:s#>)\nOntology(<urn:s>\nSubClassOf(:A :B)\n)\n")
        assert main(["query", path, "--simple", "[*](B sub A)",
                     "--guard-bits", bits]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --guard-bits must be a non-negative number, got {bits}\n"

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

    @pytest.mark.parametrize("text, error", [
        ('<Box><Standpoint name="LU"/>', "bad XML in query: no element found: "
         "line 1, column 28"),
        ("<booleanCombination>" + 2 * ("<subClassOf><LHS>Forest</LHS><RHS>Land</RHS>"
                                       "</subClassOf>") + "</booleanCombination>",
         "<booleanCombination> wraps exactly one formula")], ids=["xml", "wrapper"])
    def test_query_file_errors(self, forest_path, tmp_path, capsys, text, error):
        """A query document that is no XML, or whose <booleanCombination>
        wraps two formulas, is an input error (exit 2)."""
        q = write(tmp_path, "q.xml", text)
        assert main(["query", forest_path, "--query-file", q]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_guard_trip_inconclusive(self, forest_path, capsys):
        code = main(["query", forest_path, "--simple", "[LU](Forest sub Land)",
                     "--domain-bound", "3", "--guard-bits", "5"])
        assert code == 4


class TestRepeatedCalls:
    """``main`` parses every call with one parser built at import, so no
    flag or default of one call may reach the next."""

    def test_no_state_leaks_between_calls(self, forest_path, tmp_path, capsys):
        source = write(tmp_path, "src.ofn",
                       "Prefix(:=<urn:src#>)\nOntology(<urn:src>\nSubClassOf(:X :Y)\n)\n")
        assert main(["translate", forest_path, "--dump", "--rebase", "urn:out"]) == 0
        assert "Ontology(<urn:out>" in capsys.readouterr().out
        assert main(["translate", forest_path]) == 0
        assert capsys.readouterr().out == ""  # neither --dump
        text = (tmp_path / "forest.translated.ofn").read_text(encoding="utf-8")
        assert "urn:out" not in text and MARKER in text.splitlines()  # nor --rebase
        assert main(["import", forest_path, source, "--standpoint", "s",
                     "--translate", "--dump"]) == 0
        assert "SP__s__0" in capsys.readouterr().out
        merged = str(tmp_path / "merged.ofn")
        assert main(["import", forest_path, source, "--standpoint", "t",
                     "--out", merged]) == 0
        assert capsys.readouterr().out == ""  # nor --translate
        assert "SP__" not in (tmp_path / "merged.ofn").read_text(encoding="utf-8")
        query = ["query", forest_path, "--simple", "[LU](Forest sub Land)"]
        assert main([*query, "--domain-bound", "3", "--guard-bits", "5"]) == 4
        assert main([*query, "--domain-bound", "1", "--prec-bound", "1"]) == 0
        err = capsys.readouterr().err  # the default guard and bounds are back
        assert "domain ≤ 1, precisifications ≤ 1" in err
        assert main([*query, "--reasoner-cmd", "/nonexistent/reasoner"]) == 4
        assert main([*query, "--domain-bound", "1"]) == 0  # no reasoner left


@contextlib.contextmanager
def collector(enabled: bool):
    """The cyclic collector switched on or off, as it was afterwards."""
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was else gc.disable()


def pause_commands(tmp_path) -> list[list[str]]:
    """``translate`` of every fixture, of the seed-0 ladder rungs and of the
    seed-0 ingest document, and ``import`` with and without ``--translate``
    of every fixture pair and of the seed-0 ingest documents."""
    pairs = [[str(FIXTURES / name) for name in pair] for pair in sorted(IMPORT_SHA256)]
    ingest = [write(tmp_path, name, text) for name, text in gen.ingest_import(0)]
    rungs = [write(tmp_path, name, text) for name, text in gen.translate_ladder(0)]
    translated = [*(str(FIXTURES / name) for name in sorted(GOLDEN_SHA256)),
                  *rungs, ingest[0]]
    commands = [["translate", path, "--dump"] for path in translated]
    for pair in [*pairs, ingest]:
        imported = ["import", *pair, "--standpoint", "s", "--dump"]
        commands += [imported, [*imported, "--translate"]]
    return commands


class TestCollectorPause:
    """``main`` pauses the cyclic collector while a command runs, and hands
    the caller's collector back as it found it."""

    def test_translate_and_import_leave_no_cycles(self, tmp_path, capsys):
        commands = pause_commands(tmp_path)
        assert len(commands) == len(GOLDEN_SHA256) + 4 + 1 + 2 * (len(IMPORT_SHA256) + 1)
        gc.collect()
        gc.freeze()  # so each collection walks only what came after
        try:
            for argv in commands:
                with collector(False):
                    assert main(argv) == 0
                    assert gc.collect() == 0, argv
                capsys.readouterr()
        finally:
            gc.unfreeze()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_callers_state_is_restored(self, enabled, forest_path, capsys):
        query = ["query", forest_path, "--simple", "[LU](Forest sub Land)"]
        calls = {
            0: ["translate", forest_path, "--dump"],
            2: ["translate", "/nonexistent/path.ofn"],
            3: ["query", forest_path, "--simple", "[LC](Land sub Forest)",
                "--domain-bound", "1"],
            4: [*query, "--domain-bound", "3", "--guard-bits", "5"],
        }
        with collector(enabled):
            for code, argv in calls.items():
                assert main(argv) == code
                assert gc.isenabled() is enabled
            with pytest.raises(SystemExit):
                main(["translate", "--no-such-flag"])
            assert gc.isenabled() is enabled

    def test_the_collector_is_off_during_the_command(self, forest_path, monkeypatch,
                                                     capsys):
        seen = []

        def spy(kb, *args, **kwargs):
            seen.append(gc.isenabled())
            return translate_kb(kb, *args, **kwargs)

        monkeypatch.setattr(cli, "translate_kb", spy)
        with collector(True):
            assert main(["translate", forest_path, "--dump"]) == 0
            assert gc.isenabled()
        assert seen == [False]


class TestStreaming:
    """Documents go to their destination piece by piece as the serializer
    makes them: the bytes are those of ``serialize_kb`` or
    ``serialize_document``, memory holds one piece, not the document, and
    the destination is opened only once nothing can fail on the input."""

    @pytest.fixture
    def ladder(self, tmp_path):
        """Two generated documents: p = 10 and p = 30."""
        return [write(tmp_path, name, text) for name, text in gen.translate_ladder(0)[:2]]

    @pytest.mark.parametrize("command", [["translate"], ["import", "--standpoint", "s"],
                                         ["import", "--standpoint", "s", "--translate"]])
    def test_dump_out_and_serializer_agree(self, command, ladder, tmp_path, capsys,
                                           monkeypatch):
        argv = [command[0], *(ladder if command[0] == "import" else ladder[:1]),
                *command[1:]]
        seen = []
        for name in ("kb_pieces", "document_pieces"):
            pieces = getattr(cli, name)
            monkeypatch.setattr(cli, name,
                                lambda x, pieces=pieces: seen.append(x) or pieces(x))
        out = tmp_path / "out.ofn"
        assert main([*argv, "--out", str(out)]) == 0
        assert main([*argv, "--dump"]) == 0
        dumped = capsys.readouterr().out
        first, second = seen
        assert type(first) is type(second)
        joined = (serialize_kb(first) if isinstance(first, PlainKB)
                  else serialize_document(first))
        translated = "import" not in argv or "--translate" in argv
        assert isinstance(first, PlainKB) == translated
        assert out.read_text(encoding="utf-8") == dumped == joined

    def test_translate_holds_less_than_its_output(self, tmp_path, capsys):
        """The traced peak of a p = 80 translation stays below the size of
        the document it writes; holding the document as one string takes
        about four times that."""
        name, text = gen.translate_ladder(0)[3]
        path, out = write(tmp_path, name, text), tmp_path / "out.ofn"
        argv = ["translate", path, "--out", str(out)]
        assert main(argv) == 0  # loads what a first call loads
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err.startswith("p=80;")
        assert peak < out.stat().st_size

    KEEP = b"an existing file\x00\n"

    @pytest.mark.parametrize("existing", [True, False])
    @pytest.mark.parametrize("case", ["parse error", "rebase", "name collision"])
    def test_failed_run_leaves_the_destination_alone(self, case, existing, tmp_path,
                                                     capsys):
        good = write(tmp_path, "good.ofn",
                     "Prefix(:=<urn:g#>)\nOntology(<urn:g>\nSubClassOf(:A :B)\n)\n")
        named = ('SubClassOf(Annotation(:standpointLabel "<standpointAxiom '
                 'name=\\"\u00a7ax1\\"><Box><Standpoint name=\\"s\\"/></Box>'
                 '</standpointAxiom>") :A :B)')
        argv = {
            "parse error": ["translate", write(tmp_path, "bad.ofn", "Ontology(<urn:b>\n(")],
            "rebase": ["translate", good, "--rebase", "urn:x>y"],
            "name collision": ["import",
                               write(tmp_path, "a.ofn", f"Ontology(<urn:a>\n{named}\n)"),
                               write(tmp_path, "b.ofn", f"Ontology(<urn:b>\n{named}\n)"),
                               "--standpoint", "s"],
        }[case]
        out = tmp_path / "out.ofn"
        if existing:
            out.write_bytes(self.KEEP)
        before = sorted(os.listdir(tmp_path))
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(os.listdir(tmp_path)) == before
        assert out.read_bytes() == self.KEEP if existing else not out.exists()


class TestEveryConstructor:
    """`query` over a KB that uses every constructor the benchmark's query
    workloads leave out: ∀, an inverse role, a nominal, a number
    restriction, Self and a role chain."""

    QUERIES = ["[*]({a} sub B)", "[s](inverse r some A sub B)",
               "[*](r Self sub A)", "[*](A sub t only B)",
               "<s>(B sub r max 1 A)", "[*](B sub r max 1 A)",
               "[s](r some (t some B) sub r some B)",
               "[*](r some (t some B) sub t some B)",
               "[s](r some (t some B) sub t some B)"]

    def test_verdicts_match_the_translation(self, capsys):
        path = str(FIXTURES / "constructors.ofn")
        # inf switches the search guard off on purpose.
        codes = [main(["query", path, "--simple", q, "--domain-bound", "2",
                       "--prec-bound", "2", "--guard-bits", "inf"])
                 for q in self.QUERIES]
        assert codes == run.reference_verdicts(
            [{"path": path, "query": q, "domain_bound": 2, "prec_bound": 2}
             for q in self.QUERIES])
        assert set(codes) == {0, 3}


QUERY_TOKENS = ["[", "]", "<", ">", "(", ")", "{", "}", "*", "sub", "eq",
                "and", "or", "not", "some", "only", "min", "max", "exactly",
                "Self", "inverse", "0", "1", "2", "A", "Forest", "r", "a"]
CLASS_NAMES = ["A", "B", "Forest", "Land", "Accepted", "Draft", "Reviewed",
               "owl:Thing", "owl:Nothing", "{a}", "{paper1}", "Undeclared"]
ROLE_NAMES = ["r", "t", "hasLand", "cites", "influences", "inverse r"]
STANDPOINTS = ["*", "s", "LU", "LC", "BFO", "strict", "lenient", "other", ""]


def class_expressions():
    return st.recursive(
        st.sampled_from(CLASS_NAMES),
        lambda sub: st.one_of(
            st.builds("({} and {})".format, sub, sub),
            st.builds("({} or {})".format, sub, sub),
            st.builds("not {}".format, sub),
            st.builds("({} {} {})".format, st.sampled_from(ROLE_NAMES),
                      st.sampled_from(["some", "only", "min 1", "max 1",
                                       "exactly 2"]), sub),
            st.builds("({} Self)".format, st.sampled_from(ROLE_NAMES))),
        max_leaves=4)


def simple_queries():
    """Well-formed queries over the fixtures' names, and malformed ones."""
    def query(heads, body):
        head = st.builds(str.format, st.sampled_from(heads), st.sampled_from(STANDPOINTS))
        return st.builds("{}({} {} {})".format, head, body,
                         st.sampled_from(["sub", "eq"]), body)
    soup = st.lists(st.sampled_from(QUERY_TOKENS), max_size=6).map(" ".join)
    return st.one_of(query(["[{}]", "<{}>"], class_expressions()),
                     query(["[{}]", "<{}>", "[{}>", "{}"], st.one_of(class_expressions(), soup)),
                     soup, st.text(max_size=20))


FIXTURE_NAMES = sorted(p.name for p in FIXTURES.glob("*.ofn"))


def mutated_fixtures():
    """(name, text) of a fixture with one character replaced or deleted."""
    def mutate(data, name):
        text = (FIXTURES / name).read_text(encoding="utf-8")
        at = data.draw(st.integers(0, len(text) - 1))
        new = data.draw(st.one_of(st.just(""), st.sampled_from(sorted(set(text))),
                                  st.characters(max_codepoint=0x2ff)))
        return name, text[:at] + new + text[at + 1:]
    return st.builds(mutate, st.data(), st.sampled_from(FIXTURE_NAMES))


@settings(max_examples=300, deadline=None)
@given(mutated_fixtures(), simple_queries())
def test_query_exit_code_contract(tmp_path_factory, fixture, query):
    """Any one-character mutation of a fixture and any query string: the
    exit code is one of 0, 2, 3, 4 and stderr has no traceback (in process,
    an exception that escapes `main` fails the test as well)."""
    name, text = fixture
    path = tmp_path_factory.mktemp("mutated") / name
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["query", str(path), f"--simple={query}",
                     "--domain-bound", "1", "--prec-bound", "1"])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=300, deadline=None)
@given(mutated_fixtures(), st.sampled_from(FIXTURE_NAMES),
       st.sampled_from([["translate"], ["import", "--standpoint", "s"],
                        ["import", "--standpoint", "*", "--translate"]]),
       st.booleans())
def test_translate_and_import_exit_code_contract(tmp_path_factory, fixture, other,
                                                 command, source_mutated):
    """Any one-character mutation of a fixture, translated, or imported
    into an unmutated fixture or from one: the exit code is 0 or 2 and
    stderr has no traceback."""
    name, text = fixture
    path = tmp_path_factory.mktemp("mutated") / name
    path.write_text(text, encoding="utf-8")
    files = [str(path)]
    if command[0] == "import":
        files.append(str(FIXTURES / other))
        if source_mutated:
            files.reverse()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command[0], *files, *command[1:], "--dump"])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


def fake_reasoner(tmp_path, body):
    path = tmp_path / "reasoner.py"
    path.write_text(body, encoding="utf-8")
    return f"{sys.executable} {path}"


# A stand-in OWL reasoner: the bounded plain-model search on the translated
# document, at the domain bound given before the document's path.
STAND_IN_REASONER = """\
import sys
sys.path.insert(0, {src!r})
from standpoint_owl.frontend import parse_document
from standpoint_owl.model import PlainKB
from standpoint_owl.oracle import find_plain_model

bound, path = int(sys.argv[1]), sys.argv[2]
with open(path, encoding="utf-8") as handle:
    axioms = tuple(ax for ax, _ in parse_document(handle.read()).axioms)
model = find_plain_model(PlainKB(axioms), bound, guard_bits=float("inf"))
print("inconsistent" if model is None else "consistent")
"""


class TestExternalReasoner:
    @pytest.mark.parametrize("fixture, query, verdict", [
        ("constructors.ofn", "[*]({a} sub B)", 3),
        ("constructors.ofn", "[s](inverse r some A sub B)", 0),
        ("constructors.ofn", "[*](B sub r max 1 A)", 3),
        ("constructors.ofn", "[s](r some (t some B) sub t some B)", 0),
        ("forest.ofn", "[LU](Forest sub Land)", 0),
        ("forest.ofn", "<LC>(Forest sub Forest)", 3),
        ("forest.ofn", "[LU](Forest sub ForestEcosystem)", 3),
        ("forest.ofn", "[BFO](Land and Ecosystem sub owl:Nothing)", 0)])
    def test_stand_in_reasoner_agrees_with_the_oracle(self, fixture, query, verdict,
                                                      tmp_path, capsys):
        src = os.path.dirname(os.path.dirname(standpoint_owl.__file__))
        cmd = fake_reasoner(tmp_path, STAND_IN_REASONER.format(src=src)) + " 2"
        args = ["query", str(FIXTURES / fixture), "--simple", query,
                "--domain-bound", "2"]
        assert main([*args, "--reasoner-cmd", cmd]) == verdict
        assert main([*args, "--guard-bits", "inf"]) == verdict

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
        query = "[LU](Forest sub Land)"
        main(["query", forest_path, "--simple", query, "--reasoner-cmd", cmd])
        doc = parse_document(echo.read_text(encoding="utf-8"))
        assert any(True for _ in doc.axioms)
        # the streamed document is the translation of the negated query
        source = parse_document((tmp_path / "forest.ofn").read_text(encoding="utf-8"))
        negated = negated_query_kb(assemble_kb(source),
                                   parse_simple_query(query, source.default_namespace))
        assert echo.read_text(encoding="utf-8") == serialize_kb(translate_kb(negated))

    def test_timeout_stops_the_reasoner(self, forest_path, tmp_path, capsys, monkeypatch):
        seen, inputs = tmp_path / "seen.txt", tmp_path / "inputs"
        inputs.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(inputs))  # the reasoner's input
        cmd = fake_reasoner(tmp_path,
                            "import os, time\n"
                            f"with open({str(seen)!r}, 'w') as h:\n"
                            "    h.write(str(os.getpid()))\n"
                            "time.sleep(120)\n"
                            "print('consistent')\n")
        start = time.monotonic()
        assert main(["query", forest_path, "--simple", "[LU](Forest sub Land)",
                     "--reasoner-cmd", cmd, "--reasoner-timeout", "0.5"]) == 4
        assert time.monotonic() - start < 60
        assert capsys.readouterr().err.endswith("reasoner timed out after 0.5 s\n")
        assert os.listdir(inputs) == []
        # On a loaded host the limit may pass before the stand-in starts.
        if seen.exists():
            with pytest.raises(ProcessLookupError):  # killed and reaped
                os.kill(int(seen.read_text(encoding="utf-8")), 0)

    @pytest.mark.parametrize("limit", ["30", "inf"])
    def test_reasoner_within_the_timeout_decides(self, forest_path, tmp_path, limit):
        cmd = fake_reasoner(tmp_path, "print('inconsistent')\n")
        assert main(["query", forest_path, "--simple", "[LU](Forest sub Land)",
                     "--reasoner-cmd", cmd, "--reasoner-timeout", limit]) == 0

    @pytest.mark.parametrize("limit", ["0", "-1", "nan"])
    def test_bad_timeout_is_a_usage_error(self, forest_path, tmp_path, limit, capsys):
        cmd = fake_reasoner(tmp_path, "print('inconsistent')\n")
        assert main(["query", forest_path, "--simple", "[LU](Forest sub Land)",
                     "--reasoner-cmd", cmd, "--reasoner-timeout", limit]) == 2
        assert capsys.readouterr().err == (
            "error: --reasoner-timeout must be a positive number of seconds, "
            f"got {float(limit):g}\n")

    def test_timeout_without_a_reasoner_is_a_usage_error(self, forest_path, capsys):
        assert main(["query", forest_path, "--simple", "[LU](Forest sub Land)",
                     "--reasoner-timeout", "5"]) == 2
        err = capsys.readouterr().err
        assert err == "error: --reasoner-timeout needs --reasoner-cmd\n"

    def test_garbage_verdict(self, forest_path, tmp_path):
        cmd = fake_reasoner(tmp_path, "print('maybe?')\n")
        assert main(["query", forest_path, "--simple", "[LU](Forest sub Land)",
                     "--reasoner-cmd", cmd]) == 4

    def test_crash(self, forest_path, tmp_path):
        cmd = fake_reasoner(tmp_path, "raise SystemExit(9)\n")
        assert main(["query", forest_path, "--simple", "[LU](Forest sub Land)",
                     "--reasoner-cmd", cmd]) == 4

    def test_output_that_is_not_utf8_is_an_unrecognised_verdict(self, forest_path,
                                                                 tmp_path, capsys):
        cmd = fake_reasoner(tmp_path, "import sys\n"
                                      "sys.stdout.buffer.write(b'\\xff\\xfeconsistent\\n')\n")
        assert main(["query", forest_path, "--simple", "[LU](Forest sub Land)",
                     "--reasoner-cmd", cmd]) == 4
        assert "unrecognised reasoner verdict" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ['"unbalanced', "", " "])
    def test_unusable_command_is_a_usage_error(self, forest_path, command, capsys):
        code = main(["query", forest_path, "--simple", "[*](Land sub Land)",
                     "--reasoner-cmd", command])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: --reasoner-cmd")


class TestStartup:
    def test_cli_import_loads_no_dataclasses_inspect_or_subprocess(self):
        """Every command pays for what importing the CLI module loads.
        ``dataclasses`` (which loads ``inspect``) is not used, and
        ``subprocess`` only by --reasoner-cmd.  Modules that a bare
        interpreter loads, such as those its site hook imports, are
        subtracted, so the environment cannot trip the check."""
        package_root = os.path.dirname(os.path.dirname(standpoint_owl.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))

        def loaded(statement: str) -> set[str]:
            proc = subprocess.run(
                [sys.executable, "-c",
                 f"{statement}\nimport sys\nprint(*sys.modules, sep='\\n')"],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": path})
            return set(proc.stdout.split())

        added = loaded("import standpoint_owl.cli") - loaded("pass")
        assert "standpoint_owl.cli" in added
        assert not added & {"dataclasses", "inspect", "subprocess"}
