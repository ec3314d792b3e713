"""Smoke test of the benchmark harness: its generated query inputs run
through the CLI and agree with the harness's own reference verdicts, its
traced replay imports and exits as the CLI does, and its generated
documents translate to the bytes of their axioms and assemble with one
parse per distinct label literal."""

import sys
from pathlib import Path

import pytest

from standpoint_owl import cli
from standpoint_owl.cli import main
from standpoint_owl.frontend import assemble_kb, parse_document
from standpoint_owl.model import EntityName, PlainKB, iter_nodes
from standpoint_owl.serializer import serialize_kb

from conftest import assembled_label_by_label, label_literals

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench/gen.py)
import replay  # noqa: E402  (perfbench/replay.py)
import run  # noqa: E402  (perfbench/run.py)
import spans  # noqa: E402  (perfbench/spans.py)


@pytest.mark.parametrize("workload", ["query-standpoints", "query-domain"])
def test_first_kb_verdicts_match_reference(workload, tmp_path, capsys):
    ops, queries = run.build_plan(workload, 0, tmp_path)
    first = [(op, q) for op, q in zip(ops, queries)
             if op["id"].startswith("query:kb0.ofn:")]
    assert first
    codes = [main(op["argv"]) for op, _ in first]
    assert codes == run.reference_verdicts([q for _, q in first])


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_the_traced_replay_exits_as_the_cli_does(workload, tmp_path, capsys):
    """The benchmark's child imports the replay at start-up, so a name the
    replay imports from the package must stay; its first op of each
    workload's seed-0 plan, replayed under the tracer, exits as the CLI
    does and records spans."""
    ops, _ = run.build_plan(workload, 0, tmp_path)
    with spans.Tracer() as tracer:
        traced = replay.traced_pass(ops[:1], tracer)
    assert traced["codes"] == [main(ops[0]["argv"])]
    assert traced["spans"][1] > traced["spans"][0]


@pytest.fixture(scope="module")
def documents():
    return dict(gen.translate_ladder(0) + gen.ingest_import(0))


@pytest.mark.parametrize("name", ["ladder0.ofn", "ladder1.ofn", "ladder2.ofn",
                                  "ladder3.ofn", "main.ofn"])
def test_documents_translate_as_one_axiom_at_a_time(name, documents, tmp_path,
                                                    capsys, monkeypatch):
    """The CLI's output equals its translation rendered one axiom at a
    time, and the count it reports is the number of those axioms."""
    translated, translate_kb = [], cli.translate_kb

    def recording_translate_kb(*args, **kwargs):
        translated.append(translate_kb(*args, **kwargs))
        return translated[-1]

    path = tmp_path / name
    path.write_text(documents[name], encoding="utf-8")
    monkeypatch.setattr(cli, "translate_kb", recording_translate_kb)
    assert main(["translate", str(path), "--dump"]) == 0
    monkeypatch.undo()
    out, err = capsys.readouterr()
    [plain] = translated
    assert out == serialize_kb(PlainKB(plain.axioms, plain.signature, plain.base_iri))
    assert err.endswith(f"; axioms={len(plain.axioms)}\n")


@pytest.fixture(scope="module")
def merged_document(documents, tmp_path_factory):
    """The document that ``import`` assembles from the seed-0 ingest-import
    inputs, as the benchmark runs it."""
    work = tmp_path_factory.mktemp("ingest")
    paths = []
    for name in ("main.ofn", "source.ofn"):
        paths.append(work / name)
        paths[-1].write_text(documents[name], encoding="utf-8")
    merged = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "assemble_kb", lambda doc: merged.append(doc) or assemble_kb(doc))
        assert main(["import", *map(str, paths), "--standpoint", run.IMPORT_STANDPOINT,
                     "--out", str(work / "merged.out")]) == 0
    return merged[0]


@pytest.mark.parametrize("name", ["ladder0.ofn", "ladder1.ofn", "ladder2.ofn",
                                  "ladder3.ofn", "main.ofn", "merged"])
def test_documents_assemble_as_label_by_label(name, documents, merged_document):
    doc = merged_document if name == "merged" else parse_document(documents[name])
    assert assemble_kb(doc) == assembled_label_by_label(doc)


def test_merged_document_parses_each_literal_once(merged_document, label_parses):
    assemble_kb(merged_document)
    literals = label_literals(merged_document)
    assert (len(literals), len(label_parses)) == (1503, 46)
    assert sorted(label_parses) == sorted(set(literals))


def test_equal_names_are_one_object(documents):
    doc = parse_document(documents["main.ofn"])
    names = [d.name for d in doc.declarations]
    names += [n for axiom, _ in doc.axioms for n in iter_nodes(axiom)
              if type(n) is EntityName]
    assert len({id(n) for n in names}) == len(set(names)) == 183
