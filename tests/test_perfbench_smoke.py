"""Smoke test of the benchmark harness: its generated query inputs run
through the CLI and agree with the harness's own reference verdicts, and
its generated documents translate to the bytes of their axioms."""

import sys
from pathlib import Path

import pytest

from standpoint_owl import cli
from standpoint_owl.cli import main
from standpoint_owl.model import PlainKB
from standpoint_owl.serializer import serialize_kb

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench/gen.py)
import run  # noqa: E402  (perfbench/run.py)


@pytest.mark.parametrize("workload", ["query-standpoints", "query-domain"])
def test_first_kb_verdicts_match_reference(workload, tmp_path, capsys):
    ops, queries = run.build_plan(workload, 0, tmp_path)
    first = [(op, q) for op, q in zip(ops, queries)
             if op["id"].startswith("query:kb0.ofn:")]
    assert first
    codes = [main(op["argv"]) for op, _ in first]
    assert codes == run.reference_verdicts([q for _, q in first])


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
