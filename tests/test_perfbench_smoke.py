"""Smoke test of the benchmark harness: its generated query inputs run
through the CLI and agree with the harness's own reference verdicts."""

import sys
from pathlib import Path

import pytest

from standpoint_owl.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402  (perfbench/run.py)


@pytest.mark.parametrize("workload", ["query-standpoints", "query-domain"])
def test_first_kb_verdicts_match_reference(workload, tmp_path, capsys):
    ops, queries = run.build_plan(workload, 0, tmp_path)
    first = [(op, q) for op, q in zip(ops, queries)
             if op["id"].startswith("query:kb0.ofn:")]
    assert first
    codes = [main(op["argv"]) for op, _ in first]
    assert codes == run.reference_verdicts([q for _, q in first])
