"""Benchmark of the standpoint-owl command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S      # every workload, one table

Run from the repository root.  For one workload the benchmark:

1. generates the inputs from the seed (``gen.py``) under ``.perfbench/``;
2. times ``python3 -c "import standpoint_owl.cli"`` several times
   (``setup_s``, the start-up every CLI call pays);
3. runs the workload's CLI operations in a closed loop in one child
   process (``child.py``), in process, for the given seconds;
   every timing is taken next to a reference loop (``calib.py``) and the
   gated times are scaled to a fixed host speed, because the speed of a
   shared host drifts more than any bound a change could be held to; the
   unscaled wall times are printed in the table beside them;
4. checks every result outside the timed region: exit codes, every
   emitted document parses back, the smallest input reaches the
   serialisation fixed point, and every query verdict equals the answer of
   the independent translation path (``translate_kb`` plus
   ``find_plain_model`` on the negated-query KB at the same bounds);
5. prints a table of every metric with its unit and direction, then, as
   the last line, one JSON object with ``correct``, ``attempted``,
   ``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
   per-layer metrics with ``--trace 1``).

The exit status is 0 only when every check passed.  Output digests are
compared with ``digests.json`` and only reported; refresh that table with
``--record-digests`` when a change alters the output on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import gen

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = BENCH / "digests.json"

SETUP_RUNS = 15
SETUP_BLOCKS = 8
# The workload process runs for the given seconds plus set-up and one
# unmeasured warm-up call.
CHILD_GRACE_S = 120
DIGEST_SEEDS = range(21)
IMPORT_STANDPOINT = "ext"

# name: (unit, better, in the JSON result).  Metrics marked False apply to
# some workloads only, or are 0 by design, so they are printed in the table
# but not gated.
END_TO_END = {
    "setup_s": ("s", "lower", True),
    "run_s": ("s", "lower", True),
    "op_s_p50": ("s", "lower", True),
    "op_s_p90": ("s", "lower", True),
    "peak_rss_mb": ("MB", "lower", True),
    "decided_share": ("ratio", "higher", True),
    "setup_wall_s": ("s", "lower", False),
    "run_wall_s": ("s", "lower", False),
    "block_us": ("us", "none", False),
    "op_samples": ("count", "none", False),
    "out_axioms": ("count", "none", False),
    "out_bytes": ("bytes", "lower", False),
    "out_axioms_per_s": ("1/s", "higher", False),
    "entailed_s_p50": ("s", "lower", False),
    "refuted_s_p50": ("s", "lower", False),
    "failed_share": ("ratio", "lower", False),
    "digest_mismatches": ("count", "none", False),
}
LAYERS = ("cli", "frontend", "model", "normalizer", "translator", "serializer", "oracle")
# Self times in seconds, as measured (not scaled); a layer that a workload
# never enters reads 0 there.  Every layer also reports its share of the
# traced operation time.
PER_LAYER = {
    "frontend.parse_s": ("s", "lower"),
    "frontend.parse_mb_per_s": ("MB/s", "higher"),
    "frontend.assemble_s": ("s", "lower"),
    "frontend.query_s": ("s", "lower"),
    "model.validate_roles_s": ("s", "lower"),
    "model.rebase_s": ("s", "lower"),
    "normalizer.normalize_s": ("s", "lower"),
    "translator.translate_s": ("s", "lower"),
    "translator.gc_s": ("s", "lower"),
    "translator.gc_collections": ("count", "lower"),
    "serializer.serialize_kb_s": ("s", "lower"),
    "serializer.serialize_document_s": ("s", "lower"),
    "serializer.out_mb_per_s": ("MB/s", "higher"),
    "oracle.search_s": ("s", "lower"),
    "oracle.entailed_search_s": ("s", "lower"),
    "oracle.refuted_search_s": ("s", "lower"),
    "oracle.gc_s": ("s", "lower"),
    "cli.glue_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    **{f"{layer}.self_pct": ("%", "lower") for layer in LAYERS},
}


def child_env() -> dict:
    # A fixed hash seed keeps set iteration order, and so the search order
    # inside the program, the same from run to run.
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def build_plan(workload: str, seed: int, work: Path) -> tuple[list[dict], list[dict]]:
    """Write the seed's input files; return (operations, query metadata)."""
    def write(name: str, text: str) -> str:
        path = work / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def op(op_id: str, argv: list[str], out: str | None) -> dict:
        return {"id": op_id, "argv": argv + (["--out", out] if out else []), "out": out}

    if workload == "translate-ladder":
        return [op(f"translate:{name}", ["translate", write(name, text)],
                   str(work / f"{name}.out"))
                for name, text in gen.translate_ladder(seed)], []
    if workload == "ingest-import":
        main, source = (write(name, text) for name, text in gen.ingest_import(seed))
        imp = ["import", main, source, "--standpoint", IMPORT_STANDPOINT]
        return [op("import:merge", imp, str(work / "merged.out")),
                op("import:translate", imp + ["--translate"], str(work / "imported.out")),
                op("translate:main", ["translate", main], str(work / "main.out"))], []
    ops, queries = [], []
    for kb in gen.query_kbs(workload, seed):
        path = write(kb["file"], kb["text"])
        for k, q in enumerate(kb["queries"]):
            queries.append(dict(q, path=path))
            ops.append(op(f"query:{kb['file']}:{k}", [
                "query", path, "--simple", q["query"],
                "--domain-bound", str(q["domain_bound"]),
                "--prec-bound", str(q["prec_bound"]),
                "--guard-bits", str(q["guard_bits"])], None))
    return ops, queries


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_setup() -> tuple[float, float]:
    """Median time of a fresh interpreter importing the CLI module, scaled
    to the reference speed by reference blocks timed just before and after
    each start, and the unscaled median wall time.  One unmeasured start
    compiles the bytecode first."""
    argv = [sys.executable, "-c", "import standpoint_owl.cli"]
    scaled, walls = [], []
    for i in range(SETUP_RUNS + 1):
        before = [calib.timed_block() for _ in range(SETUP_BLOCKS)]
        started = time.perf_counter()
        subprocess.run(argv, env=child_env(), cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        wall = time.perf_counter() - started
        after = [calib.timed_block() for _ in range(SETUP_BLOCKS)]
        if i:
            walls.append(wall)
            scaled.append(calib.scaled(wall, statistics.mean(before + after)))
    return statistics.median(scaled), statistics.median(walls)


def run_child(ops: list[dict], seconds: float, trace: bool, work: Path) -> dict:
    plan, result = work / "plan.json", work / "result.json"
    plan.write_text(json.dumps({"ops": ops, "seconds": seconds, "trace": trace}),
                    encoding="utf-8")
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(plan), str(result)],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=seconds + CHILD_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# Correctness (outside the timed region)
# ---------------------------------------------------------------------------

def reference_verdicts(queries: list[dict]) -> list[int]:
    """Expected exit code per query from the translation path: 3 when the
    translated negated-query KB has a model within the bounds, else 0."""
    from standpoint_owl.frontend import assemble_kb, parse_document, parse_simple_query
    from standpoint_owl.model import Negation, make_kb
    from standpoint_owl.normalizer import normalize_kb
    from standpoint_owl.oracle import find_plain_model
    from standpoint_owl.translator import translate_kb

    loaded: dict = {}
    out = []
    for q in queries:
        if q["path"] not in loaded:
            doc = parse_document(Path(q["path"]).read_text(encoding="utf-8"))
            loaded[q["path"]] = (doc, assemble_kb(doc))
        doc, kb = loaded[q["path"]]
        query = parse_simple_query(q["query"], doc.default_namespace)
        negated = normalize_kb(make_kb(
            rias=kb.rias, plain_axioms=kb.plain_axioms,
            formulas=tuple(kb.formulas) + (Negation(query),),
            named_axioms=kb.named_axioms, base_iri=kb.base_iri, declared=kb.signature))
        plain = translate_kb(negated, p=q["prec_bound"])
        model = find_plain_model(plain, q["domain_bound"], guard_bits=math.inf)
        out.append(3 if model is not None else 0)
    return out


def check_outputs(ops: list[dict]) -> dict:
    """Parse every emitted document back; count its axioms and bytes and
    take its sha256."""
    from standpoint_owl.errors import StandpointOwlError
    from standpoint_owl.frontend import parse_document

    info = {}
    for op in ops:
        if not op["out"]:
            continue
        try:
            text = Path(op["out"]).read_text(encoding="utf-8")
            axioms = len(parse_document(text).axioms)
        except (OSError, StandpointOwlError) as exc:
            info[op["id"]] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        data = text.encode("utf-8")
        info[op["id"]] = {"axioms": axioms, "bytes": len(data),
                          "sha256": hashlib.sha256(data).hexdigest()}
    return info


def fixed_point(path: str) -> bool:
    """Criterion 6 on one input: serialize(assemble(parse(x))) is stable."""
    from standpoint_owl.errors import StandpointOwlError
    from standpoint_owl.frontend import assemble_kb, parse_document
    from standpoint_owl.serializer import serialize_kb

    def once(text: str) -> str:
        return serialize_kb(assemble_kb(parse_document(text)))

    try:
        first = once(Path(path).read_text(encoding="utf-8"))
        return once(first) == first
    except StandpointOwlError:
        return False


def file_digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(ops, expected, result, outputs, setup, recorded) -> dict:
    passes = result["passes"]
    # Each operation's latency is its median over the passes, which damps
    # bursts of machine noise; the percentiles run over the operations and
    # a pass takes the sum of the latencies.
    latency, wall = {}, {}
    for i, op in enumerate(ops):
        latency[op["id"]] = statistics.median(
            calib.scaled(p["walls"][i], p["blocks"][i]) for p in passes)
        wall[op["id"]] = statistics.median(p["walls"][i] for p in passes)
    times = list(latency.values())
    run_s = sum(times)
    by_kind: dict[int, list[float]] = {0: [], 3: []}
    for op_id, t in latency.items():
        if op_id.startswith("query:") and expected[op_id] in by_kind:
            by_kind[expected[op_id]].append(t)
    codes = result["codes"]
    decided = sum(1 for op in ops if set(codes[op["id"]]["codes"]) <= {0, 3})
    out_axioms = sum(o.get("axioms", 0) for o in outputs.values())
    return {
        "setup_s": setup[0],
        "run_s": run_s,
        "op_s_p50": statistics.median(times),
        "op_s_p90": quantile(times, 90),
        "peak_rss_mb": result["peak_rss_mb"],
        "decided_share": decided / len(times),
        "setup_wall_s": setup[1],
        "run_wall_s": sum(wall.values()),
        "block_us": 1e6 * statistics.median(b for p in passes for b in p["blocks"]),
        "op_samples": len(times) * len(passes),
        "out_axioms": out_axioms,
        "out_bytes": sum(o.get("bytes", 0) for o in outputs.values()),
        "out_axioms_per_s": out_axioms / run_s,
        "entailed_s_p50": statistics.median(by_kind[0]) if by_kind[0] else 0.0,
        "refuted_s_p50": statistics.median(by_kind[3]) if by_kind[3] else 0.0,
        "digest_mismatches": sum(1 for k, v in recorded.items()
                                 if outputs.get(k, {}).get("sha256") != v),
    }


def per_layer(result: dict) -> dict:
    from spans import GC0, GC_S, NAME, self_times

    spans = result["spans"]
    own = self_times(spans)
    rows = []
    for traced in result["traced"]:
        first, last = traced["spans"]
        self_s: dict[str, float] = {}
        gc_s: dict[str, float] = {}
        gc0: dict[str, int] = {}
        for i in range(first, last):
            name = spans[i][NAME]
            self_s[name] = self_s.get(name, 0.0) + own[i]
            layer = name.split(".")[0]
            gc_s[layer] = gc_s.get(layer, 0.0) + spans[i][GC_S]
            gc0[layer] = gc0.get(layer, 0) + spans[i][GC0]
        total = sum(traced["walls"])
        c = traced["counts"]

        def s(*names):
            return sum(self_s.get(n, 0.0) for n in names)

        def mb_per_s(count, *names):
            busy = s(*names)
            return c[count] / 1e6 / busy if busy > 0 else 0.0

        row = {
            "frontend.parse_s": s("frontend.parse"),
            "frontend.parse_mb_per_s": mb_per_s("parse_bytes", "frontend.parse"),
            "frontend.assemble_s": s("frontend.assemble"),
            "frontend.query_s": s("frontend.query"),
            "model.validate_roles_s": s("model.validate_roles"),
            "model.rebase_s": s("model.rebase"),
            "normalizer.normalize_s": s("normalizer.normalize"),
            "translator.translate_s": s("translator.translate"),
            "translator.gc_s": gc_s.get("translator", 0.0),
            "translator.gc_collections": gc0.get("translator", 0),
            "serializer.serialize_kb_s": s("serializer.serialize_kb"),
            "serializer.serialize_document_s": s("serializer.serialize_document"),
            "serializer.out_mb_per_s": mb_per_s("out_bytes", "serializer.serialize_kb",
                                                "serializer.serialize_document"),
            "oracle.search_s": s("oracle.entailed_search", "oracle.refuted_search",
                                 "oracle.undecided_search"),
            "oracle.entailed_search_s": s("oracle.entailed_search"),
            "oracle.refuted_search_s": s("oracle.refuted_search"),
            "oracle.gc_s": gc_s.get("oracle", 0.0),
            "cli.glue_s": s("cli"),
        }
        for layer in LAYERS:
            busy = sum(v for n, v in self_s.items() if n.split(".")[0] == layer)
            row[f"{layer}.self_pct"] = 100 * busy / total
        rows.append(row)
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    out["trace.overhead_s"] = (statistics.median(sum(t["walls"]) for t in result["traced"])
                               - statistics.median(sum(p["walls"]) for p in result["passes"]))
    return out


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate, measure and check one workload; returns the result line's
    fields plus units, problems found and pass counts for the table."""
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops, queries = build_plan(workload, seed, work)
        setup = None if trace else measure_setup()
        result = run_child(ops, seconds, trace, work)

        expected = {op["id"]: 0 for op in ops}
        query_ops = [op for op in ops if op["id"].startswith("query:")]
        for op, verdict in zip(query_ops, reference_verdicts(queries)):
            expected[op["id"]] = verdict
        outputs = check_outputs(ops)
        problems = {}
        for op in ops:
            seen = result["codes"][op["id"]]
            # An inconclusive query (exit 4) is undecided, not wrong.
            allowed = {expected[op["id"]], 4} if op["id"].startswith("query:") else {0}
            if not set(seen["codes"]) <= allowed:
                problems[op["id"]] = (f"exit {seen['codes']}, expected {expected[op['id']]}: "
                                      f"{seen['stderr'].strip()[-500:]}")
            elif "error" in outputs.get(op["id"], {}):
                problems[op["id"]] = "output does not parse: " + outputs[op["id"]]["error"]
        if trace:
            for traced in result["traced"]:
                for op, code in zip(ops, traced["codes"]):
                    if code not in result["codes"][op["id"]]["codes"]:
                        problems[op["id"]] = f"traced replay exited {code}"
            for op in ops:
                if op["out"] and file_digest(op["out"] + ".replay") != file_digest(op["out"]):
                    problems[op["id"]] = "traced replay wrote a different document"
        fixed_ok = workload != "translate-ladder" or fixed_point(ops[0]["argv"][1])
        if not fixed_ok:
            problems["fixed-point"] = "smallest ladder input misses the serialisation fixed point"

        passes = len(result["passes"])
        attempted = passes * len(ops)
        failed = passes * sum(1 for k in problems if k in expected)
        recorded = {}
        if not trace and DIGESTS.is_file():
            table = json.loads(DIGESTS.read_text(encoding="utf-8"))
            recorded = table.get(workload, {}).get(str(seed), {})
        if trace:
            metrics = per_layer(result)
            units = {k: v[0] for k, v in PER_LAYER.items()}
        else:
            metrics = end_to_end(ops, expected, result, outputs, setup, recorded)
            metrics["failed_share"] = failed / attempted
            units = {k: v[0] for k, v in END_TO_END.items()}
        if trace:
            WORK.mkdir(exist_ok=True)
            from spans import to_json
            (WORK / f"trace-{workload}-{seed}.json").write_text(json.dumps(
                {"workload": workload, "seed": seed, "ops": [op["id"] for op in ops],
                 "traced": result["traced"], "spans": to_json(result["spans"])}),
                encoding="utf-8")
        return {"correct": not problems, "attempted": attempted, "failed": failed,
                "metrics": metrics, "units": units, "problems": problems,
                "passes": passes, "ops": len(ops), "recorded": bool(recorded)}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def record_digests() -> None:
    """Store the sha256 of every emitted document for DIGEST_SEEDS."""
    from child import run_cli

    table: dict = {}
    for workload in ("translate-ladder", "ingest-import"):
        for seed in DIGEST_SEEDS:
            work = WORK / f"digests-{os.getpid()}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                ops, _ = build_plan(workload, seed, work)
                row = {}
                for op in ops:
                    code, err = run_cli(op["argv"])
                    if code != 0:
                        raise SystemExit(f"{workload} seed {seed} {op['id']}: exit {code}\n{err}")
                    row[op["id"]] = file_digest(op["out"])
                table.setdefault(workload, {})[str(seed)] = row
            finally:
                shutil.rmtree(work, ignore_errors=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def print_table(results: dict[str, dict], trace: bool) -> None:
    names = list(results)
    print("metric".ljust(34) + "unit".ljust(8) + "better".ljust(8)
          + "".join(n.rjust(20) for n in names))
    first = results[names[0]]
    for metric, unit in first["units"].items():
        better = (PER_LAYER if trace else END_TO_END)[metric][1]
        cells = "".join(f"{results[n]['metrics'][metric]:20.6g}" for n in names)
        print(metric.ljust(34) + unit.ljust(8) + better.ljust(8) + cells)
    for name, r in results.items():
        print(f"# {name}: {r['passes']} pass(es) x {r['ops']} operations, "
              f"{r['attempted']} attempted, {r['failed']} failed"
              + ("" if trace or r["recorded"] else "; no recorded digests for this seed"))
        for op_id, problem in r["problems"].items():
            print(f"#   FAILED {op_id}: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS),
                        help="one workload (default: all, table only)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"rewrite {DIGESTS.name} from this checkout and exit")
    args = parser.parse_args()
    if not (SRC / "standpoint_owl" / "cli.py").is_file():
        print(f"error: the program is missing ({SRC / 'standpoint_owl'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_digests:
        record_digests()
        return 0

    workloads = [args.workload] if args.workload else list(gen.WORKLOADS)
    results, errors = {}, []
    for w in workloads:
        try:
            results[w] = run_workload(w, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.SubprocessError) as exc:
            errors.append(w)
            print(f"error: {w}: {exc}", file=sys.stderr)
    if results:
        print_table(results, bool(args.trace))
    ok = not errors and all(r["correct"] for r in results.values())
    if args.workload and not errors:
        r = results[args.workload]
        metrics = {k: {"value": r["metrics"][k], "unit": unit}
                   for k, unit in r["units"].items()
                   if args.trace or END_TO_END[k][2]}
        print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                          "failed": r["failed"], "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
