"""Stage-by-stage replay of the CLI commands under spans.

Each function repeats what one ``standpoint_owl.cli`` command does, but
calls each layer's public function inside a span named after the layer, so
the per-layer self times can be read off the trace.  The root span of an
operation (``cli``) keeps what is left: argument parsing, file reading and
writing.  The replay writes its document next to the CLI's output (suffix
``.replay``); the benchmark fails the traced run if the two differ, or if a
replayed query exits differently, because then the trace would describe
different work.
"""

from __future__ import annotations

import gc
import time

from standpoint_owl.cli import build_parser
from standpoint_owl.frontend import (assemble_kb, parse_document,
                                     parse_simple_query)
from standpoint_owl.frontend.functional import (Annotation, Declaration,
                                                RawDocument)
from standpoint_owl.model import (Negation, Ria, make_kb, rebase_names,
                                  validate_roles)
from standpoint_owl.normalizer import count_precisifications, normalize_kb
from standpoint_owl.oracle import (ENTAILED_WITHIN_BOUNDS, NOT_ENTAILED,
                                   check_entailment_bounded)
from standpoint_owl.serializer import serialize_document, serialize_kb
from standpoint_owl.translator import translate_kb

from spans import NAME

# Work counted per traced pass, next to the spans.
COUNTERS = ("parse_bytes", "out_bytes")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


class _Op:
    def __init__(self, tracer, op_id: str, counts: dict):
        self.tracer, self.op_id, self.counts = tracer, op_id, counts

    def span(self, name: str):
        return self.tracer.span(name, self.op_id)

    def load(self, path: str):
        text = _read(path)
        self.counts["parse_bytes"] += len(text.encode("utf-8"))
        with self.span("frontend.parse"):
            doc = parse_document(text)
        return doc

    def assemble(self, doc):
        with self.span("frontend.assemble"):
            kb = assemble_kb(doc)
        with self.span("model.validate_roles"):
            validate_roles(kb)
        return kb

    def translate(self, kb, rebase) -> str:
        with self.span("normalizer.normalize"):
            kb = normalize_kb(kb)
            count_precisifications(kb)
        with self.span("translator.translate"):
            plain = translate_kb(kb, base_iri=rebase if rebase else None)
        with self.span("serializer.serialize_kb"):
            text = serialize_kb(plain)
        self.counts["out_bytes"] += len(text.encode("utf-8"))
        return text


def _translate(op: _Op, args, out: str) -> int:
    kb = op.assemble(op.load(args.input))
    _write(out, op.translate(kb, args.rebase))
    return 0


def _import(op: _Op, args, out: str) -> int:
    doc_in = op.load(args.input)
    doc_src = op.load(args.source)
    with op.span("model.rebase"):
        token = "STAR" if args.standpoint == "*" else args.standpoint
        ns = f"{doc_in.base_iri}/imported/{token}#"
        declarations = list(doc_in.declarations)
        declarations += [Declaration(d.kind, rebase_names(d.name, ns))
                         for d in doc_src.declarations]
        box = Annotation("", "standpointLabel",
                         f'<standpointAxiom><Box><Standpoint name="{args.standpoint}"/>'
                         f"</Box></standpointAxiom>")
        axioms = list(doc_in.axioms)
        for axiom, annotations in doc_src.axioms:
            rebased = rebase_names(axiom, ns)
            axioms.append((rebased, ()) if isinstance(rebased, Ria)
                          else (rebased, tuple(annotations) + (box,)))
        merged = RawDocument(base_iri=doc_in.base_iri, prefixes=doc_in.prefixes,
                             ontology_annotations=doc_in.ontology_annotations,
                             declarations=tuple(declarations), axioms=tuple(axioms))
    kb = op.assemble(merged)
    if args.translate:
        _write(out, op.translate(kb, None))
        return 0
    with op.span("serializer.serialize_document"):
        text = serialize_document(merged)
    op.counts["out_bytes"] += len(text.encode("utf-8"))
    _write(out, text)
    return 0


def _query(op: _Op, args, out: str) -> int:
    doc = op.load(args.input)
    kb = op.assemble(doc)
    with op.span("frontend.query"):
        query = parse_simple_query(args.simple, doc.default_namespace)
    with op.span("model.make_kb"):
        with_negation = make_kb(rias=kb.rias, plain_axioms=kb.plain_axioms,
                                formulas=tuple(kb.formulas) + (Negation(query),),
                                named_axioms=kb.named_axioms, base_iri=kb.base_iri,
                                declared=kb.signature)
    with op.span("normalizer.normalize"):
        p = count_precisifications(normalize_kb(with_negation))
    prec_bound = args.prec_bound if args.prec_bound is not None else p
    with op.span("oracle.search") as span:
        result = check_entailment_bounded(kb, query, args.domain_bound, prec_bound,
                                          guard_bits=args.guard_bits)
    if result.status == ENTAILED_WITHIN_BOUNDS:
        span[NAME] = "oracle.entailed_search"
        return 0
    if result.status == NOT_ENTAILED:
        span[NAME] = "oracle.refuted_search"
        return 3
    span[NAME] = "oracle.undecided_search"
    return 4


_COMMANDS = {"translate": _translate, "import": _import, "query": _query}


def traced_pass(ops: list[dict], tracer) -> dict:
    """Replay every operation once; returns per-op wall times, exit codes,
    the index range of this pass's spans, and the pass's work counters."""
    counts = dict.fromkeys(COUNTERS, 0)
    first = len(tracer.spans)
    walls, codes = [], []
    for op in ops:
        gc.collect()
        started = time.perf_counter()
        with tracer.span("cli", op["id"]):
            args = build_parser().parse_args(op["argv"])
            out = op["out"] + ".replay" if op["out"] else ""
            code = _COMMANDS[args.command](_Op(tracer, op["id"], counts), args, out)
        walls.append(time.perf_counter() - started)
        codes.append(code)
    return {"walls": walls, "codes": codes, "spans": [first, len(tracer.spans)],
            "counts": counts}
