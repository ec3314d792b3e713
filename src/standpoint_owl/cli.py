"""Command-line interface: translate, import, query.

Exit codes are the machine contract: 0 for success (for queries: entailed),
2 for parse or validation errors, 3 for a refuted query, 4 for inconclusive
outcomes (search guard tripped or external reasoner trouble).  Documents go
to files or, with --dump, to standard output; progress and verdicts are
human-readable text on standard error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable

from .errors import ParseError, StandpointOwlError
from .frontend import (assemble_kb, parse_document, parse_query_document,
                       parse_simple_query)
from .frontend.assemble import STANDPOINT_LABEL
from .frontend.functional import PREDECLARED_PREFIXES, Annotation, RawDocument
from .frontend.labels import sp_axiom_payload
from .model import (Box, Ria, StandpointKB, check_restricted_roles,
                    replace, restricted_roles_in, standpoint_expr,
                    validate_roles, with_cached)
from .normalizer import count_precisifications, normalize_kb
from .oracle import (ENTAILED_WITHIN_BOUNDS, GUARD_BITS, NOT_ENTAILED,
                     negated_query_kb, search_countermodel)
from .serializer import document_pieces, free_prefix, kb_pieces
from .translator import STAR_TOKEN, translate_kb


def _read(path: str) -> str:
    # utf-8-sig drops a leading byte order mark, which some editors write.
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _default_out(path: str, suffix: str) -> str:
    stem, _ = os.path.splitext(path)
    return stem + suffix


def _emit(pieces: Iterable[str], out_path: str | None, dump: bool,
          default_path: str) -> None:
    """Write a document piece by piece as the serializer makes them, so
    memory holds one piece, not the document.  Callers pass pieces only
    after every step that can fail on the input, so a failed run leaves
    the destination as it was."""
    if dump:
        sys.stdout.writelines(pieces)
        return
    with open(out_path or default_path, "w", encoding="utf-8") as handle:
        handle.writelines(pieces)


def _load(path: str):
    doc = parse_document(_read(path))
    kb = assemble_kb(doc)
    return doc, kb, validate_roles(kb)


def _translate_and_emit(kb: StandpointKB, args, rebase: str | None = None) -> int:
    """Translate the KB, report p and the axiom count on standard error,
    and emit the translated document."""
    plain = translate_kb(normalize_kb(kb), base_iri=rebase if rebase else None)
    axioms = sum(family.copies for family in plain.families)
    print(f"p={plain.copies}; axioms={axioms}", file=sys.stderr)
    _emit(kb_pieces(plain), args.out, args.dump,
          _default_out(args.input, ".translated.ofn"))
    return 0


def cmd_translate(args) -> int:
    if args.rebase and ">" in args.rebase:  # a read IRI ends at its first '>'
        print(f"error: --rebase: an IRI cannot hold '>': {args.rebase!r}", file=sys.stderr)
        return 2
    _, kb, _ = _load(args.input)
    return _translate_and_emit(kb, args, args.rebase)


def _annotation_mover(prefixes: dict[str, str], source: dict[str, str]):
    """A function that gives a source annotation a prefix name that
    ``prefixes``, the merged document's, binds to the IRI its prefix has in
    ``source``: its own name if ``prefixes`` binds that name to the same
    IRI or leaves it free (then it is declared there), else the first free
    ``ns<k>``, declared there."""
    def bound(table: dict[str, str], pname: str) -> str | None:
        return table[pname] if pname in table else PREDECLARED_PREFIXES.get(pname)

    names: dict[str, str] = {}  # source prefix name: merged prefix name

    def moved(ann: Annotation) -> Annotation:
        old = ann.property_prefix
        if old not in names:
            iri, here, new = bound(source, old), bound(prefixes, old), old
            if here != iri:
                if here is not None:
                    new = free_prefix(prefixes)
                prefixes[new] = iri
            names[old] = new
        return ann if names[old] == old else replace(ann, property_prefix=names[old])
    return moved


def _merge(doc_in: RawDocument, source_text: str, standpoint: str) -> RawDocument:
    """The document ``import`` makes: ``doc_in`` with the declarations and
    axioms of the source read into ``<input-iri>/imported/<S>#``, each
    source axiom but a role axiom boxed by S.  Its names and restricted
    roles are those of the two documents, so nothing is walked."""
    token = STAR_TOKEN if standpoint == "*" else standpoint
    # Read straight into the imported namespace, so nothing is copied.
    doc_src = parse_document(source_text,
                             namespace=f"{doc_in.base_iri}/imported/{token}#")
    prefixes = dict(doc_in.prefixes)
    moved = _annotation_mover(prefixes, dict(doc_src.prefixes))
    axioms = list(doc_in.axioms)
    box_ann = Annotation("", STANDPOINT_LABEL,
                         sp_axiom_payload(None, Box, standpoint_expr(standpoint)))
    for axiom, annotations in doc_src.axioms:
        if isinstance(axiom, Ria):
            axioms.append((axiom, ()))
        else:
            axioms.append((axiom, (*map(moved, annotations), box_ann)))
    return with_cached(
        RawDocument(base_iri=doc_in.base_iri, prefixes=tuple(prefixes.items()),
                    ontology_annotations=doc_in.ontology_annotations,
                    declarations=doc_in.declarations + doc_src.declarations,
                    axioms=tuple(axioms)),
        names=doc_in.names | doc_src.names,
        restricted_roles=doc_in.restricted_roles | doc_src.restricted_roles)


def cmd_import(args) -> int:
    standpoint_expr(args.standpoint)  # raises BadName on a bad name
    doc_in = parse_document(_read(args.input))
    merged = _merge(doc_in, _read(args.source), args.standpoint)
    kb = assemble_kb(merged)  # rejects name collisions and bad annotations
    validate_roles(kb)
    n_annotated = sum(1 for axiom, _ in merged.axioms[len(doc_in.axioms):]
                      if not isinstance(axiom, Ria))
    print(f"imported {n_annotated} axioms under standpoint "
          f"{args.standpoint!r}", file=sys.stderr)
    if args.translate:
        return _translate_and_emit(kb, args)
    _emit(document_pieces(merged), args.out, args.dump,
          _default_out(args.input, ".merged.ofn"))
    return 0


# ``subprocess`` waits on ``poll``, which takes at most 2**31 - 1 ms; a
# longer limit is no limit.
_LONGEST_WAIT_S = 2**31 // 1000


def _run_external_reasoner(command: list[str], pieces: Iterable[str],
                           timeout: float | None) -> int:
    # Imported here: only --reasoner-cmd needs them, and every other
    # command would pay their import at start-up.
    import subprocess
    import tempfile

    handle = tempfile.NamedTemporaryFile(mode="w", suffix=".ofn",
                                         delete=False, encoding="utf-8")
    try:
        with handle:
            handle.writelines(pieces)
        wait = timeout if timeout is not None and timeout < _LONGEST_WAIT_S else None
        try:
            # Undecodable output becomes U+FFFD, an unrecognised verdict.
            proc = subprocess.run(command + [handle.name], capture_output=True,
                                  encoding="utf-8", errors="replace", timeout=wait)
        except subprocess.TimeoutExpired:  # ``run`` has killed the reasoner
            print(f"reasoner timed out after {timeout:g} s", file=sys.stderr)
            return 4
        except OSError as exc:
            print(f"reasoner failed to start: {exc}", file=sys.stderr)
            return 4
        if proc.returncode != 0:
            print(f"reasoner exited with status {proc.returncode}", file=sys.stderr)
            return 4
        verdict = proc.stdout.splitlines()[0].strip() if proc.stdout.splitlines() else ""
        if verdict == "inconsistent":
            print("query entailed (reasoner reports inconsistency)", file=sys.stderr)
            return 0
        if verdict == "consistent":
            print("query not entailed (reasoner reports consistency)", file=sys.stderr)
            return 3
        print(f"unrecognised reasoner verdict {verdict!r}", file=sys.stderr)
        return 4
    finally:
        os.unlink(handle.name)


def cmd_query(args) -> int:
    for flag, bound in (("--domain-bound", args.domain_bound),
                        ("--prec-bound", args.prec_bound)):
        if bound is not None and bound < 1:
            print(f"error: {flag} must be at least 1, got {bound}", file=sys.stderr)
            return 2
    # NaN compares false with every budget, so it would switch the guard off.
    if not args.guard_bits >= 0:
        print(f"error: --guard-bits must be a non-negative number, got "
              f"{args.guard_bits:g}", file=sys.stderr)
        return 2
    if args.reasoner_timeout is not None:
        if not args.reasoner_timeout > 0:  # NaN included
            print(f"error: --reasoner-timeout must be a positive number of "
                  f"seconds, got {args.reasoner_timeout:g}", file=sys.stderr)
            return 2
        if args.reasoner_cmd is None:
            print("error: --reasoner-timeout needs --reasoner-cmd", file=sys.stderr)
            return 2
    doc, kb, report = _load(args.input)
    ns = doc.default_namespace
    if args.simple is not None:
        query = parse_simple_query(args.simple, ns)
    else:
        query = parse_query_document(_read(args.query_file), ns)
    # The KB's role rules bind the query too; ``_load`` checked the KB itself.
    check_restricted_roles(restricted_roles_in((query,)), report.non_simple)

    normalized = negated_query_kb(kb, query)
    p = count_precisifications(normalized)
    print(f"p={p} (including the negated query)", file=sys.stderr)

    if args.reasoner_cmd is not None:
        import shlex

        try:
            command = shlex.split(args.reasoner_cmd)
        except ValueError as exc:
            print(f"error: --reasoner-cmd: {exc}", file=sys.stderr)
            return 2
        if not command:
            print("error: --reasoner-cmd names no program", file=sys.stderr)
            return 2
        plain = translate_kb(normalized)
        return _run_external_reasoner(command, kb_pieces(plain), args.reasoner_timeout)

    prec_bound = args.prec_bound if args.prec_bound is not None else p
    result = search_countermodel(normalized, args.domain_bound, prec_bound,
                                 guard_bits=args.guard_bits)
    if result.status == ENTAILED_WITHIN_BOUNDS:
        searched = f"precisifications ≤ {result.precisifications}"
        if result.complete:
            print(f"entailed (no countermodel with domain ≤ {result.domain}, {searched}; "
                  "with no roles or individuals these bounds are complete)", file=sys.stderr)
        else:
            # The search stops at p precisifications whatever the bound.
            if prec_bound > result.precisifications:
                searched += "; the precisification bound is complete"
            print(f"entailed within bounds (no countermodel with domain ≤ {result.domain}, "
                  f"{searched}); bounded evidence, not a proof", file=sys.stderr)
        return 0
    if result.status == NOT_ENTAILED:
        witness = result.witness
        sigma = {name: sorted(members) for name, members in sorted(witness.sigma.items())}
        print("not entailed; countermodel: "
              f"domain size {witness.domain_size}, "
              f"{witness.precisifications} precisification(s), sigma={sigma}",
              file=sys.stderr)
        return 3
    print("inconclusive: the bounded search guard was exceeded", file=sys.stderr)
    return 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="standpoint-owl",
        description="Translate standpoint-annotated ontologies to plain "
                    "OWL 2 DL and answer standpoint queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("translate", help="translate an annotated ontology")
    p_tr.add_argument("input")
    p_tr.add_argument("--out", help="output path (default: INPUT.translated.ofn)")
    p_tr.add_argument("--dump", action="store_true",
                      help="print the result to stdout instead of saving")
    p_tr.add_argument("--rebase", metavar="IRI",
                      help="base IRI for the output ontology "
                           "(default: input IRI + /translated)")
    p_tr.set_defaults(func=cmd_translate)

    p_im = sub.add_parser("import", help="import an ontology under a standpoint")
    p_im.add_argument("input")
    p_im.add_argument("source")
    p_im.add_argument("--standpoint", required=True, metavar="S",
                      help="standpoint name to annotate imported axioms with")
    p_im.add_argument("--out")
    p_im.add_argument("--translate", action="store_true",
                      help="translate the merged ontology instead of saving it")
    p_im.add_argument("--dump", action="store_true")
    p_im.set_defaults(func=cmd_import)

    p_q = sub.add_parser("query", help="check whether a standpoint formula is entailed")
    p_q.add_argument("input")
    group = p_q.add_mutually_exclusive_group(required=True)
    group.add_argument("--simple", metavar="QUERY",
                       help="simple query, e.g. '[s](C sub D)' or '<s>(C eq D)'")
    group.add_argument("--query-file", metavar="PATH",
                       help="file containing an XML formula query")
    p_q.add_argument("--reasoner-cmd", metavar="CMD",
                     help="external reasoner command; it receives the translated "
                          "file path and must print 'consistent' or 'inconsistent'")
    p_q.add_argument("--reasoner-timeout", type=float, default=None, metavar="SECONDS",
                     help="stop the reasoner after this many seconds and exit 4 "
                          "(default: no limit)")
    p_q.add_argument("--domain-bound", type=int, default=3, metavar="N")
    p_q.add_argument("--prec-bound", type=int, default=None, metavar="M",
                     help="precisification bound (default: computed p)")
    p_q.add_argument("--guard-bits", type=float, default=GUARD_BITS, metavar="B",
                     help="search-space budget for the bounded oracle")
    p_q.set_defaults(func=cmd_query)
    return parser


# Built once: ``parse_args`` reads the parser without changing it and fills
# a fresh namespace, so every call of ``main`` starts from the defaults.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (StandpointOwlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # Parsing and the per-node semantics recurse on expression depth.
        print("error: expression nested too deeply", file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
