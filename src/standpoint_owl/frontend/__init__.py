"""One module per syntax, holding its word table, its reader and any writer
of expressions: functional-style documents, standpointLabel XML payloads
and XML queries (``labels``), Manchester classes, simple queries (read
only); and KB assembly.  The serializer writes whole documents."""

from .assemble import assemble_kb
from .functional import Annotation, Declaration, RawDocument, parse_document
from .labels import SpAxiomLabel, parse_query_document, parse_standpoint_label
from .manchester import parse_manchester_class
from .query import parse_simple_query

__all__ = [
    "Annotation", "Declaration", "RawDocument", "parse_document",
    "SpAxiomLabel", "parse_standpoint_label", "parse_manchester_class",
    "parse_simple_query", "parse_query_document", "assemble_kb",
]
