"""Standpoint-annotated OWL 2: parsing, translation to plain OWL 2 DL,
bounded-model verification, and query answering."""

from . import errors, model, normalizer, oracle, serializer, translator
from .frontend import (assemble_kb, parse_document, parse_manchester_class,
                       parse_simple_query, parse_standpoint_label)
from .model import PlainKB, StandpointKB, make_kb, signature_of, validate_roles
from .normalizer import (count_precisifications, desugar_sharpening,
                         normalize_kb, to_nnf)
from .oracle import (PlainInterpretation, StandpointStructure,
                     check_entailment_bounded, eval_concept,
                     find_plain_model, find_standpoint_model, holds_axiom,
                     holds_formula, kb_holds)
from .serializer import (document_pieces, kb_pieces, serialize_concept,
                         serialize_document, serialize_kb)
from .translator import mangle, trans, trans_e, translate_kb

__version__ = "0.1.0"
