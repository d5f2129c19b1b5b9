"""Entailment scoring stage: backends, score matrices, and heuristic labeling."""

from ..labels import PseudoLabel
from .backends import (
    DEFAULT_TRIGGER_TABLE,
    HttpNliBackend,
    MockNliBackend,
    load_trigger_table,
)
from .labeling import apply_heuristics, explain_labels
from .scoring import (
    EntailmentMatrix,
    EntailmentScore,
    ScoreCache,
    save_matrix,
    score_corpus,
)

__all__ = [
    "DEFAULT_TRIGGER_TABLE",
    "EntailmentMatrix",
    "EntailmentScore",
    "HttpNliBackend",
    "MockNliBackend",
    "PseudoLabel",
    "ScoreCache",
    "apply_heuristics",
    "explain_labels",
    "load_trigger_table",
    "save_matrix",
    "score_corpus",
]
