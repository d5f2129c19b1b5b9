"""Entailment scoring stage: backends, score matrices, and heuristic labeling."""

from ..labels import PseudoLabel
from .backends import (
    DEFAULT_TRIGGER_TABLE,
    HttpNliBackend,
    MockNliBackend,
    load_trigger_table,
)
from .labeling import apply_heuristics, explain_labels, n_above
from .scoring import (
    EntailmentMatrix,
    EntailmentScore,
    ScoreCache,
    load_matrix,
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
    "load_matrix",
    "load_trigger_table",
    "n_above",
    "save_matrix",
    "score_corpus",
]
