"""Threshold-count heuristics that turn score rows into pseudo-labels."""

from __future__ import annotations

import operator
from itertools import compress
from typing import Sequence

import numpy as np

from ..errors import ValidationError
from ..hypotheses import HeuristicRuleSet
from ..labels import PseudoLabel
from .scoring import EntailmentMatrix

# "Above a threshold" is read as strictly greater. Flip this single
# comparator to ``operator.ge`` to change the boundary convention everywhere.
EXCEEDS = operator.gt


def n_above(row: Sequence[float] | np.ndarray, threshold: float) -> int:
    """Count scores in ``row`` strictly above ``threshold`` (antitone in it).

    Comparisons happen in float64: grids are stored float32, and letting
    numpy demote the threshold to float32 would silently move the rule
    boundary (float32(0.85) > 0.85 must hold).
    """
    if not 0.0 < threshold < 1.0:
        raise ValidationError(f"threshold {threshold} outside (0, 1)")
    arr = np.asarray(row, dtype=np.float64)
    return int(np.count_nonzero(EXCEEDS(arr, threshold)))


def _check_rules(rules: HeuristicRuleSet, n_hypotheses: int) -> None:
    if rules.max_count() > n_hypotheses:
        raise ValidationError(
            f"rule requires {rules.max_count()} hypotheses but matrix has {n_hypotheses} columns"
        )


def explain_labels(
    matrix: EntailmentMatrix, rules: HeuristicRuleSet
) -> list[tuple[PseudoLabel, float | None, tuple[int, ...]]]:
    """One ``(label, threshold, triggered)`` per matrix row.

    Positive clauses are checked first (any satisfied clause wins), then the
    negative clause, then the rule set's default. A maybe-privacy row names
    the threshold of its first satisfied clause and the hypothesis ids
    scoring above it; any other row has ``(None, ())``. Deterministic: the
    same matrix and rules always produce the same output.
    """
    _check_rules(rules, len(matrix.hypothesis_ids))
    scores = matrix.scores.astype(np.float64)  # keep thresholds float64, see n_above
    out = [(rules.default_label, None, ())] * scores.shape[0]
    if rules.negative_threshold is not None:
        for i in np.flatnonzero(np.count_nonzero(EXCEEDS(scores, rules.negative_threshold), axis=1) == 0):
            out[i] = (PseudoLabel.MAYBE_NOT_PRIVACY, None, ())
    # Positive clauses last to first, so that a row keeps its first satisfied
    # clause, which overrides the negative clause and the default.
    for threshold, min_count in reversed(rules.positive_rules):
        above = EXCEEDS(scores, threshold)
        for i in np.flatnonzero(np.count_nonzero(above, axis=1) >= min_count):
            out[i] = (PseudoLabel.MAYBE_PRIVACY, threshold, tuple(compress(matrix.hypothesis_ids, above[i])))
    return out


def apply_heuristics(matrix: EntailmentMatrix, rules: HeuristicRuleSet) -> list[PseudoLabel]:
    """One pseudo-label per matrix row: the labels of :func:`explain_labels`."""
    return [label for label, _, _ in explain_labels(matrix, rules)]
