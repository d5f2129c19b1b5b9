"""Threshold-count heuristics that turn score rows into pseudo-labels."""

from __future__ import annotations

import operator
from itertools import compress, repeat

from ..errors import ValidationError
from ..hypotheses import HeuristicRuleSet
from ..labels import PseudoLabel
from .scoring import EntailmentMatrix

# "Above a threshold" is read as strictly greater. Flip this single
# comparator to ``operator.ge`` to change the boundary convention everywhere.
EXCEEDS = operator.gt


def explain_labels(
    matrix: EntailmentMatrix, rules: HeuristicRuleSet
) -> list[tuple[PseudoLabel, float | None, tuple[int, ...]]]:
    """One ``(label, threshold, triggered)`` per matrix row.

    Positive clauses are checked first (any satisfied clause wins), then the
    negative clause, then the rule set's default. A maybe-privacy row names
    the threshold of its first satisfied clause and the hypothesis ids
    scoring above it; any other row has ``(None, ())``. Deterministic: the
    same matrix and rules always produce the same output. A float32 cell
    reads as an exact float64, so it is compared in float64: demoting a
    threshold to float32 would move the rule boundary (float32(0.85) > 0.85
    must hold).
    """
    (n, k), negative = matrix.shape, rules.negative_threshold
    if rules.max_count() > k:
        raise ValidationError(f"rule requires {rules.max_count()} hypotheses but matrix has {k} columns")
    # A row with no cell above the lowest threshold satisfies no positive
    # clause and does the negative one; one pass over the grid finds the rest.
    lowest = min(t for t, _ in rules.positive_rules)
    lowest = lowest if negative is None else min(lowest, negative)
    out = [(rules.default_label if negative is None else PseudoLabel.MAYBE_NOT_PRIVACY, None, ())] * n
    hot = compress(range(n * k), map(EXCEEDS, matrix.scores, repeat(lowest)))
    for i in dict.fromkeys(cell // k for cell in hot):
        row = matrix.row(i).tolist()
        for threshold, min_count in rules.positive_rules:
            triggered = tuple(compress(matrix.hypothesis_ids, map(EXCEEDS, row, repeat(threshold))))
            if len(triggered) >= min_count:
                out[i] = (PseudoLabel.MAYBE_PRIVACY, threshold, triggered)
                break
        else:
            if negative is not None and any(map(EXCEEDS, row, repeat(negative))):
                out[i] = (rules.default_label, None, ())
    return out
