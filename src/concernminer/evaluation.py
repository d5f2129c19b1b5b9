"""Confusion matrices, P/R/F1, the random-classifier baseline, Cohen's kappa,
and best-candidate selection.

Stage-specific confusion conventions: for the entailment stage a positive
prediction is exactly the maybe-privacy pseudo-label (maybe-not-privacy and
undetermined both count as negative); for the LLM stage a positive prediction
is a yes decision.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import ValidationError
from .labels import BinaryLabel, PseudoLabel


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValidationError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsReport:
    precision: float
    recall: float
    f1: float

    def __post_init__(self) -> None:
        for name, value in (("precision", self.precision), ("recall", self.recall), ("f1", self.f1)):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} {value} outside [0, 1]")


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """P, R, F1 with the 0/0 -> 0 convention for empty denominators."""
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0
    return MetricsReport(precision, recall, f1_score(precision, recall))


def _confusion(gold: Mapping[str, int], predictions: Mapping, positive, missing: str) -> ConfusionMatrix:
    """Confusion over gold labels vs predictions; a prediction counts as
    positive when it is ``positive``, and every gold review must have one."""
    cells: Counter[tuple[bool, bool]] = Counter()
    for review_id, label in gold.items():
        if label not in (0, 1):
            raise ValidationError(f"gold label for {review_id!r} must be 0/1, got {label!r}")
        prediction = predictions.get(review_id)
        if prediction is None:
            raise ValidationError(f"review {review_id!r} has no {missing}")
        cells[label == 1, prediction is positive] += 1
    return ConfusionMatrix(tp=cells[True, True], fp=cells[False, True], tn=cells[False, False], fn=cells[True, False])


def confusion_from_nli(
    gold: Mapping[str, int], pseudo: Mapping[str, PseudoLabel]
) -> ConfusionMatrix:
    """Confusion over gold labels vs pseudo-labels.

    Positive prediction <=> maybe-privacy. Every gold review must carry a
    pseudo-label.
    """
    return _confusion(gold, pseudo, PseudoLabel.MAYBE_PRIVACY, "pseudo-label")


def confusion_from_llm(
    gold: Mapping[str, int], decisions: Mapping[str, BinaryLabel]
) -> ConfusionMatrix:
    """Confusion over gold labels vs yes/no decisions (positive <=> yes)."""
    return _confusion(gold, decisions, BinaryLabel.YES, "decision")


def random_baseline(n_pos: int, n_total: int) -> MetricsReport:
    """Reference scorer: precision is the positive-class prior, recall is 0.5
    (two equally likely classes), F1 the harmonic mean."""
    if n_total <= 0:
        raise ValidationError("n_total must be positive")
    if not 0 < n_pos <= n_total:
        raise ValidationError(f"n_pos must be in (0, {n_total}]")
    precision = n_pos / n_total
    recall = 0.5
    return MetricsReport(precision, recall, f1_score(precision, recall))


@dataclass(frozen=True)
class KappaReport:
    kappa: float
    p_o: float
    p_e: float
    disagreements: int


def cohen_kappa(labels_a: Sequence, labels_b: Sequence) -> KappaReport:
    """Two-rater chance-corrected agreement with per-rater marginals."""
    if len(labels_a) != len(labels_b):
        raise ValidationError(f"label vectors differ in length: {len(labels_a)} vs {len(labels_b)}")
    if not labels_a:
        raise ValidationError("cannot compute agreement over empty vectors")

    n = len(labels_a)
    disagreements = sum(1 for a, b in zip(labels_a, labels_b) if a != b)
    p_o = (n - disagreements) / n

    categories = set(labels_a) | set(labels_b)
    p_e = 0.0
    for category in categories:
        share_a = sum(1 for a in labels_a if a == category) / n
        share_b = sum(1 for b in labels_b if b == category) / n
        p_e += share_a * share_b

    if p_e >= 1.0:
        kappa = 1.0  # both raters constant and identical
    else:
        kappa = (p_o - p_e) / (1.0 - p_e)
    return KappaReport(kappa, p_o, p_e, disagreements)


@dataclass(frozen=True)
class ComparisonRow:
    candidate_id: str
    report: MetricsReport
    improvement: float | None


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]
    winner_id: str
    baseline_id: str | None

    def winner(self) -> ComparisonRow:
        for row in self.rows:
            if row.candidate_id == self.winner_id:
                return row
        raise KeyError(self.winner_id)

    def to_dict(self) -> dict:
        return {
            "candidates": [
                {
                    "id": row.candidate_id,
                    "p": row.report.precision,
                    "r": row.report.recall,
                    "f1": row.report.f1,
                    "improvement": row.improvement,
                }
                for row in self.rows
            ],
            "winner": self.winner_id,
            "baseline": self.baseline_id,
        }


def select_best(
    candidates: Sequence[tuple[str, MetricsReport]],
    baseline_id: str | None = None,
) -> ComparisonTable:
    """Rank candidates by F1 (ties: higher precision, then smaller id).

    Improvement ratios are computed against the named baseline's unrounded
    F1; they stay ``None`` when no baseline is named or its F1 is zero.
    """
    if not candidates:
        raise ValidationError("select_best needs at least one candidate")
    ids = [cid for cid, _ in candidates]
    if baseline_id is not None and baseline_id not in ids:
        raise ValidationError(f"baseline {baseline_id!r} is not among the candidates")

    baseline_f1: float | None = None
    if baseline_id is not None:
        baseline_f1 = dict(candidates)[baseline_id].f1

    rows = tuple(
        ComparisonRow(
            candidate_id=cid,
            report=report,
            improvement=(report.f1 / baseline_f1) if baseline_f1 else None,
        )
        for cid, report in candidates
    )
    winner = min(rows, key=lambda row: (-row.report.f1, -row.report.precision, row.candidate_id))
    return ComparisonTable(rows, winner.candidate_id, baseline_id)
