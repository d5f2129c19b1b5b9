"""Terminal-based double-annotation session with tie-breaking and agreement.

Assignment scheme: the first annotator in the roster (the lead) inspects
every queued review; the remaining annotators split the queue into disjoint
contiguous chunks, so each review is inspected at least twice. Disagreements
are routed to a third annotator who is not one of the original two. With a
two-person roster no third identity exists, so disagreed reviews stay
unresolved and are reported as leftovers.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ._jsonl import Log, checked
from .corpus import Review
from .errors import ValidationError
from .evaluation import KappaReport, cohen_kappa

PRIVACY = "privacy"
NON_PRIVACY = "non_privacy"
SKIP = "skip"

LABEL_INSTRUCTIONS = """\
Label each review as privacy-related (y) or not (n).

Mark a review as PRIVACY when it raises a concern about personal data or
privacy, for example: data being collected, shared, sold, or linked across
services; identity exposure or tracking; data kept or processed against the
user's wishes or without their awareness; inability to control, delete, or
understand what happens to their data.

Mark it as NON-PRIVACY otherwise (billing complaints, bugs, usability,
customer support, general dissatisfaction).

Keys: y = privacy, n = non-privacy, s = skip (leave for a later session).
"""

# A responder produces "privacy", "non_privacy", or "skip" for one
# (annotator, review) query. The interactive one reads the terminal;
# scripted ones drive tests and batch replays.
Responder = Callable[[str, Review], str]


@dataclass
class AnnotationTask:
    review_id: str
    assigned: tuple[str, ...]
    labels: dict[str, str] = field(default_factory=dict)
    tiebreak_by: str | None = None
    tiebreak_label: str | None = None
    final_label: str | None = None

    def resolve(self) -> None:
        """Set the final label once two assigned labels agree or a tiebreak exists."""
        collected = [self.labels[a] for a in self.assigned if a in self.labels]
        if len(collected) == len(self.assigned) and len(set(collected)) == 1:
            self.final_label = collected[0]
        elif self.tiebreak_label is not None:
            self.final_label = self.tiebreak_label


@dataclass(frozen=True)
class AnnotationReport:
    tasks: tuple[AnnotationTask, ...]
    kappa: KappaReport | None
    tiebreak_ids: tuple[str, ...]
    leftover_ids: tuple[str, ...]
    confirmed: int
    rejected: int

    def final_labels(self) -> dict[str, str]:
        return {t.review_id: t.final_label for t in self.tasks if t.final_label is not None}

    def to_dict(self) -> dict:
        return {
            "confirmed": self.confirmed,
            "rejected": self.rejected,
            "tiebreaks": list(self.tiebreak_ids),
            "leftovers": list(self.leftover_ids),
            "kappa": (
                {
                    "kappa": self.kappa.kappa,
                    "p_o": self.kappa.p_o,
                    "p_e": self.kappa.p_e,
                    # doubly-labeled reviews the two assigned annotators
                    # disagreed on (the same set that got tiebreak tasks)
                    "disagreements": list(self.tiebreak_ids),
                }
                if self.kappa
                else None
            ),
            "final_labels": self.final_labels(),
            "tasks": [vars(task) for task in self.tasks],
        }


def assign_tasks(review_ids: Sequence[str], roster: Sequence[str]) -> list[AnnotationTask]:
    """Lead annotator takes everything; the rest split the queue evenly."""
    if len(roster) < 2:
        raise ValidationError("annotation needs at least two annotator identities")
    if len(set(roster)) != len(roster):
        raise ValidationError("annotator identities must be unique")
    lead, others = roster[0], list(roster[1:])
    n = len(review_ids)
    chunk = -(-n // len(others)) if others else n  # ceil division
    tasks = []
    for index, review_id in enumerate(review_ids):
        second = others[min(index // chunk, len(others) - 1)]
        tasks.append(AnnotationTask(review_id=review_id, assigned=(lead, second)))
    return tasks


def _pick_tiebreaker(assigned: tuple[str, ...], roster: Sequence[str]) -> str | None:
    for candidate in roster:
        if candidate not in assigned:
            return candidate
    return None


def run_annotation(
    queue: Sequence[Review],
    roster: Sequence[str],
    responder: Responder,
    *,
    state_path: Path | None = None,
) -> AnnotationReport:
    """Run (or resume) a double-annotation session over the queued reviews.

    The labels of earlier sessions are read once from the log at
    ``state_path`` (a later record wins), and each new label is appended to
    it as it is given; with no ``state_path`` they are kept in memory only.
    Agreement (Cohen's kappa) is computed over the doubly-labeled pairs,
    lead versus second annotator, before any tie-breaking.
    """
    if not queue:
        raise ValidationError("annotation queue is empty")
    reviews = {r.id: r for r in queue}
    tasks = assign_tasks([r.id for r in queue], roster)
    state = Log(state_path) if state_path else None  # no path: the labels are kept in memory only
    labels = dict(state.read(_state_label)) if state else {}  # read through the Log that appends, which cuts a torn tail

    with state or nullcontext():

        def ask(annotator: str, review_id: str) -> str | None:
            known = labels.get((annotator, review_id))
            if known is not None:
                return known
            answer = responder(annotator, reviews[review_id])
            if answer == SKIP:
                return None
            record = {"annotator": annotator, "review_id": review_id, "label": answer}
            labels.update([_state_label(record)])  # checked as the log's records are
            if state:
                state.append([record])
            return answer

        # Pass 1: the lead (every task's first assigned) works through the full
        # queue, then each second annotator takes their chunk (tasks are already
        # contiguous per chunk, so one person sits at the terminal at a time).
        for position in (0, 1):
            for task in tasks:
                annotator = task.assigned[position]
                answer = ask(annotator, task.review_id)
                if answer is not None:
                    task.labels[annotator] = answer

        # Pass 2: route disagreements to a third annotator.
        tiebreak_ids: list[str] = []
        for task in tasks:
            got = [task.labels.get(a) for a in task.assigned]
            if None in got or got[0] == got[1]:
                continue
            tiebreak_ids.append(task.review_id)
            tiebreaker = _pick_tiebreaker(task.assigned, roster)
            if tiebreaker is None:  # annotate_run warns; a replay stays silent
                continue
            task.tiebreak_by = tiebreaker
            answer = ask(tiebreaker, task.review_id)
            if answer is not None:
                task.tiebreak_label = answer

    for task in tasks:
        task.resolve()

    pairs = [
        (task.labels[task.assigned[0]], task.labels[task.assigned[1]])
        for task in tasks
        if all(a in task.labels for a in task.assigned)
    ]
    kappa = cohen_kappa([a for a, _ in pairs], [b for _, b in pairs]) if pairs else None

    leftovers = tuple(t.review_id for t in tasks if t.final_label is None)
    confirmed = sum(1 for t in tasks if t.final_label == PRIVACY)
    rejected = sum(1 for t in tasks if t.final_label == NON_PRIVACY)
    return AnnotationReport(tuple(tasks), kappa, tuple(tiebreak_ids), leftovers, confirmed, rejected)


def read_state(path: Path) -> dict[tuple[str, str], str]:
    """The labels of the annotation-state log at ``path`` by ``(annotator, review_id)``; a later record wins."""
    return dict(Log(path).read(_state_label))


def _state_label(record: dict) -> tuple[tuple[str, str], str]:
    """An annotation-state record as ``((annotator, review_id), label)``, the label privacy or non_privacy."""
    if record["label"] not in (PRIVACY, NON_PRIVACY):
        raise ValidationError(f"label must be {PRIVACY} or {NON_PRIVACY}, not {record['label']!r}")
    return (checked("annotator", "str", record["annotator"]), checked("review_id", "str", record["review_id"])), record["label"]


def scripted_responder(script: dict[str, dict[str, str]]) -> Responder:
    """Responder backed by ``{annotator: {review_id: label}}``; missing
    entries skip. A script of another shape, or a label other than
    privacy, non_privacy or skip, raises here, before any answer."""
    answers = {}
    for annotator, labels in checked("responses", "dict", script).items():
        for review_id, label in checked(f"the labels of {annotator!r}", "dict", labels).items():
            if label not in (PRIVACY, NON_PRIVACY, SKIP):
                raise ValidationError(
                    f"the label of {annotator!r} for {review_id!r} must be {PRIVACY}, {NON_PRIVACY} or {SKIP}, not {label!r}"
                )
            answers[(annotator, review_id)] = label

    def respond(annotator: str, review: Review) -> str:
        return answers.get((annotator, review.id), SKIP)

    return respond


def interactive_responder(
    input_fn: Callable[[str], str] = input, print_fn: Callable[[str], None] = print
) -> Responder:
    """Terminal y/n/s prompt; shows the labeling instructions once."""
    shown = False

    def respond(annotator: str, review: Review) -> str:
        nonlocal shown
        if not shown:
            print_fn(LABEL_INSTRUCTIONS)
            shown = True
        print_fn(f"\n[{annotator}] review {review.id} ({review.app_name}, {review.rating}-star):")
        print_fn(f"  {review.text_raw}")
        while True:
            answer = input_fn(f"[{annotator}] privacy-related? [y/n/s] ").strip().lower()
            if answer in ("y", "yes"):
                return PRIVACY
            if answer in ("n", "no"):
                return NON_PRIVACY
            if answer in ("s", "skip"):
                return SKIP
            print_fn("please answer y, n, or s")

    return respond
