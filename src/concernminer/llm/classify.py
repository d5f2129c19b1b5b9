"""Role-based yes/no classification of candidate reviews with majority voting."""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from .._window import run_ordered
from ..errors import BackendError, ValidationError
from ..labels import BinaryLabel, Vote

if TYPE_CHECKING:  # pragma: no cover
    from ..corpus import Review
    from ..hypotheses import HypothesisSet

logger = logging.getLogger(__name__)

# Versioned prompt asset. Experiments pin the version; swapping the wording
# means bumping it so recorded runs stay attributable.
PROMPT_TEMPLATE_VERSION = "role-prompt-v1"

SYSTEM_TEMPLATE = """\
You are a scholarly researcher who studies privacy concerns raised in mobile app reviews. \
Your task is to annotate the app review provided by the user with a yes/no label. \
Respond with exactly one word, "yes" or "no", and nothing else.

Answer "yes" if the review supports at least one of the numbered hypotheses listed below. \
Answer "no" otherwise.

Hypotheses:
{hypotheses}"""


@dataclass(frozen=True)
class SamplingSettings:
    temperature: float = 0.3
    top_p: float = 0.9
    num_samples: int = 5
    max_response_tokens: int = 64

    def __post_init__(self) -> None:
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValidationError("temperature must be a finite number >= 0")
        if not 0.0 < self.top_p <= 1.0:
            raise ValidationError("top_p must be in (0, 1]")
        if self.num_samples < 1 or self.num_samples % 2 == 0:
            raise ValidationError("num_samples must be a positive odd integer")
        if self.max_response_tokens < 1:
            raise ValidationError("max_response_tokens must be >= 1")

    @property
    def digest(self) -> str:
        """12 hex characters naming these settings and the prompt version (a vote record's ``sampling``)."""
        return hashlib.sha256(repr((self, PROMPT_TEMPLATE_VERSION)).encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class PromptMessages:
    system: str
    user: str


@dataclass(frozen=True)
class VoteRecord:
    """One review's samples; its ``votes``, ``decision`` and ``tie_flag`` are derived from ``raw_responses`` when built."""

    review_id: str
    raw_responses: tuple[str, ...]
    backend: str | None = None  # the LLM backend's name
    set_hash: str | None = None  # version_hash of the hypothesis set in the prompt
    sampling: str | None = None  # SamplingSettings.digest of the settings that cast the votes
    votes: tuple[Vote, ...] = field(init=False)
    decision: BinaryLabel = field(init=False)
    tie_flag: bool = field(init=False)

    def __post_init__(self) -> None:
        votes = tuple(parse_response(r) for r in self.raw_responses)
        self.__dict__.update(zip(("votes", "decision", "tie_flag"), (votes, *majority_vote(votes))))  # past the frozen __setattr__


def build_prompt(hset: "HypothesisSet", review: "Review") -> PromptMessages:
    """System message = fixed instructions + numbered hypotheses; user message
    = the normalized review text, verbatim."""
    if review.text_norm is None:
        raise ValidationError(f"review {review.id!r} is not normalized")
    numbered = "\n".join(f"{h.id}. {h.text}" for h in hset.hypotheses)
    return PromptMessages(system=SYSTEM_TEMPLATE.format(hypotheses=numbered), user=review.text_norm)


def parse_response(raw: str) -> Vote:
    """Map a raw completion to a vote by its first alphabetic token.

    ``yes``/``no`` (any case) count; anything else is an abstention.
    """
    token = ""
    for ch in raw:
        if ch.isalpha():
            token += ch
        elif token:
            break
    token = token.lower()
    if token == "yes":
        return Vote.YES
    if token == "no":
        return Vote.NO
    return Vote.ABSTAIN


def majority_vote(votes: Sequence[Vote]) -> tuple[BinaryLabel, bool]:
    """Majority over non-abstain votes.

    A tie between yes and no (including the all-abstain case) resolves to
    ``no`` with ``tie_flag`` set: the review is conservatively dropped from
    the extracted set but stays visible in the logs.
    """
    yes = sum(1 for v in votes if v is Vote.YES)
    no = sum(1 for v in votes if v is Vote.NO)
    if yes > no:
        return BinaryLabel.YES, False
    if no > yes:
        return BinaryLabel.NO, False
    return BinaryLabel.NO, True


def classify_review(
    backend, review_id: str, prompt: PromptMessages, settings: SamplingSettings, set_hash: str | None = None
) -> VoteRecord:
    """Request ``num_samples`` independent completions and take the majority;
    the record names the backend, the prompt's ``set_hash`` and ``settings``."""
    raw = tuple(backend.complete(prompt, settings, tag=review_id) for _ in range(settings.num_samples))
    return VoteRecord(review_id, raw, backend.name, set_hash, settings.digest)


def classify_corpus(
    backend,
    reviews: Sequence["Review"],
    hset: "HypothesisSet",
    settings: SamplingSettings,
    *,
    max_inflight: int,
    on_record: Callable[[VoteRecord], None] = lambda record: None,
) -> tuple[list[VoteRecord], list[tuple[str, str]]]:
    """Classify a batch of candidate reviews (callers pass the maybe-privacy
    subset), preserving input order.

    A review is one job of :func:`run_ordered`: ``max_inflight`` workers, the
    calling thread among them, classify at most ``2 * max_inflight`` reviews
    ahead of the one the calling thread commits and hands to ``on_record``.
    Returns ``(records, failures)`` where failures are ``(review_id, reason)``
    pairs for reviews whose backend calls kept failing; those are never
    silently labeled.
    """
    records: list[VoteRecord] = []
    failures: list[tuple[str, str]] = []

    def work(review: "Review", stop) -> VoteRecord:
        return classify_review(backend, review.id, build_prompt(hset, review), settings, hset.version_hash)

    def commit(review: "Review", record: VoteRecord | None, error: Exception | None) -> None:
        if error is None:
            records.append(record)
            on_record(record)
        elif isinstance(error, BackendError):
            failures.append((review.id, str(error)))
        else:
            raise error

    run_ordered(work, reviews, commit, max_inflight)
    if failures:
        logger.warning("LLM classification failed for %d of %d reviews", len(failures), len(reviews))
    return records, failures
