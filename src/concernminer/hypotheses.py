"""Privacy hypothesis sets and the threshold-count rules that label reviews.

Two taxonomies ship built in: a 31-sentence generic privacy set and a
21-sentence mental-health domain set, each paired with its
threshold heuristics. User-supplied sets load from JSON files with the
same shape.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from ._jsonl import read_json, write_json
from .errors import ValidationError
from .labels import PseudoLabel

logger = logging.getLogger(__name__)

GENERIC_SET_ID = "generic-31"
DOMAIN_MH_SET_ID = "mh-domain-21"


class HypothesisSource(str, Enum):
    SOLOVE = "solove"
    WANG_KOBSA = "wang_kobsa"
    IWAYA = "iwaya"
    GENERIC = "generic"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Hypothesis:
    id: int
    concept: str
    text: str
    source: HypothesisSource

    def __post_init__(self) -> None:
        if not self.text:
            raise ValidationError("hypothesis text must be non-empty")


class ThresholdRule(NamedTuple):
    """One positive clause: at least ``min_count`` scores above ``threshold``."""

    threshold: float
    min_count: int


@dataclass(frozen=True)
class HeuristicRuleSet:
    """Maps a row of entailment scores to a pseudo-label.

    Positive rules are OR-ed; any satisfied clause yields maybe-privacy.
    The optional negative rule fires when zero scores exceed its threshold
    and yields maybe-not-privacy. Anything else gets ``default_label``.
    """

    positive_rules: tuple[ThresholdRule, ...]
    negative_threshold: float | None
    default_label: PseudoLabel

    def __post_init__(self) -> None:
        if not self.positive_rules:
            raise ValidationError("rule set needs at least one positive rule")
        for rule in self.positive_rules:
            if not 0.0 < rule.threshold < 1.0:
                raise ValidationError(f"threshold {rule.threshold} outside (0, 1)")
            if rule.min_count < 1:
                raise ValidationError(f"rule count {rule.min_count} must be positive")
        if self.negative_threshold is not None and not 0.0 < self.negative_threshold < 1.0:
            raise ValidationError(f"negative threshold {self.negative_threshold} outside (0, 1)")

    def max_count(self) -> int:
        return max(rule.min_count for rule in self.positive_rules)


@dataclass(frozen=True)
class HypothesisSet:
    set_id: str
    name: str
    hypotheses: tuple[Hypothesis, ...]
    heuristics: HeuristicRuleSet
    version_hash: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.hypotheses:
            raise ValidationError("hypothesis set must not be empty")
        ids = [h.id for h in self.hypotheses]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate hypothesis ids in set {self.set_id!r}")
        if self.heuristics.max_count() > len(self.hypotheses):
            raise ValidationError(
                f"rule requires {self.heuristics.max_count()} hypotheses but set has {len(self.hypotheses)}"
            )
        object.__setattr__(self, "version_hash", self._content_hash())

    def _content_hash(self) -> str:
        # Content-addressed: renaming the set keeps cached scores valid,
        # editing any sentence or rule invalidates them.
        payload = {
            "hypotheses": [[h.id, h.concept, h.text, h.source.value] for h in self.hypotheses],
            "rules": {
                "positive": [[t, k] for t, k in self.heuristics.positive_rules],
                "negative": self.heuristics.negative_threshold,
                "default": self.heuristics.default_label.value,
            },
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def __len__(self) -> int:
        return len(self.hypotheses)

    def by_id(self, hypothesis_id: int) -> Hypothesis:
        for h in self.hypotheses:
            if h.id == hypothesis_id:
                return h
        raise KeyError(hypothesis_id)


_GENERIC_ROWS: tuple[tuple[int, str, str], ...] = (
    (1, "Surveillance", "The user is facing a data surveillance issue."),
    (2, "Interrogation", "The user is forced to provide information."),
    (3, "Aggregation", "Personal user information is collected from other sources."),
    (4, "Insecurity", "The user is concerned about protecting their personal data."),
    (5, "Identification", "A data anonymity topic is discussed."),
    (6, "Secondary Use", "The user is concerned about the purposes of personal data access."),
    (7, "Exclusion", "The user wants to correct their personal information."),
    (8, "Breach of Confidentiality", "A breach of data confidentiality is discussed."),
    (9, "Disclosure", "Personal data disclosure is discussed."),
    (10, "Exposure", "The app exposes a private aspect of the user life."),
    (11, "Increased Accessibility", "User’s data has been made accessible to public."),
    (12, "Blackmail", "A data blackmailing issue is discussed."),
    (13, "Appropriation", "User data is being exploited for other purposes."),
    (14, "Distortion", "False data is presented about the user."),
    (15, "Intrusion", "Unwanted intrusion to personal info is discussed."),
    (16, "Decisional Interference", "Intrusion by the government to the user’s life is discussed."),
    (17, "Notice/Awareness", "Opting out from personal data collection is discussed."),
    (18, "Data Minimization", "More access than needed is required."),
    (19, "Purpose Specification", "The reason for data access is not provided."),
    (20, "Collection Limitation", "Too much personal data is collected."),
    (21, "Use Limitation", "The data is being used for unexpected purposes."),
    (22, "Onward Transfer", "Data sharing with third parties is discussed."),
    (23, "Choice/Consent", "User choice for personal data collection is discussed."),
    (24, "Choice/Consent", "User did not allow access to their personal data."),
    (25, "Generic Privacy Issues", "A data privacy topic is discussed."),
    (26, "Generic Privacy Issues", "Protecting user’s personal data is discussed."),
    (27, "Generic Privacy Issues", "This is about a privacy feature."),
    (28, "Generic Privacy Issues", "The user is facing a privacy issue."),
    (29, "Positive Privacy Issues", "The user likes that data privacy is provided."),
    (30, "Positive Privacy Issues", "The user wants privacy."),
    (31, "Positive Privacy Issues", "The app has privacy features."),
)

_DOMAIN_MH_ROWS: tuple[tuple[int, str, str], ...] = (
    (1, "Linkability", "User data being linked across different services."),
    (2, "Linkability", "Online user activities from various platforms can be connected."),
    (3, "Linkability", "Personal user information is collected from other sources."),
    (4, "Identifiability", "Anonymized user data could be used to reveal their identity."),
    (5, "Identifiability", "Unique digital user data could lead to personal identification."),
    (6, "Non-repudiation", "User is unable to deny their online actions."),
    (7, "Non-repudiation", "User is concerned about the permanent storage of their digital transactions."),
    (8, "Detectability", "User is concerned about others detecting their use of sensitive online services."),
    (9, "Detectability", "User presence on certain platforms could be discovered from anonymized data."),
    (10, "Disclosure of information", "User device's communication patterns reveal private information."),
    (11, "Disclosure of information", "User device's communication patterns reveal private information."),
    (12, "Disclosure of information", "The app exposes a private aspect of the user life."),
    (13, "Unawareness", "Unauthorized access to user's private information."),
    (14, "Unawareness", "The user is not aware of how and why their data is being collected, processed, stored, and shared."),
    (15, "Non-compliance", "The user is concerned about the processing or storing of their personal data against regulations or privacy policies."),
    (16, "Non-compliance", "User data is being exploited for other purposes."),
    (17, "Non-compliance", "Data sharing with third parties is discussed."),
    (18, "General Privacy Issues", "The user is facing a privacy issue."),
    (19, "General Privacy Issues", "The user is concerned about protecting their personal data."),
    (20, "General Privacy Issues", "A data anonymity topic is discussed."),
    (21, "General Privacy Issues", "A data privacy topic is discussed."),
)


def builtin_generic() -> HypothesisSet:
    """The 31-sentence generic privacy set with its four-clause heuristics."""
    hypotheses = tuple(
        Hypothesis(
            id=i,
            concept=concept,
            text=text,
            source=(
                HypothesisSource.SOLOVE
                if i <= 16
                else HypothesisSource.WANG_KOBSA if i <= 24 else HypothesisSource.GENERIC
            ),
        )
        for i, concept, text in _GENERIC_ROWS
    )
    heuristics = HeuristicRuleSet(
        positive_rules=(
            ThresholdRule(0.8, 1),
            ThresholdRule(0.7, 3),
            ThresholdRule(0.6, 5),
            ThresholdRule(0.5, 7),
        ),
        negative_threshold=0.4,
        default_label=PseudoLabel.UNDETERMINED,
    )
    return HypothesisSet(GENERIC_SET_ID, "Generic privacy hypotheses", hypotheses, heuristics)


def builtin_domain_mh() -> HypothesisSet:
    """The 21-sentence mental-health domain set; binary labeling, no undetermined.

    Ids 10 and 11 intentionally share the same sentence; the set size stays 21.
    """
    hypotheses = tuple(
        Hypothesis(
            id=i,
            concept=concept,
            text=text,
            source=HypothesisSource.IWAYA if i <= 17 else HypothesisSource.GENERIC,
        )
        for i, concept, text in _DOMAIN_MH_ROWS
    )
    heuristics = HeuristicRuleSet(
        positive_rules=(
            ThresholdRule(0.85, 1),
            ThresholdRule(0.75, 3),
            ThresholdRule(0.7, 5),
        ),
        negative_threshold=None,
        default_label=PseudoLabel.MAYBE_NOT_PRIVACY,
    )
    return HypothesisSet(DOMAIN_MH_SET_ID, "Mental-health domain privacy hypotheses", hypotheses, heuristics)


def hypothesis_set_to_dict(hset: HypothesisSet) -> dict:
    return {
        "set_id": hset.set_id,
        "name": hset.name,
        "hypotheses": [
            {"id": h.id, "concept": h.concept, "text": h.text, "source": h.source.value}
            for h in hset.hypotheses
        ],
        "heuristics": {
            "positive_rules": [[t, k] for t, k in hset.heuristics.positive_rules],
            "negative_rule": (
                [hset.heuristics.negative_threshold]
                if hset.heuristics.negative_threshold is not None
                else None
            ),
            "default_label": hset.heuristics.default_label.value,
        },
    }


def save_hypothesis_set(hset: HypothesisSet, path: str | Path) -> None:
    write_json(Path(path), hypothesis_set_to_dict(hset))


def _parse_heuristics(raw: dict) -> HeuristicRuleSet:
    positive = tuple(ThresholdRule(float(t), int(k)) for t, k in raw["positive_rules"])
    negative_raw = raw.get("negative_rule")
    negative = float(negative_raw[0]) if negative_raw else None
    return HeuristicRuleSet(positive, negative, PseudoLabel(raw["default_label"]))


def _parse_hypothesis_set(raw: dict) -> HypothesisSet:
    hypotheses = tuple(
        Hypothesis(
            id=int(h["id"]),
            concept=str(h.get("concept", "")),
            text=str(h["text"]),
            source=HypothesisSource(h.get("source", "custom")),
        )
        for h in raw["hypotheses"]
    )
    set_id = str(raw["set_id"])
    return HypothesisSet(set_id, str(raw.get("name", set_id)), hypotheses, _parse_heuristics(raw["heuristics"]))


def load_hypothesis_set(path: str | Path) -> HypothesisSet:
    """Load and validate a hypothesis-set JSON file.

    Duplicate sentences are legal (the builtin domain set has one) but get
    flagged in the log so accidental copy-paste is visible.
    """
    path = Path(path)
    hset = read_json(path, _parse_hypothesis_set)
    texts: dict[str, list[int]] = {}
    for h in hset.hypotheses:
        texts.setdefault(h.text, []).append(h.id)
    for text, ids in texts.items():
        if len(ids) > 1:
            logger.warning("%s: hypotheses %s share the same text %r", path.name, ids, text)
    return hset


def resolve_hypothesis_set(ref: str, base_dir: Path | None = None) -> HypothesisSet:
    """Turn a config reference into a set: ``builtin:generic``,
    ``builtin:domain-mh``, or a JSON file path."""
    if ref == "builtin:generic":
        return builtin_generic()
    if ref in ("builtin:domain-mh", "builtin:domain_mh"):
        return builtin_domain_mh()
    path = Path(ref)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    return load_hypothesis_set(path)
