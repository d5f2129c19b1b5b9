"""Privacy hypothesis sets and the threshold-count rules that label reviews.

Two taxonomies ship built in: a 31-sentence generic privacy set and a
21-sentence mental-health domain set, each paired with its threshold
heuristics. Both are written as data in the schema of a set file and built
by the parser that reads a user's set from JSON.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from ._jsonl import checked, read_json
from .errors import ValidationError
from .labels import PseudoLabel

logger = logging.getLogger(__name__)


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


# The built-in sets in the schema of a set file, one hypothesis per line.
_GENERIC = {
    "set_id": "generic-31", "name": "Generic privacy hypotheses",
    "hypotheses": [
        {"id": 1, "concept": "Surveillance", "text": "The user is facing a data surveillance issue.", "source": "solove"},
        {"id": 2, "concept": "Interrogation", "text": "The user is forced to provide information.", "source": "solove"},
        {"id": 3, "concept": "Aggregation", "text": "Personal user information is collected from other sources.", "source": "solove"},
        {"id": 4, "concept": "Insecurity", "text": "The user is concerned about protecting their personal data.", "source": "solove"},
        {"id": 5, "concept": "Identification", "text": "A data anonymity topic is discussed.", "source": "solove"},
        {"id": 6, "concept": "Secondary Use", "text": "The user is concerned about the purposes of personal data access.", "source": "solove"},
        {"id": 7, "concept": "Exclusion", "text": "The user wants to correct their personal information.", "source": "solove"},
        {"id": 8, "concept": "Breach of Confidentiality", "text": "A breach of data confidentiality is discussed.", "source": "solove"},
        {"id": 9, "concept": "Disclosure", "text": "Personal data disclosure is discussed.", "source": "solove"},
        {"id": 10, "concept": "Exposure", "text": "The app exposes a private aspect of the user life.", "source": "solove"},
        {"id": 11, "concept": "Increased Accessibility", "text": "User’s data has been made accessible to public.", "source": "solove"},
        {"id": 12, "concept": "Blackmail", "text": "A data blackmailing issue is discussed.", "source": "solove"},
        {"id": 13, "concept": "Appropriation", "text": "User data is being exploited for other purposes.", "source": "solove"},
        {"id": 14, "concept": "Distortion", "text": "False data is presented about the user.", "source": "solove"},
        {"id": 15, "concept": "Intrusion", "text": "Unwanted intrusion to personal info is discussed.", "source": "solove"},
        {"id": 16, "concept": "Decisional Interference", "text": "Intrusion by the government to the user’s life is discussed.", "source": "solove"},
        {"id": 17, "concept": "Notice/Awareness", "text": "Opting out from personal data collection is discussed.", "source": "wang_kobsa"},
        {"id": 18, "concept": "Data Minimization", "text": "More access than needed is required.", "source": "wang_kobsa"},
        {"id": 19, "concept": "Purpose Specification", "text": "The reason for data access is not provided.", "source": "wang_kobsa"},
        {"id": 20, "concept": "Collection Limitation", "text": "Too much personal data is collected.", "source": "wang_kobsa"},
        {"id": 21, "concept": "Use Limitation", "text": "The data is being used for unexpected purposes.", "source": "wang_kobsa"},
        {"id": 22, "concept": "Onward Transfer", "text": "Data sharing with third parties is discussed.", "source": "wang_kobsa"},
        {"id": 23, "concept": "Choice/Consent", "text": "User choice for personal data collection is discussed.", "source": "wang_kobsa"},
        {"id": 24, "concept": "Choice/Consent", "text": "User did not allow access to their personal data.", "source": "wang_kobsa"},
        {"id": 25, "concept": "Generic Privacy Issues", "text": "A data privacy topic is discussed.", "source": "generic"},
        {"id": 26, "concept": "Generic Privacy Issues", "text": "Protecting user’s personal data is discussed.", "source": "generic"},
        {"id": 27, "concept": "Generic Privacy Issues", "text": "This is about a privacy feature.", "source": "generic"},
        {"id": 28, "concept": "Generic Privacy Issues", "text": "The user is facing a privacy issue.", "source": "generic"},
        {"id": 29, "concept": "Positive Privacy Issues", "text": "The user likes that data privacy is provided.", "source": "generic"},
        {"id": 30, "concept": "Positive Privacy Issues", "text": "The user wants privacy.", "source": "generic"},
        {"id": 31, "concept": "Positive Privacy Issues", "text": "The app has privacy features.", "source": "generic"},
    ],
    "heuristics": {"positive_rules": [[0.8, 1], [0.7, 3], [0.6, 5], [0.5, 7]], "negative_rule": [0.4], "default_label": "undetermined"},
}

# Ids 10 and 11 intentionally share a sentence; the set size stays 21.
_DOMAIN_MH = {
    "set_id": "mh-domain-21", "name": "Mental-health domain privacy hypotheses",
    "hypotheses": [
        {"id": 1, "concept": "Linkability", "text": "User data being linked across different services.", "source": "iwaya"},
        {"id": 2, "concept": "Linkability", "text": "Online user activities from various platforms can be connected.", "source": "iwaya"},
        {"id": 3, "concept": "Linkability", "text": "Personal user information is collected from other sources.", "source": "iwaya"},
        {"id": 4, "concept": "Identifiability", "text": "Anonymized user data could be used to reveal their identity.", "source": "iwaya"},
        {"id": 5, "concept": "Identifiability", "text": "Unique digital user data could lead to personal identification.", "source": "iwaya"},
        {"id": 6, "concept": "Non-repudiation", "text": "User is unable to deny their online actions.", "source": "iwaya"},
        {"id": 7, "concept": "Non-repudiation", "text": "User is concerned about the permanent storage of their digital transactions.", "source": "iwaya"},
        {"id": 8, "concept": "Detectability", "text": "User is concerned about others detecting their use of sensitive online services.", "source": "iwaya"},
        {"id": 9, "concept": "Detectability", "text": "User presence on certain platforms could be discovered from anonymized data.", "source": "iwaya"},
        {"id": 10, "concept": "Disclosure of information", "text": "User device's communication patterns reveal private information.", "source": "iwaya"},
        {"id": 11, "concept": "Disclosure of information", "text": "User device's communication patterns reveal private information.", "source": "iwaya"},
        {"id": 12, "concept": "Disclosure of information", "text": "The app exposes a private aspect of the user life.", "source": "iwaya"},
        {"id": 13, "concept": "Unawareness", "text": "Unauthorized access to user's private information.", "source": "iwaya"},
        {"id": 14, "concept": "Unawareness", "text": "The user is not aware of how and why their data is being collected, processed, stored, and shared.", "source": "iwaya"},
        {"id": 15, "concept": "Non-compliance", "text": "The user is concerned about the processing or storing of their personal data against regulations or privacy policies.", "source": "iwaya"},
        {"id": 16, "concept": "Non-compliance", "text": "User data is being exploited for other purposes.", "source": "iwaya"},
        {"id": 17, "concept": "Non-compliance", "text": "Data sharing with third parties is discussed.", "source": "iwaya"},
        {"id": 18, "concept": "General Privacy Issues", "text": "The user is facing a privacy issue.", "source": "generic"},
        {"id": 19, "concept": "General Privacy Issues", "text": "The user is concerned about protecting their personal data.", "source": "generic"},
        {"id": 20, "concept": "General Privacy Issues", "text": "A data anonymity topic is discussed.", "source": "generic"},
        {"id": 21, "concept": "General Privacy Issues", "text": "A data privacy topic is discussed.", "source": "generic"},
    ],
    "heuristics": {"positive_rules": [[0.85, 1], [0.75, 3], [0.7, 5]], "negative_rule": None, "default_label": "maybe-not-privacy"},
}


def builtin_generic() -> HypothesisSet:
    """The 31-sentence generic privacy set with its four-clause heuristics."""
    return _parse_hypothesis_set(_GENERIC)


def builtin_domain_mh() -> HypothesisSet:
    """The 21-sentence mental-health domain set; binary labeling, no undetermined."""
    return _parse_hypothesis_set(_DOMAIN_MH)


def hypothesis_set_to_dict(hset: HypothesisSet) -> dict:
    rules = hset.heuristics
    return {
        "set_id": hset.set_id,
        "name": hset.name,
        "hypotheses": [{"id": h.id, "concept": h.concept, "text": h.text, "source": h.source.value} for h in hset.hypotheses],
        "heuristics": {
            "positive_rules": [[t, k] for t, k in rules.positive_rules],
            "negative_rule": None if rules.negative_threshold is None else [rules.negative_threshold],
            "default_label": rules.default_label.value,
        },
    }


def _rule(field: str, value, shape: str, length: int) -> list:
    """``value`` if it is a list of ``length`` items; otherwise a ValidationError says ``field`` must be ``shape``."""
    if not isinstance(value, list) or len(value) != length:
        raise ValidationError(f"{field} must be {shape}, not {value!r}")
    return value


def _parse_heuristics(raw: dict) -> HeuristicRuleSet:
    positive = tuple(
        ThresholdRule(checked("positive rule threshold", "float", t), checked("positive rule min_count", "int", k))
        for t, k in (_rule("positive rule", r, "[threshold, min_count]", 2) for r in checked("positive_rules", "list", raw["positive_rules"]))
    )
    negative = raw.get("negative_rule")
    if negative is not None:
        negative = checked("negative_rule threshold", "float", _rule("negative_rule", negative, "null or [threshold]", 1)[0])
    return HeuristicRuleSet(positive, negative, PseudoLabel(raw["default_label"]))


def _parse_hypothesis_set(raw: dict) -> HypothesisSet:
    """The set a set file's JSON object describes, each value's type checked."""
    hypotheses = tuple(
        Hypothesis(
            id=checked("hypothesis id", "int", h["id"]),
            concept=checked("hypothesis concept", "str", h.get("concept", "")),
            text=checked("hypothesis text", "str", h["text"]),
            source=HypothesisSource(h.get("source", "custom")),
        )
        for h in checked("hypotheses", "list", raw["hypotheses"])
    )
    set_id = checked("set_id", "str", raw["set_id"])
    name = checked("name", "str", raw.get("name", set_id))
    return HypothesisSet(set_id, name, hypotheses, _parse_heuristics(raw["heuristics"]))


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


def resolve_hypothesis_set(ref: str | Path, base_dir: Path | None = None) -> HypothesisSet:
    """Turn a config reference into a set: ``builtin:generic``,
    ``builtin:domain-mh``, or a JSON file path."""
    builtins = {"builtin:generic": builtin_generic, "builtin:domain-mh": builtin_domain_mh}
    if isinstance(ref, str) and ref.startswith("builtin:"):
        if ref not in builtins:
            raise ValidationError(f"unknown hypothesis set {ref!r}; the built-in sets are {' and '.join(builtins)}")
        return builtins[ref]()
    path = Path(ref)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    return load_hypothesis_set(path)
