"""NLI inference backends: the HTTP wire client and a deterministic mock.

Wire contract: POST ``{"premise": ..., "hypothesis": ...}`` to the endpoint,
expect ``{"entailment": p, "neutral": p, "contradiction": p}``. Servers that
use different field names can be adapted through the config block's
``response_fields``.
"""

from __future__ import annotations

import hashlib
import threading
from pathlib import Path
from typing import TYPE_CHECKING

from .._http import HttpBackend, post_json
from .._jsonl import read_json
from ..errors import BackendError, ValidationError
from ..hypotheses import Hypothesis
from .scoring import EntailmentScore

if TYPE_CHECKING:  # pragma: no cover
    from ..config import NliBackendConfig

DEFAULT_RESPONSE_FIELDS = {
    "entailment": "entailment",
    "neutral": "neutral",
    "contradiction": "contradiction",
}


def infer_pair(backend, premise: str, hypothesis: Hypothesis) -> EntailmentScore:
    """Score one premise/hypothesis pair. The premise must be non-empty."""
    if not premise:
        raise ValidationError("premise must be non-empty")
    return backend.score_pair(premise, hypothesis)


class HttpNliBackend(HttpBackend):
    """Client for a zero-shot entailment serving endpoint."""

    def __init__(self, config: NliBackendConfig, **options):
        super().__init__(config, **options)
        self.response_fields = dict(DEFAULT_RESPONSE_FIELDS, **(config.response_fields or {}))

    def score_pair(self, premise: str, hypothesis: Hypothesis) -> EntailmentScore:
        body = post_json(self, {"premise": premise, "hypothesis": hypothesis.text})
        try:
            entail = float(body[self.response_fields["entailment"]])
            neutral_raw = body.get(self.response_fields["neutral"])
            contradict_raw = body.get(self.response_fields["contradiction"])
            neutral = float(neutral_raw) if neutral_raw is not None else None
            contradict = float(contradict_raw) if contradict_raw is not None else None
            return EntailmentScore(entail, neutral, contradict)
        except (KeyError, TypeError, ValueError, ValidationError) as exc:
            raise BackendError(f"{self.name}: malformed backend response {body!r}: {exc}") from None


# Default trigger table for the mock backend. Each row: a phrase that must
# occur in the normalized premise, the hypothesis ids it lights up, and the
# base entailment. Jitter is +/-0.02, so bases are chosen to keep triggered
# cells above 0.85 (or, for the deliberately-weak last row, inside
# (0.8, 0.85)) and untriggered cells below 0.1.
DEFAULT_TRIGGER_TABLE: tuple[tuple[str, tuple[int, ...], float], ...] = (
    ("data trackers", (14, 17), 0.92),
    ("sold my personal information", (14, 16), 0.90),
    ("take their information and sell", (14, 17), 0.90),
    ("stole my identity", (5, 18), 0.90),
    ("medical registries", (13, 19), 0.90),
    ("weak privacy signal", (21,), 0.83),
)

LOW_SCORE = 0.05  # the base entailment of a cell no trigger row lights up


def _parse_trigger_table(raw: list) -> tuple[tuple[str, tuple[int, ...], float], ...]:
    table = tuple((str(phrase), tuple(int(i) for i in ids), float(score)) for phrase, ids, score in raw)
    for phrase, _, score in table:
        if not phrase or not 0.0 < score < 1.0:
            raise ValidationError(f"bad trigger row ({phrase!r}, {score})")
    return table


def load_trigger_table(path: str | Path) -> tuple[tuple[str, tuple[int, ...], float], ...]:
    """Read a mock trigger table: JSON list of ``[phrase, [ids...], score]``."""
    return read_json(Path(path), _parse_trigger_table)


class MockNliBackend:
    """Deterministic offline scorer for tests and demos.

    A premise containing a trigger phrase scores ``base`` on that row's
    hypothesis ids; everything else scores ``LOW_SCORE``. A seed-controlled jitter
    of +/-0.02 (derived from a hash of seed, premise, and hypothesis) makes
    the scores look organic while staying fully reproducible.
    """

    def __init__(
        self,
        name: str = "mock-nli",
        *,
        seed: int = 0,
        triggers: tuple[tuple[str, tuple[int, ...], float], ...] = DEFAULT_TRIGGER_TABLE,
    ):
        self.name = name
        self.seed = seed
        self.triggers = triggers
        self.calls = 0
        self._lock = threading.Lock()

    def _jitter(self, premise: str, hypothesis: Hypothesis) -> float:
        tag = f"{self.seed}|{premise}|{hypothesis.id}|{hypothesis.text}"
        digest = hashlib.sha256(tag.encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "little") / 2**64
        return unit * 0.04 - 0.02

    def score_pair(self, premise: str, hypothesis: Hypothesis) -> EntailmentScore:
        with self._lock:
            self.calls += 1
        base = LOW_SCORE
        for phrase, hyp_ids, score in self.triggers:
            if hypothesis.id in hyp_ids and phrase in premise:
                base = max(base, score)
        entail = min(1.0, max(0.0, base + self._jitter(premise, hypothesis)))
        return EntailmentScore(entail, round((1.0 - entail) * 0.7, 9), round((1.0 - entail) * 0.3, 9))
