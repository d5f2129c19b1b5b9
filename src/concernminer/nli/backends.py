"""NLI inference backends: the HTTP wire client and a deterministic mock.

In-process contract: a backend has a ``name``, and ``score_row(premise, hypotheses)`` yields
one entailment in [0, 1] per hypothesis, in their order; a backend that fails part-way raises
after the cells it yielded, which ``score_corpus`` keeps. ``score_corpus`` refuses a row with
a cell outside [0, 1] or NaN, or with more or fewer cells than hypotheses, and keeps none of it.

Wire contract: POST ``{"premise": ..., "hypothesis": ...}`` to the endpoint,
expect ``{"entailment": p, "neutral": p, "contradiction": p}``, each ``p`` a
JSON number; ``neutral`` and ``contradiction`` may be left out. Servers that
use different field names can be adapted through the config block's
``response_fields``.
"""

from __future__ import annotations

import hashlib
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .._http import HttpBackend, post_json
from .._jsonl import checked, read_json
from ..errors import BackendError, ValidationError
from ..hypotheses import Hypothesis

if TYPE_CHECKING:  # pragma: no cover
    from ..config import NliBackendConfig

DEFAULT_RESPONSE_FIELDS = {
    "entailment": "entailment",
    "neutral": "neutral",
    "contradiction": "contradiction",
}


class EntailmentScore(NamedTuple):
    """Probability mass over entailment / neutral / contradiction; only ``entail``
    goes on, to the matrix and the cache."""

    entail: float
    neutral: float | None = None
    contradict: float | None = None


class HttpNliBackend(HttpBackend):
    """Client for a zero-shot entailment serving endpoint."""

    def __init__(self, config: NliBackendConfig, **options):
        super().__init__(config, **options)
        self.response_fields = dict(DEFAULT_RESPONSE_FIELDS, **(config.response_fields or {}))

    def score_pair(self, premise: str, hypothesis: Hypothesis) -> EntailmentScore:
        body = post_json(self, {"premise": premise, "hypothesis": hypothesis.text})
        fields = self.response_fields
        try:  # each score a JSON number in [0, 1], not a bool or a string; neutral and contradiction may be absent
            entail = checked(fields["entailment"], "float", body[fields["entailment"]])
            neutral, contradict = (
                checked(fields[name], "float", body[fields[name]]) if fields[name] in body else None
                for name in ("neutral", "contradiction")
            )
            others_in_range = (neutral is None or 0.0 <= neutral <= 1.0) and (contradict is None or 0.0 <= contradict <= 1.0)
            if not (0.0 <= entail <= 1.0 and others_in_range):  # one test per score; the loop names the value
                for name, value in (("entail", entail), ("neutral", neutral), ("contradict", contradict)):
                    if value is not None and not 0.0 <= value <= 1.0:
                        raise ValidationError(f"{name} probability {value} outside [0, 1]")
            if neutral is not None and contradict is not None and not 0.99 <= (total := entail + neutral + contradict) <= 1.01:
                raise ValidationError(f"score distribution sums to {total:.4f}, expected ~1")
            return EntailmentScore(entail, neutral, contradict)
        except (KeyError, ValidationError) as exc:
            raise BackendError(f"{self.name}: malformed backend response {body!r}: {exc}") from None

    def score_row(self, premise: str, hypotheses: Sequence[Hypothesis]) -> Iterator[float]:
        for hypothesis in hypotheses:  # one request per cell, each checked where it is parsed
            yield self.score_pair(premise, hypothesis).entail


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
    table = []
    for phrase, ids, score in checked("trigger table", "list", raw):
        phrase, score = checked("trigger phrase", "str", phrase), checked("trigger score", "float", score)
        if not phrase or not 0.0 < score < 1.0:
            raise ValidationError(f"bad trigger row ({phrase!r}, {score})")
        table.append((phrase, tuple(checked("trigger id", "int", i) for i in checked("trigger ids", "list", ids)), score))
    return tuple(table)


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

    def score_row(self, premise: str, hypotheses: Sequence[Hypothesis]) -> Iterator[float]:
        with self._lock:
            self.calls += len(hypotheses)  # one per cell
        bases: dict[int, float] = {}  # the highest base of each id a trigger phrase in the premise lights up
        for phrase, hyp_ids, score in self.triggers:
            if phrase in premise:
                bases.update((hyp_id, max(bases.get(hyp_id, LOW_SCORE), score)) for hyp_id in hyp_ids)
        head = hashlib.sha256(f"{self.seed}|{premise}|".encode("utf-8"))  # the jitter hashes seed|premise|id|text
        for hypothesis in hypotheses:
            tag = head.copy()
            tag.update(f"{hypothesis.id}|{hypothesis.text}".encode("utf-8"))
            unit = int.from_bytes(tag.digest()[:8], "little") / 2**64
            yield min(1.0, max(0.0, bases.get(hypothesis.id, LOW_SCORE) + (unit * 0.04 - 0.02)))

    def score_pair(self, premise: str, hypothesis: Hypothesis) -> EntailmentScore:
        [entail] = self.score_row(premise, [hypothesis])
        return EntailmentScore(entail, round((1.0 - entail) * 0.7, 9), round((1.0 - entail) * 0.3, 9))
