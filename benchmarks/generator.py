"""Seeded corpus generator for the extraction benchmark.

The corpus is built by explicit construction, not by sampling rates, so the
ledger it returns states exactly what ``run_extraction`` must produce over
the default mock backends: every funnel count and the id of every review the
LLM vote keeps. Review texts are already in normalized form (lowercase words
and digits, single spaces), so the text the HTTP stub receives is the text
written here.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

# The hypothesis set the corpus is built for: its positive clauses decide
# which trigger phrases make a review maybe-privacy.
HYPOTHESIS_SET = "builtin:domain-mh"

# Paper funnel: 6,591 of 42,271 rating-filtered reviews are maybe-privacy.
MAYBE_PRIVACY_SHARE = 6591 / 42271
# 4-5 star reviews in the scraped file, dropped by the rating filter.
HIGH_RATED_SHARE = 0.10
# Malformed rows (bad rating, empty text), routed to the rejects file.
REJECTED_SHARE = 0.002

# Words with no trigger phrase in them, so benign reviews score low on every
# hypothesis under the mock trigger table.
BENIGN_WORDS = (
    "app", "crashes", "every", "time", "open", "subscription", "expensive", "login",
    "update", "broken", "design", "confusing", "slow", "audio", "cuts", "out", "session",
    "offline", "mode", "please", "charged", "twice", "month", "support", "never",
    "answered", "reminders", "stopped", "working", "meditation", "timer", "resets",
    "sleep", "sounds", "loud", "ads", "everywhere", "trial", "ended", "early", "cancel",
    "refund", "waiting", "weeks", "therapist", "chat", "lags", "notifications", "spam",
    "battery", "drain", "widget", "missing", "dark", "theme", "font", "small", "sync",
    "fails", "tablet", "phone", "journal", "entries", "lost", "after", "restart",
)

APPS = ("calmly", "mindease", "moodtrack", "chatwell", "sleepy")
STORES = ("google_play", "apple_app_store")

# Canned five-sample replies. Each entry: (name, replies, decision, tie).
# "settles at k" means the k-th sample is the first after which the
# remaining samples cannot change the majority.
REPLY_PATTERNS = (
    ("yes-settles-3", ("Yes.", "yes", "Yes, this raises a privacy concern.", "no", "No."), "yes", False),
    ("yes-settles-4", ("yes", "No.", "Yes", "yes", "no"), "yes", False),
    ("yes-settles-5", ("no", "Yes.", "NO", "yes", "Yes"), "yes", False),
    ("yes-abstain", ("I am not sure.", "yes", "Yes.", "unclear", "no"), "yes", False),
    ("no-settles-3", ("No.", "no", "NO", "yes", "yes"), "no", False),
    ("no-settles-4", ("no", "Yes.", "No, it is about billing.", "no", "yes"), "no", False),
    ("no-settles-5", ("yes", "no", "Yes.", "no", "No."), "no", False),
    ("no-abstain", ("Cannot tell.", "no", "no", "It depends.", "yes"), "no", False),
    ("tie-2-2", ("yes", "no", "Unclear.", "Yes.", "No."), "no", True),
    ("tie-all-abstain", ("Maybe.", "I cannot decide.", "unsure", "Possibly.", "Hard to say."), "no", True),
)
# How often each pattern occurs, per cycle of 19 privacy reviews.
# - Yes share: 5 of 19 slots (26.3%), the nearest whole number of slots to
#   the paper funnel's 1,654 LLM-yes of 6,591 maybe-privacy (25.1%).
# - The split by the sample at which a vote settles, and the abstain and tie
#   shares, are assumptions: no per-sample agreement data is available. Any
#   saving an early stop shows on llm_requests and samples_per_review depends
#   on them; if most real votes are unanimous, the saving is larger.
PATTERN_WEIGHTS = (2, 1, 1, 1, 6, 2, 2, 1, 2, 1)


@dataclass(frozen=True)
class Ledger:
    """What a correct extraction over the generated corpus produces."""

    ingested: int
    rejected: int
    rating_filtered: int
    maybe_privacy: int
    llm_yes: int
    llm_no: int
    ties: int
    yes_ids: tuple[str, ...]

    def counts(self) -> dict:
        """Expected manifest counts after extraction (no annotation yet)."""
        return {
            "ingested": self.ingested,
            "rating_filtered": self.rating_filtered,
            "nli_scored": self.rating_filtered,
            "maybe_privacy": self.maybe_privacy,
            "llm_yes": self.llm_yes,
            "llm_no": self.llm_no,
            "llm_failed": 0,
            "human_confirmed": 0,
            "human_rejected": 0,
        }


def _text(rng: random.Random, index: int, phrase: str | None) -> str:
    words = [rng.choice(BENIGN_WORDS) for _ in range(rng.randint(8, 40))]
    if phrase is not None:
        words.insert(rng.randint(0, len(words)), phrase)
    words.append(f"n{index}")  # unique text: the stub keys replies by text
    return " ".join(words)


def build_corpus(data_dir: Path, seed: int, n_filtered: int, trigger_phrases: tuple[str, ...]) -> Ledger:
    """Write ``reviews.csv``, ``llm_script.json`` (review id -> replies, for the
    mock LLM) and ``llm_by_text.json`` (review text -> replies, for the HTTP
    stub) under ``data_dir``; return the ledger.

    ``trigger_phrases`` must each score above every positive-clause
    threshold of the extraction hypothesis set under the mock NLI backend.
    """
    rng = random.Random(seed)
    n_privacy = round(n_filtered * MAYBE_PRIVACY_SHARE)
    n_high = round(n_filtered * HIGH_RATED_SHARE)
    n_rejected = max(1, round(n_filtered * REJECTED_SHARE))

    rows: list[dict] = []
    privacy_ids: list[str] = []
    for index in range(n_filtered + n_high):
        privacy = index < n_privacy
        phrase = trigger_phrases[index % len(trigger_phrases)] if privacy else None
        rating = 1 + index % 2 if index < n_filtered else 4 + index % 2
        review_id = f"r{index:06d}"
        rows.append(
            {
                "id": review_id,
                "app": APPS[index % len(APPS)],
                "store": STORES[index % len(STORES)],
                "rating": rating,
                "text": _text(rng, index, phrase),
                "label": "",
                "date": f"2021-{index % 12 + 1:02d}-{index % 28 + 1:02d}",
            }
        )
        if privacy:
            privacy_ids.append(review_id)
    for k in range(n_rejected):
        bad = {"id": f"x{k:06d}", "app": APPS[0], "store": STORES[0], "rating": 3, "text": "", "label": "", "date": ""}
        if k % 2:
            bad.update(rating=9, text=_text(rng, k, None))
        rows.append(bad)
    rng.shuffle(rows)

    data_dir.mkdir(parents=True, exist_ok=True)
    with (data_dir / "reviews.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=["id", "app", "store", "rating", "text", "label", "date"])
        writer.writeheader()
        writer.writerows(rows)

    cycle = [p for p, weight in zip(REPLY_PATTERNS, PATTERN_WEIGHTS) for _ in range(weight)]
    shuffled = list(privacy_ids)
    rng.shuffle(shuffled)
    text_by_id = {row["id"]: row["text"] for row in rows}
    script: dict[str, list[str]] = {}
    by_text: dict[str, list[str]] = {}
    yes_ids, ties = [], 0
    for k, review_id in enumerate(shuffled):
        _, replies, decision, tie = cycle[k % len(cycle)]
        script[review_id] = list(replies)
        by_text[text_by_id[review_id]] = list(replies)
        if decision == "yes":
            yes_ids.append(review_id)
        ties += tie
    (data_dir / "llm_script.json").write_text(json.dumps(script, sort_keys=True), encoding="utf-8")
    (data_dir / "llm_by_text.json").write_text(json.dumps(by_text, sort_keys=True), encoding="utf-8")

    return Ledger(
        ingested=n_filtered + n_high,
        rejected=n_rejected,
        rating_filtered=n_filtered,
        maybe_privacy=n_privacy,
        llm_yes=len(yes_ids),
        llm_no=n_privacy - len(yes_ids),
        ties=ties,
        yes_ids=tuple(sorted(yes_ids)),
    )
