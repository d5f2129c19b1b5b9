"""Deterministic synthetic fixtures with exact expected-count ledgers.

Every generator builds its data by explicit construction (no sampled rates),
so the ledger it returns states exactly what the pipeline must produce when
run over the default mock backends. That ledger is the oracle for the
pipeline and acceptance tests.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

from concernminer.llm.classify import VoteRecord

# Phrases from the default mock trigger table (concernminer.nli.backends).
# STRONG scores ~0.92 on hypothesis ids 14/17: maybe-privacy under both
# builtin rule sets. WEAK scores ~0.83 on id 21: above the generic 0.8
# clause, below every domain clause.
TRIGGER_STRONG = "data trackers"
TRIGGER_WEAK = "weak privacy signal"

BENIGN_TEXTS = (
    "great app love it",
    "crashes on startup every single time",
    "the subscription is way too expensive",
    "cannot log in after the update",
    "new design is confusing and slow",
    "audio keeps cutting out during sessions",
    "please add an offline mode",
    "was charged twice for one month",
    "customer support never answered me",
    "the reminders stopped working",
)

APPS = ("calmly", "mindease", "moodtrack", "chatwell", "sleepy")
STORES = ("google_play", "apple_app_store")


def _row(index: int, text: str, rating: int, label: int | None = None) -> dict:
    return {
        "id": f"r{index:05d}",
        "app": APPS[index % len(APPS)],
        "store": STORES[index % len(STORES)],
        "rating": rating,
        "text": text,
        "label": "" if label is None else label,
        "date": f"2021-{(index % 12) + 1:02d}-{(index % 28) + 1:02d}",
    }


def _write_csv(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=["id", "app", "store", "rating", "text", "label", "date"])
        writer.writeheader()
        writer.writerows(rows)


@dataclass(frozen=True)
class ExtractionLedger:
    ingested: int
    rating_filtered: int
    maybe_privacy: int
    llm_yes: int
    llm_no: int
    yes_ids: tuple[str, ...]
    no_ids: tuple[str, ...]


def build_extraction_fixture(
    data_dir: Path,
    *,
    seed: int = 7,
    n_privacy: int = 60,
    n_benign_low: int = 440,
    n_high: int = 20,
    n_yes: int = 25,
) -> ExtractionLedger:
    """Unlabeled corpus + LLM script for an end-to-end extraction run.

    ``n_privacy`` reviews carry the strong trigger (rated 1-2), ``n_benign_low``
    are benign rated 1-2, ``n_high`` are benign rated 4-5 and fall to the
    rating filter. The LLM script answers yes-majority for ``n_yes`` of the
    trigger reviews and no-majority for the rest.
    """
    rng = random.Random(seed)
    rows: list[dict] = []
    index = 0
    privacy_ids: list[str] = []
    for _ in range(n_privacy):
        text = f"this app has {TRIGGER_STRONG} inside build {index}"
        row = _row(index, text, rating=1 + index % 2)
        rows.append(row)
        privacy_ids.append(row["id"])
        index += 1
    for _ in range(n_benign_low):
        rows.append(_row(index, f"{BENIGN_TEXTS[index % len(BENIGN_TEXTS)]} v{index}", rating=1 + index % 2))
        index += 1
    for _ in range(n_high):
        rows.append(_row(index, f"{BENIGN_TEXTS[index % len(BENIGN_TEXTS)]} v{index}", rating=4 + index % 2))
        index += 1
    rng.shuffle(rows)
    _write_csv(data_dir / "reviews.csv", rows)

    yes_ids = tuple(privacy_ids[:n_yes])
    no_ids = tuple(privacy_ids[n_yes:])
    script = {}
    for review_id in yes_ids:
        script[review_id] = ["Yes, this raises a privacy concern.", "yes", "no", "Yes.", "yes"]
    for review_id in no_ids:
        script[review_id] = ["No.", "no", "The review is about billing.", "no", "NO"]
    (data_dir / "llm_script.json").write_text(json.dumps(script, indent=2) + "\n", encoding="utf-8")

    return ExtractionLedger(
        ingested=n_privacy + n_benign_low + n_high,
        rating_filtered=n_privacy + n_benign_low,
        maybe_privacy=n_privacy,
        llm_yes=n_yes,
        llm_no=n_privacy - n_yes,
        yes_ids=yes_ids,
        no_ids=no_ids,
    )


def extraction_config(data_dir: Path, workdir: Path, *, seed: int = 7) -> dict:
    return {
        "seed": seed,
        "workdir": str(workdir),
        "corpus": {
            "unlabeled": str(data_dir / "reviews.csv"),
            "rating_min": 1,
            "rating_max": 2,
        },
        "hypotheses": {"extraction": "builtin:domain-mh"},
        "nli": {"backends": [{"name": "mock-nli-a", "endpoint": "mock"}]},
        "llm": {
            "backend": {"name": "mock-llm", "endpoint": "mock"},
            "script": str(data_dir / "llm_script.json"),
        },
        "annotators": ["lead", "ann-b", "ann-c", "ann-d"],
    }


@dataclass(frozen=True)
class LabeledLedger:
    """Expected confusion counts for the labeled fixture under the default
    mock backend."""

    n_pos: int
    n_neg: int
    generic_tp: int
    generic_fp: int
    generic_tn: int
    generic_fn: int
    domain_tp: int
    domain_fp: int
    domain_tn: int
    domain_fn: int


def build_labeled_fixture(
    path: Path,
    *,
    seed: int = 3,
    n_pos_strong: int = 372,
    n_pos_benign: int = 42,
    n_neg_strong: int = 96,
    n_neg_weak: int = 60,
    n_neg_benign: int = 806,
) -> LabeledLedger:
    """Gold-labeled corpus shaped like the 414/962 reference sample.

    Strong-trigger reviews land maybe-privacy under both rule sets;
    weak-trigger reviews land maybe-privacy under the generic rules only;
    benign reviews land maybe-not-privacy under both.
    """
    rng = random.Random(seed)
    rows: list[dict] = []
    index = 0
    for _ in range(n_pos_strong):
        rows.append(_row(index, f"angry that {TRIGGER_STRONG} follow me here {index}", 1 + index % 2, label=1))
        index += 1
    for _ in range(n_pos_benign):
        rows.append(_row(index, f"{BENIGN_TEXTS[index % len(BENIGN_TEXTS)]} v{index}", 1 + index % 2, label=1))
        index += 1
    for _ in range(n_neg_strong):
        rows.append(_row(index, f"support joked about {TRIGGER_STRONG} once {index}", 1 + index % 2, label=0))
        index += 1
    for _ in range(n_neg_weak):
        rows.append(_row(index, f"there is a {TRIGGER_WEAK} in the settings {index}", 1 + index % 2, label=0))
        index += 1
    for _ in range(n_neg_benign):
        rows.append(_row(index, f"{BENIGN_TEXTS[index % len(BENIGN_TEXTS)]} v{index}", 1 + index % 2, label=0))
        index += 1
    rng.shuffle(rows)
    _write_csv(path, rows)

    return LabeledLedger(
        n_pos=n_pos_strong + n_pos_benign,
        n_neg=n_neg_strong + n_neg_weak + n_neg_benign,
        generic_tp=n_pos_strong,
        generic_fp=n_neg_strong + n_neg_weak,
        generic_tn=n_neg_benign,
        generic_fn=n_pos_benign,
        domain_tp=n_pos_strong,
        domain_fp=n_neg_strong,
        domain_tn=n_neg_weak + n_neg_benign,
        domain_fn=n_pos_benign,
    )


def selection_config(labeled_csv: Path, workdir: Path, weak_table: Path, *, seed: int = 11) -> dict:
    return {
        "seed": seed,
        "workdir": str(workdir),
        "corpus": {"labeled": str(labeled_csv), "rating_min": 1, "rating_max": 5},
        "hypotheses": {"generic": "builtin:generic", "domain": "builtin:domain-mh"},
        "nli": {
            "backends": [
                {"name": "mock-nli-a", "endpoint": "mock"},
                {"name": "mock-nli-weak", "endpoint": "mock", "mock_table": str(weak_table)},
            ]
        },
        "llm": {"backend": {"name": "mock-llm", "endpoint": "mock"}},
        "annotators": ["lead", "ann-b"],
    }


def write_weak_table(path: Path) -> Path:
    """Trigger table where every phrase scores ~0.5: never positive, never
    negative under the generic rules, so every prediction is negative."""
    from concernminer.nli.backends import DEFAULT_TRIGGER_TABLE

    table = [[phrase, list(ids), 0.5] for phrase, ids, _ in DEFAULT_TRIGGER_TABLE]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(table) + "\n", encoding="utf-8")
    return path


def build_rating_fixture(path: Path, *, seed: int = 5, n_low: int = 436, n_total: int = 2043) -> int:
    """Unlabeled corpus where exactly ``n_low`` reviews are rated 1-2."""
    rng = random.Random(seed)
    rows = []
    for index in range(n_total):
        rating = 1 + index % 2 if index < n_low else 3 + index % 3
        rows.append(_row(index, f"{BENIGN_TEXTS[index % len(BENIGN_TEXTS)]} v{index}", rating))
    rng.shuffle(rows)
    _write_csv(path, rows)
    return n_low


def with_votes_and_decision(record: dict) -> dict:
    """A ``votes.jsonl`` record as versions before compact vote records wrote it: also holding the
    ``votes`` and ``decision`` that its ``raw_responses`` give."""
    derived = VoteRecord(record["review_id"], tuple(record["raw_responses"]))
    return dict(record, votes=[v.value for v in derived.votes], decision=derived.decision.value)
