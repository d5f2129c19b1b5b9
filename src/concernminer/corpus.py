"""Review data model plus ingestion, normalization, filtering, and partitioning.

Every downstream stage consumes the :class:`Review` / :class:`ReviewCorpus`
types defined here. Ingestion never drops records silently: anything that
fails validation is kept, with its reason, for a machine-readable rejects file.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from enum import Enum
from pathlib import Path

from ._jsonl import write_jsonl
from .errors import SchemaMismatchError, ValidationError

logger = logging.getLogger(__name__)

CSV_COLUMNS = ("id", "app", "store", "rating", "text", "label", "date")
_REQUIRED = ("id", "app", "store", "rating", "text")
_ASCII_FORM = str.maketrans({chr(c): chr(c).lower() if chr(c).isalnum() else " " for c in range(128)})  # see normalize_text


class Store(str, Enum):
    GOOGLE_PLAY = "google_play"
    APPLE_APP_STORE = "apple_app_store"
    OTHER = "other"


def normalize_text(text_raw: str) -> str:
    """Lowercase, replace every non-alphanumeric character with a space,
    collapse space runs, and trim (an ASCII text in one table lookup per character).

    Idempotent: ``normalize_text(normalize_text(x)) == normalize_text(x)``.
    """
    if text_raw.isascii():
        return " ".join(text_raw.translate(_ASCII_FORM).split())
    return " ".join(re.sub(r"[\W_]+", " ", text_raw.lower()).split())  # \w: isalnum or _


@dataclass(frozen=True, slots=True)
class Review:
    """One app-store review.

    ``gold_label`` is the manual annotation (1 = privacy-related,
    0 = non-privacy) when the review belongs to the labeled sample;
    ``text_norm`` is derived, never ingested.
    """

    id: str
    app_name: str
    store: Store
    rating: int
    text_raw: str
    text_norm: str | None = None
    submitted_at: date | None = None
    gold_label: int | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("review id must be non-empty")
        if not isinstance(self.rating, int) or not 1 <= self.rating <= 5:
            raise ValidationError(f"rating must be an integer in [1, 5], got {self.rating!r}")
        if self.gold_label is not None and self.gold_label not in (0, 1):
            raise ValidationError(f"gold_label must be 0 or 1, got {self.gold_label!r}")
        if self.text_norm is not None and normalize_text(self.text_norm) != self.text_norm:
            raise ValidationError("text_norm is not in normalized form")

    def normalized(self) -> "Review":
        """Return a copy with ``text_norm`` derived from ``text_raw``, so in normal form.

        Built from this review's fields without ``__init__``: they were
        checked when it was made, and ``normalize_text`` output needs no recheck.
        """
        review = object.__new__(type(self))
        for name in self.__slots__:
            object.__setattr__(review, name, getattr(self, name))
        object.__setattr__(review, "text_norm", normalize_text(self.text_raw))
        return review


@dataclass(frozen=True)
class Provenance:
    rejects: tuple[dict, ...] = ()  # the records rejected at ingest, {line_no, reason}, in file order
    counts = property(lambda self: {"rejected": len(self.rejects)})  # derived, read-only; benchmarks/runner.py reads it


@dataclass(frozen=True)
class ReviewCorpus:
    reviews: tuple[Review, ...]
    provenance: Provenance

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for review in self.reviews:
            if review.id in seen:
                raise ValidationError(f"duplicate review id {review.id!r} in corpus")
            seen.add(review.id)

    def __len__(self) -> int:
        return len(self.reviews)

    def __iter__(self):
        return iter(self.reviews)

    def derive(self, reviews: tuple[Review, ...]) -> "ReviewCorpus":
        """New corpus over ``reviews``, a subset of this one's, with its provenance; their ids are not checked again."""
        corpus = object.__new__(ReviewCorpus)
        corpus.__dict__.update(reviews=reviews, provenance=self.provenance)
        return corpus


_ISO_DATE = re.compile(r"(\d{4})-(\d\d)-(\d\d)(?:[T ](\d\d):(\d\d)(?::(\d\d)(?:\.\d{3}(?:\d{3})?)?)?(?:Z|[+-](\d\d):(\d\d))?)?", re.ASCII)


def _iso_date(text: str) -> date:
    """The date of ``text`` in the one ISO-8601 grammar read on every Python: a date, or a date and a time of
    day after "T" or a space (seconds optional, with 3 or 6 fraction digits), then "Z" or an offset under a day."""
    match = _ISO_DATE.fullmatch(text)
    if match is None:
        raise ValueError(f"{text!r} is not one of the ISO-8601 forms read")
    if match.group(4) is None:  # a date alone
        return date(*map(int, match.group(1, 2, 3)))
    year, month, day, hour, minute, second, off_h, off_m = (int(group or 0) for group in match.groups())
    return datetime(year, month, day, hour, minute, second, tzinfo=timezone(timedelta(hours=off_h, minutes=off_m))).date()


def parse_record(raw: dict) -> Review:
    """Read one record of the ingestion schema into a review."""
    for key in _REQUIRED:
        value = raw.get(key)
        if value is None or (isinstance(value, str) and not value.strip()):
            raise ValidationError(f"missing required field '{key}'")

    try:
        store = Store(str(raw["store"]).strip())
    except ValueError:
        raise ValidationError(f"unknown store {raw['store']!r}") from None

    try:
        rating = int(str(raw["rating"]).strip())
    except ValueError:
        raise ValidationError(f"rating {raw['rating']!r} is not an integer") from None
    if not 1 <= rating <= 5:
        raise ValidationError(f"rating {rating} outside [1, 5]")

    label = "" if raw.get("label") is None else str(raw["label"]).strip()  # "": no label
    try:
        gold_label = int(label) if label else None
    except ValueError:
        raise ValidationError(f"label {raw['label']!r} is not 0/1") from None
    if gold_label not in (None, 0, 1):
        raise ValidationError(f"label {gold_label} is not 0/1")

    text = "" if raw.get("date") is None else str(raw["date"]).strip()  # "": no date
    try:
        submitted_at = _iso_date(text) if text else None
    except ValueError:
        raise ValidationError(f"date {text!r} is not ISO-8601") from None

    return Review(
        id=str(raw["id"]).strip(),
        app_name=str(raw["app"]).strip(),
        store=store,
        rating=rating,
        text_raw=str(raw["text"]),
        submitted_at=submitted_at,
        gold_label=gold_label,
    )


def _iter_csv(path: Path):
    """Each non-blank row as ``csv.DictReader`` reads it (a short row's missing cells ``None``), less cells past the header."""
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or "id" not in header:
            raise ValidationError(f"{path}: missing CSV header with an 'id' column")
        for row in reader:
            if row:
                yield reader.line_num, dict(zip(header, row + [None] * (len(header) - len(row))))


def _iter_jsonl(path: Path):
    with path.open(encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                yield line_no, ValidationError(f"invalid json: {exc.msg}")
                continue
            if not isinstance(record, dict):
                yield line_no, ValidationError("record is not a JSON object")
                continue
            yield line_no, record


def detect_format(source: Path) -> str:
    suffix = source.suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    raise ValidationError(f"cannot infer format from {source.name!r}; pass format explicitly")


def ingest_reviews(source: str | Path, fmt: str | None = None) -> ReviewCorpus:
    """Read a review file into a corpus, writing nothing: each bad record is kept, with its line number and
    reason, in the corpus's ``provenance.rejects`` (:func:`write_rejects` writes them).

    Unknown columns/keys are ignored so provenance-enriched exports remain
    round-trippable. Aborts with :class:`SchemaMismatchError` when more than
    half of the records fail validation.
    """
    source = Path(source)
    if not source.exists():
        raise ValidationError(f"no such file: {source}")
    fmt = fmt or detect_format(source)
    if fmt == "csv":
        records = _iter_csv(source)
    elif fmt == "jsonl":
        records = _iter_jsonl(source)
    else:
        raise ValidationError(f"unknown format {fmt!r} (expected csv or jsonl)")

    reviews: list[Review] = []
    rejects: list[dict] = []
    seen_ids: set[str] = set()
    for line_no, record in records:
        if isinstance(record, ValidationError):
            rejects.append({"line_no": line_no, "reason": str(record)})
            continue
        try:
            review = parse_record(record)
        except ValidationError as exc:
            rejects.append({"line_no": line_no, "reason": str(exc)})
            continue
        if review.id in seen_ids:
            rejects.append({"line_no": line_no, "reason": f"duplicate id {review.id!r}"})
            continue
        seen_ids.add(review.id)
        reviews.append(review)

    total = len(reviews) + len(rejects)
    if total and len(rejects) * 2 > total:
        raise SchemaMismatchError(
            f"{source}: {len(rejects)} of {total} records rejected, the first on line"
            f" {rejects[0]['line_no']}: {rejects[0]['reason']}; file does not match the schema"
        )

    return ReviewCorpus(tuple(reviews), Provenance(tuple(rejects)))


def write_rejects(path: Path, rejects: list[dict] | tuple[dict, ...]) -> None:
    """Write rejected records to ``path``, making its directory if need be."""
    path.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(path, rejects)
    if rejects:
        logger.warning("rejected %d record(s), see %s", len(rejects), path)


def normalize_corpus(corpus: ReviewCorpus) -> ReviewCorpus:
    """Corpus with ``text_norm`` filled in for every review."""
    return corpus.derive(tuple(r.normalized() for r in corpus))


def filter_by_rating(corpus: ReviewCorpus, min_rating: int, max_rating: int) -> ReviewCorpus:
    """Keep reviews with ``min_rating <= rating <= max_rating``, order preserved."""
    if not (1 <= min_rating <= max_rating <= 5):
        raise ValidationError(f"invalid rating bounds ({min_rating}, {max_rating})")
    kept = tuple(r for r in corpus if min_rating <= r.rating <= max_rating)
    return corpus.derive(kept)


def partition_gold(corpus: ReviewCorpus) -> tuple[ReviewCorpus, ReviewCorpus]:
    """Split into (labeled, unlabeled) by presence of a gold label."""
    labeled = tuple(r for r in corpus if r.gold_label is not None)
    unlabeled = tuple(r for r in corpus if r.gold_label is None)
    return corpus.derive(labeled), corpus.derive(unlabeled)


def review_to_record(review: Review) -> dict:
    """Flat dict matching the ingestion schema (plus nothing else)."""
    return {
        "id": review.id,
        "app": review.app_name,
        "store": review.store.value,
        "rating": review.rating,
        "text": review.text_raw,
        "label": review.gold_label,
        "date": review.submitted_at.isoformat() if review.submitted_at else None,
    }


def write_corpus(corpus: ReviewCorpus, path: str | Path) -> None:
    """Write a corpus back out as JSONL in the ingestion schema."""
    write_jsonl(Path(path), (review_to_record(review) for review in corpus))
