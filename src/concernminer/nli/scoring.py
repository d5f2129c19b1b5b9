"""Entailment score types, the review × hypothesis matrix, caching, and scoring.

The score cache is append-only JSONL keyed by (backend name, hypothesis-set
content hash, review id, hypothesis id); a rerun over a warm cache issues
zero backend calls and reproduces the matrix bit for bit.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .._jsonl import append_log, read_log
from ..errors import BackendError, ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from ..corpus import ReviewCorpus
    from ..hypotheses import HypothesisSet

logger = logging.getLogger(__name__)

MATRIX_DTYPE = np.dtype("<f4")  # little-endian 32-bit reals, row-major on disk


@dataclass(frozen=True)
class EntailmentScore:
    """Probability mass over entailment / neutral / contradiction.

    Only ``entail`` feeds the heuristics; the other two are kept for
    diagnostics and validated when the backend reports them.
    """

    entail: float
    neutral: float | None = None
    contradict: float | None = None

    def __post_init__(self) -> None:
        for name, value in (("entail", self.entail), ("neutral", self.neutral), ("contradict", self.contradict)):
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} probability {value} outside [0, 1]")
        if self.neutral is not None and self.contradict is not None:
            total = self.entail + self.neutral + self.contradict
            if not 0.99 <= total <= 1.01:
                raise ValidationError(f"score distribution sums to {total:.4f}, expected ~1")


@dataclass(frozen=True)
class EntailmentMatrix:
    review_ids: tuple[str, ...]
    hypothesis_ids: tuple[int, ...]
    set_hash: str
    backend: str
    scores: np.ndarray  # shape (len(review_ids), len(hypothesis_ids)), float32

    def __post_init__(self) -> None:
        expected = (len(self.review_ids), len(self.hypothesis_ids))
        if self.scores.shape != expected:
            raise ValidationError(f"score grid shape {self.scores.shape} != {expected}")
        if self.scores.size and (self.scores.min() < 0.0 or self.scores.max() > 1.0):
            raise ValidationError("score grid contains values outside [0, 1]")
        object.__setattr__(self, "scores", np.ascontiguousarray(self.scores, dtype=MATRIX_DTYPE))

    @property
    def shape(self) -> tuple[int, int]:
        return self.scores.shape


def save_matrix(matrix: EntailmentMatrix, path: str | Path) -> None:
    """One JSON header line, then the raw float32 grid in row-major order."""
    header = {
        "reviews": list(matrix.review_ids),
        "hypotheses": list(matrix.hypothesis_ids),
        "backend": matrix.backend,
        "set_hash": matrix.set_hash,
    }
    with Path(path).open("wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        handle.write(matrix.scores.astype(MATRIX_DTYPE, copy=False).tobytes())


def load_matrix(path: str | Path) -> EntailmentMatrix:
    blob = Path(path).read_bytes()
    newline = blob.find(b"\n")
    if newline < 0:
        raise ValidationError(f"{path}: missing matrix header line")
    try:
        header = json.loads(blob[:newline].decode("utf-8"))
        review_ids = tuple(str(r) for r in header["reviews"])
        hypothesis_ids = tuple(int(h) for h in header["hypotheses"])
        backend = str(header["backend"])
        set_hash = str(header["set_hash"])
    except (KeyError, TypeError, ValueError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: malformed matrix header: {exc}") from None
    body = blob[newline + 1 :]
    expected = len(review_ids) * len(hypothesis_ids)
    if len(body) != expected * MATRIX_DTYPE.itemsize:
        raise ValidationError(
            f"{path}: expected {expected * MATRIX_DTYPE.itemsize} grid bytes, found {len(body)}"
        )
    grid = np.frombuffer(body, dtype=MATRIX_DTYPE)
    grid = grid.reshape(len(review_ids), len(hypothesis_ids)).copy()
    return EntailmentMatrix(review_ids, hypothesis_ids, set_hash, backend, grid)


class ScoreCache:
    """Append-only entailment score cache.

    All writes go through :meth:`put` on the thread that drives scoring, so
    the file sees a single writer; new records reach the file in batches of
    ``FLUSH_EVERY`` and on :meth:`flush`. Passing ``path=None`` keeps the
    cache purely in memory.
    """

    FLUSH_EVERY = 512

    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path is not None else None
        self._entries: dict[str, EntailmentScore] = {}
        self._pending: list[dict] = []
        if self.path is not None:
            for record in read_log(self.path):
                key = self._key(record["backend"], record["set_hash"], record["review_id"], record["hypothesis_id"])
                self._entries[key] = EntailmentScore(record["entail"], record.get("neutral"), record.get("contradict"))

    @staticmethod
    def _key(backend: str, set_hash: str, review_id: str, hypothesis_id: int) -> str:
        return json.dumps([backend, set_hash, review_id, hypothesis_id], separators=(",", ":"))

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, backend: str, set_hash: str, review_id: str, hypothesis_id: int) -> EntailmentScore | None:
        return self._entries.get(self._key(backend, set_hash, review_id, hypothesis_id))

    def put(self, backend: str, set_hash: str, review_id: str, hypothesis_id: int, score: EntailmentScore) -> None:
        key = self._key(backend, set_hash, review_id, hypothesis_id)
        if key in self._entries:
            return
        self._entries[key] = score
        if self.path is not None:
            self._pending.append(
                {
                    "backend": backend,
                    "set_hash": set_hash,
                    "review_id": review_id,
                    "hypothesis_id": hypothesis_id,
                    "entail": score.entail,
                    "neutral": score.neutral,
                    "contradict": score.contradict,
                }
            )
            if len(self._pending) >= self.FLUSH_EVERY:
                self.flush()

    def flush(self) -> None:
        if self._pending:
            append_log(self.path, self._pending)
            self._pending = []

    def __enter__(self) -> "ScoreCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.flush()


# An empty normalized review entails nothing; scoring it remotely would be
# undefined, so it gets certainty-neutral mass without a backend call.
EMPTY_PREMISE_SCORE = EntailmentScore(entail=0.0, neutral=1.0, contradict=0.0)


def score_corpus(
    backend,
    corpus: "ReviewCorpus | Iterable",
    hset: "HypothesisSet",
    *,
    cache: ScoreCache | None = None,
    max_inflight: int = 8,
) -> EntailmentMatrix:
    """Score every (review, hypothesis) pair, consulting the cache first.

    Requires normalized reviews. Bounded concurrency (``max_inflight``
    worker threads); results are committed to the cache in completion order
    by the calling thread. On backend failure the raised
    :class:`BackendError` carries the completed-cell count; everything
    already written to the cache survives for the rerun.
    """
    reviews = list(corpus)
    for review in reviews:
        if review.text_norm is None:
            raise ValidationError(f"review {review.id!r} is not normalized; run normalization first")
    if max_inflight < 1:
        raise ValidationError("max_inflight must be >= 1")

    review_ids = tuple(r.id for r in reviews)
    hyp_ids = tuple(h.id for h in hset.hypotheses)
    grid = np.zeros((len(reviews), len(hyp_ids)), dtype=MATRIX_DTYPE)
    cache = cache if cache is not None else ScoreCache(None)

    jobs: list[tuple[int, int, str, object, str]] = []
    for i, review in enumerate(reviews):
        for j, hyp in enumerate(hset.hypotheses):
            hit = cache.get(backend.name, hset.version_hash, review.id, hyp.id)
            if hit is not None:
                grid[i, j] = hit.entail
            elif review.text_norm == "":
                cache.put(backend.name, hset.version_hash, review.id, hyp.id, EMPTY_PREMISE_SCORE)
                grid[i, j] = 0.0
            else:
                jobs.append((i, j, review.id, hyp, review.text_norm))

    def work(job):
        i, j, review_id, hyp, premise = job
        return i, j, review_id, hyp.id, backend.score_pair(premise, hyp)

    completed = 0
    if jobs:
        with ThreadPoolExecutor(max_workers=max_inflight) as executor:
            try:
                for i, j, review_id, hyp_id, score in executor.map(work, jobs):
                    grid[i, j] = score.entail
                    cache.put(backend.name, hset.version_hash, review_id, hyp_id, score)
                    completed += 1
            except BackendError as exc:
                raise BackendError(
                    f"scoring aborted after {completed} of {len(jobs)} uncached cells: {exc}",
                    completed=completed,
                    total=len(jobs),
                ) from exc
            finally:
                cache.flush()

    logger.info(
        "scored %d reviews x %d hypotheses with %s (%d backend calls, %d cache hits)",
        len(reviews),
        len(hyp_ids),
        backend.name,
        completed,
        len(reviews) * len(hyp_ids) - completed,
    )
    return EntailmentMatrix(review_ids, hyp_ids, hset.version_hash, backend.name, grid)
