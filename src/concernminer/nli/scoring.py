"""Entailment score types, the review × hypothesis matrix, caching, and scoring.

A review's row is the unit of scoring work and of cache record; cells are keyed by
(backend name, hypothesis-set content hash, review id, hypothesis id), so a rerun
resumes cell by cell; a warm rerun calls no backend and reproduces the matrix bit for bit.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .._jsonl import append_log, read_log, replace_file
from .._window import run_ordered
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
    with replace_file(Path(path), "wb") as handle:
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
    """Append-only entailment score cache, one JSONL record per scored row:
    ``{backend, set_hash, review_id, row: [[hypothesis_id, entail, neutral,
    contradict], ...]}``. Older one-cell records still load.

    All writes go through :meth:`put_row` on the thread that drives scoring,
    so the file sees a single writer; records reach the file once
    ``FLUSH_EVERY`` cells are pending and on :meth:`flush`. Passing
    ``path=None`` keeps the cache purely in memory. ``len()`` counts cells.
    """

    FLUSH_EVERY = 512

    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path is not None else None
        self._entries: dict[tuple[str, str, str, int], EntailmentScore] = {}
        self._pending: list[dict] = []
        self._pending_cells = 0
        if self.path is not None:
            self._entries.update(cell for cells in read_log(self.path, _record_cells) for cell in cells)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, backend: str, set_hash: str, review_id: str, hypothesis_id: int) -> EntailmentScore | None:
        return self._entries.get((backend, set_hash, review_id, hypothesis_id))

    def put_row(self, backend: str, set_hash: str, review_id: str, scores: Iterable) -> None:
        """Add one review's ``(hypothesis_id, score)`` cells, skipping cached ones."""
        row = []
        for hypothesis_id, score in scores:
            key = (backend, set_hash, review_id, hypothesis_id)
            if key not in self._entries:
                self._entries[key] = score
                row.append([hypothesis_id, score.entail, score.neutral, score.contradict])
        if row and self.path is not None:
            self._pending.append({"backend": backend, "set_hash": set_hash, "review_id": review_id, "row": row})
            self._pending_cells += len(row)
            if self._pending_cells >= self.FLUSH_EVERY:
                self.flush()

    def flush(self) -> None:
        if self._pending:
            append_log(self.path, self._pending)
            self._pending, self._pending_cells = [], 0

    def __enter__(self) -> "ScoreCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.flush()


def _record_cells(record: dict) -> list[tuple[tuple[str, str, str, int], EntailmentScore]]:
    """The cache entries of one row record or one older cell record."""
    prefix = (record["backend"], record["set_hash"], record["review_id"])
    if "row" in record:
        return [(prefix + (hyp_id,), EntailmentScore(e, n, c)) for hyp_id, e, n, c in record["row"]]
    score = EntailmentScore(record["entail"], record.get("neutral"), record.get("contradict"))
    return [(prefix + (record["hypothesis_id"],), score)]


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

    Requires normalized reviews. A review's uncached cells are one job of
    :func:`run_ordered`: ``max_inflight`` workers, the calling thread among
    them, score at most ``2 * max_inflight`` rows ahead of the row the
    calling thread commits, in review order. On backend failure the raised
    :class:`BackendError` carries the completed-cell count; every committed
    cell, the failing row's included, survives in the cache for the rerun.
    """
    reviews = list(corpus)
    for review in reviews:
        if review.text_norm is None:
            raise ValidationError(f"review {review.id!r} is not normalized; run normalization first")

    name, set_hash = backend.name, hset.version_hash
    hyp_ids = tuple(h.id for h in hset.hypotheses)
    grid = np.zeros((len(reviews), len(hyp_ids)), dtype=MATRIX_DTYPE)
    cache = cache if cache is not None else ScoreCache(None)

    jobs = []  # (row index, review, uncached column indices, list the worker fills with their scores)
    for i, review in enumerate(reviews):
        columns = []
        for j, hyp_id in enumerate(hyp_ids):
            hit = cache.get(name, set_hash, review.id, hyp_id)
            if hit is None:
                columns.append(j)
            else:
                grid[i, j] = hit.entail
        if not review.text_norm:
            cache.put_row(name, set_hash, review.id, [(hyp_ids[j], EMPTY_PREMISE_SCORE) for j in columns])
        elif columns:
            jobs.append((i, review, columns, []))
    total = sum(len(columns) for _, _, columns, _ in jobs)

    def work(job, stop) -> None:
        _, review, columns, scores = job
        for j in columns:
            if stop.is_set():
                return
            scores.append(backend.score_pair(review.text_norm, hset.hypotheses[j]))

    completed = 0

    def commit(job, _, error: Exception | None) -> None:
        nonlocal completed
        i, review, columns, scores = job  # the cells scored before an error are committed too
        grid[i, columns[: len(scores)]] = [score.entail for score in scores]
        cache.put_row(name, set_hash, review.id, [(hyp_ids[j], score) for j, score in zip(columns, scores)])
        completed += len(scores)
        if error is not None:
            raise error

    try:
        run_ordered(work, jobs, commit, max_inflight)
    except BackendError as exc:
        message = f"scoring aborted after {completed} of {total} uncached cells: {exc}"
        raise BackendError(message, completed=completed, total=total) from exc
    finally:
        cache.flush()

    logger.info(
        "scored %d reviews x %d hypotheses with %s (%d backend calls, %d cache hits)",
        len(reviews),
        len(hyp_ids),
        name,
        completed,
        grid.size - completed,
    )
    return EntailmentMatrix(tuple(r.id for r in reviews), hyp_ids, set_hash, name, grid)
