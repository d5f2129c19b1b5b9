"""The review × hypothesis entailment matrix, its cache, and scoring.

A review's row is the unit of scoring work, of cache record, and of what the cache holds
in memory: its hypothesis ids and a float32 ``array``; cells are keyed by (backend name,
hypothesis-set content hash, review id, hypothesis id), so a rerun resumes cell by cell;
a warm rerun calls no backend and reproduces the matrix bit for bit.
"""

from __future__ import annotations

import json
import logging
import sys
from array import array
from base64 import b64decode, b64encode
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from math import isnan
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .._jsonl import Log, checked, replace_file
from .._window import run_ordered
from ..errors import BackendError, ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from ..corpus import ReviewCorpus
    from ..hypotheses import HypothesisSet

logger = logging.getLogger(__name__)


class Grid(array):
    """The float32 cells of a score grid, row-major. ``size`` counts them
    (``benchmarks/runner.py`` reads it)."""

    __slots__ = ()
    size = property(len)


@dataclass(frozen=True)
class EntailmentMatrix:
    review_ids: tuple[str, ...]
    hypothesis_ids: tuple[int, ...]
    set_hash: str
    backend: str
    scores: Grid  # rows of cells; a Grid is taken as checked, another float32 buffer is copied and checked

    def __post_init__(self) -> None:
        if not isinstance(self.scores, Grid):
            object.__setattr__(self, "scores", _checked(Grid("f", memoryview(self.scores).tobytes())))
        if len(self.scores) != len(self.review_ids) * len(self.hypothesis_ids):
            raise ValidationError(f"score grid of {len(self.scores)} cells != {self.shape[0]} x {self.shape[1]}")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.review_ids), len(self.hypothesis_ids)

    def row(self, i: int) -> array:
        """Row ``i``'s float32 cells, in hypothesis order."""
        k = len(self.hypothesis_ids)
        return self.scores[i * k : (i + 1) * k]


def _out_of_range(cells) -> bool:
    """Whether a cell is outside [0, 1]. ``min`` and ``max`` can pass over a NaN; ``sum`` carries it."""
    return bool(cells) and (isnan(sum(cells)) or min(cells) < 0.0 or max(cells) > 1.0)


def _checked(grid):
    """``grid`` (or a cache record's entailments), once every cell is in [0, 1]."""
    if _out_of_range(grid):
        raise ValidationError("score grid contains values outside [0, 1]")
    return grid


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
        handle.write(_little_endian(matrix.scores).tobytes())


def _little_endian(grid: array) -> array:
    """The float32 ``grid`` swapped between host and little-endian byte order: itself on a little-endian host."""
    if sys.byteorder != "little":
        grid = Grid("f", grid)
        grid.byteswap()
    return grid


class ScoreCache:
    """The entailment cache file at ``path`` as it was when opened, one JSONL record per
    scored row, ``{backend, set_hash, review_id, hypotheses, f32}``: ``f32`` is the base64 of
    the row's float32 cells, little-endian, in the order of its ``hypotheses`` ids (every id
    of its set, or those scored before a backend failure). A record names ``backend``,
    ``set_hash`` and ``hypotheses`` only where they change (see ``_jsonl.Log``); a later record
    wins a cell an earlier one holds, and a record without ``f32`` is corrupt. In memory a
    review's cells are a tuple of hypothesis ids, one object shared by every row with the same
    ids, and a float32 ``array`` of their entailments (see :meth:`row`).

    The cache writes nothing: :func:`score_corpus` appends the rows it scores through ``log``.
    The rows are let go when the ``with`` block ends. ``len()`` counts cells.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._rows: dict[tuple[str, str, str], tuple[tuple[int, ...], array]] = {}
        self._ids: dict[tuple[int, ...], tuple[int, ...]] = {}  # each distinct id tuple, kept once
        self._named = None, ()  # the last ``hypotheses`` list read, which the rows after it share, and its checked ids
        self.log = Log(self.path, ("backend", "set_hash", "hypotheses"))  # score_corpus appends through it
        for key, ids, entails in self.log.read(self._record_cells):
            if key in self._rows:  # a later record wins the cells it holds, and they move last
                cells = {h: e for h, e in zip(*self._rows[key]) if h not in ids} | dict(zip(ids, entails))
                ids, entails = tuple(cells), array("f", cells.values())
            self._rows[key] = self._ids.setdefault(ids, ids), entails

    def __len__(self) -> int:
        return sum(len(ids) for ids, _ in self._rows.values())

    def row(self, backend: str, set_hash: str, review_id: str) -> tuple[tuple[int, ...], array] | None:
        """One review's cached cells, ``(hypothesis ids, float32 entailments)``, or ``None``."""
        return self._rows.get((backend, set_hash, review_id))

    def __enter__(self) -> "ScoreCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self._rows, self._ids = {}, {}

    def _record_cells(self, record: dict) -> tuple[tuple[str, str, str], tuple[int, ...], array]:
        """The key (its backend and set hash interned), ids and checked entailments of a record."""
        key = (sys.intern(record["backend"]), sys.intern(record["set_hash"]), checked("review_id", "str", record["review_id"]))
        if "f32" not in record:
            raise ValidationError(
                "not an f32 row: the cache was written by an earlier development version;"
                f" delete {self.path.name} to score its reviews again"
            )
        named = record["hypotheses"]
        if named is not self._named[0]:  # checked once per list the file names
            self._named = named, tuple(checked("hypothesis id", "int", h) for h in checked("hypotheses", "list", named))
        ids = self._named[1]
        entails = _little_endian(array("f", b64decode(record["f32"], validate=True)))
        if len(entails) != len(ids):
            raise ValueError(f"row of {len(entails)} cells does not match its {len(ids)} hypotheses")
        return key, ids, _checked(entails)


# An empty normalized review entails nothing; scoring it remotely would be
# undefined, so it gets a 0.0 entailment without a backend call.
EMPTY_PREMISE_SCORE = 0.0


def score_corpus(
    backend,
    corpus: "ReviewCorpus | Iterable",
    hset: "HypothesisSet",
    *,
    cache: ScoreCache | None = None,
    max_inflight: int,
) -> EntailmentMatrix:
    """Score every (review, hypothesis) pair, consulting the cache first.

    Requires normalized reviews. A review's uncached cells are one job of :func:`run_ordered`, one
    ``backend.score_row`` call: ``max_inflight`` workers, the calling thread among them, score at most
    ``2 * max_inflight`` rows ahead of the row the calling thread commits, in review order. The pass
    keeps the cache's file open and appends and flushes each row as it is committed, its cells' ids and
    float32 bytes (see :class:`ScoreCache`), so a killed run loses at most the rows in flight; without
    a ``cache`` it reads and writes nothing. On backend failure the raised :class:`BackendError` carries
    the completed-cell count; every cell the failing row yielded is committed too, in the file for the rerun.
    A malformed row, one with a cell outside [0, 1] or NaN, or one that ends without an error after more
    or fewer cells than it was asked for, commits none of them and raises :class:`BackendError`.
    ``backend`` may be a backend's name alone, with a ``cache``: then the pass scores and writes nothing,
    and a non-empty review whose cells the cache lacks raises :class:`ValidationError` naming it.
    """
    reviews = list(corpus)
    for review in reviews:
        if review.text_norm is None:
            raise ValidationError(f"review {review.id!r} is not normalized; run normalization first")

    cached_only = isinstance(backend, str)
    name, set_hash = backend if cached_only else backend.name, hset.version_hash
    hyp_ids = tuple(h.id for h in hset.hypotheses)
    every_id = list(hyp_ids)  # a complete row's ids, which the log names only where they change
    k = len(hyp_ids)
    grid = Grid("f", bytes(4 * len(reviews) * k))
    completed = missed = 0  # cells the backend scored, and cells the cache did not hold

    def work(job, stop) -> None:
        _, review, columns, scores = job
        for entail in backend.score_row(review.text_norm, [hset.hypotheses[j] for j in columns]):
            scores.append(entail)
            if stop.is_set():
                return

    with cache.log if cache is not None and not cached_only else nullcontext() as log:  # a scoring pass leaves a cache file, even empty

        def append_row(i: int, review_id: str, columns: list) -> None:  # the grid's cells ``columns`` of row ``i``
            if columns and log is not None:
                whole = len(columns) == k  # every cell, in the set's order
                ids = every_id if whole else [hyp_ids[j] for j in columns]
                cells = grid[i * k : (i + 1) * k] if whole else array("f", [grid[i * k + j] for j in columns])
                f32 = b64encode(_little_endian(cells).tobytes()).decode("ascii")
                log.append([{"backend": name, "set_hash": set_hash, "review_id": review_id, "hypotheses": ids, "f32": f32}])

        def commit(job, _, error: Exception | None) -> None:
            nonlocal completed
            i, review, columns, scores = job  # the cells scored before an error are committed too
            if _out_of_range(scores):  # a malformed row commits none of its cells
                raise BackendError(f"{name}: an entailment of review {review.id!r} is outside [0, 1]")
            if error is None and len(scores) != len(columns):
                raise BackendError(f"{name}: {len(scores)} entailments of review {review.id!r} for {len(columns)} hypotheses")
            for j, entail in zip(columns, scores):
                grid[i * k + j] = entail
            append_row(i, review.id, columns[: len(scores)])
            completed += len(scores)
            if error is not None:
                raise error

        jobs = deque()  # (row index, review, uncached column indices, list the worker fills with their entailments)
        for i, review in enumerate(reviews):
            row = cache.row(name, set_hash, review.id) if cache is not None else None
            if row is not None and row[0] == hyp_ids:  # the usual warm row: every cell, in order
                grid[i * k : (i + 1) * k] = row[1]
                continue
            hits = {} if row is None else dict(zip(*row))  # hypothesis id -> entail
            grid[i * k : (i + 1) * k] = array("f", [hits.get(hyp_id, EMPTY_PREMISE_SCORE) for hyp_id in hyp_ids])
            columns = [j for j, hyp_id in enumerate(hyp_ids) if hyp_id not in hits]
            missed += len(columns)
            if not review.text_norm:  # its uncached cells are EMPTY_PREMISE_SCORE already
                append_row(i, review.id, columns)
            elif columns and cached_only:
                raise ValidationError(f"{cache.path}: no {name} score of review {review.id!r} on set {set_hash}; run nli-score first")
            elif columns:
                jobs.append((i, review, columns, []))
        total = sum(len(columns) for _, _, columns, _ in jobs)

        try:
            run_ordered(work, (jobs.popleft() for _ in range(len(jobs))), commit, max_inflight)  # a committed job is let go
        except BackendError as exc:
            message = f"scoring aborted after {completed} of {total} uncached cells: {exc}"
            raise BackendError(message, completed=completed, total=total) from exc

    logger.info(
        "scored %d reviews x %d hypotheses with %s (%d backend calls, %d cache hits, %d empty-premise cells)",
        len(reviews), k, name, completed, len(grid) - missed, missed - total,
    )
    return EntailmentMatrix(tuple(r.id for r in reviews), hyp_ids, set_hash, name, grid)
