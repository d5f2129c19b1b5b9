"""Entailment score types, the review × hypothesis matrix, caching, and scoring.

A review's row is the unit of scoring work, of cache record, and of what the cache holds
in memory: its hypothesis ids (a complete record implies its set's) and a float32 ``array``;
cells are keyed by (backend name, hypothesis-set content hash, review id, hypothesis id), so
a rerun resumes cell by cell; a warm rerun calls no backend and reproduces the matrix bit for bit.
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
class EntailmentScore:
    """Probability mass over entailment / neutral / contradiction, built
    where a backend response enters, which checks it.

    Only ``entail`` goes on, to the matrix and the cache; the other two are
    checked when the backend reports them, then dropped.
    """

    entail: float
    neutral: float | None = None
    contradict: float | None = None

    def __post_init__(self) -> None:
        _check_score(self.entail, self.neutral, self.contradict)


def _check_score(entail, neutral=None, contradict=None) -> None:
    """Each given probability in [0, 1], and a full distribution summing to ~1."""
    others_in_range = (neutral is None or 0.0 <= neutral <= 1.0) and (contradict is None or 0.0 <= contradict <= 1.0)
    if not (0.0 <= entail <= 1.0 and others_in_range):  # one test per score; the loop names the value
        for name, value in (("entail", entail), ("neutral", neutral), ("contradict", contradict)):
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} probability {value} outside [0, 1]")
    if neutral is not None and contradict is not None and not 0.99 <= (total := entail + neutral + contradict) <= 1.01:
        raise ValidationError(f"score distribution sums to {total:.4f}, expected ~1")


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


def _checked(grid):
    """``grid`` (or a cache record's entailments), once every cell is a number in [0, 1]. ``min`` and
    ``max`` can pass over a NaN; ``sum`` carries it, and raises ``TypeError`` on a non-number."""
    if grid and (isnan(sum(grid)) or min(grid) < 0.0 or max(grid) > 1.0):
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


def load_matrix(path: str | Path) -> EntailmentMatrix:
    blob = Path(path).read_bytes()
    newline = blob.find(b"\n")
    if newline < 0:
        raise ValidationError(f"{path}: missing matrix header line")
    try:
        header = json.loads(blob[:newline].decode("utf-8"))
        review_ids = tuple(checked("review id", "str", r) for r in checked("reviews", "list", header["reviews"]))
        hypothesis_ids = tuple(checked("hypothesis id", "int", h) for h in checked("hypotheses", "list", header["hypotheses"]))
        backend, set_hash = (checked(key, "str", header[key]) for key in ("backend", "set_hash"))
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"{path}: malformed matrix header: {exc}") from None
    body = blob[newline + 1 :]
    expected = 4 * len(review_ids) * len(hypothesis_ids)
    if len(body) != expected:
        raise ValidationError(f"{path}: expected {expected} grid bytes, found {len(body)}")
    return EntailmentMatrix(review_ids, hypothesis_ids, set_hash, backend, _checked(_little_endian(Grid("f", body))))


class ScoreCache:
    """The entailment cache file at ``path`` as it was when opened, one JSONL
    record per scored row. A row of every cell of its set is ``{backend, set_hash,
    review_id, f32}``, ``f32`` the base64 of its float32 cells, little-endian, in
    the set's hypothesis order; the set's first such row in the file names the ids
    (``hypotheses: [...]``, kept in ``named``). A row of some cells, committed
    before a backend failure, is ``row: [[hypothesis_id, entail], ...]``. Older
    complete rows (``entail: [...]`` decimals, or ``row`` cells), rows of 4-value cells
    and one-cell records load too. A later record wins a cell an earlier one holds.
    A record names ``backend`` and ``set_hash`` only where they change (see ``_jsonl.Log``).
    In memory a review's cells are a tuple of hypothesis ids, one object shared by every
    row with the same ids, and a float32 ``array`` of their entailments (see :meth:`row`).

    The cache writes nothing: :func:`score_corpus` appends the rows it scores,
    and adds each set it names to ``named``. The rows are let go when the
    ``with`` block ends. ``len()`` counts cells.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.named: dict[str, tuple[int, ...]] = {}  # set hash -> the hypothesis ids the file names for it
        self._rows: dict[tuple[str, str, str], tuple[tuple[int, ...], array]] = {}
        self._ids: dict[tuple[int, ...], tuple[int, ...]] = {}  # each distinct id tuple, kept once
        self.log = Log(self.path, ("backend", "set_hash"))  # score_corpus appends through it
        for key, ids, entails in self.log.read(self._record_cells):
            if key in self._rows:  # a later record wins the cells it holds, and they move last
                cells = {h: e for h, e in zip(*self._rows[key]) if h not in ids} | dict(zip(ids, entails))
                ids, entails = tuple(cells), cells.values()
            self._rows[key] = self._ids.setdefault(ids, ids), array("f", entails)

    def __len__(self) -> int:
        return sum(len(ids) for ids, _ in self._rows.values())

    def row(self, backend: str, set_hash: str, review_id: str) -> tuple[tuple[int, ...], array] | None:
        """One review's cached cells, ``(hypothesis ids, float32 entailments)``, or ``None``."""
        return self._rows.get((backend, set_hash, review_id))

    def __enter__(self) -> "ScoreCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self._rows, self._ids = {}, {}

    def _record_cells(self, record: dict) -> tuple[tuple[str, str, str], tuple[int, ...], list]:
        """The key (its backend and set hash interned), ids and checked entailments of a record."""
        key = (sys.intern(record["backend"]), sys.intern(record["set_hash"]), record["review_id"])
        if "row" not in record and "hypothesis_id" not in record:  # a complete row, in its set's named order
            if "hypotheses" in record:
                self.named[key[1]] = ids = tuple(record["hypotheses"])
                if not all(isinstance(h, int) for h in ids):
                    raise ValueError(f"hypotheses {ids} are not all integer ids")
            ids = self.named.get(key[1])
            entails = _little_endian(array("f", b64decode(record["f32"], validate=True))) if "f32" in record else record["entail"]
            if ids is None or len(entails) != len(ids):
                raise ValueError(f"complete row does not match the hypotheses named for set {key[1]!r}: {ids}")
            return key, ids, _checked(entails)
        cells = record["row"] if "row" in record else [
            (record["hypothesis_id"], record["entail"], record.get("neutral"), record.get("contradict"))]
        for cell in cells:
            if len(cell) not in (2, 4) or not isinstance(cell[0], int):
                raise ValueError(f"row cell {cell!r} is not [hypothesis_id, entail] or the older 4-value cell")
            if len(cell) == 4:
                _check_score(*cell[1:])
        return key, tuple(cell[0] for cell in cells), _checked([cell[1] for cell in cells])


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

    Requires normalized reviews. A review's uncached cells are one job of :func:`run_ordered`:
    ``max_inflight`` workers, the calling thread among them, score at most ``2 * max_inflight``
    rows ahead of the row the calling thread commits, in review order. The pass keeps the cache's
    file open and appends and flushes each row as it is committed (a complete row as the base64
    of its float32 cells, a partial one as 9-digit decimals with their ids; both read back bit for
    bit), so a killed run loses at most the rows in flight; without a ``cache`` it reads and writes
    nothing. On backend failure the raised :class:`BackendError` carries the completed-cell count;
    every committed cell, the failing row's included (with their ids), is in the file for the rerun.
    """
    reviews = list(corpus)
    for review in reviews:
        if review.text_norm is None:
            raise ValidationError(f"review {review.id!r} is not normalized; run normalization first")

    name, set_hash = backend.name, hset.version_hash
    hyp_ids = tuple(h.id for h in hset.hypotheses)
    k = len(hyp_ids)
    grid = Grid("f", bytes(4 * len(reviews) * k))
    completed = missed = 0  # cells the backend scored, and cells the cache did not hold

    def work(job, stop) -> None:
        _, review, columns, scores = job
        for j in columns:
            if stop.is_set():
                return
            scores.append(backend.score_pair(review.text_norm, hset.hypotheses[j]).entail)

    with cache.log if cache is not None else nullcontext() as log:  # the pass leaves a cache file, even empty

        def append_row(i: int, review_id: str, columns: list) -> None:  # the grid's cells ``columns`` of row ``i``
            if columns and log is not None:
                record = {"backend": name, "set_hash": set_hash, "review_id": review_id}
                if len(columns) < k:  # a partial row names its cells' ids; 9 digits read back to each float32
                    record["row"] = [[hyp_ids[j], float("%.9g" % grid[i * k + j])] for j in columns]
                else:  # a complete row is its float32 cells' bytes, little-endian, in base64
                    record["f32"] = b64encode(_little_endian(grid[i * k : (i + 1) * k]).tobytes()).decode("ascii")
                    if cache.named.get(set_hash) != hyp_ids:  # the set's first complete row in the file
                        record["hypotheses"] = cache.named[set_hash] = hyp_ids
                log.append([record])

        def commit(job, _, error: Exception | None) -> None:
            nonlocal completed
            i, review, columns, scores = job  # the cells scored before an error are committed too
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
