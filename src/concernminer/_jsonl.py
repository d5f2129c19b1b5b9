"""JSON-lines files: one JSON object per line, keys sorted.

The three append-only logs (entailment cache, vote log, annotation state)
go through :func:`read_log` and :func:`append_log`. A process killed
mid-append can leave a final line without its newline; the next read drops
that torn line with a warning and truncates the file back to the last
newline, so the rerun appends onto a clean line and redoes only that
record. A malformed line anywhere else is corruption, not an interrupted
write, and stops the run with a :class:`ValidationError`.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ValidationError

logger = logging.getLogger(__name__)


def _write(path: Path, mode: str, records: Iterable[dict]) -> None:
    with path.open(mode, encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def write_jsonl(path: Path, records: Iterable[dict]) -> None:
    """Replace ``path`` with one line per record."""
    _write(path, "w", records)


def append_log(path: Path, records: Iterable[dict]) -> None:
    """Append a batch of records to the log and flush once, when the batch
    is written; creates the file if needed."""
    _write(path, "a", records)


def read_log(path: Path) -> Iterator[dict]:
    """Yield the log's records in order, skipping blank lines; a missing
    file yields nothing. Repairs a torn final line as described above."""
    if not path.exists():
        return
    torn = b""
    with path.open("rb") as handle:
        for line_no, line in enumerate(handle, 1):
            if not line.endswith(b"\n"):
                torn = line
                break
            if not line.strip():
                continue
            try:
                yield json.loads(line.decode("utf-8"))
            except ValueError as exc:
                raise ValidationError(f"{path}:{line_no}: corrupt log line: {exc}") from None
    if torn:
        logger.warning("%s:%d: dropping torn last line (%d bytes) from an interrupted write", path, line_no, len(torn))
        os.truncate(path, path.stat().st_size - len(torn))
