"""JSON-lines files: one JSON object per line, keys sorted.

The three append-only logs (entailment cache, vote log, annotation state)
go through :func:`read_log` and :func:`append_log`. A process killed
mid-append can leave a final line without its newline; the next read drops
that torn line with a warning and truncates the file back to the last
newline, so the rerun appends onto a clean line and redoes only that
record. A malformed line or record anywhere else is corruption, not an
interrupted write, and stops the run with a :class:`ValidationError`.
Whole-file outputs go through :func:`replace_file`, so a failed write
leaves the previous file as it was.
"""

from __future__ import annotations

import json
import logging
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

from .errors import ValidationError

logger = logging.getLogger(__name__)


@contextmanager
def replace_file(path: Path, mode: str = "w") -> Iterator[IO]:
    """Write a temporary file beside ``path`` that replaces it on a clean
    exit and is removed on an exception."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open(mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: Path, records: Iterable[dict]) -> None:
    """Replace ``path`` with one line per record."""
    with replace_file(path) as handle:
        handle.writelines(json.dumps(record, sort_keys=True) + "\n" for record in records)


def append_log(path: Path, records: Iterable[dict]) -> None:
    """Append a batch of records to the log and flush once, when the batch
    is written; creates the file if needed."""
    with path.open("a", encoding="utf-8") as handle:
        handle.writelines(json.dumps(record, sort_keys=True) + "\n" for record in records)


def read_log(path: Path, parse: Callable[[dict], object] = lambda record: record) -> Iterator:
    """Yield ``parse(record)`` for each record in order, skipping blank lines; a
    missing file yields nothing. Repairs a torn final line as described above;
    a record ``parse`` cannot read (a missing field, a wrong type) is corrupt."""
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
                record = parse(json.loads(line.decode("utf-8")))
            except (KeyError, TypeError, ValueError, ValidationError) as exc:
                raise ValidationError(f"{path}:{line_no}: corrupt log line: {exc!r}") from None
            yield record
    if torn:
        logger.warning("%s:%d: dropping torn last line (%d bytes) from an interrupted write", path, line_no, len(torn))
        os.truncate(path, path.stat().st_size - len(torn))
