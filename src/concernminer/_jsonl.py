"""JSON, JSON-lines and CSV files: the one module that writes them durably
and reads them back. JSON and JSONL records have sorted keys.

Whole-file outputs (JSON documents, JSONL files, CSV exports) go through
:func:`replace_file`, so a failed or killed write leaves the previous file
as it was. Such a file is never half-written by this program, so when it is
read back with :func:`read_json` or :func:`read_jsonl`, damage of any kind (a
missing final newline included) raises a :class:`ValidationError` that
names the file, and the line for JSONL.

The three append-only logs (entailment cache, vote log, annotation state)
are read once with :func:`read_log`, then each committed record is appended
and flushed with :func:`append_log` through one handle from :func:`open_log`.
A process killed mid-append can leave a final line without its newline; the
next read drops that torn line with a warning and truncates the file back to
the last newline, so the rerun appends onto a clean line and redoes only
that record. A malformed line or record anywhere else is corruption, not an
interrupted write, and raises as in a whole-file output.
"""

from __future__ import annotations

import csv
import json
import logging
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import ValidationError

logger = logging.getLogger(__name__)

T = TypeVar("T")

# What a parse function raises on a value of the wrong shape: a missing key,
# a wrong type, a value out of range, an infinity cast to an integer.
_PARSE_ERRORS = (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError, ValidationError)


def _identity(value):
    return value


def _reason(exc: Exception) -> str:  # a ValidationError's own message; another exception's repr names its type
    return str(exc) if isinstance(exc, ValidationError) else repr(exc)


# The one type rule for a value read from a user file, keyed by the type as
# written in a declaration (the modules that declare config blocks postpone
# annotations, so a dataclass field's type is its source text). A value is
# checked, not converted: an integer takes a JSON integer, a float an integer
# or a float (made a float, as the digests expect), and true/false fits none.
_TYPES = {
    "str": (str, "a string"),
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "list": (list, "a list"),
    "dict": (dict, "an object"),
    "str | None": ((str, type(None)), "a string or null"),
    "dict | None": ((dict, type(None)), "an object or null"),
}


def checked(key: str, declared: str, value):
    """``value`` if it is of the type ``declared`` names in ``_TYPES``;
    otherwise a :class:`ValidationError` says what ``key`` must be."""
    kind, noun = _TYPES[declared]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValidationError(f"{key} must be {noun}, not {value!r}")
    return float(value) if declared == "float" else value


@contextmanager
def replace_file(path: Path, mode: str = "w", newline: str | None = None) -> Iterator[IO]:
    """Write a temporary file beside ``path`` that replaces it on a clean
    exit and is removed on an exception."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open(mode, encoding=None if "b" in mode else "utf-8", newline=newline) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: Path, payload: dict) -> None:
    """Replace ``path`` with ``payload`` as indented JSON."""
    with replace_file(path) as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_jsonl(path: Path, records: Iterable[dict]) -> None:
    """Replace ``path`` with one line per record."""
    with replace_file(path) as handle:
        handle.writelines(json.dumps(record, sort_keys=True) + "\n" for record in records)


def write_csv(path: Path, fieldnames: Sequence[str], rows: Iterable[dict]) -> None:
    """Replace ``path`` with a header and one row per dict; keys outside
    ``fieldnames`` are ignored, and a missing or ``None`` cell is empty."""
    with replace_file(path, newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames, restval="", extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def read_json(path: Path, parse: Callable[[object], T] = _identity) -> T:
    """Return ``parse`` of the JSON document at ``path``; a file that cannot
    be read or decoded, or a value ``parse`` rejects, raises
    :class:`ValidationError` naming the path."""
    try:
        return parse(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, *_PARSE_ERRORS) as exc:
        raise ValidationError(f"{path}: {_reason(exc)}") from None


def open_log(path: Path) -> IO:
    """Open the log for appending, creating it if needed."""
    return path.open("a", encoding="utf-8")


def append_log(log: IO, records: Iterable[dict]) -> None:
    """Append a batch of records through a handle from :func:`open_log` and
    flush once, when the batch is written."""
    log.writelines(json.dumps(record, sort_keys=True) + "\n" for record in records)
    log.flush()


def read_log(path: Path, parse: Callable[[dict], T] = _identity) -> Iterator[T]:
    """:func:`read_jsonl` for an append-only log: a missing file yields
    nothing, and a torn final line is repaired as described above."""
    return read_jsonl(path, parse, log=True)


def read_jsonl(path: Path, parse: Callable[[dict], T] = _identity, *, log: bool = False) -> Iterator[T]:
    """Yield ``parse(record)`` for each record in order, skipping blank lines.

    A line that is not JSON, or a record ``parse`` cannot read (a missing
    field, a wrong type), raises :class:`ValidationError` naming
    ``path:line``. Unless ``log`` is set, the file must exist and end with a
    newline; with ``log`` set, see :func:`read_log`.
    """
    if log and not path.exists():
        return
    what = "log line" if log else "line"
    torn = b""
    try:
        handle = path.open("rb")
    except OSError as exc:
        raise ValidationError(f"{path}: {exc!r}") from None
    with handle:
        for line_no, line in enumerate(handle, 1):
            if log and not line.endswith(b"\n"):
                torn = line
                break
            if not line.strip():
                continue
            try:
                if not line.endswith(b"\n"):
                    raise ValueError("no newline at the end of the file")
                record = parse(json.loads(line.decode("utf-8")))
            except _PARSE_ERRORS as exc:
                raise ValidationError(f"{path}:{line_no}: corrupt {what}: {_reason(exc)}") from None
            yield record
    if torn:
        logger.warning("%s:%d: dropping torn last line (%d bytes) from an interrupted write", path, line_no, len(torn))
        os.truncate(path, path.stat().st_size - len(torn))
