"""JSON, JSON-lines and CSV files: the one module that writes them durably
and reads them back. JSON and JSONL records have sorted keys.

Whole-file outputs (JSON documents, JSONL files, CSV exports) go through
:func:`replace_file`, so a failed or killed write leaves the previous file
as it was. Such a file is never half-written by this program, so when it is
read back with :func:`read_json` or :func:`read_jsonl`, damage of any kind (a
missing final newline included) raises a :class:`ValidationError` that
names the file, and the line for JSONL.

The three append-only logs (entailment cache, vote log, annotation state) are each one :class:`Log`: read
once, then each committed record is appended, with no space after ``,`` and ``:`` (a reader takes either
spacing), and flushed through one handle, which one process holds at a time.
A process killed mid-append can leave a final line without its newline; the
next read skips that torn line with a warning, and reading never writes: the
reading :class:`Log`'s next ``with`` cuts the line under the lock, before its
first append, so the rerun appends onto a clean line and redoes only that
record. A malformed line or record anywhere else is corruption, not an
interrupted write, and raises as in a whole-file output. The model logs name
their context (backend, set hash, hypothesis ids, sampling) only where it
changes, so a line means something only in its file (see :class:`Log`).
"""

from __future__ import annotations

import csv
import json
import logging
import os
from contextlib import contextmanager
from operator import attrgetter
from pathlib import Path
from typing import IO, Callable, Generator, Iterable, Iterator, Sequence, TypeVar

from .errors import ValidationError

try:
    from fcntl import LOCK_EX, LOCK_NB, flock
except ImportError:  # pragma: no cover - no advisory locks on Windows
    flock = None

logger = logging.getLogger(__name__)

T = TypeVar("T")

_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps(..., sort_keys=True) would build one per call
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))  # a log line: no padding after , and :
_UNNAMED = object()  # a context key's value until a record names it
_STAMP = attrgetter("st_size", "st_mtime_ns")  # of a log file's stat: what another writer changes

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
# or a float (made a float, as the digests expect), and true/false fits only bool.
_TYPES = {
    "bool": (bool, "true or false"),
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
    if not isinstance(value, kind) or (isinstance(value, bool) and declared != "bool"):
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
        handle.writelines(_ENCODER.encode(record) + "\n" for record in records)


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


class Log:
    """The append-only log at ``path``: :meth:`read` it once, then :meth:`append` inside ``with``.

    A record names each ``context`` key only where its value changes: a read fills in a key a
    record leaves out from the nearest earlier record that names it, and an append leaves out
    each key whose value the file's last record holds. Reading never writes. ``with`` opens the
    file for appending, creating it if needed, under an exclusive advisory lock: a second writer
    raises :class:`ValidationError`. If the file's size or modification time changed since this
    object last read or wrote it, the next append names its context in full; if not, ``with``
    first cuts the torn last line that this object's read skipped, once.
    """

    def __init__(self, path: Path, context: Sequence[str] = ()):
        self.path = path
        self._last = dict.fromkeys(context, _UNNAMED)  # each key's value in the file's last record
        self._stamp = None  # the file's (size, mtime) when this object last read or wrote it
        self._torn = 0  # the bytes of the torn last line that this object's read skipped and no session has cut

    def read(self, parse: Callable[[dict], T] = _identity, *, log: bool = True) -> Iterator[T]:
        """:func:`read_jsonl` of the file with its context filled in (``log`` unset: read as a whole-file output)."""
        self._torn = yield from read_jsonl(self.path, parse, log=log, context=self._last)
        self._stamp = _STAMP(os.stat(self.path)) if self.path.exists() else None

    def __enter__(self) -> "Log":
        self._handle = self.path.open("a", encoding="utf-8")
        try:
            if flock is not None:
                flock(self._handle, LOCK_EX | LOCK_NB)
        except BlockingIOError:
            self._handle.close()
            raise ValidationError(f"{self.path}: another process is appending to this log") from None
        stamp = _STAMP(os.fstat(self._handle.fileno()))
        if stamp != self._stamp:
            self._last = dict.fromkeys(self._last, _UNNAMED)
        elif self._torn:  # the file ends as this object read it: with the torn line
            os.ftruncate(self._handle.fileno(), stamp[0] - self._torn)
        self._torn = 0  # cut once: a later session's file ends with its own whole lines
        return self

    def __exit__(self, *exc_info) -> None:
        self._stamp = _STAMP(os.fstat(self._handle.fileno()))
        self._handle.close()

    def append(self, records: Iterable[dict]) -> None:
        """Append a batch of records, each without the context it shares with the last, and flush once."""
        for record in records:
            if self._last:
                record = {key: value for key, value in record.items() if key not in self._last or self._last[key] != value}
                self._last.update((key, record[key]) for key in self._last.keys() & record.keys())
            self._handle.write(_COMPACT.encode(record) + "\n")
        self._handle.flush()


def read_jsonl(path: Path, parse: Callable[[dict], T] = _identity, *, log: bool = False, context: dict | None = None) -> Generator[T, None, int]:
    """Yield ``parse(record)`` for each record in order, skipping blank lines, and return the
    length in bytes of the torn last line skipped (0 if none).

    A line that is not JSON, or a record ``parse`` cannot read (a missing
    field, a wrong type), raises :class:`ValidationError` naming
    ``path:line``. Unless ``log`` is set, the file must exist and end with a
    newline; with ``log`` set, a missing file yields nothing and a torn final
    line is skipped with a warning, the file left as it is. A ``context`` dict, each key's value
    ``_UNNAMED`` until a record names it, fills in a key a record leaves out; unless
    ``log`` is set, a key that neither the record nor an earlier one names raises.
    """
    if log and not path.exists():
        return 0
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
                record = json.loads(line.decode("utf-8"))
                for key in context or ():  # a key the record leaves out is the last one named
                    if key in record or context[key] is not _UNNAMED:
                        context[key] = record.setdefault(key, context[key])
                    elif not log:
                        raise ValidationError(f"neither this line nor an earlier one names its {key}")
                record = parse(record)
            except _PARSE_ERRORS as exc:
                raise ValidationError(f"{path}:{line_no}: corrupt {what}: {_reason(exc)}") from None
            yield record
    if torn:
        logger.warning("%s:%d: dropping torn last line (%d bytes) from an interrupted write", path, line_no, len(torn))
    return len(torn)
