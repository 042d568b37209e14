"""The one JSONL journal primitive: append, read, tail and compact.

Every JSONL file the repo keeps (the fleet event log, the serve submit
journal, span traces) is written, parsed, followed and rewritten here
and nowhere else.  A record is one line, :func:`encode`; a line that is
not a UTF-8 JSON object is not a record, and only the final line can be
*torn* (no newline: an append in progress, or one a crash cut short).
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Collection, Iterator, NamedTuple

from repro.doctor import safewrite
from repro.errors import (
    ConfigurationError,
    JournalBusyError,
    StorageDegradedError,
)

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform: no flock
    fcntl = None

__all__ = [
    "JsonlTail",
    "JsonlWriter",
    "Line",
    "compact",
    "encode",
    "has_live_writer",
    "read_lines",
    "read_records",
]


def encode(record: "dict[str, Any]") -> bytes:
    """``json.dumps(record, sort_keys=True) + "\\n"``, as bytes."""
    return (json.dumps(record, sort_keys=True) + "\n").encode()


def _parse(raw: bytes) -> "dict[str, Any] | None":
    try:
        record = json.loads(raw.decode("utf-8"))
    except ValueError:  # JSONDecodeError and UnicodeDecodeError alike
        return None
    return record if isinstance(record, dict) else None


def _flock(fd: int, exclusive: bool) -> bool:
    """Take a non-blocking ``flock``; ``False`` when it is held elsewhere."""
    if fcntl is None:  # pragma: no cover - non-POSIX platform
        return False
    mode = fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH
    try:
        fcntl.flock(fd, mode | fcntl.LOCK_NB)
    except OSError:
        return False
    return True


class JsonlWriter:
    """Appends records to one JSONL file, each as one contiguous line.

    Thread-safe.  Opening the file takes the advisory writer ``flock``
    that :func:`compact` and :func:`has_live_writer` check (best-effort:
    a second writer goes unlocked, :attr:`locked` is ``False``); the lock
    holder first mends a final line a crash left torn.  Each record is
    one ``os.write`` on an ``O_APPEND`` descriptor: no user-space buffer
    can keep a failed append's bytes for the next.
    """

    def __init__(self, path: "str | Path"):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._open()

    def _open(self) -> None:
        # Unbuffered; the file object only owns the descriptor's lifetime.
        self._file = open(self.path, "a+b", buffering=0)
        self._opened = os.fstat(self._file.fileno())
        self.locked = _flock(self._file.fileno(), exclusive=True)
        if self.locked:
            self._mend_torn_tail()

    def _mend_torn_tail(self) -> None:
        """End on a whole line, or the first append is glued onto the
        torn line a killed writer left and lost with it: a record that
        lacks only its newline gets one, any other torn line is cut off.
        Only the lock holder mends, so no live writer is mid-append."""
        fd = self._file.fileno()
        size = self._opened.st_size
        if size == 0 or os.pread(fd, 1, size - 1) == b"\n":
            return
        data = os.pread(fd, size, 0)
        torn = data[data.rfind(b"\n") + 1 :]
        try:
            if _parse(torn) is None:
                os.ftruncate(fd, size - len(torn))
            else:
                os.write(fd, b"\n")
        except OSError:
            pass  # a full disk: the first append reports it

    def append(self, record: "dict[str, Any]", fsync: bool = False) -> None:
        """Append one record; ``fsync=True`` also forces it to disk.

        When the write or fsync fails, the file is truncated back to its
        length before this append, so no byte of the record survives,
        and :class:`~repro.errors.StorageDegradedError` is raised for a
        capacity or media error (ENOSPC, EDQUOT, EIO); any other
        ``OSError`` propagates.
        """
        line = encode(record)
        with self._lock:
            fd = self._file.fileno()  # ValueError once closed
            try:
                current = os.stat(self.path)
            except OSError:
                current = None
            if current is None or not os.path.samestat(current, self._opened):
                # Replaced or removed beneath us (a compaction the lock
                # could not veto): reopen, or every append lands in an
                # orphaned inode no reader will see.
                orphan = self._file
                self._open()
                orphan.close()
                fd = self._file.fileno()
                current = os.fstat(fd)
            try:
                safewrite._consume_token()
                view = memoryview(line)
                while view:
                    view = view[os.write(fd, view):]
                if fsync:
                    os.fsync(fd)
            except OSError as exc:
                try:
                    os.ftruncate(fd, current.st_size)
                except OSError:
                    pass
                if safewrite.is_degrading(exc):
                    raise StorageDegradedError(self.path, exc) from exc
                raise

    def close(self) -> None:
        with self._lock:
            self._file.close()


class Line(NamedTuple):
    """One non-blank line: 1-based number, bytes without the newline,
    the parsed record (``None`` when the line is not one), and whether
    it is the torn final line."""

    lineno: int
    raw: bytes
    record: "dict[str, Any] | None"
    torn: bool


def read_lines(path: "str | Path") -> Iterator[Line]:
    """Yield every non-blank line of a file; a missing file raises."""
    lines = Path(path).read_bytes().split(b"\n")
    # A file of whole lines ends in a newline, leaving one empty final
    # element; a non-empty one is the torn final line.
    last = len(lines) - 1
    for i, raw in enumerate(lines):
        if raw.strip():
            yield Line(i + 1, raw, _parse(raw), i == last)


def read_records(
    path: "str | Path", strict: bool = False
) -> "list[dict[str, Any]]":
    """Every record of a file, in order.

    By default, for journals a crash may leave torn, a missing file has
    no records and a line that is not a record is skipped.
    ``strict=True``, for a file a user named, raises
    :class:`~repro.errors.ConfigurationError` on an unreadable file or
    on any line that is not a record, a torn final line included.
    """
    try:
        lines = list(read_lines(path))
    except OSError as exc:
        if strict:
            raise ConfigurationError(f"cannot read {path}: {exc}") from exc
        if not isinstance(exc, FileNotFoundError):
            raise
        lines = []
    records = []
    for line in lines:
        if line.record is not None:
            records.append(line.record)
        elif strict:
            raise ConfigurationError(
                f"not a JSONL record in {path}, line {line.lineno}: "
                f"{line.raw[:80]!r}"
            )
    return records


class JsonlTail:
    """Follows a file another process appends to.

    A partial final line is held back and parsed once its newline
    arrives, so no record is lost to a read that raced the writer.  When
    the file shrinks or is replaced (a new inode at the path), the tail
    starts over from its beginning.
    """

    def __init__(self, path: "str | Path"):
        self.path = Path(path)
        self._stat: "os.stat_result | None" = None
        self._offset = 0
        self._buffer = b""

    def poll(self) -> "list[dict[str, Any]]":
        """Every complete record appended since the last poll."""
        try:
            with self.path.open("rb") as fh:
                stat = os.fstat(fh.fileno())
                replaced = self._stat is not None and not os.path.samestat(
                    stat, self._stat
                )
                if replaced or stat.st_size < self._offset:
                    self._offset, self._buffer = 0, b""
                self._stat = stat
                fh.seek(self._offset)
                chunk = fh.read()
        except FileNotFoundError:
            return []
        self._offset += len(chunk)
        *complete, self._buffer = (self._buffer + chunk).split(b"\n")
        records = (_parse(raw) for raw in complete if raw.strip())
        return [record for record in records if record is not None]


def has_live_writer(path: "str | Path") -> bool:
    """Whether an open :class:`JsonlWriter` holds the lock on ``path``
    (probed with a shared lock, dropped at once); ``False`` when the file
    is missing or the platform has no ``flock``."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return False
    try:
        return fcntl is not None and not _flock(fd, exclusive=False)
    finally:
        os.close(fd)


def compact(path: "str | Path", drop: "Collection[int]") -> None:
    """Atomically rewrite a file without the lines numbered in ``drop``.

    Every other record is kept byte for byte (a final record that lost
    only its newline is re-terminated); lines that are not records go
    too.  Raises :class:`~repro.errors.JournalBusyError`, leaving the
    file untouched, while a writer holds its lock: the writer would keep
    appending to the replaced inode, where no reader looks.
    """
    path = Path(path)
    try:
        guard = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return
    try:
        # Held through the replace, so a has_live_writer probe during
        # the rewrite reports the file as busy.
        if not _flock(guard, exclusive=True):
            raise JournalBusyError(path)
        kept = [
            line.raw + b"\n"
            for line in read_lines(path)
            if line.record is not None and line.lineno not in drop
        ]
        safewrite.write_atomic(
            path.with_suffix(".tmp"), path, b"".join(kept)
        )
    finally:
        os.close(guard)
