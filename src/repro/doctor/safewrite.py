"""Disk-fault-aware durable writes, shared by every on-disk store.

Every fsync/atomic-write path in the repo — the fleet's result cache,
the serve daemon's results store, the model registry, journal
compaction — funnels through :func:`write_atomic`, every journal
append through :class:`repro.doctor.jsonl.JsonlWriter`, and every move
of a damaged entry out of those three stores through
:func:`quarantine`.  That gives them one contract:

* a successful write is durable (temp file + ``fsync`` + ``os.replace``
  for documents, ``write`` [+ ``fsync``] for journal appends);
* a write that fails for *capacity or media* reasons (``ENOSPC``,
  ``EDQUOT``, ``EIO``) raises :class:`~repro.errors.StorageDegradedError`
  with any temp file or partly appended line removed, so callers
  degrade deliberately —
  shed load, skip the cache, leave the campaign journaled — instead of
  dying mid-write with half an entry on disk;
* any other ``OSError`` (permissions, bad path) propagates untouched;
* a quarantined corpse never overwrites an earlier one.

The module doubles as the chaos harness's *disk-full injector*: a
write-token budget, settable in-process (:func:`inject_disk_full`) or
via the ``REPRO_FAULT_ENOSPC`` environment variable (read once at
import, so a spawned serve daemon can be booted onto a "full" disk),
allows that many guarded writes and then fails every subsequent one
with a synthetic ``ENOSPC``.  Deterministic by construction: the Nth
write fails, not a random one.
"""

from __future__ import annotations

import errno
import itertools
import os
import threading
from pathlib import Path

from repro.errors import StorageDegradedError

__all__ = [
    "DEGRADE_ERRNOS",
    "ENV_FAULT_BUDGET",
    "clear_disk_fault",
    "fault_active",
    "inject_disk_full",
    "is_degrading",
    "quarantine",
    "write_atomic",
]

#: errno values that mean "the disk, not the program, is the problem".
DEGRADE_ERRNOS = frozenset({errno.ENOSPC, errno.EDQUOT, errno.EIO})

#: Environment variable carrying an injected write-token budget: that
#: many guarded writes succeed, then every one fails with ``ENOSPC``.
ENV_FAULT_BUDGET = "REPRO_FAULT_ENOSPC"

_lock = threading.Lock()
_budget: "int | None" = None  # None: no fault injected

#: Per-process sequence of quarantine tags: with the pid, it keeps two
#: quarantines, in one process or in two, from sharing a corpse name.
_QUARANTINE_SEQ = itertools.count(1)


def _load_env_budget() -> "int | None":
    raw = os.environ.get(ENV_FAULT_BUDGET, "").strip()
    if not raw:
        return None
    try:
        return max(0, int(raw))
    except ValueError:
        return None


_budget = _load_env_budget()


def inject_disk_full(budget: int = 0) -> None:
    """Arm the injector: ``budget`` guarded writes succeed, then ENOSPC."""
    global _budget
    with _lock:
        _budget = max(0, int(budget))


def clear_disk_fault() -> None:
    """Disarm the injector; subsequent writes hit the real disk only."""
    global _budget
    with _lock:
        _budget = None


def fault_active() -> bool:
    """Whether an injected disk-full fault is currently armed."""
    with _lock:
        return _budget is not None


def _consume_token() -> None:
    """Spend one write token; raise a synthetic ENOSPC when exhausted."""
    global _budget
    with _lock:
        if _budget is None:
            return
        if _budget <= 0:
            raise OSError(
                errno.ENOSPC, "injected fault: no space left on device"
            )
        _budget -= 1


def is_degrading(exc: BaseException) -> bool:
    """Whether an exception means "degrade", not "bug"."""
    if isinstance(exc, StorageDegradedError):
        return True
    return (
        isinstance(exc, OSError) and exc.errno in DEGRADE_ERRNOS
    )


def write_atomic(tmp: Path, dest: Path, payload: bytes) -> None:
    """Durable atomic write: temp file, flush to disk, rename.

    The temp file is ``tmp`` plus ``.<pid>-<thread id>``, so no two
    writers share one, whether they run in two processes or in two
    threads of one (the serve daemon's slots write one result cache).
    On a capacity/media failure the temp file is removed (a dying write
    must not leak half-entries for readers to trip over) and
    :class:`StorageDegradedError` raised; ``dest`` is either the old
    complete content or the new complete content, never a mix.
    """
    tmp = Path(tmp)
    tmp = tmp.with_name(f"{tmp.name}.{os.getpid()}-{threading.get_ident()}")
    dest = Path(dest)
    try:
        _consume_token()
        with tmp.open("wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(dest)
    except OSError as exc:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        if is_degrading(exc):
            raise StorageDegradedError(dest, exc) from exc
        raise


def quarantine(qdir: Path, name: str, *victims: Path) -> bool:
    """Move one damaged entry's files into ``qdir``, beside every earlier
    corpse.

    Each file lands as ``<name>.q<seq>-<pid><suffix>``, one tag for the
    whole entry: the per-process sequence plus the pid keep a second
    damage event of the same entry, in this process or another, from
    overwriting the first corpse, so each stays inspectable.  Victims
    that do not exist are skipped.  Returns ``False`` when a move fails
    (e.g. a permissions race); the entry then stays in place, still
    failing its checks, never served.
    """
    tag = f"q{next(_QUARANTINE_SEQ):06d}-{os.getpid()}"
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        for victim in victims:
            if victim.exists():
                os.replace(victim, qdir / f"{name}.{tag}{victim.suffix}")
    except OSError:
        return False
    return True
