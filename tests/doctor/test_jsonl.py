"""One reader matrix and one writer-fault matrix for every JSONL journal.

Every JSONL file the repo keeps — the fleet event log, the serve submit
journal, span traces — is written, parsed, tailed and compacted by
:mod:`repro.doctor.jsonl`.  Two tables pin that contract for each of
its callers, in place of one copy per store:

* **Readers.**  A file's final record is cut at every byte offset,
  including inside a multi-byte UTF-8 character, and every reader runs
  on every cut.  Records before the cut always parse.  The torn record
  is skipped by the lenient readers, held back by the tail until its
  newline arrives, flagged ``torn_tail`` by the journal audit, and
  rejected with ``ConfigurationError`` by the span loader.
* **Writers.**  The event log and the submit journal are driven
  through every append fault.  After each, the rejected record has left
  no bytes and the next append reads back; the event log counts a
  drop, the journal raises.  A replaced file is reopened, a tail torn
  by a crash is mended before the next append, and compaction is
  refused while the writer is open.
"""

import errno
import json
import os
import sys
import threading
from contextlib import contextmanager

import pytest

from repro.doctor import safewrite
from repro.doctor.jsonl import compact, has_live_writer
from repro.doctor.stores import (
    SUBMIT_JOURNAL_KINDS,
    JournalStore,
    ServeResultsStore,
)
from repro.errors import (
    ConfigurationError,
    JournalBusyError,
    StorageDegradedError,
)
from repro.fleet.events import EventLog, EventTail, read_events
from repro.obs import load_jsonl
from repro.serve.protocol import Submission
from repro.serve.state import StateStore, replay_journal

# "smørgås": the ø and å are two-byte UTF-8 sequences to cut through.
_LABEL = "smørgås"

_SUBMISSION = Submission(
    tenant="alice",
    priority="normal",
    kind="evaluate",
    spec={"server": "Xeon-E5462", "seed": 7},
)


def _submit(n, **extra):
    return {
        "kind": "submit",
        "id": f"c-{n:06d}",
        "submission": _SUBMISSION.to_dict(),
        "content_key": f"k{n}",
        "dedup_of": None,
        "ts": float(n),
        **extra,
    }


def _done(n, **extra):
    return {
        "kind": "done",
        "id": f"c-{n:06d}",
        "status": "done",
        "digest": str(n) * 64,
        "partial": False,
        "ts": float(n),
        **extra,
    }


def _span(index, parent, **attrs):
    return {
        "index": index,
        "name": "outer" if parent is None else "inner",
        "depth": 0 if parent is None else 1,
        "parent": parent,
        "start_s": index * 0.5,
        "duration_s": 0.25,
        "attrs": attrs,
    }


_EVENTS = [
    {"ts": 1.0, "kind": "campaign_start", "campaign": "torn", "jobs": 2},
    {"ts": 2.0, "kind": "job_finish", "campaign": "torn", "job_id": "a"},
    {"ts": 3.0, "kind": "job_finish", "campaign": "torn", "label": _LABEL},
]
_SUBMIT_LAST = [_submit(1), _done(1), _submit(2, label=_LABEL)]
_DONE_LAST = [_submit(1), _done(1), _submit(2), _done(2, label=_LABEL)]
_SPANS = [_span(0, None), _span(1, 0), _span(2, 0, label=_LABEL)]


def _encode(records):
    """The file prefix (every record but the last) and the final line.

    ``ensure_ascii=False`` so the final line really holds multi-byte
    characters; the writers' own lines are ASCII.
    """
    lines = [
        (json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n").encode()
        for r in records
    ]
    return b"".join(lines[:-1]), lines[-1]


# -- readers ---------------------------------------------------------------
#
# Each check gets the file, how many records a lenient reader must see
# (the final one counts once its JSON is complete, newline or not), and
# whether the file ends in a torn, unparseable fragment.


def _check_read_events(path, parsed, torn):
    assert read_events(path) == _EVENTS[:parsed]


def _check_replay_journal(path, parsed, torn):
    pending, counter = replay_journal(path)
    if parsed == len(_SUBMIT_LAST):
        assert ([p.campaign_id for p in pending], counter) == (["c-000002"], 3)
    else:
        # The torn submit never happened; earlier records are intact.
        assert (pending, counter) == ([], 2)


def _check_results_digests(path, parsed, torn):
    # No result documents exist, so every digest the audit read from a
    # done record surfaces as one missing_result warning.
    findings = ServeResultsStore(path.parent).audit()
    missing = [f.entry_id for f in findings if f.problem == "missing_result"]
    expected = ["c-000001", "c-000002"] if parsed == 4 else ["c-000001"]
    assert missing == expected


def _check_journal_store(path, parsed, torn):
    store = JournalStore(
        path, name="serve-journal", known_kinds=SUBMIT_JOURNAL_KINDS
    )
    findings = [(f.entry_id, f.problem, f.severity) for f in store.audit()]
    assert findings == ([("4", "torn_tail", "warn")] if torn else [])
    entries = [e.entry_id for e in store.entries()]
    assert entries == [str(n) for n in range(1, parsed + 1)]


def _check_load_jsonl(path, parsed, torn):
    if torn:
        with pytest.raises(ConfigurationError):
            load_jsonl(path)
    else:
        assert [s.to_dict() for s in load_jsonl(path)] == _SPANS[:parsed]


READERS = {
    "read_events": (_EVENTS, _check_read_events),
    "replay_journal": (_SUBMIT_LAST, _check_replay_journal),
    "results_digests": (_DONE_LAST, _check_results_digests),
    "journal_store": (_DONE_LAST, _check_journal_store),
    "load_jsonl": (_SPANS, _check_load_jsonl),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_reader_at_every_cut_of_the_final_record(tmp_path, reader):
    records, check = READERS[reader]
    prefix, final = _encode(records)
    assert len(final) > len(final.decode()) + 1  # multi-byte characters
    path = tmp_path / "journal.jsonl"
    for cut in range(len(final) + 1):
        path.write_bytes(prefix + final[:cut])
        complete = cut >= len(final) - 1
        torn = 0 < cut < len(final) - 1
        check(path, len(records) - (not complete), torn)


def test_tail_holds_the_cut_record_until_its_newline(tmp_path):
    prefix, final = _encode(_EVENTS)
    path = tmp_path / "events.jsonl"
    for cut in range(len(final) + 1):
        path.write_bytes(prefix + final[:cut])
        tail = EventTail(path)
        ended = len(_EVENTS) - (cut < len(final))
        assert tail.poll() == _EVENTS[:ended]
        with path.open("ab") as fh:  # the writer finishes the record
            fh.write(final[cut:])
        assert tail.poll() == _EVENTS[ended:]


# -- writers ---------------------------------------------------------------


class _EventLogWriter:
    """The event log: a failed append is dropped and counted."""

    file = "events.jsonl"
    fsyncs_every_record = False  # only checkpoints (``_sync=True``)

    def __init__(self, path):
        self.log = EventLog(path)

    def append(self, tag, sync=False):
        kind = "checkpoint" if sync else "job_finish"
        self.log.emit(kind, _sync=sync, campaign=tag)

    def rejects(self, tag, sync=False):
        dropped = self.log.dropped
        self.append(tag, sync)
        assert self.log.degraded and self.log.dropped == dropped + 1

    @staticmethod
    def read(path):
        return [event["campaign"] for event in read_events(path)]

    def close(self):
        self.log.close()


class _SubmitJournalWriter:
    """The submit journal: every record fsynced; a failure raises."""

    file = "journal.jsonl"
    fsyncs_every_record = True  # each one backs a 202

    def __init__(self, path):
        self.store = StateStore(path.parent)

    def append(self, tag, sync=False):
        self.store.journal_submit(tag, _SUBMISSION, "k" * 64)

    def rejects(self, tag, sync=False):
        with pytest.raises(StorageDegradedError, match=self.file):
            self.append(tag, sync)

    @staticmethod
    def read(path):
        return [p.campaign_id for p in replay_journal(path)[0]]

    def close(self):
        self.store.close()


WRITERS = {"event-log": _EventLogWriter, "submit-journal": _SubmitJournalWriter}


@contextmanager
def _disk_full():
    """The injector's synthetic ENOSPC, before any byte is written."""
    safewrite.inject_disk_full(0)
    try:
        yield
    finally:
        safewrite.clear_disk_fault()


@contextmanager
def _short_write():
    """The disk fills mid-record: half the line lands, then ENOSPC."""
    real = os.write
    calls = []

    def write(fd, data):
        calls.append(fd)
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(fd, bytes(data[: len(data) // 2]))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "write", write)
        yield


@contextmanager
def _fsync_fails():
    """The whole line is in the file, then fsync reports ENOSPC."""

    def fsync(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "fsync", fsync)
        yield


@contextmanager
def _stale_bytes():
    """Every byte is written, then the write reports EIO.

    The writer keeps no user-space buffer, so this is the way bytes of
    a rejected record can still reach the file: the kernel took them.
    """
    real = os.write

    def write(fd, data):
        real(fd, data)
        raise OSError(errno.EIO, "Input/output error")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "write", write)
        yield


#: fault -> (context that arms it, whether the rejected record is fsynced)
FAULTS = {
    "injector": (_disk_full, False),
    "short_write": (_short_write, False),
    "fsync": (_fsync_fails, True),
    "stale_bytes": (_stale_bytes, False),
}


@pytest.fixture(params=sorted(WRITERS))
def writer(request, tmp_path):
    kind = WRITERS[request.param]
    path = tmp_path / "state" / kind.file
    opened = kind(path)
    yield opened, path
    opened.close()


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_rejected_append_leaves_no_bytes(writer, fault):
    opened, path = writer
    armed, sync = FAULTS[fault]
    opened.append("c-000001")
    before = path.read_bytes()
    with armed():
        opened.rejects("c-000002", sync)
    assert path.read_bytes() == before
    opened.append("c-000003", sync=True)
    assert opened.read(path) == ["c-000001", "c-000003"]


def test_fsync_policy(writer, monkeypatch):
    opened, path = writer
    synced = []
    real = os.fsync

    def fsync(fd):
        synced.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    opened.append("c-000001")
    assert len(synced) == int(opened.fsyncs_every_record)
    opened.append("c-000002", sync=True)
    assert len(synced) == 1 + int(opened.fsyncs_every_record)


@pytest.mark.parametrize(
    "cut, survivors",
    [
        (1, ["c-000001", "c-000002", "c-000003"]),
        (9, ["c-000001", "c-000003"]),
    ],
    ids=["lost_newline", "mid_record"],
)
def test_reopen_mends_a_tail_torn_by_a_crash(writer, cut, survivors):
    opened, path = writer
    opened.append("c-000001")
    opened.append("c-000002")
    opened.close()
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - cut])
    # Without the mend, the next append is glued onto the torn line and
    # lost with it, though the writer reported it durable.
    reopened = type(opened)(path)
    reopened.append("c-000003")
    reopened.close()
    assert opened.read(path) == survivors


def test_replaced_file_is_reopened(writer):
    opened, path = writer
    opened.append("c-000001")
    # A rewrite the writer lock could not veto (a platform without
    # flock): the next append must land where readers look.
    replacement = path.with_name("replacement")
    replacement.write_bytes(path.read_bytes())
    os.replace(replacement, path)
    opened.append("c-000002")
    assert opened.read(path) == ["c-000001", "c-000002"]
    assert has_live_writer(path)  # the lock moved to the new file


def test_compaction_refused_while_the_writer_is_open(writer):
    opened, path = writer
    opened.append("c-000001")
    before = path.read_bytes()
    assert has_live_writer(path)
    with pytest.raises(JournalBusyError):
        compact(path, drop={1})
    assert path.read_bytes() == before
    opened.append("c-000002")
    assert opened.read(path) == ["c-000001", "c-000002"]
    opened.close()
    assert not has_live_writer(path)


def test_concurrent_appends_land_as_whole_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    threads, per_thread = 8, 200
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with EventLog(path) as log:

            def emit(t):
                for i in range(per_thread):
                    log.emit("job_finish", campaign="c", job_id=f"{t}/{i}")

            workers = [
                threading.Thread(target=emit, args=(t,)) for t in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    lines = path.read_bytes().split(b"\n")
    assert lines.pop() == b""
    assert len(lines) == threads * per_thread
    job_ids = {json.loads(line)["job_id"] for line in lines}
    assert len(job_ids) == threads * per_thread
