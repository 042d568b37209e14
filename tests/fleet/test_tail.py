"""The event-log tailing race: torn final lines must never raise or lose.

A reader that races the writer can observe a *partial* final line —
including one cut in the middle of a multi-byte UTF-8 character.  The
old ``read_text()``-based reader raised ``UnicodeDecodeError`` on that;
a naive skip-the-torn-line tailer silently *loses* the event once its
offset advances past it.  These are the regression tests for both.
A tail cut at every byte of the final record is one cell of the reader
matrix in ``tests/doctor/test_jsonl.py``.
"""

import json
import os

from repro.fleet import EventLog, EventTail, read_events

# "smørgås" — the ø and å are two-byte UTF-8 sequences to tear through.
_MULTIBYTE_LABEL = "smørgås"


def _torn_log(tmp_path, cut: int):
    """A log whose final record is cut ``cut`` bytes before its end."""
    path = tmp_path / "events.jsonl"
    with EventLog(path) as events:
        events.emit("campaign_start", campaign="torn", jobs=2)
        events.emit("job_finish", campaign="torn", job_id="a", wall_s=0.1)
    full = path.read_bytes()
    record = (
        json.dumps(
            {"ts": 1.0, "kind": "job_finish", "label": _MULTIBYTE_LABEL},
            ensure_ascii=False,
            sort_keys=True,
        )
        + "\n"
    ).encode("utf-8")
    path.write_bytes(full + record[: len(record) - cut])
    return path, full, record


class TestReadEventsTornLine:
    def test_cut_mid_multibyte_char_does_not_raise(self, tmp_path):
        # Cut inside the å at the end of the label: the tail of the
        # file is not valid UTF-8.  read_text(strict) raised here.
        record = json.dumps(
            {"kind": "job_finish", "label": _MULTIBYTE_LABEL},
            ensure_ascii=False,
        ).encode("utf-8")
        split = record.rindex(_MULTIBYTE_LABEL[-1].encode("utf-8")) + 1
        path = tmp_path / "events.jsonl"
        path.write_bytes(
            b'{"kind": "campaign_start", "campaign": "x"}\n'
            + record[:split]
        )
        events = read_events(path)  # must not raise
        assert [e["kind"] for e in events] == ["campaign_start"]

    def test_complete_lines_before_the_tear_all_parse(self, tmp_path):
        path, _full, _record = _torn_log(tmp_path, cut=3)
        kinds = [e["kind"] for e in read_events(path)]
        assert kinds == ["campaign_start", "job_finish"]


class TestEventTailTornLine:
    def test_torn_line_is_buffered_not_lost(self, tmp_path):
        path, full, record = _torn_log(tmp_path, cut=3)
        tail = EventTail(path)
        first = tail.poll()
        assert [e["kind"] for e in first] == ["campaign_start", "job_finish"]
        # The writer finishes the record: append the missing bytes.
        with path.open("ab") as fh:
            fh.write(record[len(record) - 3 :])
        second = tail.poll()
        assert [e["label"] for e in second] == [_MULTIBYTE_LABEL]

    def test_tear_inside_multibyte_char(self, tmp_path):
        # Cut so the partial line ends mid-å: decoding the buffered
        # fragment naively would corrupt it; holding bytes must not.
        record = (
            json.dumps(
                {"ts": 1.0, "kind": "checkpoint", "note": _MULTIBYTE_LABEL},
                ensure_ascii=False,
                sort_keys=True,
            )
            + "\n"
        ).encode("utf-8")
        cut = len(record) - record.rindex(b"\xc3") - 1  # inside the å
        path = tmp_path / "events.jsonl"
        path.write_bytes(record[: len(record) - cut])
        tail = EventTail(path)
        assert tail.poll() == []
        with path.open("ab") as fh:
            fh.write(record[len(record) - cut :])
        (event,) = tail.poll()
        assert event["note"] == _MULTIBYTE_LABEL

    def test_campaign_filter_and_incremental_offsets(self, tmp_path):
        path = tmp_path / "events.jsonl"
        tail = EventTail(path, campaign="mine")
        assert tail.poll() == []  # file does not exist yet
        with EventLog(path) as events:
            events.emit("campaign_start", campaign="mine", jobs=1)
            events.emit("campaign_start", campaign="other", jobs=1)
            assert [e["campaign"] for e in tail.poll()] == ["mine"]
            events.emit("campaign_finish", campaign="mine")
            polled = tail.poll()
        assert [e["kind"] for e in polled] == ["campaign_finish"]
        assert tail.poll() == []

    def test_truncation_discards_a_buffered_torn_line(self, tmp_path):
        # A rotation that lands while the tail holds a torn partial
        # line must drop the stale buffer: otherwise those bytes are
        # spliced onto the first record of the new file, which then
        # fails to parse and the event is silently lost.
        path = tmp_path / "events.jsonl"
        path.write_bytes(
            b'{"kind": "checkpoint", "campaign": "a"}\n{"kind": "job_fin'
        )
        tail = EventTail(path)
        assert [e["kind"] for e in tail.poll()] == ["checkpoint"]
        path.write_bytes(b"")  # rotation beneath the buffered tear
        assert tail.poll() == []
        with EventLog(path) as events:
            events.emit("campaign_start", campaign="fresh", jobs=1)
        (event,) = tail.poll()
        assert event["kind"] == "campaign_start"
        assert event["campaign"] == "fresh"

    def test_truncated_file_resets_the_tail(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as events:
            events.emit("campaign_start", campaign="a", jobs=1)
        tail = EventTail(path)
        assert len(tail.poll()) == 1
        path.write_bytes(b"")  # rotation
        assert tail.poll() == []
        with EventLog(path) as events:
            events.emit("campaign_start", campaign="b", jobs=1)
        (event,) = tail.poll()
        assert event["campaign"] == "b"

    def test_replaced_file_restarts_the_tail(self, tmp_path):
        # A file replaced by a *longer* one (a rotation, a compaction)
        # does not shrink, so only the inode shows it is new: seeking to
        # the old offset would skip the new file's first records.
        path = tmp_path / "events.jsonl"
        with EventLog(path) as events:
            events.emit("campaign_start", campaign="old", jobs=1)
        tail = EventTail(path)
        assert [e["campaign"] for e in tail.poll()] == ["old"]
        fresh = tmp_path / "fresh.jsonl"
        with EventLog(fresh) as events:
            for name in ("new-1", "new-2", "new-3"):
                events.emit("campaign_start", campaign=name, jobs=1)
        os.replace(fresh, path)
        polled = [e["campaign"] for e in tail.poll()]
        assert polled == ["new-1", "new-2", "new-3"]
