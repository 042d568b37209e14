"""StateStore durability contracts: replay, full disks, result bytes.

The append and replay paths are driven into the injected-ENOSPC fault
to pin that they raise :class:`~repro.errors.StorageDegradedError`
rather than dying with a half-written entry on disk.  A journal torn
at every byte of its final record, and the other append faults (short
write, failed fsync, stale bytes), are cells of the reader and writer
matrices in ``tests/doctor/test_jsonl.py``.
"""

import json

import pytest

from repro.doctor import safewrite
from repro.errors import StorageDegradedError
from repro.serve.protocol import Submission
from repro.serve.state import StateStore


def _submission(seed: int = 7) -> Submission:
    return Submission(
        tenant="alice",
        priority="normal",
        kind="evaluate",
        spec={"server": "Xeon-E5462", "seed": seed},
    )


class TestReplayTornJournal:
    def test_replay_missing_journal_is_empty(self, tmp_path):
        store = StateStore(tmp_path / "state")
        store.journal_path.unlink()
        try:
            assert store.replay() == ([], 1)
        finally:
            store.close()


class TestDiskFullDegrades:
    @pytest.fixture(autouse=True)
    def _disarm(self):
        yield
        safewrite.clear_disk_fault()

    def test_journal_append_raises_storage_degraded(self, tmp_path):
        store = StateStore(tmp_path / "state")
        try:
            safewrite.inject_disk_full(0)
            with pytest.raises(StorageDegradedError):
                store.journal_submit(
                    "c-000001", _submission(), "k" * 64
                )
            safewrite.clear_disk_fault()
            # The store stays usable once space returns.
            store.journal_submit("c-000001", _submission(), "k" * 64)
        finally:
            store.close()
        pending, _counter = StateStore(tmp_path / "state").replay()
        assert [p.campaign_id for p in pending] == ["c-000001"]

    def test_save_result_raises_and_leaves_no_temp_file(self, tmp_path):
        store = StateStore(tmp_path / "state")
        try:
            safewrite.inject_disk_full(0)
            with pytest.raises(StorageDegradedError):
                store.save_result("c-000001", {"answer": 42})
            results = store.root / "results"
            assert list(results.iterdir()) == []  # no tmp corpse
            safewrite.clear_disk_fault()
            path = store.save_result("c-000001", {"answer": 42})
        finally:
            store.close()
        assert json.loads(path.read_text()) == {"answer": 42}

    def test_save_result_byte_format_is_pinned(self, tmp_path):
        # Doctor's digest audit and the chaos bit-identity proofs both
        # assume this exact serialisation; a drive-by format change
        # would silently break resume-equivalence checks.
        store = StateStore(tmp_path / "state")
        try:
            path = store.save_result("c-000001", {"b": 1, "a": [2]})
        finally:
            store.close()
        expected = (
            json.dumps({"b": 1, "a": [2]}, indent=2, sort_keys=True) + "\n"
        ).encode()
        assert path.read_bytes() == expected
