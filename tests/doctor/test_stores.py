"""Audit/repair round-trips for every store adapter.

Each store gets the same drill: build real entries with the production
writers, confirm a clean audit, corrupt one entry the way its medium
fails (bitflip, torn line), confirm the audit flags it *without*
mutating anything, then repair and confirm the corpse is quarantined
or compacted and the survivors are untouched.
"""

import hashlib
import json

from repro.doctor.stores import (
    SUBMIT_JOURNAL_KINDS,
    FleetCacheStore,
    JournalStore,
    ModelRegistryStore,
    ServeResultsStore,
    verify_cache_entry,
)
from repro.fleet.cache import ResultCache, canonical_json
from repro.model import ModelRegistry
from repro.serve.protocol import Submission
from repro.serve.state import StateStore

_KEY_A = "aa" + "0" * 62
_KEY_B = "bb" + "0" * 62


def _state_submission() -> Submission:
    return Submission(
        tenant="alice",
        priority="normal",
        kind="evaluate",
        spec={"server": "Xeon-E5462", "seed": 7},
    )


def _cache_with_entries(tmp_path, run_result):
    cache = ResultCache(tmp_path / "cache")
    cache.put(_KEY_A, run_result, wall_s=0.1)
    cache.put(_KEY_B, run_result, wall_s=0.2)
    return cache


class TestFleetCacheStore:
    def test_clean_cache_audits_clean(self, tmp_path, run_result):
        cache = _cache_with_entries(tmp_path, run_result)
        store = FleetCacheStore(cache.root)
        entries = store.entries()
        assert sorted(e.entry_id for e in entries) == [_KEY_A, _KEY_B]
        assert all(e.size > 0 for e in entries)
        assert store.audit() == []

    def test_bitflip_is_found_and_audit_does_not_mutate(
        self, tmp_path, run_result
    ):
        cache = _cache_with_entries(tmp_path, run_result)
        entry = cache.root / _KEY_A[:2] / f"{_KEY_A}.entry"
        raw = bytearray(entry.read_bytes())
        raw[-1] ^= 1  # the blob's last byte
        entry.write_bytes(bytes(raw))

        store = FleetCacheStore(cache.root)
        (finding,) = store.audit()
        assert finding.entry_id == _KEY_A
        assert finding.problem == "blob_checksum_mismatch"
        assert finding.severity == "corrupt"
        assert entry.exists()  # audit is read-only

    def test_repair_quarantines_through_the_cache_itself(
        self, tmp_path, run_result
    ):
        cache = _cache_with_entries(tmp_path, run_result)
        entry = cache.root / _KEY_A[:2] / f"{_KEY_A}.entry"
        entry.write_bytes(entry.read_bytes().partition(b"\n")[0])

        store = FleetCacheStore(cache.root)
        (finding,) = store.repair()
        assert finding.action == "quarantined"
        assert not entry.exists()
        assert list((cache.root / "quarantine").iterdir())
        # The healthy entry survived the repair bit-for-bit.
        assert verify_cache_entry(
            cache.root / _KEY_B[:2] / f"{_KEY_B}.entry"
        ) is None

    def test_gc_sweeps_tmp_debris_and_expired_corpses(
        self, tmp_path, run_result
    ):
        cache = _cache_with_entries(tmp_path, run_result)
        debris = cache.root / _KEY_A[:2] / "x.json.tmp.999"
        debris.write_bytes(b"torn")
        qdir = cache.root / "quarantine"
        qdir.mkdir()
        corpse = qdir / "old.bin"
        corpse.write_bytes(b"corpse")

        store = FleetCacheStore(cache.root)
        removed = store.gc(quarantine_ttl_s=3600.0)
        assert debris in removed and not debris.exists()
        assert corpse.exists()  # younger than the TTL
        store.gc(quarantine_ttl_s=0.0)
        assert not corpse.exists()
        assert store.audit() == []

    def test_gc_reports_the_empty_files_it_removes(self, tmp_path):
        root = tmp_path / "cache"
        debris = root / "ab" / "k.json.tmp.1"
        corpse = root / "quarantine" / "x.q1.json"
        for path in (debris, corpse):
            path.parent.mkdir(parents=True)
            path.write_bytes(b"")
        assert sorted(FleetCacheStore(root).gc()) == sorted([debris, corpse])
        assert not debris.exists() and not corpse.exists()

    def test_gc_removes_a_two_file_entry_of_an_older_version(
        self, tmp_path, run_result
    ):
        """No lookup reads the ``<key>.json``/``<key>.bin`` layout; gc
        removes such files and nothing that is not named like one."""
        cache = _cache_with_entries(tmp_path, run_result)
        key = "cc" + "0" * 62
        shard = cache.root / key[:2]
        shard.mkdir()
        legacy = [shard / f"{key}.json", shard / f"{key}.bin"]
        strays = [shard / "notes.json", cache.root / "aa" / f"{key}.bin"]
        for path in legacy + strays:
            path.write_bytes(b"{}")

        store = FleetCacheStore(cache.root)
        assert sorted(e.entry_id for e in store.entries()) == [_KEY_A, _KEY_B]
        assert store.audit() == []
        assert sorted(store.gc()) == sorted(legacy)
        assert not any(path.exists() for path in legacy)
        assert all(path.exists() for path in strays)
        assert len(cache) == 2


def _state_with_result(tmp_path):
    root = tmp_path / "state"
    store = StateStore(root)
    sub = Submission(
        tenant="alice",
        priority="normal",
        kind="evaluate",
        spec={"server": "Xeon-E5462", "seed": 7},
    )
    document = {"kind": "evaluation", "answer": 42}
    store.journal_submit("c-000001", sub, "k" * 64)
    store.save_result("c-000001", document)
    digest = hashlib.sha256(canonical_json(document).encode()).hexdigest()
    store.journal_done("c-000001", "done", digest=digest)
    store.close()
    return root


class TestServeResultsStore:
    def test_clean_state_audits_clean(self, tmp_path):
        store = ServeResultsStore(_state_with_result(tmp_path))
        assert [e.entry_id for e in store.entries()] == ["c-000001"]
        assert store.audit() == []

    def test_flipped_result_byte_fails_the_journal_digest(self, tmp_path):
        root = _state_with_result(tmp_path)
        victim = root / "results" / "c-000001.json"
        victim.write_text(victim.read_text().replace("42", "43"))

        store = ServeResultsStore(root)
        (finding,) = store.audit()
        assert finding.problem == "digest_mismatch"
        assert finding.severity == "corrupt"

        (finding,) = store.repair()
        assert finding.action == "quarantined"
        assert not victim.exists()
        corpses = list((root / "quarantine").iterdir())
        assert len(corpses) == 1
        assert corpses[0].name.startswith("results-c-000001.json")

    def test_second_repair_keeps_the_first_corpse(self, tmp_path):
        root = _state_with_result(tmp_path)
        victim = root / "results" / "c-000001.json"
        original = victim.read_text()
        store = ServeResultsStore(root)
        for answer in ("43", "44"):
            victim.write_text(original.replace("42", answer))
            (finding,) = store.repair()
            assert finding.action == "quarantined"
        corpses = sorted(
            p.read_text() for p in (root / "quarantine").iterdir()
        )
        assert corpses == [
            original.replace("42", "43"),
            original.replace("42", "44"),
        ]

    def test_missing_result_with_done_record_is_a_warning(self, tmp_path):
        root = _state_with_result(tmp_path)
        (root / "results" / "c-000001.json").unlink()
        store = ServeResultsStore(root)
        (finding,) = store.audit()
        assert finding.problem == "missing_result"
        assert finding.severity == "warn"
        # Warnings never fail an audit: eviction leaves this residue.
        from repro.doctor.engine import audit_stores

        assert audit_stores([store]).ok


class TestModelRegistryStore:
    def test_latest_version_is_protected(self, tmp_path, model_e5462):
        registry = ModelRegistry(tmp_path)
        registry.publish(model_e5462)
        registry.publish(model_e5462)
        store = ModelRegistryStore(tmp_path)
        entries = store.entries()
        assert [e.entry_id for e in entries] == [
            "xeon-e5462@v000001",
            "xeon-e5462@v000002",
        ]
        assert not store.protected(entries[0])
        assert store.protected(entries[1])
        assert store.audit() == []

    def test_tampered_artifact_is_quarantined(self, tmp_path, model_e5462):
        registry = ModelRegistry(tmp_path)
        artifact = registry.publish(model_e5462)
        registry.publish(model_e5462)
        document = json.loads(artifact.path.read_text())
        document["r_square"] = 0.123  # silent tamper: digest now stale
        artifact.path.write_text(json.dumps(document))

        store = ModelRegistryStore(tmp_path)
        (finding,) = store.audit()
        assert finding.entry_id == "xeon-e5462@v000001"
        assert finding.problem == "digest_mismatch"
        (finding,) = store.repair()
        assert finding.action == "quarantined"
        assert not artifact.path.exists()
        assert store.audit() == []


class TestJournalStore:
    def _journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        lines = [
            json.dumps({"kind": "submit", "id": "c-000001", "ts": 1.0}),
            json.dumps({"kind": "done", "id": "c-000001", "ts": 2.0}),
            "{corrupt-interior",
            json.dumps({"kind": "mystery", "ts": 3.0}),
            '{"kind": "submit", "id": "c-0000',  # torn tail, no newline
        ]
        path.write_text("\n".join(lines))
        return path

    def test_audit_grades_severities(self, tmp_path):
        store = JournalStore(
            self._journal(tmp_path),
            name="serve-journal",
            known_kinds=SUBMIT_JOURNAL_KINDS,
        )
        problems = {f.problem: f.severity for f in store.audit()}
        assert problems == {
            "corrupt_record": "corrupt",
            "unknown_kind:'mystery'": "warn",
            "torn_tail": "warn",
        }

    def test_repair_compacts_keeping_good_records_byte_for_byte(
        self, tmp_path
    ):
        path = self._journal(tmp_path)
        store = JournalStore(
            path, name="serve-journal", known_kinds=SUBMIT_JOURNAL_KINDS
        )
        findings = store.repair()
        actions = {f.problem: f.action for f in findings}
        assert actions["corrupt_record"] == "compacted"
        assert actions["torn_tail"] == "compacted"
        assert actions["unknown_kind:'mystery'"] == ""  # kept: only a warn
        kinds = [
            json.loads(line)["kind"]
            for line in path.read_text().splitlines()
        ]
        assert kinds == ["submit", "done", "mystery"]
        assert store.audit() == [
            f for f in store.audit() if f.severity == "warn"
        ]

    def test_entries_pin_under_their_campaign_id(self, tmp_path):
        store = JournalStore(
            self._journal(tmp_path),
            name="serve-journal",
            known_kinds=SUBMIT_JOURNAL_KINDS,
        )
        first = store.entries()[0]
        assert first.pinned_by({"c-000001"})
        assert not first.pinned_by({"c-000099"})

    def test_evict_defers_until_commit(self, tmp_path):
        path = self._journal(tmp_path)
        store = JournalStore(path, name="j", known_kinds=None)
        victim = store.entries()[0]
        freed = store.evict(victim)
        assert freed == victim.size
        assert b"c-000001" in path.read_bytes()  # not yet
        store.commit()
        kinds = [
            json.loads(line)["kind"]
            for line in path.read_text().splitlines()
        ]
        # One atomic rewrite: victim dropped, torn tail and corrupt
        # line dropped too (commit keeps only parseable records).
        assert kinds == ["done", "mystery"]

    def test_commit_keeps_a_parseable_tail_record(self, tmp_path):
        # A final record torn exactly at the newline boundary parses
        # fine and may be a pending submit: compaction must preserve
        # and re-terminate it, not treat it like an unparseable tail.
        path = tmp_path / "journal.jsonl"
        pending = json.dumps({"kind": "submit", "id": "c-000002"})
        path.write_text(
            json.dumps({"kind": "submit", "id": "c-000001"})
            + "\n{corrupt\n"
            + pending  # no trailing newline
        )
        store = JournalStore(path, name="j", known_kinds=None)
        findings = store.repair()
        assert [f.problem for f in findings] == ["corrupt_record"]
        assert path.read_bytes().endswith((pending + "\n").encode())
        ids = [
            json.loads(line)["id"]
            for line in path.read_text().splitlines()
        ]
        assert ids == ["c-000001", "c-000002"]

    def test_compaction_refused_while_a_writer_holds_the_journal(
        self, tmp_path
    ):
        import pytest

        from repro.errors import JournalBusyError

        root = tmp_path / "state"
        writer = StateStore(root)  # holds the journal writer lock
        try:
            writer.journal_submit("c-000001", _state_submission(), "k" * 64)
            path = writer.journal_path
            before = path.read_bytes()
            store = JournalStore(path, name="j", known_kinds=None)
            assert store.busy() == "live_writer"
            victim = store.entries()[0]
            store.evict(victim)
            with pytest.raises(JournalBusyError):
                store.commit()
            assert path.read_bytes() == before  # untouched
            # The daemon's subsequent appends stay visible to replay.
            writer.journal_done("c-000001", "done", digest="d" * 64)
            pending, _ = writer.replay()
            assert pending == []
        finally:
            writer.close()
        assert store.busy() is None  # lock released with the handle

    def test_repair_refuses_compaction_with_live_writer(self, tmp_path):
        root = tmp_path / "state"
        writer = StateStore(root)
        try:
            writer.journal_submit("c-000001", _state_submission(), "k" * 64)
            path = writer.journal_path
            with path.open("ab") as fh:
                fh.write(b"{corrupt\n")
            store = JournalStore(path, name="j", known_kinds=None)
            before = path.read_bytes()
            findings = store.repair()
            assert path.read_bytes() == before  # nothing rewritten
            by_problem = {f.problem: f for f in findings}
            assert by_problem["corrupt_record"].action == ""  # unrepaired
            assert by_problem["live_writer"].severity == "warn"
            assert by_problem["live_writer"].action == (
                "compaction refused"
            )
        finally:
            writer.close()
        # Writer gone: the same repair now compacts.
        (finding,) = JournalStore(
            path, name="j", known_kinds=None
        ).repair()
        assert finding.action == "compacted"
