"""Eviction policy: TTL, LRU order, caps, and refcount-aware pins."""

import os

from repro.doctor.engine import (
    EvictionPolicy,
    evict_store,
    serve_pins,
    submission_cache_keys,
)
from repro.doctor.stores import FleetCacheStore, StoreAdapter, StoreEntry
from repro.fleet.cache import ResultCache
from repro.serve.protocol import Submission, submission_content_key
from repro.serve.state import StateStore


class FakeStore(StoreAdapter):
    name = "fake"

    def __init__(self, entries):
        self._entries = list(entries)
        self.removed = []
        self.commits = 0

    def entries(self):
        return list(self._entries)

    def evict(self, entry):
        self.removed.append(entry.entry_id)
        self._entries.remove(entry)
        return entry.size

    def commit(self):
        self.commits += 1


def _entry(entry_id, mtime, size=100, pin_keys=()):
    return StoreEntry(
        store="fake",
        entry_id=entry_id,
        paths=(),
        size=size,
        mtime=mtime,
        pin_keys=pin_keys,
    )


class TestEvictionPolicy:
    def test_unbounded_policy_is_not_bounded(self):
        assert not EvictionPolicy().bounded
        assert EvictionPolicy(max_entries=3).bounded
        assert EvictionPolicy(ttl_s=60.0).bounded

    def test_ttl_evicts_only_expired_entries(self):
        store = FakeStore([_entry("old", 0.0), _entry("new", 90.0)])
        report = evict_store(
            store, EvictionPolicy(ttl_s=60.0), now=100.0
        )
        assert report.evicted == ["old"]
        assert store.removed == ["old"]
        assert report.satisfied and report.freed_bytes == 100

    def test_lru_order_oldest_unpinned_first(self):
        store = FakeStore(
            [_entry(e, t) for e, t in [("c", 3.0), ("a", 1.0), ("b", 2.0)]]
        )
        report = evict_store(store, EvictionPolicy(max_entries=1))
        assert report.evicted == ["a", "b"]  # mtime order, not insert
        assert [e.entry_id for e in store.entries()] == ["c"]
        assert store.commits == 1

    def test_max_bytes_cap(self):
        store = FakeStore(
            [_entry("a", 1.0, size=60), _entry("b", 2.0, size=60)]
        )
        report = evict_store(store, EvictionPolicy(max_bytes=100))
        assert report.evicted == ["a"]
        assert report.freed_bytes == 60

    def test_pinned_entries_survive_even_max_entries_zero(self):
        store = FakeStore(
            [
                _entry("a", 1.0, pin_keys=("a", "c-000001")),
                _entry("b", 2.0),
            ]
        )
        report = evict_store(
            store, EvictionPolicy(max_entries=0), pins={"c-000001"}
        )
        assert report.evicted == ["b"]
        assert report.pinned_kept == 1
        # The pin still counts against the cap: the cap was not met,
        # and the report must say so rather than evict live state.
        assert not report.satisfied

    def test_ttl_never_expires_a_pin(self):
        store = FakeStore([_entry("a", 0.0, pin_keys=("keep",))])
        report = evict_store(
            store, EvictionPolicy(ttl_s=1.0), pins={"keep"}, now=1e9
        )
        assert report.evicted == []
        assert report.satisfied

    def test_dry_run_touches_nothing(self):
        store = FakeStore([_entry("a", 1.0), _entry("b", 2.0)])
        report = evict_store(
            store, EvictionPolicy(max_entries=0), dry_run=True
        )
        assert sorted(report.evicted) == ["a", "b"]
        assert report.freed_bytes == 200
        assert report.dry_run
        assert store.removed == [] and store.commits == 0

    def test_busy_store_is_skipped_without_mutation(self):
        store = FakeStore([_entry("a", 1.0), _entry("b", 2.0)])
        store.busy = lambda: "live_writer"
        report = evict_store(store, EvictionPolicy(max_entries=0))
        assert report.skipped == "live_writer"
        assert report.evicted == [] and not report.satisfied
        assert store.removed == [] and store.commits == 0
        assert "SKIPPED" in report.format()
        # Dry runs never mutate, so busy stores still report plans.
        planned = evict_store(
            store, EvictionPolicy(max_entries=0), dry_run=True
        )
        assert sorted(planned.evicted) == ["a", "b"]

    def test_journal_store_with_live_writer_is_skipped(self, tmp_path):
        from repro.doctor.stores import JournalStore

        root = tmp_path / "state"
        writer = StateStore(root)
        try:
            sub = Submission(
                tenant="alice",
                priority="normal",
                kind="evaluate",
                spec={"server": "Xeon-E5462", "seed": 7},
            )
            writer.journal_submit("c-000001", sub, "k" * 64)
            writer.journal_done("c-000001", "done", digest="d" * 64)
            before = writer.journal_path.read_bytes()
            store = JournalStore(
                writer.journal_path, name="j", known_kinds=None
            )
            report = evict_store(store, EvictionPolicy(max_entries=0))
            assert report.skipped == "live_writer"
            assert writer.journal_path.read_bytes() == before
        finally:
            writer.close()
        # Daemon stopped: the same sweep now compacts the journal.
        store = JournalStore(
            writer.journal_path, name="j", known_kinds=None
        )
        report = evict_store(store, EvictionPolicy(max_entries=0))
        assert not report.skipped and len(report.evicted) == 2
        assert writer.journal_path.read_bytes() == b""


class TestFleetCacheEviction:
    def test_lru_on_a_real_cache_directory(self, tmp_path, run_result):
        cache = ResultCache(tmp_path / "cache")
        keys = [f"{i:02d}" + "e" * 62 for i in range(3)]
        for i, key in enumerate(keys):
            entry = cache.put(key, run_result, wall_s=0.1)
            os.utime(entry, (100.0 * (i + 1), 100.0 * (i + 1)))

        report = evict_store(
            FleetCacheStore(cache.root), EvictionPolicy(max_entries=1)
        )
        assert report.evicted == keys[:2]
        assert report.satisfied and report.freed_bytes > 0
        survivor = ResultCache(tmp_path / "cache")
        assert survivor.get(keys[2]) is not None
        assert survivor.get(keys[0]) is None


class TestServePins:
    def _submission(self):
        return Submission(
            tenant="alice",
            priority="normal",
            kind="evaluate",
            spec={"server": "Xeon-E5462", "seed": 7},
        )

    def test_submission_cache_keys_are_deterministic(self):
        sub = self._submission()
        first = submission_cache_keys(sub.kind, sub.spec)
        assert first  # the ten-state matrix expands to real jobs
        assert all(len(key) == 64 for key in first)
        assert submission_cache_keys(sub.kind, sub.spec) == first

    def test_pending_submission_pins_campaign_and_cache_keys(
        self, tmp_path
    ):
        root = tmp_path / "state"
        store = StateStore(root)
        sub = self._submission()
        store.journal_submit(
            "c-000001", sub, submission_content_key(sub)
        )
        store.close()
        pins = serve_pins(root)
        assert "c-000001" in pins.campaign_ids
        assert pins.cache_keys == frozenset(
            submission_cache_keys(sub.kind, sub.spec)
        )
        assert pins.all >= pins.campaign_ids | pins.cache_keys

    def test_done_campaign_releases_its_pins(self, tmp_path):
        root = tmp_path / "state"
        store = StateStore(root)
        sub = self._submission()
        store.journal_submit(
            "c-000001", sub, submission_content_key(sub)
        )
        store.journal_done("c-000001", "done", digest="d" * 64)
        store.close()
        pins = serve_pins(root)
        assert pins.all == frozenset()

    def test_missing_state_dir_pins_nothing(self, tmp_path):
        assert serve_pins(tmp_path / "nowhere").all == frozenset()

    def test_pins_create_nothing_and_take_no_lock(self, tmp_path, monkeypatch):
        # A daemon may boot while the doctor derives pins.  Had the
        # replay opened the journal for append, its writer lock would
        # leave the daemon unlocked for life, and its journal open to
        # compaction once the doctor let go.
        from repro.doctor.jsonl import has_live_writer

        root = tmp_path / "state"
        store = StateStore(root)
        sub = self._submission()
        store.journal_submit("c-000001", sub, submission_content_key(sub))
        store.close()
        (root / "results").rmdir()
        before = sorted(root.iterdir())
        locked = []
        from_dict = Submission.from_dict

        def spy(data):
            locked.append(has_live_writer(root / "journal.jsonl"))
            return from_dict(data)

        monkeypatch.setattr(Submission, "from_dict", staticmethod(spy))
        assert "c-000001" in serve_pins(root).campaign_ids
        assert locked == [False]
        assert sorted(root.iterdir()) == before

    def test_cache_keys_use_the_public_placement_default(self):
        # The pin computation must agree with the scheduler about the
        # placement policy without reaching into Simulator internals.
        from repro.engine.simulator import (
            DEFAULT_PLACEMENT_POLICY,
            Simulator,
        )
        from repro.hardware.specs import get_server

        simulator = Simulator(get_server("Xeon-E5462"))
        assert simulator.placement_policy == DEFAULT_PLACEMENT_POLICY

    def test_bad_spec_skips_cache_keys_but_keeps_campaign_pin(
        self, tmp_path
    ):
        root = tmp_path / "state"
        store = StateStore(root)
        bad = Submission(
            tenant="alice",
            priority="normal",
            kind="evaluate",
            spec={"server": "PDP-11", "seed": 0},  # unknown server
        )
        store.journal_submit("c-000001", bad, submission_content_key(bad))
        store.close()
        pins = serve_pins(root)
        assert "c-000001" in pins.campaign_ids
        assert pins.cache_keys == frozenset()

    def test_pin_derivation_regressions_fail_loudly(
        self, tmp_path, monkeypatch
    ):
        # A refactor that breaks submission_cache_keys must surface in
        # audits/tests, not silently turn pins into no-ops (which would
        # let evict delete in-flight cache entries).
        import pytest

        from repro.doctor import engine

        root = tmp_path / "state"
        store = StateStore(root)
        sub = self._submission()
        store.journal_submit("c-000001", sub, submission_content_key(sub))
        store.close()

        def broken(kind, spec):
            raise AttributeError("Simulator lost an attribute")

        monkeypatch.setattr(engine, "submission_cache_keys", broken)
        with pytest.raises(AttributeError):
            serve_pins(root)
