"""Content-addressed result cache: keys, round trips, resilience."""

import hashlib
import json

import numpy as np
import pytest

from repro import io as repro_io
from repro.demand import ResourceDemand
from repro.doctor.stores import verify_cache_entry
from repro.engine.simulator import Simulator
from repro.fleet.cache import ResultCache, canonical_json, job_cache_key
from repro.fleet.spec import FleetJob, make_job
from repro.hardware import XEON_E5462, OPTERON_8347
from repro.workloads.hpl import HplConfig, HplWorkload
from repro.workloads.npb import NpbWorkload


@pytest.fixture(scope="module")
def run_result():
    return Simulator(XEON_E5462, seed=3).run(NpbWorkload("ep", "C", 4))


def _split(entry):
    """An entry file's metadata line and blob bytes."""
    header, _newline, blob = entry.read_bytes().partition(b"\n")
    return header, blob


class TestCacheKey:
    def test_stable_under_dict_build_order(self):
        """The dict-ordering hazard: structurally equal specs built in
        different orders must hash identically."""
        job = make_job(XEON_E5462, HplWorkload(HplConfig(4, 0.5)), seed=1)
        reordered_workload = dict(reversed(list(job.workload.items())))
        reordered = FleetJob(
            server=XEON_E5462,
            workload=reordered_workload,
            label=job.label,
            seed=1,
        )
        assert job.workload == reordered_workload
        assert job_cache_key(job) == job_cache_key(reordered)
        assert job.job_id == reordered.job_id

    def test_stable_across_equal_server_objects(self):
        # A server round-tripped through JSON is a distinct but equal
        # object; the key must not depend on object identity.
        clone = repro_io.server_from_dict(repro_io.server_to_dict(XEON_E5462))
        assert clone == XEON_E5462
        a = make_job(XEON_E5462, NpbWorkload("ep", "C", 2), seed=5)
        b = make_job(clone, NpbWorkload("ep", "C", 2), seed=5)
        assert job_cache_key(a) == job_cache_key(b)

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_key_distinguishes_inputs(self):
        base = make_job(XEON_E5462, NpbWorkload("ep", "C", 2), seed=0)
        keys = {
            job_cache_key(base),
            job_cache_key(
                make_job(XEON_E5462, NpbWorkload("ep", "C", 2), seed=1)
            ),
            job_cache_key(
                make_job(XEON_E5462, NpbWorkload("ep", "C", 4), seed=0)
            ),
            job_cache_key(
                make_job(OPTERON_8347, NpbWorkload("ep", "C", 2), seed=0)
            ),
            job_cache_key(
                make_job(
                    XEON_E5462, NpbWorkload("ep", "C", 2), seed=0,
                    placement="scatter",
                )
            ),
        }
        assert len(keys) == 5


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path, run_result):
        cache = ResultCache(tmp_path / "cache")
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        cache.put(key, run_result, wall_s=0.25)
        hit = cache.get(key)
        assert hit is not None
        assert hit.wall_s == 0.25
        clone = hit.result
        assert clone.demand == run_result.demand
        assert clone.t_start_s == run_result.t_start_s
        assert np.array_equal(clone.times_s, run_result.times_s)
        assert np.array_equal(clone.true_watts, run_result.true_watts)
        assert np.array_equal(clone.measured_watts, run_result.measured_watts)
        assert np.array_equal(clone.memory_mb, run_result.memory_mb)
        assert np.array_equal(clone.pmu, run_result.pmu)
        assert np.array_equal(clone.pmu_matrix(), run_result.pmu_matrix())
        assert clone.pmu_samples == run_result.pmu_samples
        assert clone.power_factor == run_result.power_factor
        # Derived analysis quantities are consequently exact too.
        assert clone.average_power_watts() == run_result.average_power_watts()
        assert len(cache) == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.writes == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path, run_result):
        cache = ResultCache(tmp_path / "cache")
        key = "cd" + "1" * 62
        path = cache.put(key, run_result, wall_s=0.1)
        path.write_text("{not json")
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1

    def test_foreign_document_is_a_miss(self, tmp_path, run_result):
        cache = ResultCache(tmp_path / "cache")
        key = "ef" + "2" * 62
        path = cache.put(key, run_result, wall_s=0.1)
        path.write_text(json.dumps({"kind": "something_else"}))
        assert cache.get(key) is None

    def test_salt_mismatch_is_a_miss(self, tmp_path, run_result):
        cache = ResultCache(tmp_path / "cache")
        key = "0a" + "3" * 62
        path = cache.put(key, run_result, wall_s=0.1)
        header, blob = _split(path)
        data = json.loads(header)
        data["salt"] = "repro-fleet-cache-v0"
        path.write_bytes(json.dumps(data).encode() + b"\n" + blob)
        assert cache.get(key) is None


class TestCacheIntegrity:
    def test_put_is_one_durable_write(self, tmp_path, run_result, monkeypatch):
        """One put is one temp file, one fsync and one rename, and the
        shard holds one file for the key."""
        from repro.doctor import safewrite

        written = []
        write_atomic = safewrite.write_atomic

        def counting(tmp, dest, payload):
            written.append(dest)
            write_atomic(tmp, dest, payload)

        monkeypatch.setattr(safewrite, "write_atomic", counting)
        cache = ResultCache(tmp_path / "cache")
        path = cache.put("13" + "4" * 62, run_result, wall_s=0.1)
        assert written == [path]
        assert list(path.parent.iterdir()) == [path]

    def test_flipped_blob_bit_is_quarantined(self, tmp_path, run_result):
        cache = ResultCache(tmp_path / "cache")
        key = "34" + "5" * 62
        path = cache.put(key, run_result, wall_s=0.1)
        _flipped_blob_bit(path)
        assert cache.get(key) is None
        assert cache.stats.quarantined == 1
        quarantine = cache.root / "quarantine"
        (corpse,) = (p.name for p in quarantine.iterdir())
        assert corpse.startswith(key) and corpse.endswith(".entry")
        # The damaged entry no longer counts as live and a fresh write
        # heals the slot.
        assert len(cache) == 0
        cache.put(key, run_result, wall_s=0.1)
        assert cache.get(key) is not None

    def test_requarantine_never_overwrites_a_corpse(
        self, tmp_path, run_result
    ):
        """Regression: corpse names collided on a same-key re-quarantine
        (and would for any two quarantines in the same second), so the
        second corruption event silently destroyed the first corpse.
        Every quarantine now gets a unique suffix."""
        cache = ResultCache(tmp_path / "cache")
        key = "de" + "a" * 62
        for _round in range(3):
            path = cache.put(key, run_result, wall_s=0.1)
            path.write_text("garbage")
            assert cache.get(key) is None
        assert cache.stats.quarantined == 3
        corpses = list((cache.root / "quarantine").iterdir())
        assert len(corpses) == 3  # one file per damage event
        assert len({p.name for p in corpses}) == 3  # all names unique

    def test_torn_blob_is_quarantined(self, tmp_path, run_result):
        cache = ResultCache(tmp_path / "cache")
        key = "56" + "6" * 62
        path = cache.put(key, run_result, wall_s=0.1)
        _torn_blob(path)
        assert cache.get(key) is None
        assert cache.stats.quarantined == 1

    def test_entry_bytes_are_canonical(self, tmp_path, run_result):
        """Two writers of the same result produce byte-identical entry
        files (regression: bare ``json.dumps`` leaked dict build order
        into the entry bytes, unlike the ``sort_keys=True`` key path)."""
        import json

        key = "bc" + "9" * 62
        path_a = ResultCache(tmp_path / "a").put(key, run_result, wall_s=0.5)
        path_b = ResultCache(tmp_path / "b").put(key, run_result, wall_s=0.5)
        assert path_a.read_bytes() == path_b.read_bytes()
        # Canonical form: sorted keys, no whitespace after separators.
        header, _blob = _split(path_a)
        document = json.loads(header)
        assert header == json.dumps(
            document, sort_keys=True, separators=(",", ":")
        ).encode()
        # ...and a round-trip through the reader serves the entry intact.
        hit = ResultCache(tmp_path / "a").get(key)
        assert hit is not None
        assert hit.result.demand.program == run_result.demand.program

    def test_quarantine_excluded_from_len(self, tmp_path, run_result):
        cache = ResultCache(tmp_path / "cache")
        good, bad = "78" + "7" * 62, "9a" + "8" * 62
        cache.put(good, run_result, wall_s=0.1)
        path = cache.put(bad, run_result, wall_s=0.1)
        path.write_text("garbage")
        assert len(cache) == 2
        assert cache.get(bad) is None
        assert len(cache) == 1
        assert cache.get(good) is not None


def _resign(entry, edit):
    """Apply ``edit`` to an entry's metadata document and re-sign it, so
    the entry shows only the planted damage and not a stale checksum."""
    header, blob = _split(entry)
    document = json.loads(header)
    edit(document)
    document.pop("meta_sha256", None)
    body = json.dumps(document, sort_keys=True, separators=(",", ":"))
    document["meta_sha256"] = hashlib.sha256(body.encode()).hexdigest()
    entry.write_bytes(json.dumps(document).encode() + b"\n" + blob)


def _set_array(name, grow):
    def edit(document):
        offset, count = document["result"]["arrays"][name]
        document["result"]["arrays"][name] = [offset, count + grow]

    return edit


def _non_object_metadata(entry):
    entry.write_bytes(b"[1, 2, 3]\n" + _split(entry)[1])


def _wrong_kind(entry):
    _resign(entry, lambda document: document.update(kind="something_else"))


def _stale_salt(entry):
    _resign(entry, lambda document: document.update(salt="repro-cache-v0"))


def _torn_blob(entry):
    header, blob = _split(entry)
    entry.write_bytes(header + b"\n" + blob[: len(blob) // 2])


def _flipped_blob_bit(entry):
    header, blob = _split(entry)
    raw = bytearray(blob)
    raw[len(raw) // 2] ^= 0x01
    entry.write_bytes(header + b"\n" + bytes(raw))


def _array_out_of_bounds(entry):
    _resign(entry, _set_array("memory_mb", 1000))


def _array_count_one_short(entry):
    _resign(entry, _set_array("measured_watts", -1))


def _flipped_metadata_digit(entry):
    header, blob = _split(entry)
    assert b'"gflops":0.1237' in header
    header = header.replace(b'"gflops":0.1237', b'"gflops":9.1237')
    entry.write_bytes(header + b"\n" + blob)


def _snapshot(root):
    return {
        path: (path.read_bytes(), path.stat().st_mtime_ns)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize(
    "damage, problem",
    [
        (_non_object_metadata, "malformed_metadata"),
        (_wrong_kind, "wrong_kind"),
        (_stale_salt, "stale_salt"),
        (_torn_blob, "blob_length_mismatch"),
        (_flipped_blob_bit, "blob_checksum_mismatch"),
        (_array_out_of_bounds, "array_out_of_bounds:memory_mb"),
        (_array_count_one_short, "malformed_metadata"),
        (_flipped_metadata_digit, "metadata_checksum_mismatch"),
    ],
    ids=lambda value: value.__name__.strip("_") if callable(value) else value,
)
def test_one_decoder_rejects_every_damage(
    tmp_path, run_result, damage, problem
):
    """The cache and the doctor judge an entry by one decoder: the audit
    names the damage and touches nothing, and a lookup quarantines it."""
    cache = ResultCache(tmp_path / "cache")
    key = "77" + "0" * 62
    entry = cache.put(key, run_result, wall_s=0.25)
    damage(entry)
    before = _snapshot(cache.root)
    assert verify_cache_entry(entry) == problem
    assert _snapshot(cache.root) == before
    assert cache.get(key) is None
    assert cache.stats.hits == 0
    assert cache.stats.quarantined == 1
    assert not entry.exists()
