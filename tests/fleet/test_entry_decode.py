"""What a verified cache hit hands back, and why an entry is refused.

:func:`repro.fleet.cache.read_entry` is the one decoder behind
``ResultCache.get``, the runner's and the serve daemon's lookups and
``repro doctor audit``.  This file pins its contract from the outside:

- a hit's arrays equal the arrays that were put, are float64,
  C-contiguous, aligned and writeable, share no memory with each other,
  and writing into one leaves the next hit of the same key unchanged;
- each damaged entry is refused with the reason named here;
- an entry laid out otherwise than ``put`` lays it out (another spacing
  or key order of the metadata line, arrays at offsets that are not a
  multiple of 8, arrays in another order) still decodes to the values
  that were put;
- cold, warm and inline runs of the Tables IV-VI matrix give one
  digest and the same arrays, with instrumentation off and on.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from repro.demand import ResourceDemand
from repro.engine import Simulator
from repro.fleet import FleetRunner, evaluation_campaign
from repro.fleet.cache import CacheEntryError, ResultCache, read_entry
from repro.hardware import get_server
from repro.obs import runtime
from repro.workloads.hpl import HplConfig, HplWorkload
from repro.workloads.npb import NpbWorkload

SEED = 11
KEY = "5e" + "c" * 62
RESULT_ARRAYS = ("times_s", "true_watts", "measured_watts", "memory_mb", "pmu")

CASES = {
    "Xeon-E5462": ("Xeon-E5462", NpbWorkload("ep", "C", 4)),
    "Opteron-8347": ("Opteron-8347", HplWorkload(HplConfig(16, 0.5))),
    "Xeon-4870": ("Xeon-4870", NpbWorkload("bt", "B", 16)),
    "shorter-than-a-window": (
        "Xeon-E5462",
        ResourceDemand(
            program="short-7.5",
            nprocs=2,
            duration_s=7.5,
            gflops=3.0,
            memory_mb=128.0,
            cpu_util=0.9,
        ),
    ),
    "idle": ("Opteron-8347", ResourceDemand.idle(duration_s=30.0)),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def run(request):
    server, workload = CASES[request.param]
    return Simulator(get_server(server), seed=SEED).run(workload)


@pytest.fixture(scope="module")
def ep_run():
    return Simulator(get_server("Xeon-E5462"), seed=SEED).run(
        NpbWorkload("ep", "C", 4)
    )


def _put(root, result):
    return ResultCache(root).put(KEY, result, wall_s=0.25)


def _assert_same_result(got, want):
    assert got.demand == want.demand
    assert got.t_start_s == want.t_start_s
    assert got.power_factor == want.power_factor
    for name in RESULT_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _assert_fresh_arrays(result):
    """float64, C-contiguous, aligned, writeable and pairwise disjoint."""
    for name in RESULT_ARRAYS:
        array = getattr(result, name)
        assert array.dtype == np.float64 and array.dtype.isnative, name
        assert array.flags.c_contiguous, name
        assert array.flags.aligned, name
        assert array.flags.writeable, name
    for a, b in itertools.combinations(RESULT_ARRAYS, 2):
        assert not np.shares_memory(getattr(result, a), getattr(result, b)), (
            a,
            b,
        )


class TestRoundTrip:
    def test_hit_equals_what_was_put(self, tmp_path, run):
        cache = ResultCache(tmp_path / "cache")
        cache.put(KEY, run, wall_s=0.25)
        hit = cache.get(KEY)
        assert hit is not None
        assert hit.wall_s == 0.25
        _assert_same_result(hit.result, run)
        for name in RESULT_ARRAYS:
            assert getattr(hit.result, name).shape == getattr(run, name).shape
        assert hit.result.pmu.shape[1] == 8

    def test_hit_arrays_are_fresh(self, tmp_path, run):
        cache = ResultCache(tmp_path / "cache")
        cache.put(KEY, run, wall_s=0.25)
        result = cache.get(KEY).result
        _assert_fresh_arrays(result)
        for name in RESULT_ARRAYS:
            assert not np.shares_memory(getattr(result, name), getattr(run, name))

    def test_writing_into_a_hit_leaves_the_entry_alone(self, tmp_path, run):
        cache = ResultCache(tmp_path / "cache")
        entry = cache.put(KEY, run, wall_s=0.25)
        before = entry.read_bytes()
        first = cache.get(KEY).result
        for name in RESULT_ARRAYS:
            getattr(first, name)[...] = -1.0
        assert entry.read_bytes() == before
        second = cache.get(KEY).result
        _assert_same_result(second, run)
        for name in RESULT_ARRAYS:
            assert not np.shares_memory(getattr(first, name), getattr(second, name))

    def test_read_entry_equals_get(self, tmp_path, run):
        entry = _put(tmp_path / "cache", run)
        _assert_same_result(read_entry(entry).result, run)


# --- damage ---------------------------------------------------------------


def _split(entry):
    header, _newline, blob = entry.read_bytes().partition(b"\n")
    return header, blob


def _sign(document):
    """Set ``meta_sha256`` the way ``put`` computes it."""
    document.pop("meta_sha256", None)
    body = json.dumps(document, sort_keys=True, separators=(",", ":"))
    document["meta_sha256"] = hashlib.sha256(body.encode()).hexdigest()
    return document


def _resign(entry, edit, encode=json.dumps):
    """Edit the metadata, re-sign it and write it back with ``encode``."""
    header, blob = _split(entry)
    document = json.loads(header)
    edit(document)
    entry.write_bytes(encode(_sign(document)).encode() + b"\n" + blob)


def _relayout(entry, order=lambda names: names, pad=0, encode=json.dumps):
    """Rewrite the blob with its arrays in ``order`` after ``pad`` zero
    bytes, fix the layout, length and checksum, and re-sign."""
    header, blob = _split(entry)
    document = json.loads(header)
    layout = document["result"]["arrays"]
    chunks, offset, moved = [b"\0" * pad], pad, {}
    for name in order(list(layout)):
        start, count = layout[name]
        chunks.append(blob[start : start + 8 * count])
        moved[name] = [offset, count]
        offset += 8 * count
    blob = b"".join(chunks)
    document["result"]["arrays"] = moved
    document["blob_len"] = len(blob)
    document["blob_sha256"] = hashlib.sha256(blob).hexdigest()
    entry.write_bytes(encode(_sign(document)).encode() + b"\n" + blob)


def _set_array(name, offset=None, grow=0):
    def edit(document):
        start, count = document["result"]["arrays"][name]
        document["result"]["arrays"][name] = [
            start if offset is None else offset,
            count + grow,
        ]

    return edit


def _empty_file(entry):
    entry.write_bytes(b"")


def _missing_file(entry):
    entry.unlink()


def _line_without_newline(entry):
    entry.write_bytes(_split(entry)[0])


def _not_json(entry):
    entry.write_bytes(b"{not json\n" + _split(entry)[1])


def _not_utf8(entry):
    entry.write_bytes(b"\xff\xfe\xfd\n" + _split(entry)[1])


def _non_object_metadata(entry):
    entry.write_bytes(b"[1, 2, 3]\n" + _split(entry)[1])


def _string_metadata(entry):
    entry.write_bytes(b'"fleet_cache_entry"\n' + _split(entry)[1])


def _wrong_kind(entry):
    _resign(entry, lambda document: document.update(kind="something_else"))


def _stale_salt(entry):
    _resign(entry, lambda document: document.update(salt="repro-cache-v0"))


def _torn_blob(entry):
    header, blob = _split(entry)
    entry.write_bytes(header + b"\n" + blob[: len(blob) // 2])


def _trailing_byte(entry):
    entry.write_bytes(entry.read_bytes() + b"\0")


def _flipped_blob_bit(entry):
    header, blob = _split(entry)
    raw = bytearray(blob)
    raw[len(raw) // 2] ^= 0x01
    entry.write_bytes(header + b"\n" + bytes(raw))


def _flipped_metadata_digit(entry):
    header, blob = _split(entry)
    assert header.count(b'"wall_s":0.25') == 1
    header = header.replace(b'"wall_s":0.25', b'"wall_s":0.35')
    entry.write_bytes(header + b"\n" + blob)


def _flipped_checksum_digit(entry):
    header, blob = _split(entry)
    digest = json.loads(header)["meta_sha256"].encode()
    flipped = (b"1" if digest[:1] == b"0" else b"0") + digest[1:]
    entry.write_bytes(header.replace(digest, flipped) + b"\n" + blob)


def _no_checksum(entry):
    header, blob = _split(entry)
    document = json.loads(header)
    del document["meta_sha256"]
    entry.write_bytes(
        json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
        + b"\n"
        + blob
    )


def _numeric_checksum(entry):
    header, blob = _split(entry)
    document = json.loads(header)
    document["meta_sha256"] = 7
    entry.write_bytes(
        json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
        + b"\n"
        + blob
    )


def _array_out_of_bounds(entry):
    _resign(entry, _set_array("memory_mb", grow=1000))


def _array_count_one_short(entry):
    _resign(entry, _set_array("measured_watts", grow=-1))


def _negative_offset(entry):
    _resign(entry, _set_array("true_watts", offset=-8))


def _offset_past_the_blob(entry):
    _resign(entry, _set_array("times_s", offset=10**9))


def _missing_array(entry):
    _resign(entry, lambda document: document["result"]["arrays"].pop("pmu.l2_cache_hit"))


def _array_not_a_pair(entry):
    _resign(entry, lambda document: document["result"]["arrays"].update(
        times_s=[0]
    ))


def _fractional_offset(entry):
    def edit(document):
        start, count = document["result"]["arrays"]["times_s"]
        document["result"]["arrays"]["times_s"] = [start + 0.5, count]

    _resign(entry, edit)


def _layout_not_a_mapping(entry):
    _resign(entry, lambda document: document["result"].update(arrays=[]))


def _no_result(entry):
    _resign(entry, lambda document: document.pop("result"))


def _no_blob_length(entry):
    _resign(entry, lambda document: document.pop("blob_len"))


def _bad_demand(entry):
    _resign(entry, lambda document: document["result"]["demand"].update(
        nprocs="four"
    ))


DAMAGES = [
    (_missing_file, "missing_metadata"),
    (_empty_file, "unreadable_metadata"),
    (_not_json, "unreadable_metadata"),
    (_not_utf8, "unreadable_metadata"),
    (_line_without_newline, "blob_length_mismatch"),
    (_non_object_metadata, "malformed_metadata"),
    (_string_metadata, "malformed_metadata"),
    (_wrong_kind, "wrong_kind"),
    (_stale_salt, "stale_salt"),
    (_flipped_metadata_digit, "metadata_checksum_mismatch"),
    (_flipped_checksum_digit, "metadata_checksum_mismatch"),
    (_no_checksum, "metadata_checksum_mismatch"),
    (_numeric_checksum, "metadata_checksum_mismatch"),
    (_torn_blob, "blob_length_mismatch"),
    (_trailing_byte, "blob_length_mismatch"),
    (_flipped_blob_bit, "blob_checksum_mismatch"),
    (_array_out_of_bounds, "array_out_of_bounds:memory_mb"),
    (_negative_offset, "array_out_of_bounds:true_watts"),
    (_offset_past_the_blob, "array_out_of_bounds:times_s"),
    (_array_count_one_short, "malformed_metadata"),
    (_missing_array, "malformed_metadata"),
    (_array_not_a_pair, "malformed_metadata"),
    (_fractional_offset, "malformed_metadata"),
    (_layout_not_a_mapping, "malformed_metadata"),
    (_no_result, "malformed_metadata"),
    (_no_blob_length, "malformed_metadata"),
    (_bad_demand, "malformed_metadata"),
]


@pytest.mark.parametrize(
    "damage, reason",
    DAMAGES,
    ids=[damage.__name__.strip("_") for damage, _reason in DAMAGES],
)
def test_damage_is_refused_with_its_reason(tmp_path, ep_run, damage, reason):
    cache = ResultCache(tmp_path / "cache")
    entry = cache.put(KEY, ep_run, wall_s=0.25)
    damage(entry)
    with pytest.raises(CacheEntryError) as caught:
        read_entry(entry)
    assert str(caught.value) == reason
    assert cache.get(KEY) is None
    assert cache.stats.hits == 0
    assert not entry.exists()
    quarantined = 0 if reason == "missing_metadata" else 1
    assert cache.stats.quarantined == quarantined


# --- layouts put never writes, which still decode --------------------------


def _reversed(names):
    return names[::-1]


def _compact_unsorted(document):
    return json.dumps(dict(reversed(list(document.items()))), separators=(",", ":"))


DECODABLE = {
    "default-spacing": lambda entry: _resign(entry, lambda document: None),
    "unsorted-keys": lambda entry: _resign(
        entry, lambda document: None, encode=_compact_unsorted
    ),
    "same-layout": lambda entry: _relayout(entry),
    "offsets-off-by-3": lambda entry: _relayout(entry, pad=3),
    "offsets-off-by-4": lambda entry: _relayout(entry, pad=4),
    "arrays-reversed": lambda entry: _relayout(entry, order=_reversed),
    "arrays-reversed-off-by-5": lambda entry: _relayout(
        entry, order=_reversed, pad=5
    ),
}


@pytest.mark.parametrize("rewrite", sorted(DECODABLE))
def test_other_layouts_decode_to_the_same_values(tmp_path, run, rewrite):
    cache = ResultCache(tmp_path / "cache")
    entry = cache.put(KEY, run, wall_s=0.25)
    DECODABLE[rewrite](entry)
    _assert_same_result(read_entry(entry).result, run)
    hit = cache.get(KEY)
    assert hit is not None and hit.wall_s == 0.25
    _assert_same_result(hit.result, run)
    _assert_fresh_arrays(hit.result)
    assert cache.stats.quarantined == 0


# --- one digest in every mode ----------------------------------------------


@pytest.mark.parametrize("obs_on", [False, True], ids=["obs-off", "obs-on"])
def test_cold_warm_and_inline_agree(tmp_path, monkeypatch, obs_on):
    if obs_on:
        monkeypatch.setenv("REPRO_OBS", "1")
    else:
        monkeypatch.delenv("REPRO_OBS", raising=False)
    monkeypatch.setattr(runtime, "_override", None)
    campaign = evaluation_campaign()
    n_jobs = len(campaign.jobs())
    cold = FleetRunner(cache=ResultCache(tmp_path / "cache")).run(campaign)
    warm = FleetRunner(cache=ResultCache(tmp_path / "cache")).run(campaign)
    inline = FleetRunner(workers=1).run(campaign)
    assert cold.ok and warm.ok and inline.ok
    assert cold.cache_hits == 0
    assert warm.cache_hits == n_jobs
    assert cold.results_digest() == warm.results_digest()
    assert warm.results_digest() == inline.results_digest()
    served = {record.job.job_id: record.result for record in warm.records}
    assert len(served) == n_jobs
    for record in inline.records:
        _assert_same_result(served[record.job.job_id], record.result)
