"""A negative array count is out of bounds, like a negative offset.

Regression: the decoder's bounds check was ``offset < 0 or offset +
count * 8 > blob length``, which a negative count passes, and
``np.frombuffer(count=-1)`` then reads to the end of the file.  An
entry whose self-consistent metadata gave the last PMU column
(``pmu.memory_write_times``) ``count: -1`` was decoded and served; a
negative count anywhere else was refused as ``malformed_metadata``.
"""

import hashlib
import json

import pytest

from repro.engine import Simulator
from repro.engine.trace import PMU_COLUMNS
from repro.fleet.cache import CacheEntryError, ResultCache, read_entry
from repro.hardware import XEON_E5462
from repro.workloads.npb import NpbWorkload

KEY = "0c" + "d" * 62
ARRAYS = ("times_s", "true_watts", "measured_watts", "memory_mb") + tuple(
    f"pmu.{name}" for name in PMU_COLUMNS
)


@pytest.fixture(scope="module")
def run_result():
    return Simulator(XEON_E5462, seed=5).run(NpbWorkload("ep", "C", 4))


def _negative_count(entry, name):
    """Give ``name`` a count of -1 and re-sign the metadata, so the
    entry shows only that damage."""
    header, _newline, blob = entry.read_bytes().partition(b"\n")
    document = json.loads(header)
    document["result"]["arrays"][name][1] = -1
    del document["meta_sha256"]
    body = json.dumps(document, sort_keys=True, separators=(",", ":"))
    document["meta_sha256"] = hashlib.sha256(body.encode()).hexdigest()
    line = json.dumps(document, sort_keys=True, separators=(",", ":"))
    entry.write_bytes(line.encode() + b"\n" + blob)


@pytest.mark.parametrize("name", ARRAYS)
def test_negative_count_is_out_of_bounds(tmp_path, run_result, name):
    cache = ResultCache(tmp_path / "cache")
    entry = cache.put(KEY, run_result, wall_s=0.1)
    _negative_count(entry, name)
    with pytest.raises(CacheEntryError) as caught:
        read_entry(entry)
    assert str(caught.value) == f"array_out_of_bounds:{name}"
    assert cache.get(KEY) is None
    assert cache.stats.quarantined == 1
