"""Byte pins of one result-cache entry.

The blob and the ``result`` section of the metadata are the entry format
every cache reader and writer must agree on: a change to the run
representation or to the codec that moves one byte here silently turns
every existing cache entry into a miss, or worse, a different number.
Neither digest covers the salt or ``meta_sha256``, so a salt bump leaves
them alone; do not re-pin them for a codec change.
"""

import hashlib
import json

import pytest

from repro.engine.simulator import Simulator
from repro.fleet.cache import ResultCache, canonical_json
from repro.hardware import XEON_E5462
from repro.workloads.npb import NpbWorkload

_BLOB_SHA256 = (
    "9ce92930d1fb391b4ce93448bb97f3888967ffe7a8346f9ad686ab9870c5a491"
)
_RESULT_SHA256 = (
    "e96e2c6e57bb85e2146514faf7792dd0a27a12825937f738cdd1be35b78689bf"
)


@pytest.fixture(scope="module")
def entry(tmp_path_factory):
    run = Simulator(XEON_E5462, seed=3).run(NpbWorkload("ep", "C", 4))
    cache = ResultCache(tmp_path_factory.mktemp("cache"))
    return cache.put("ab" + "0" * 62, run, wall_s=0.25)


def test_blob_bytes_are_pinned(entry):
    blob = entry.read_bytes().partition(b"\n")[2]
    assert hashlib.sha256(blob).hexdigest() == _BLOB_SHA256


def test_result_section_is_pinned(entry):
    result = json.loads(entry.read_bytes().partition(b"\n")[0])["result"]
    digest = hashlib.sha256(canonical_json(result).encode()).hexdigest()
    assert digest == _RESULT_SHA256
