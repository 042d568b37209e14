"""Byte pins of the fleet's workload codec.

A fleet job carries its workload as the tagged dict ``workload_to_dict``
writes, and both its ``job_id`` and its cache key hash that dict.  A
codec change that moves one key, one value or one spelling here renames
every job and turns every existing cache entry into a miss, so these
pins hold one job of each workload type on one builtin server, and one
campaign whose server is a zoo server (its spec is embedded, not named).
"""

import json

import pytest

from repro.demand import ResourceDemand
from repro.fleet.cache import canonical_digest, job_cache_key
from repro.fleet.spec import (
    CampaignSpec,
    campaign_from_dict,
    campaign_to_dict,
    make_job,
    workload_from_dict,
    workload_to_dict,
)
from repro.hardware import XEON_E5462
from repro.hardware.zoo import get_zoo_server
from repro.workloads.hpl import HplConfig, HplWorkload
from repro.workloads.npb import NpbWorkload
from repro.workloads.specpower import SpecPowerLevel, SpecPowerWorkload

_SEED = 7

_WORKLOADS = {
    "npb": NpbWorkload("ep", "C", 4),
    "hpl": HplWorkload(
        HplConfig(nprocs=4, memory_fraction=0.5, nb=100, p=1, q=4)
    ),
    "specpower": SpecPowerWorkload(SpecPowerLevel("50%", 0.5)),
    "idle": ResourceDemand.idle(60.0),
    "demand": ResourceDemand(
        program="custom",
        nprocs=2,
        duration_s=30.5,
        gflops=1.25,
        memory_mb=512.0,
        cpu_util=0.8,
        ipc=0.6,
        fp_intensity=0.4,
        mem_intensity=0.7,
        comm_intensity=0.1,
        l1_locality=0.9,
        l2_locality=0.7,
        l3_locality=0.5,
        read_fraction=0.55,
    ),
}

#: type -> (workload_to_dict as JSON text, job_id, job_cache_key)
_PINS = {
    "npb": (
        '{"type": "npb", "program": "ep", "class": "C", "nprocs": 4}',
        "Xeon-E5462/ep.C.4/s7/15cdbfd9",
        "e65c1cb3742bd3d23fc929de2b1e6b21613c3327c7c327983b93a6504f6e7df8",
    ),
    "hpl": (
        '{"type": "hpl", "nprocs": 4, "memory_fraction": 0.5, "nb": 100,'
        ' "p": 1, "q": 4}',
        "Xeon-E5462/HPL P4 Mh/s7/11de8d0b",
        "e44d1178b0476a7da3a4bbcdf978b665df41f4a4ef22a6a927b1cad6ad98c5f8",
    ),
    "specpower": (
        '{"type": "specpower", "level": "50%", "load": 0.5}',
        "Xeon-E5462/SPECpower.50%/s7/4a223258",
        "800a8be1610774d845a02be754cdaf589d4ef7fd3fcc1c1e01d829d2b0c7d888",
    ),
    "idle": (
        '{"type": "idle", "duration_s": 60.0}',
        "Xeon-E5462/Idle/s7/b37e8b0d",
        "ae4411327fdb9abe3d3d0a466b37c0b16421918513d0ad3388113cb3dd9e18ff",
    ),
    "demand": (
        '{"type": "demand", "program": "custom", "nprocs": 2,'
        ' "duration_s": 30.5, "gflops": 1.25, "memory_mb": 512.0,'
        ' "cpu_util": 0.8, "ipc": 0.6, "fp_intensity": 0.4,'
        ' "mem_intensity": 0.7, "comm_intensity": 0.1, "l1_locality": 0.9,'
        ' "l2_locality": 0.7, "l3_locality": 0.5, "read_fraction": 0.55}',
        "Xeon-E5462/custom/s7/cb08ae5d",
        "717aea93a4a7c167204b37ef9c2ad4cbdfcd8bb3a0966107f81531357e4c70c6",
    ),
}

_ZOO_CAMPAIGN_DIGEST = (
    "e3a778139a631402aa2ef5ad479c1fe81d49b0971dda95b5a68fdf0e2fbd8857"
)
_ZOO_JOB = (
    "Tesla-K20-Node/ep.C.4/s7/15cdbfd9",
    "42365f2dd4379e2f699511e3c2adf0e33912b98be0951b652361f202c9e94c2a",
)


@pytest.mark.parametrize("kind", sorted(_WORKLOADS))
def test_workload_dict_bytes_are_pinned(kind):
    text, _job_id, _key = _PINS[kind]
    assert json.dumps(workload_to_dict(_WORKLOADS[kind])) == text


@pytest.mark.parametrize("kind", sorted(_WORKLOADS))
def test_job_id_and_cache_key_are_pinned(kind):
    _text, job_id, key = _PINS[kind]
    job = make_job(XEON_E5462, _WORKLOADS[kind], seed=_SEED)
    assert job.job_id == job_id
    assert job_cache_key(job) == key


@pytest.mark.parametrize("kind", sorted(_WORKLOADS))
def test_workload_dict_round_trips(kind):
    data = workload_to_dict(_WORKLOADS[kind])
    assert workload_to_dict(workload_from_dict(data)) == data


def test_zoo_server_campaign_is_pinned():
    spec = CampaignSpec(
        name="zoo-codec",
        servers=(get_zoo_server("Tesla-K20-Node"),),
        workloads=(workload_to_dict(_WORKLOADS["npb"]),),
        seed=_SEED,
    )
    document = campaign_to_dict(spec)
    # A zoo server is not a builtin: the document embeds its spec.
    assert isinstance(document["servers"][0], dict)
    assert canonical_digest(document) == _ZOO_CAMPAIGN_DIGEST
    for loaded in (spec, campaign_from_dict(document)):
        (job,) = loaded.jobs()
        assert (job.job_id, job_cache_key(job)) == _ZOO_JOB
