"""The ResourceDemand contract."""

import json

import pytest

from repro.demand import ResourceDemand
from repro.errors import ConfigurationError
from repro.fleet.spec import workload_from_dict


def _demand(**overrides):
    base = dict(
        program="test.C.4",
        nprocs=4,
        duration_s=100.0,
        gflops=10.0,
        memory_mb=1000.0,
    )
    base.update(overrides)
    return ResourceDemand(**base)


def test_basic_construction():
    d = _demand()
    assert d.program == "test.C.4"
    assert not d.is_idle


def test_idle_factory():
    idle = ResourceDemand.idle()
    assert idle.is_idle
    assert idle.nprocs == 0
    assert idle.cpu_util == 0.0
    assert idle.gflops == 0.0


def test_idle_custom_duration():
    assert ResourceDemand.idle(duration_s=30.0).duration_s == 30.0


def test_rejects_negative_nprocs():
    with pytest.raises(ConfigurationError):
        _demand(nprocs=-1)


def test_rejects_zero_duration():
    with pytest.raises(ConfigurationError):
        _demand(duration_s=0.0)


def test_rejects_negative_gflops():
    with pytest.raises(ConfigurationError):
        _demand(gflops=-1.0)


def test_rejects_negative_memory():
    with pytest.raises(ConfigurationError):
        _demand(memory_mb=-1.0)


@pytest.mark.parametrize(
    "field",
    [
        "cpu_util",
        "ipc",
        "fp_intensity",
        "mem_intensity",
        "comm_intensity",
        "l1_locality",
        "l2_locality",
        "l3_locality",
        "read_fraction",
    ],
)
def test_unit_fields_rejected_above_one(field):
    with pytest.raises(ConfigurationError):
        _demand(**{field: 1.5})


@pytest.mark.parametrize("field", ["cpu_util", "ipc", "mem_intensity"])
def test_unit_fields_rejected_below_zero(field):
    with pytest.raises(ConfigurationError):
        _demand(**{field: -0.1})


def test_idle_must_have_zero_util():
    with pytest.raises(ConfigurationError):
        ResourceDemand(
            program="Idle",
            nprocs=0,
            duration_s=10.0,
            gflops=0.0,
            memory_mb=0.0,
            cpu_util=0.5,
        )


def test_with_replaces_and_validates():
    d = _demand()
    d2 = d.with_(nprocs=8)
    assert d2.nprocs == 8
    assert d.nprocs == 4
    with pytest.raises(ConfigurationError):
        d.with_(cpu_util=2.0)


def test_frozen():
    d = _demand()
    with pytest.raises(AttributeError):
        d.nprocs = 2


_DEMAND_JSON = (
    '{"type": "demand", "program": "x", "nprocs": 2, '
    '"duration_s": %s, "gflops": %s, "memory_mb": %s}'
)


@pytest.mark.parametrize(
    "document",
    [
        pytest.param('{"type": "idle", "duration_s": NaN}', id="idle-nan"),
        pytest.param('{"type": "idle", "duration_s": Infinity}', id="idle-inf"),
        pytest.param(_DEMAND_JSON % ("NaN", "1", "100"), id="duration-nan"),
        pytest.param(_DEMAND_JSON % ("Infinity", "1", "100"), id="duration-inf"),
        pytest.param(_DEMAND_JSON % ("60", "NaN", "100"), id="gflops-nan"),
        pytest.param(_DEMAND_JSON % ("60", "Infinity", "100"), id="gflops-inf"),
        pytest.param(_DEMAND_JSON % ("60", "1", "NaN"), id="memory-nan"),
        pytest.param(_DEMAND_JSON % ("60", "1", "Infinity"), id="memory-inf"),
    ],
)
def test_non_finite_fields_rejected(document):
    # json.loads accepts NaN and Infinity, so a campaign document can
    # carry them; they must stop at the demand, not inside a run.
    with pytest.raises(ConfigurationError, match="must be finite"):
        workload_from_dict(json.loads(document))
