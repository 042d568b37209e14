"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.engine import Simulator
from repro.hardware import OPTERON_8347, XEON_4870, XEON_E5462


@pytest.fixture(scope="session")
def e5462():
    """The 4-core Xeon-E5462 server."""
    return XEON_E5462


@pytest.fixture(scope="session")
def opteron():
    """The 16-core Opteron-8347 server."""
    return OPTERON_8347


@pytest.fixture(scope="session")
def x4870():
    """The 40-core Xeon-4870 server."""
    return XEON_4870


@pytest.fixture(scope="session", params=["Xeon-E5462", "Opteron-8347", "Xeon-4870"])
def any_server(request):
    """Parametrised over all three built-in servers."""
    from repro.hardware import get_server

    return get_server(request.param)


class OneRunPerCall:
    """A ``map_runs`` backend that hands the simulator one run per call."""

    def map_runs(self, simulator, workloads):
        return [simulator.run(workload) for workload in workloads]


@pytest.fixture(scope="session")
def one_run_per_call():
    """A backend running each workload through its own ``Simulator.run``."""
    return OneRunPerCall()


@pytest.fixture()
def sim_e5462(e5462):
    """A deterministic simulator on the small server."""
    return Simulator(e5462, seed=1234)


@pytest.fixture()
def sim_4870(x4870):
    """A deterministic simulator on the large server."""
    return Simulator(x4870, seed=1234)
