"""Pinned digests of the simulator's per-run output.

One sha256 per builtin server covers every field of every run in a list
spanning all workload families — times, true and measured watts, the
memory trace, the PMU samples, the power factor, the bound demand — plus
the type and message of each configuration that cannot run.  The list
is evaluated once from ``t_start_s=0`` and a short tail from
``t_start_s=1234.0``, so the sample clocks are pinned as well.

The constants are the oracle for the per-run loop: a change that moves a
single draw, a single IEEE-754 operation or a single error message on
any server fails here.  Both entry points are held to the same pin,
``Simulator.run`` one workload at a time and ``run_batch`` over the
whole list.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.demand import ResourceDemand
from repro.engine import Simulator
from repro.engine.batch import run_batch
from repro.engine.trace import RunResult
from repro.errors import WorkloadError
from repro.workloads.hpcc import HPCC_COMPONENTS, HpccWorkload
from repro.workloads.hpl import HplConfig, HplWorkload
from repro.workloads.npb import NPB_PROGRAMS, NpbWorkload
from repro.workloads.specpower import SpecPowerWorkload, full_run_levels

SEED = 2015

#: Start time of the second, clock-offset list.
OFFSET_S = 1234.0

PINNED = {
    "Xeon-E5462":
        "810c0a4d081990801adebfd6d2b71f2f4227884bcf76eb3b165ef8e67d6b1368",
    "Opteron-8347":
        "71793735e2b1a06827926ee81957719f669f42a6d908abf03ab48095ad44059e",
    "Xeon-4870":
        "752f21e462baf9e0baea67eff3990dd86ca97107a9e6497bb34eba78b2eb5ebe",
}


def family_workloads(server):
    """One representative list spanning every workload family."""
    workloads = [SpecPowerWorkload(level) for level in full_run_levels()]
    workloads += [HplWorkload(HplConfig(n, 0.95)) for n in (1, 2, 4)]
    workloads.append(HplWorkload(HplConfig(4, 0.5, nb=100)))
    workloads.append(HplWorkload(HplConfig(4, 0.5, nb=200, p=2, q=2)))
    for name in sorted(NPB_PROGRAMS):
        counts = [
            n for n in (1, 2, 4) if NPB_PROGRAMS[name].proc_rule.allows(n)
        ]
        workloads += [NpbWorkload(name, "C", n) for n in counts[:2]]
    workloads += [HpccWorkload(component, 4) for component in HPCC_COMPONENTS]
    workloads.append(ResourceDemand.idle(duration_s=45.0))
    workloads.append(
        ResourceDemand(
            program="custom",
            nprocs=min(2, server.total_cores),
            duration_s=33.0,
            gflops=5.0,
            memory_mb=256.0,
            cpu_util=0.8,
        )
    )
    return workloads


def offset_workloads():
    """The short list evaluated from a non-zero campaign clock."""
    return [SpecPowerWorkload(full_run_levels()[0]), NpbWorkload("ep", "C", 4)]


def items_digest(items) -> str:
    """sha256 over every field of every run or error, in list order."""
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, WorkloadError):
            h.update(f"error {type(item).__name__}: {item}\n".encode())
            continue
        assert isinstance(item, RunResult)
        h.update(f"run {item.demand!r} {item.t_start_s!r}".encode())
        h.update(f" {item.power_factor!r}\n".encode())
        for trace in (
            item.times_s,
            item.true_watts,
            item.measured_watts,
            item.memory_mb,
        ):
            array = np.ascontiguousarray(trace, dtype="<f8")
            h.update(f"{array.size}:".encode())
            h.update(array.tobytes())
        pmu = np.array(
            [dataclasses.astuple(s) for s in item.pmu_samples], dtype="<f8"
        )
        h.update(f"pmu {pmu.shape}:".encode())
        h.update(pmu.tobytes())
    return h.hexdigest()


def one_at_a_time(server, workloads, t_start_s):
    simulator = Simulator(server, seed=SEED)
    items = []
    for workload in workloads:
        try:
            items.append(simulator.run(workload, t_start_s=t_start_s))
        except WorkloadError as exc:
            items.append(exc)
    return items


def as_a_list(server, workloads, t_start_s):
    return run_batch(Simulator(server, seed=SEED), workloads, t_start_s)


@pytest.mark.parametrize("evaluate", [one_at_a_time, as_a_list])
def test_family_digest_is_pinned(any_server, evaluate):
    items = evaluate(any_server, family_workloads(any_server), 0.0)
    items += evaluate(any_server, offset_workloads(), OFFSET_S)
    assert any(isinstance(item, RunResult) for item in items)
    assert items[-2].times_s[0] == OFFSET_S
    assert items_digest(items) == PINNED[any_server.name]
