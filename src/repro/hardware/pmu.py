"""Performance Monitoring Unit model.

Synthesises the six counters the paper's regression model uses
(Section VI-A2):

====  ===================  =========================================
X1    WorkingCoreNum       cores executing a process
X2    InstructionNum       retired instructions in the interval
X3    L2CacheHit           L2 hits in the interval
X4    L3CacheHit           L3 hits (0 on machines without an L3)
X5    MemoryReadTimes      DRAM read transactions
X6    MemoryWriteTimes     DRAM write transactions
====  ===================  =========================================

Counters are derived from the access cascade: instructions issue memory
operations, a fraction miss L1 and probe L2, L2 misses probe L3, and DRAM
transactions come from the authoritative bandwidth model in
:mod:`repro.hardware.memory`.  (On real hardware, prefetch traffic means
DRAM counters do not equal L3 miss counts either, so the two paths are
intentionally *not* forced to reconcile exactly.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.demand import ResourceDemand
from repro.hardware.cache import analytic_hit_rate
from repro.hardware.cpu import CpuActivity
from repro.hardware.memory import MemoryTraffic
from repro.hardware.specs import ServerSpec

__all__ = ["REGRESSION_FEATURES", "PmuSample", "Pmu"]

#: Canonical order of the paper's regression features X1..X6.
REGRESSION_FEATURES: tuple[str, ...] = (
    "working_core_num",
    "instruction_num",
    "l2_cache_hit",
    "l3_cache_hit",
    "memory_read_times",
    "memory_write_times",
)

#: Fraction of retired instructions that are memory operations.
_MEM_OP_FRACTION: float = 0.35


@dataclass(frozen=True)
class PmuSample:
    """One PMU reading over ``interval_s`` seconds."""

    time_s: float
    interval_s: float
    working_core_num: float
    instruction_num: float
    l2_cache_hit: float
    l3_cache_hit: float
    memory_read_times: float
    memory_write_times: float

    def as_vector(self) -> np.ndarray:
        """Feature vector in :data:`REGRESSION_FEATURES` order."""
        return np.array(
            [getattr(self, name) for name in REGRESSION_FEATURES], dtype=float
        )


class Pmu:
    """Counter synthesiser for one server."""

    def __init__(self, server: ServerSpec):
        self.server = server
        # Cache capacities depend only on the server: computed once.
        dcache = server.processor.dcache
        self._l1_mb = (dcache.size_kb / 1024.0) if dcache else 0.032
        self._l2_mb = self._level_capacity_mb(2)
        self._l3_mb = self._level_capacity_mb(3)

    def _level_capacity_mb(self, level: int) -> float:
        """Aggregate capacity of cache level 2 or 3 across the server, MB."""
        proc = self.server.processor
        spec = proc.l2 if level == 2 else proc.l3
        if spec is None:
            return 0.0
        return spec.total_kb_per_chip * self.server.chips / 1024.0

    def hit_rates(self, demand: ResourceDemand) -> tuple[float, float, float]:
        """(L1, L2, L3) hit rates for the bound demand.

        Cache capacity is shared between the demand's processes, so the
        per-core working set is compared against a per-core share of each
        level.
        """
        if demand.is_idle or demand.nprocs == 0:
            return (1.0, 1.0, 1.0)
        ws_per_core = max(demand.memory_mb / demand.nprocs, 1e-3)
        h1 = analytic_hit_rate(ws_per_core, self._l1_mb, demand.l1_locality)
        l2_total = self._l2_mb
        l2_share = l2_total / demand.nprocs if l2_total else 0.0
        h2 = (
            analytic_hit_rate(ws_per_core, l2_share, demand.l2_locality)
            if l2_share
            else 0.0
        )
        l3_total = self._l3_mb
        l3_share = l3_total / demand.nprocs if l3_total else 0.0
        h3 = (
            analytic_hit_rate(ws_per_core, l3_share, demand.l3_locality)
            if l3_share
            else 0.0
        )
        return (h1, h2, h3)

    def sample(
        self,
        demand: ResourceDemand,
        cpu: CpuActivity,
        memory: MemoryTraffic,
        time_s: float,
        interval_s: float = 10.0,
    ) -> PmuSample:
        """Synthesise one PMU reading.

        ``interval_s`` matches the paper's 10 s PMU collection interval.
        """
        h1, h2, h3 = self.hit_rates(demand)
        instructions = cpu.instructions_per_s * interval_s
        l2_accesses = instructions * _MEM_OP_FRACTION * (1.0 - h1)
        l2_hits = l2_accesses * h2
        l3_accesses = l2_accesses - l2_hits
        l3_hits = l3_accesses * h3 if self._l3_mb else 0.0
        return PmuSample(
            time_s=time_s,
            interval_s=interval_s,
            working_core_num=float(cpu.active_cores),
            instruction_num=instructions,
            l2_cache_hit=l2_hits,
            l3_cache_hit=l3_hits,
            memory_read_times=memory.reads_per_s * interval_s,
            memory_write_times=memory.writes_per_s * interval_s,
        )
