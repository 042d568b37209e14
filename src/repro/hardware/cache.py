"""Cache hierarchy model.

Two complementary models live here:

* :class:`CacheLevel` / :class:`CacheHierarchy` — a trace-driven,
  set-associative, LRU cache simulator.  It is exact but only practical for
  short synthetic address streams; the library uses it to *validate* the
  analytic model and to characterise the executable mini-kernels in
  :mod:`repro.kernels`.

* :func:`analytic_hit_rate` — a closed-form hit-rate estimate from working
  set size and a locality exponent, used on the fast path by the PMU model
  (:mod:`repro.hardware.pmu`) to synthesise the paper's L2CacheHit /
  L3CacheHit counters for full-scale workloads without simulating billions
  of accesses.

The analytic form decomposes accesses into a capacity-independent reuse
fraction (temporal/spatial locality: a blocked code like HPL re-touches
lines while they are resident no matter how large the matrix is) and a
capacity-dependent remainder that hits only if the datum is resident, with
residency probability ``min(1, C/W)``:

    hit(W, C, locality) = locality + (1 - locality) * min(1, C/W)

``locality`` ~0.98 for blocked dense linear algebra, ~0.85 for sequential
streaming (line reuse of consecutive doubles), ~0 for random access
(HPCC RandomAccess).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.specs import CacheLevelSpec, ProcessorSpec

__all__ = [
    "CacheConfig",
    "CacheLevel",
    "CacheHierarchy",
    "HierarchyResult",
    "analytic_hit_rate",
    "hierarchy_for_processor",
]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one simulated cache instance."""

    size_bytes: int
    associativity: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError("cache size must be positive")
        if self.associativity <= 0:
            raise ConfigurationError("associativity must be positive")
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigurationError("line size must be a positive power of two")
        if self.size_bytes % (self.associativity * self.line_bytes):
            raise ConfigurationError(
                "size must be a multiple of associativity * line size"
            )

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.associativity * self.line_bytes)

    @classmethod
    def from_spec(cls, spec: CacheLevelSpec) -> "CacheConfig":
        """Build a config for one instance of a :class:`CacheLevelSpec`."""
        return cls(
            size_bytes=spec.size_kb * 1024,
            associativity=spec.associativity,
            line_bytes=spec.line_bytes,
        )


class CacheLevel:
    """Trace-driven set-associative LRU cache.

    The replacement state is an ordered mapping per set (most recently used
    last).  ``access`` processes a vector of byte addresses and returns a
    boolean hit mask.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(config.n_sets)
        ]
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        """Clear all cached lines and counters."""
        for s in self._sets:
            s.clear()
        self.hits = 0
        self.misses = 0

    def access(self, addresses: np.ndarray) -> np.ndarray:
        """Access each byte address in order; return a hit mask.

        Misses insert the line, evicting LRU when the set is full.
        """
        cfg = self.config
        lines = np.asarray(addresses, dtype=np.int64) // cfg.line_bytes
        set_idx = lines % cfg.n_sets
        out = np.empty(lines.shape[0], dtype=bool)
        sets = self._sets
        assoc = cfg.associativity
        for i in range(lines.shape[0]):
            s = sets[set_idx[i]]
            tag = int(lines[i])
            if tag in s:
                s.move_to_end(tag)
                out[i] = True
            else:
                out[i] = False
                if len(s) >= assoc:
                    s.popitem(last=False)
                s[tag] = None
        n_hit = int(out.sum())
        self.hits += n_hit
        self.misses += out.shape[0] - n_hit
        return out

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses so far that hit (0 if none yet)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class HierarchyResult:
    """Outcome of pushing a trace through a :class:`CacheHierarchy`."""

    accesses: int
    hits_per_level: tuple[int, ...]
    dram_accesses: int

    @property
    def hit_rates(self) -> tuple[float, ...]:
        """Per-level local hit rates (hits / accesses reaching that level)."""
        rates = []
        reaching = self.accesses
        for h in self.hits_per_level:
            rates.append(h / reaching if reaching else 0.0)
            reaching -= h
        return tuple(rates)


class CacheHierarchy:
    """A chain of :class:`CacheLevel` objects (L1d -> L2 -> L3).

    Accesses that miss level *i* are forwarded to level *i+1*; whatever
    misses the last level counts as a DRAM access.  This mirrors how the
    paper's PMU features (L2CacheHit, L3CacheHit, MemoryRead/WriteTimes)
    relate to each other.
    """

    def __init__(self, levels: list[CacheLevel]):
        if not levels:
            raise ConfigurationError("hierarchy needs at least one level")
        self.levels = levels

    def reset(self) -> None:
        """Clear all levels."""
        for level in self.levels:
            level.reset()

    def simulate(self, addresses: np.ndarray) -> HierarchyResult:
        """Run a byte-address trace through the hierarchy."""
        addresses = np.asarray(addresses, dtype=np.int64)
        current = addresses
        hits: list[int] = []
        for level in self.levels:
            if current.shape[0] == 0:
                hits.append(0)
                continue
            mask = level.access(current)
            hits.append(int(mask.sum()))
            current = current[~mask]
        return HierarchyResult(
            accesses=addresses.shape[0],
            hits_per_level=tuple(hits),
            dram_accesses=current.shape[0],
        )


def hierarchy_for_processor(proc: ProcessorSpec) -> CacheHierarchy:
    """Build a single-core view of a processor's data-cache hierarchy."""
    levels = [
        CacheLevel(CacheConfig.from_spec(spec)) for spec in proc.cache_levels()
    ]
    if not levels:
        raise ConfigurationError(f"{proc.model} declares no data caches")
    return CacheHierarchy(levels)


def analytic_hit_rate(
    working_set_mb: float, capacity_mb: float, locality: float
) -> float:
    """Closed-form hit-rate estimate for one cache level.

    Parameters
    ----------
    working_set_mb:
        Active data footprint of the workload per core, MB.
    capacity_mb:
        Effective capacity of the cache level available to that core, MB.
    locality:
        Capacity-independent reuse fraction in [0, 1): ~0.98 for blocked
        dense linear algebra (HPL), ~0.85 for sequential streaming, ~0.0
        for uniform random access.

    Returns
    -------
    float
        Estimated hit rate in [0, 0.999].  A working set that fits in the
        cache yields ~1 (bounded at 0.999 to keep downstream miss streams
        non-degenerate).
    """
    if working_set_mb < 0:
        raise ConfigurationError("working set must be non-negative")
    if capacity_mb <= 0:
        raise ConfigurationError("capacity must be positive")
    if not 0.0 <= locality < 1.0:
        raise ConfigurationError(
            f"locality must be in [0, 1), got {locality}"
        )
    if working_set_mb <= capacity_mb:
        return 0.999
    resident = capacity_mb / working_set_mb
    hit = locality + (1.0 - locality) * resident
    return float(min(max(hit, 0.0), 0.999))
