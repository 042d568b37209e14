"""Simulated power metering and the paper's data-analysis pipeline.

The paper measures with a Yokogawa WT210 external meter logging 1 Hz
samples through the WTViewer PC client, then post-processes CSVs: merge,
extract per-program windows by timestamp, drop the first and last 10 % of
samples, and average (Section V-C2).  This package reproduces that chain:

* :mod:`repro.metering.meter` — the WT210 model: 1 Hz sampling, range
  handling, gaussian + quantisation noise.
* :mod:`repro.metering.csvlog` — WTViewer-style CSV writing/reading and
  multi-file merge (chunked reader + streaming k-way merge).
* :mod:`repro.metering.sampler` — the 1 s memory-usage sampler.
* :mod:`repro.metering.analysis` — window extraction, 10 % trimming,
  averages, and PPW assembly.
* :mod:`repro.metering.stream` — a chunked front end over the same
  window and trim steps for a live sample stream: O(window) state,
  results bit-identical to the batch chain (see docs/metering.md).
"""

from repro.metering.meter import MeterSpec, Wt210Meter, WT210
from repro.metering.csvlog import (
    iter_power_csv,
    read_power_csv,
    write_power_csv,
    merge_power_csvs,
)
from repro.metering.sampler import MemorySampler
from repro.metering.analysis import (
    TrimmedStats,
    extract_window,
    trimmed_mean,
    trimmed_stats,
)
from repro.metering.stream import (
    StreamingFeatures,
    StreamingTrim,
    StreamingWindow,
    WindowResult,
    WindowSpec,
)

__all__ = [
    "MeterSpec",
    "Wt210Meter",
    "WT210",
    "iter_power_csv",
    "read_power_csv",
    "write_power_csv",
    "merge_power_csvs",
    "MemorySampler",
    "TrimmedStats",
    "extract_window",
    "trimmed_mean",
    "trimmed_stats",
    "StreamingFeatures",
    "StreamingTrim",
    "StreamingWindow",
    "WindowResult",
    "WindowSpec",
]
