"""Online (streaming) metering: a chunked front end over the batch chain.

The batch analysis chain (Section V-C2) — :func:`extract_window` →
:func:`trimmed_stats` → regression-feature collection — needs the whole
trace in memory.  This module feeds the same chain from a live 1 Hz
sample stream, one numpy chunk at a time: closed windows are summarised
and released, so the state it keeps is O(window), not O(trace)
(``bench_stream_metering.py`` gates this with ``tracemalloc``).

There is no second implementation of a step here:

* :class:`StreamingWindow` routes each chunk with
  :func:`~repro.metering.analysis.window_mask`, the mask of
  :func:`extract_window`.  It splits a chunk only at a sample whose
  running maximum closes a window, so a chunk gives the same results as
  pushing its samples one at a time.
* :class:`StreamingTrim` keeps the chunks the head trim can still keep
  and closes through :func:`~repro.metering.analysis.reduce_trimmed`,
  the reduction behind :func:`trimmed_stats`: same samples, same order,
  same numpy reduction, so the result is bit-identical.

``Campaign(streaming=True)`` feeds a :class:`StreamingWindow` one logged
segment at a time, so its analysis holds one segment plus this
O(window) state.  The differential suite
(``tests/metering/test_stream_differential.py``) and the campaign pins
hold the two entry points equal.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.metering.analysis import (
    DEFAULT_TRIM,
    EDGE_TOLERANCE_S,
    TrimmedStats,
    check_trim,
    reduce_trimmed,
    window_mask,
)

__all__ = [
    "StreamingTrim",
    "StreamingWindow",
    "StreamingFeatures",
    "WindowSpec",
    "WindowResult",
]


class StreamingTrim:
    """Positional head/tail trim over a stream of chunks, exact at close.

    :func:`trimmed_stats` keeps ``values[cut : n - cut]`` with ``cut =
    int(n * trim)``.  Since ``int(n * trim)`` never decreases as samples
    arrive, the first ``int(n_seen * trim)`` samples are already
    trimmed: they are released after every chunk, so the buffer holds
    the undecided middle plus the tail the close will cut.
    :meth:`finalize` concatenates the buffer and closes through
    :func:`~repro.metering.analysis.reduce_trimmed`.
    """

    __slots__ = ("trim", "ddof", "_chunks", "_n", "_head_dropped")

    def __init__(self, trim: float = DEFAULT_TRIM, ddof: int = 0) -> None:
        check_trim(trim, ddof)
        self.trim = float(trim)
        self.ddof = int(ddof)
        self._chunks: deque[np.ndarray] = deque()
        self._n = 0
        self._head_dropped = 0

    @property
    def n_seen(self) -> int:
        """Samples pushed so far."""
        return self._n

    @property
    def n_buffered(self) -> int:
        """Samples currently retained (the O(window) footprint)."""
        return sum(chunk.size for chunk in self._chunks)

    def push_many(self, values: np.ndarray) -> None:
        """Accept a chunk of samples in stream order."""
        chunk = np.array(values, dtype=float).ravel()
        if not chunk.size:
            return
        self._chunks.append(chunk)
        self._n += chunk.size
        drop = int(self._n * self.trim) - self._head_dropped
        self._head_dropped += drop
        while drop:
            head = self._chunks[0]
            if head.size <= drop:
                self._chunks.popleft()
                drop -= head.size
            else:
                # A copy, so the dropped samples' memory is released.
                self._chunks[0] = head[drop:].copy()
                drop = 0

    def finalize(self) -> TrimmedStats:
        """Close the window: the batch ``trimmed_stats``, bit for bit."""
        rest = np.concatenate(self._chunks) if self._chunks else np.empty(0)
        return reduce_trimmed(rest, self._n, self._head_dropped, self.ddof)


@dataclass(frozen=True)
class WindowSpec:
    """One half-open program window ``[start_s, end_s)`` to meter."""

    label: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if not self.end_s > self.start_s:
            raise ConfigurationError(
                f"window must be non-empty: [{self.start_s}, {self.end_s})"
            )


@dataclass(frozen=True)
class WindowResult:
    """A finalised window: its spec and the batch-identical statistics."""

    spec: WindowSpec
    stats: TrimmedStats


class StreamingWindow:
    """Routes a live sample stream into per-program trimmed windows.

    Membership is :func:`~repro.metering.analysis.window_mask`, the
    mask of :func:`extract_window`: a sample at ``t`` belongs to window
    ``w`` iff ``t >= w.start_s - tol and t < w.end_s - tol``.

    Windows must be registered in non-decreasing ``start_s`` order
    (:meth:`add_window`), matching how a campaign schedules runs.  A
    window is finalised eagerly once the stream's high-water mark passes
    ``end_s + tol`` — beyond that point a sample within the reorder
    tolerance can no longer fall inside it — or at :meth:`finalize`.
    Samples arriving for already-finalised windows are counted
    (``late_samples``), never raised.
    """

    def __init__(
        self,
        trim: float = DEFAULT_TRIM,
        ddof: int = 0,
        edge_tolerance_s: float = EDGE_TOLERANCE_S,
        on_finalize=None,
    ) -> None:
        check_trim(trim)
        self.trim = float(trim)
        self.ddof = int(ddof)
        self.tol = float(edge_tolerance_s)
        self.on_finalize = on_finalize
        self._windows: list[tuple[WindowSpec, StreamingTrim]] = []
        self._first_open = 0
        self._results: list[WindowResult] = []
        self._watermark = -math.inf
        self._finalized_horizon = -math.inf
        self.late_samples = 0

    def add_window(self, spec: WindowSpec) -> None:
        """Register the next window; ``start_s`` must not decrease."""
        if self._windows and spec.start_s < self._windows[-1][0].start_s:
            raise ConfigurationError(
                "windows must be registered in non-decreasing start order: "
                f"{spec.start_s} after {self._windows[-1][0].start_s}"
            )
        self._windows.append(
            (spec, StreamingTrim(trim=self.trim, ddof=self.ddof))
        )

    @property
    def n_open(self) -> int:
        """Windows registered but not yet finalised."""
        return len(self._windows) - self._first_open

    @property
    def n_buffered(self) -> int:
        """Samples retained across all open windows (memory footprint)."""
        return sum(
            acc.n_buffered for _, acc in self._windows[self._first_open :]
        )

    def push(self, t: float, value: float) -> None:
        """Route one timestamped sample."""
        self.push_many([t], [value])

    def push_many(self, times_s: np.ndarray, values: np.ndarray) -> None:
        """Route a chunk of timestamped samples in stream order.

        The watermark is the running maximum of the timestamps pushed so
        far, and a window closes only at a sample that raises it past
        the window's ``end_s + tol``.  The chunk is split at those
        samples and nowhere else; each piece is routed against the
        windows open when it arrives, so the results, ``late_samples``
        and ``on_finalize`` order equal one-sample pushes.
        """
        times_s = np.asarray(times_s, dtype=float).ravel()
        values = np.asarray(values, dtype=float).ravel()
        if times_s.shape != values.shape:
            raise ConfigurationError(
                f"times and values must align: {times_s.shape} vs "
                f"{values.shape}"
            )
        # peak[k] is the watermark after sample k (NaN never raises it).
        peak = np.fmax.accumulate(np.concatenate(([self._watermark], times_s)))
        rises = np.flatnonzero(times_s > peak[:-1])
        peak = peak[1:]
        lo = 0
        while lo < times_s.size:
            hi, closes = times_s.size, False
            if self._first_open < len(self._windows):
                spec = self._windows[self._first_open][0]
                passed = np.searchsorted(peak, spec.end_s + self.tol)
                i = np.searchsorted(rises, max(lo, passed))
                if i < rises.size:
                    hi, closes = int(rises[i]) + 1, True
            self._route(times_s[lo:hi], values[lo:hi], peak[hi - 1])
            self._watermark = float(peak[hi - 1])
            if closes:
                self._close_passed()
            lo = hi
        obs.inc("stream.samples", float(times_s.size))
        obs.set_gauge("stream.depth", float(self.n_buffered))

    def _route(
        self, times_s: np.ndarray, values: np.ndarray, top: float
    ) -> None:
        """Feed a piece to every open window; ``top`` bounds its times."""
        routed = np.zeros(times_s.size, dtype=bool)
        for spec, acc in self._windows[self._first_open :]:
            if spec.start_s - self.tol > top:
                break  # starts are sorted; later windows begin later
            mask = window_mask(times_s, spec.start_s, spec.end_s, self.tol)
            acc.push_many(values[mask])
            routed |= mask
        late = np.count_nonzero(
            ~routed & (times_s < self._finalized_horizon - self.tol)
        )
        if late:
            self.late_samples += int(late)
            obs.inc("stream.late_samples", float(late))

    def _close_passed(self) -> None:
        """Finalise every leading window the watermark has passed."""
        while self._first_open < len(self._windows):
            spec, _ = self._windows[self._first_open]
            if self._watermark < spec.end_s + self.tol:
                break
            self._finalize_first()

    def _finalize_first(self) -> None:
        spec, acc = self._windows[self._first_open]
        self._windows[self._first_open] = (spec, None)  # release buffer
        self._first_open += 1
        self._finalized_horizon = max(self._finalized_horizon, spec.end_s)
        started = time.perf_counter()
        try:
            stats = acc.finalize()
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"window {spec.label!r} [{spec.start_s}, {spec.end_s}) "
                f"cannot close: {exc}"
            ) from exc
        result = WindowResult(spec=spec, stats=stats)
        self._results.append(result)
        obs.observe(
            "stream.finalize_seconds", time.perf_counter() - started
        )
        obs.inc("stream.windows_finalized")
        if self.on_finalize is not None:
            self.on_finalize(result)

    @property
    def results(self) -> list[WindowResult]:
        """Windows finalised so far, in registration order."""
        return list(self._results)

    def finalize(self) -> list[WindowResult]:
        """Close all remaining windows and return every result in order."""
        while self._first_open < len(self._windows):
            self._finalize_first()
        obs.set_gauge("stream.depth", 0.0)
        return self.results

    def stats_by_label(self) -> dict[str, TrimmedStats]:
        """Finalised stats keyed by window label (last wins on repeats)."""
        return {r.spec.label: r.stats for r in self._results}


class StreamingFeatures:
    """Accumulates the regression features without holding the trace.

    Batch equivalents (and the bit-identity targets):

    * ``collect_hpcc_training`` pairs PMU sample ``k`` with
      ``measured_watts[k*interval : (k+1)*interval].mean()`` — here the
      power stream fills one ``interval``-sized buffer at a time, each
      reduced (by the same ``ndarray.mean()``) and released when its
      interval completes, so at most one interval of samples is ever
      held.
    * ``collect_npb_features`` uses ``run.pmu_matrix().mean(axis=0)`` —
      :meth:`pmu_mean` stacks the pushed PMU vectors identically.

    PMU rows are tiny (six floats per 10 s); they are retained.

    The collectors themselves reduce each run's arrays directly, so no
    library code calls this class; ``perfbench/layers.py`` still wraps
    its methods.
    """

    def __init__(self, interval: int = 10) -> None:
        if interval < 1:
            raise ConfigurationError(
                f"interval must be >= 1 sample, got {interval}"
            )
        self.interval = int(interval)
        self._pmu_rows: list[np.ndarray] = []
        self._power_means: list[float] = []
        self._current: list[float] = []
        self._n_power = 0

    @property
    def n_power(self) -> int:
        """Power samples pushed so far."""
        return self._n_power

    @property
    def n_pmu(self) -> int:
        """PMU vectors pushed so far."""
        return len(self._pmu_rows)

    def push_power(self, value: float) -> None:
        """Accept one 1 Hz power sample in stream order."""
        if self._n_power and self._n_power % self.interval == 0:
            self._close_interval()
        self._current.append(float(value))
        self._n_power += 1

    def push_power_many(self, values: np.ndarray) -> None:
        """Accept a chunk of power samples in stream order."""
        for value in np.asarray(values, dtype=float).ravel():
            self.push_power(value)

    def _close_interval(self) -> None:
        window = np.asarray(self._current, dtype=float)
        self._power_means.append(float(window.mean()))
        self._current = []

    def push_pmu(self, sample) -> None:
        """Accept one PMU sample (object with ``as_vector()``) or vector."""
        vector = (
            sample.as_vector()
            if hasattr(sample, "as_vector")
            else np.asarray(sample, dtype=float)
        )
        self._pmu_rows.append(np.asarray(vector, dtype=float))

    def push_pmu_many(self, samples) -> None:
        """Accept a sequence of PMU samples/vectors."""
        for sample in samples:
            self.push_pmu(sample)

    def pmu_mean(self) -> np.ndarray:
        """Column means of the stacked PMU rows (npb feature row)."""
        if not self._pmu_rows:
            raise ConfigurationError("no PMU samples accumulated")
        return np.vstack(self._pmu_rows).mean(axis=0)

    def finalize(self) -> tuple[np.ndarray, np.ndarray]:
        """Pair PMU rows with their interval power means (hpcc rows).

        Returns ``(features, power)`` exactly as the batch inner loop of
        ``collect_hpcc_training`` builds them: PMU sample ``k`` pairs
        with interval ``k``'s mean, intervals with no power samples are
        skipped, and surplus power beyond the PMU rows is ignored.
        """
        if self._current:
            self._close_interval()
        rows: list[np.ndarray] = []
        power: list[float] = []
        for k, row in enumerate(self._pmu_rows):
            if k >= len(self._power_means):
                continue
            rows.append(row)
            power.append(self._power_means[k])
        if not rows:
            raise ConfigurationError(
                "no PMU/power interval pairs accumulated"
            )
        return np.vstack(rows), np.asarray(power, dtype=float)
