"""Post-processing of metered traces (Section V-C2, analysis steps 2-5).

After a campaign the paper extracts each program's samples by its
execution window, discards the initial 10 % and final 10 % (program
start-up and tear-down transients, meter/clock misalignment), and takes
the arithmetic mean.  The same trimming appears in the Green500 run rules
("the first and last few samples can be ignored").

Real traces are not clean: loggers drop samples, meters glitch, and the
meter PC's clock drifts off the server's (Sirbu & Babaoglu report exactly
this class of missing/corrupt trace data at supercomputer scale).
:func:`repair_trace` is the validation/quarantine/repair stage for such
traces — it rejects non-finite and outlier samples, corrects a uniform
clock offset, interpolates gaps up to a budget, and reports everything it
did in a :class:`TraceQuality` record so a repaired number is never
silently mistaken for a pristine one.  The default analysis pipeline does
not route through it; callers opt in (``Campaign(repair=True)``, the
chaos harness), so untouched traces stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import ConfigurationError

__all__ = [
    "extract_window",
    "window_mask",
    "trimmed_mean",
    "trimmed_stats",
    "check_trim",
    "reduce_trimmed",
    "TrimmedStats",
    "TraceQuality",
    "RepairedTrace",
    "validate_trace",
    "repair_trace",
]

#: Default trim: drop this fraction of samples at each end.
DEFAULT_TRIM: float = 0.10

#: Default gap-interpolation budget: fill holes up to this long, seconds.
DEFAULT_MAX_GAP_S: float = 5.0

#: Default robust-z threshold for outlier rejection.
DEFAULT_OUTLIER_Z: float = 8.0

#: Below this surviving-sample coverage a trace is quarantined.
DEFAULT_MIN_COVERAGE: float = 0.5

#: Absolute edge tolerance of :func:`extract_window`, seconds.  Far
#: below any meter's sample period, far above float64 rounding noise at
#: campaign time scales (the spacing of float64 at 1e5 s is ~1.5e-11 s).
EDGE_TOLERANCE_S: float = 1e-9


def extract_window(
    times_s: np.ndarray,
    values: np.ndarray,
    start_s: float,
    end_s: float,
    edge_tolerance_s: float = EDGE_TOLERANCE_S,
) -> np.ndarray:
    """Samples whose timestamps fall in the half-open ``[start_s, end_s)``.

    The window is *half-open by decision*, matched to the simulated
    meter's grid: a run of duration ``d`` starting at ``t0`` is sampled
    at ``t0, t0+1, ..., t0+ceil(d)-1`` — all strictly before
    ``t0 + d`` — while with ``gap_s=0`` the *next* run's first sample
    lands exactly on this run's ``t_end_s``.  Including the end edge
    would double-count that boundary sample into both programs'
    windows; excluding it attributes every sample to exactly one run.

    Both edges are snapped with ``edge_tolerance_s``: timestamps that
    round-trip through the CSV log and the clock-offset correction
    (``(t + offset) - offset``) pick up ~1e-14 s of float noise, and
    the previous exact comparison silently dropped a start-edge sample
    that drifted infinitesimally below ``start_s`` (losing it from
    *every* window) and misattributed an end-edge sample that drifted
    below ``end_s``.  A sample within the tolerance of an edge is
    treated as *on* it: included at the start edge, excluded at the end
    edge.  On clean grids the mask is unchanged, so all paper-band
    numbers are bit-identical.
    """
    times_s = np.asarray(times_s)
    values = np.asarray(values)
    if times_s.shape != values.shape:
        raise ConfigurationError(
            f"times and values must align: {times_s.shape} vs {values.shape}"
        )
    if end_s <= start_s:
        raise ConfigurationError(
            f"window must be non-empty: [{start_s}, {end_s})"
        )
    return values[window_mask(times_s, start_s, end_s, edge_tolerance_s)]


def window_mask(
    times_s: np.ndarray,
    start_s: float,
    end_s: float,
    edge_tolerance_s: float = EDGE_TOLERANCE_S,
) -> np.ndarray:
    """The boolean mask :func:`extract_window` selects with."""
    tol = float(edge_tolerance_s)
    return (times_s >= start_s - tol) & (times_s < end_s - tol)


def trimmed_mean(values: np.ndarray, trim: float = DEFAULT_TRIM) -> float:
    """Arithmetic mean after dropping ``trim`` of samples at each end.

    Trimming is positional (first/last samples in time), not magnitude
    based — the paper removes the *initial* and *final* 10 % of the data.
    At least one sample always survives.
    """
    return trimmed_stats(values, trim).mean


@dataclass(frozen=True)
class TrimmedStats:
    """Summary of a trimmed window.

    ``ddof`` records the delta-degrees-of-freedom the ``std`` was
    computed with; ``fallback`` is ``True`` when the trim could not be
    applied as requested and the statistics describe a degenerate
    window instead (see :func:`trimmed_stats`) — a consumer must not
    mistake such a number for a cleanly trimmed one.
    """

    mean: float
    std: float
    n_total: int
    n_used: int
    ddof: int = 0
    fallback: bool = False

    @property
    def n_trimmed(self) -> int:
        """Samples dropped by the trim."""
        return self.n_total - self.n_used


def trimmed_stats(
    values: np.ndarray, trim: float = DEFAULT_TRIM, ddof: int = 0
) -> TrimmedStats:
    """Positional-trim statistics of a sample window.

    ``std`` is the **population** standard deviation (``ddof=0``,
    numpy's default) unless a different ``ddof`` is requested.  The
    choice is deliberate and part of the measurement contract: the trim
    keeps the steady-state plateau of a run, which is treated as the
    complete population of steady samples, not a random draw from a
    larger one — and ``ddof=0`` keeps every historical number
    bit-identical.  Callers estimating meter noise from small windows
    should pass ``ddof=1`` explicitly.

    Degenerate windows are *flagged*, never silent:

    * ``n == 1`` — the mean is the sample and ``std`` is 0.0 by
      construction; ``fallback=True`` because no spread was measurable.
    * a trim that would empty the window (only possible for
      ``trim >= 0.5``, which is rejected, so this is a defensive guard)
      falls back to the single middle sample with ``fallback=True``.

    Windows merely too short for the trim to drop anything
    (``n < ceil(1/trim)``, so ``cut == 0``) are **not** fallbacks: the
    untrimmed statistics are exact, just untrimmed (``n_used ==
    n_total`` says so).
    """
    check_trim(trim, ddof)
    values = np.asarray(values, dtype=float).ravel()
    cut = int(values.size * trim)
    return reduce_trimmed(values[cut:], values.size, cut, ddof)


def check_trim(trim: float, ddof: int = 0) -> None:
    """Reject a trim fraction or ``ddof`` :func:`trimmed_stats` refuses."""
    if not 0.0 <= trim < 0.5:
        raise ConfigurationError(f"trim must be in [0, 0.5), got {trim}")
    if ddof < 0:
        raise ConfigurationError(f"ddof must be >= 0, got {ddof}")


def reduce_trimmed(
    rest: np.ndarray, n_total: int, cut: int, ddof: int = 0
) -> TrimmedStats:
    """The reduction of :func:`trimmed_stats` once the head is dropped.

    ``rest`` is the window's samples after its first ``cut``, where
    ``cut = int(n_total * trim)``; the last ``cut`` of them are dropped
    here.  :class:`repro.metering.stream.StreamingTrim` closes through
    this too, so both give the same numbers from the same samples.
    """
    if n_total == 0:
        raise ConfigurationError("cannot summarise an empty window")
    kept = rest[: rest.size - cut] if cut else rest
    fallback = False
    if kept.size == 0:
        middle = n_total // 2 - cut
        kept = rest[middle : middle + 1]
        fallback = True
    if kept.size <= ddof:
        raise ConfigurationError(
            f"ddof={ddof} needs more than {ddof} surviving samples, "
            f"got {kept.size}"
        )
    if kept.size == 1:
        fallback = True
    return TrimmedStats(
        mean=float(kept.mean()),
        std=float(kept.std(ddof=ddof)),
        n_total=int(n_total),
        n_used=int(kept.size),
        ddof=int(ddof),
        fallback=fallback,
    )


@dataclass(frozen=True)
class TraceQuality:
    """What the repair stage found and did to one metered trace.

    ``flags`` name every deviation from a pristine trace; an empty tuple
    means the trace needed nothing.  ``quarantined`` traces carry too
    little signal to trust — callers must either discard them or mark
    any derived number as degraded.
    """

    n_samples: int
    n_expected: int
    n_nan: int
    n_duplicates: int
    n_outliers: int
    n_interpolated: int
    n_unfilled: int
    clock_skew_s: float
    flags: tuple[str, ...] = ()

    @property
    def n_valid(self) -> int:
        """Samples in the repaired trace (observed + interpolated)."""
        return self.n_expected - self.n_unfilled

    @property
    def coverage(self) -> float:
        """Fraction of the expected sample grid the repaired trace covers."""
        if self.n_expected <= 0:
            return 0.0
        return self.n_valid / self.n_expected

    @property
    def quarantined(self) -> bool:
        """Whether the trace was rejected as unanalysable."""
        return "quarantined" in self.flags

    @property
    def ok(self) -> bool:
        """True only for a trace that needed no repair at all."""
        return not self.flags

    def to_dict(self) -> dict:
        """JSON-ready representation (attached to reports)."""
        return {
            "n_samples": self.n_samples,
            "n_expected": self.n_expected,
            "n_nan": self.n_nan,
            "n_duplicates": self.n_duplicates,
            "n_outliers": self.n_outliers,
            "n_interpolated": self.n_interpolated,
            "n_unfilled": self.n_unfilled,
            "clock_skew_s": self.clock_skew_s,
            "coverage": self.coverage,
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class RepairedTrace:
    """Output of :func:`repair_trace`: clean arrays plus their audit."""

    times_s: np.ndarray
    watts: np.ndarray
    quality: TraceQuality


def validate_trace(
    times_s: np.ndarray,
    watts: np.ndarray,
    sample_hz: float = 1.0,
    max_gap_s: float = DEFAULT_MAX_GAP_S,
    outlier_z: float = DEFAULT_OUTLIER_Z,
    min_coverage: float = DEFAULT_MIN_COVERAGE,
    expected_start_s: "float | None" = None,
    expected_end_s: "float | None" = None,
) -> TraceQuality:
    """Assess a trace without touching it (a dry-run of the repair)."""
    return repair_trace(
        times_s,
        watts,
        sample_hz=sample_hz,
        max_gap_s=max_gap_s,
        outlier_z=outlier_z,
        min_coverage=min_coverage,
        expected_start_s=expected_start_s,
        expected_end_s=expected_end_s,
    ).quality


def _quarantined(n_samples: int, n_nan: int, *flags: str) -> RepairedTrace:
    obs.inc("meter.trace.quarantined")
    return RepairedTrace(
        times_s=np.array([]),
        watts=np.array([]),
        quality=TraceQuality(
            n_samples=n_samples,
            n_expected=n_samples,
            n_nan=n_nan,
            n_duplicates=0,
            n_outliers=0,
            n_interpolated=0,
            n_unfilled=n_samples,
            clock_skew_s=0.0,
            flags=tuple(flags) + ("quarantined",),
        ),
    )


def repair_trace(
    times_s: np.ndarray,
    watts: np.ndarray,
    sample_hz: float = 1.0,
    max_gap_s: float = DEFAULT_MAX_GAP_S,
    outlier_z: float = DEFAULT_OUTLIER_Z,
    min_coverage: float = DEFAULT_MIN_COVERAGE,
    expected_start_s: "float | None" = None,
    expected_end_s: "float | None" = None,
) -> RepairedTrace:
    """Validate and repair one metered trace.

    The stages, in order (each recorded in the returned
    :class:`TraceQuality`):

    1. **Non-finite rejection** — NaN/inf watts are dropped (a meter
       never reports them; they come from corrupt log rows).
    2. **Duplicate collapse** — repeated timestamps keep the first
       sample, as WTViewer's merge does.
    3. **Clock-skew correction** — a uniform offset of every timestamp
       from the nominal ``sample_hz`` grid (meter-PC clock ahead or
       behind the server's) is estimated and subtracted.
    4. **Outlier rejection** — samples whose robust z-score (median/MAD)
       exceeds ``outlier_z`` are treated as glitches and removed.
    5. **Gap interpolation** — missing grid slots inside runs no longer
       than ``max_gap_s`` are filled linearly; longer holes stay missing
       and cap the coverage.

    A trace whose surviving coverage falls below ``min_coverage`` (or
    that has no finite samples at all) is *quarantined*: empty arrays
    come back and the quality record carries the ``"quarantined"`` flag.
    The function never raises on bad data — only on inconsistent inputs.

    ``expected_start_s``/``expected_end_s`` declare the window the trace
    was *supposed* to cover, on the nominal (skew-corrected) timeline.
    Without them the grid is anchored at the first surviving sample, so
    a trace that lost its opening or closing seconds reports inflated
    coverage — there is nothing to anchor the loss against.  With them,
    the grid spans the declared half-open window: samples outside it are
    dropped (flag ``"outside_expected_window"``) and leading/trailing
    missing slots count as unfilled, exactly like interior holes over
    the gap budget.
    """
    if sample_hz <= 0:
        raise ConfigurationError(f"sample_hz must be positive, got {sample_hz}")
    if max_gap_s < 0:
        raise ConfigurationError(f"max_gap_s must be >= 0, got {max_gap_s}")
    if (
        expected_start_s is not None
        and expected_end_s is not None
        and not float(expected_end_s) > float(expected_start_s)
    ):
        raise ConfigurationError(
            "expected window must be non-empty: "
            f"[{expected_start_s}, {expected_end_s})"
        )
    times_s = np.asarray(times_s, dtype=float).ravel()
    watts = np.asarray(watts, dtype=float).ravel()
    if times_s.shape != watts.shape:
        raise ConfigurationError(
            f"times and watts must align: {times_s.shape} vs {watts.shape}"
        )
    n_samples = int(times_s.size)
    if n_samples == 0:
        return _quarantined(0, 0, "empty")

    flags: list[str] = []
    finite = np.isfinite(watts) & np.isfinite(times_s)
    n_nan = int(n_samples - finite.sum())
    if n_nan:
        flags.append("nonfinite_rejected")
    if not finite.any():
        return _quarantined(n_samples, n_nan, "all_nan")
    times_s, watts = times_s[finite], watts[finite]

    order = np.argsort(times_s, kind="stable")
    times_s, watts = times_s[order], watts[order]
    keep = np.ones(times_s.size, dtype=bool)
    keep[1:] = np.diff(times_s) > 0
    n_duplicates = int(times_s.size - keep.sum())
    if n_duplicates:
        flags.append("duplicate_timestamps")
        times_s, watts = times_s[keep], watts[keep]

    # Clock skew: the residual of every timestamp against the nominal
    # sample grid.  A consistent residual (small spread) is a uniform
    # meter-PC clock offset and is subtracted; an inconsistent one is
    # jitter and is only reported.
    period = 1.0 / sample_hz
    residual = times_s - np.round(times_s / period) * period
    clock_skew_s = float(np.median(residual))
    if abs(clock_skew_s) > period * 1e-6:
        spread = float(np.median(np.abs(residual - clock_skew_s)))
        if spread <= period * 0.1:
            times_s = times_s - clock_skew_s
            flags.append("clock_skew_corrected")
        else:
            flags.append("timestamp_jitter")

    # Outliers: robust z via median/MAD.  MAD of a quantised flat trace
    # can be 0; the fallback scale must then come from the *inlier* core
    # — the old ``watts.std()`` fallback included the glitch itself, so
    # a single large spike inflated its own rejection threshold and
    # survived with ``n_outliers=0``.
    n_outliers = 0
    if watts.size >= 4:
        med = float(np.median(watts))
        dev = np.abs(watts - med)
        mad = float(np.median(dev))
        if mad > 0:
            z = dev / (mad / 0.6745)
        else:
            core = np.argsort(dev, kind="stable")
            core = core[: dev.size - max(dev.size // 10, 1)]
            scale = float(watts[core].std())
            if scale > 0:
                z = dev / scale
            else:
                # Even the lowest-deviation 90 % is perfectly flat:
                # against a bit-flat plateau, any deviation from the
                # median is a glitch, not noise.
                z = np.where(dev > 0, np.inf, 0.0)
        inliers = z <= outlier_z
        n_outliers = int(watts.size - inliers.sum())
        if n_outliers:
            flags.append("outliers_rejected")
            times_s, watts = times_s[inliers], watts[inliers]
    if times_s.size == 0:
        return _quarantined(n_samples, n_nan, "all_rejected")

    # Regrid: place surviving samples on the nominal grid, fill gaps up
    # to the budget by linear interpolation, leave longer holes out.
    # The grid anchors at the declared window start when one is given;
    # otherwise at the first surviving sample (which cannot see leading
    # dropouts).
    anchor = (
        float(expected_start_s)
        if expected_start_s is not None
        else float(times_s[0])
    )
    idx = np.round((times_s - anchor) / period).astype(int)
    n_window: "int | None" = None
    if expected_end_s is not None:
        n_window = int(
            np.ceil((float(expected_end_s) - anchor) / period - EDGE_TOLERANCE_S)
        )
        if n_window < 1:
            raise ConfigurationError(
                "expected window ends before its grid anchor: "
                f"[{anchor}, {expected_end_s})"
            )
    inside = np.ones(idx.size, dtype=bool)
    if expected_start_s is not None:
        inside &= idx >= 0
    if n_window is not None:
        inside &= idx < n_window
    n_dropped = int(idx.size - inside.sum())
    if n_dropped:
        flags.append("outside_expected_window")
        idx, times_s, watts = idx[inside], times_s[inside], watts[inside]
        if idx.size == 0:
            return _quarantined(
                n_samples, n_nan, "outside_expected_window", "all_rejected"
            )
    # Collisions after regridding (sub-period spacing) keep the first.
    keep = np.ones(idx.size, dtype=bool)
    keep[1:] = np.diff(idx) > 0
    idx, times_kept, watts_kept = idx[keep], times_s[keep], watts[keep]
    n_expected = n_window if n_window is not None else int(idx[-1]) + 1
    grid_watts = np.full(n_expected, np.nan)
    grid_watts[idx] = watts_kept
    grid_times = anchor + np.arange(n_expected) * period
    missing = np.isnan(grid_watts)
    n_interpolated = 0
    n_unfilled = 0
    if missing.any():
        max_run = max(int(round(max_gap_s * sample_hz)), 0)
        # Walk the runs of missing slots; interior runs within budget are
        # linearly interpolated between their finite neighbours.
        holes = np.flatnonzero(missing)
        run_start = holes[0]
        runs: list[tuple[int, int]] = []
        for a, b in zip(holes, holes[1:]):
            if b != a + 1:
                runs.append((run_start, a))
                run_start = b
        runs.append((run_start, holes[-1]))
        for lo, hi in runs:
            length = hi - lo + 1
            if lo == 0 or hi == n_expected - 1 or length > max_run:
                n_unfilled += length
                continue
            left, right = grid_watts[lo - 1], grid_watts[hi + 1]
            steps = np.arange(1, length + 1) / (length + 1)
            grid_watts[lo : hi + 1] = left + (right - left) * steps
            n_interpolated += length
        if n_interpolated:
            flags.append("gaps_interpolated")
        if n_unfilled:
            flags.append("gap_budget_exceeded")
    filled = ~np.isnan(grid_watts)
    out_times, out_watts = grid_times[filled], grid_watts[filled]

    coverage = float(filled.sum()) / n_expected if n_expected else 0.0
    if coverage < min_coverage:
        flags.append("quarantined")
        obs.inc("meter.trace.quarantined")
        out_times, out_watts = np.array([]), np.array([])
        n_unfilled = n_expected
    elif flags:
        obs.inc("meter.trace.repaired")
    if n_interpolated:
        obs.inc("meter.trace.interpolated", float(n_interpolated))

    return RepairedTrace(
        times_s=out_times,
        watts=out_watts,
        quality=TraceQuality(
            n_samples=n_samples,
            n_expected=n_expected,
            n_nan=n_nan,
            n_duplicates=n_duplicates,
            n_outliers=n_outliers,
            n_interpolated=n_interpolated,
            n_unfilled=n_unfilled,
            clock_skew_s=clock_skew_s,
            flags=tuple(flags),
        ),
    )
