"""Multi-program campaigns with the paper's CSV pipeline.

Section V-C2 describes the full test procedure: share the PC's power-data
directory, synchronise clocks, record with WTViewer while the server runs
each program in sequence, then merge the CSV files, extract per-program
windows by execution time, trim 10 % at each end, and average.

:class:`Campaign` reproduces that end to end — including a residual clock
offset between the meter PC and the server that the synchronisation step
bounds but does not eliminate — and returns per-program measurements.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import obs
from repro.engine.simulator import Simulator
from repro.engine.trace import RunResult
from repro.errors import ConfigurationError
from repro.metering.analysis import (
    DEFAULT_TRIM,
    TraceQuality,
    extract_window,
    repair_trace,
    trimmed_stats,
)
from repro.metering.csvlog import (
    keep_first,
    merge_power_csvs,
    read_power_csv,
    read_power_csv_tolerant,
    write_power_csv,
)
from repro.metering.stream import StreamingWindow, WindowSpec
from repro.units import energy_kj
from repro.workloads.base import Workload

__all__ = ["ProgramMeasurement", "CampaignResult", "Campaign"]


@dataclass(frozen=True)
class ProgramMeasurement:
    """Per-program outcome of a campaign (one row of Tables IV-VI)."""

    label: str
    gflops: float
    average_watts: float
    average_memory_mb: float
    duration_s: float

    @property
    def ppw(self) -> float:
        """Performance per watt (Eq. 1)."""
        return self.gflops / self.average_watts

    @property
    def energy_kilojoules(self) -> float:
        """Run energy (Eq. 2)."""
        return energy_kj(self.average_watts, self.duration_s)


@dataclass(frozen=True)
class CampaignResult:
    """All measurements of one campaign plus the raw runs.

    ``quality`` is the merged trace's repair report when the campaign
    ran with ``repair=True``; ``None`` on the default path.
    """

    server: str
    measurements: tuple[ProgramMeasurement, ...]
    runs: tuple[RunResult, ...]
    merged_csv: Path | None = None
    quality: "TraceQuality | None" = None

    def by_label(self, label: str) -> ProgramMeasurement:
        """Look up a measurement by its program label."""
        for m in self.measurements:
            if m.label == label:
                return m
        raise ConfigurationError(
            f"no measurement labelled {label!r} in campaign"
        )


class Campaign:
    """Sequential execution of several workloads on one server.

    Parameters
    ----------
    simulator:
        The engine to run on.
    gap_s:
        Idle seconds between consecutive programs (lets the meter trace
        separate cleanly, as in the real procedure).
    clock_offset_s:
        Residual meter-PC clock offset after synchronisation; the meter's
        timestamps are shifted by it and the analysis corrects with the
        recorded offset, so a correct pipeline is insensitive to it.
    trim:
        Head/tail trim fraction for the averages.
    repair:
        ``False`` (default) analyses the merged trace exactly as
        before — bit-identical to every prior release.  ``True`` routes
        it through the validation/repair stage first
        (:func:`repro.metering.analysis.repair_trace`): corrupt CSV
        rows are skipped, non-finite samples and outliers rejected,
        gaps interpolated within budget — and a trace too damaged to
        trust raises :class:`~repro.errors.TraceQualityError` instead
        of averaging garbage.  The repair report lands in
        :attr:`CampaignResult.quality`.  The campaign threads its
        scheduled window (``[first start, last end)``) into the repair
        so dropouts at the very start or end of the trace count
        against coverage instead of silently shrinking the grid.
    streaming:
        ``True`` analyses the campaign online: each segment's CSV is
        read back right after it is written and pushed into a
        :class:`~repro.metering.stream.StreamingWindow`, so the windows
        see the logged values by construction.  A row whose timestamp
        is not after the last row fed is dropped, the merge's
        keep-first rule.  The analysis then holds one segment at a time
        plus the O(window) state, never the merged trace.  The merged
        CSV is still written as the campaign artifact.  Measurements
        are bit-identical to the batch path (the differential suite
        pins this).  Incompatible with ``repair=True``: repair is a
        whole-trace pass by construction.
    """

    def __init__(
        self,
        simulator: Simulator,
        gap_s: float = 30.0,
        clock_offset_s: float = 0.4,
        trim: float = DEFAULT_TRIM,
        repair: bool = False,
        streaming: bool = False,
    ):
        if gap_s < 0:
            raise ConfigurationError("gap must be non-negative")
        if streaming and repair:
            raise ConfigurationError(
                "streaming analysis cannot repair: repair_trace needs the "
                "whole trace (clock-skew and outlier scales are global); "
                "run with repair=True on the batch path instead"
            )
        self.simulator = simulator
        self.gap_s = gap_s
        self.clock_offset_s = clock_offset_s
        self.trim = trim
        self.repair = repair
        self.streaming = streaming

    def run(
        self,
        workloads: "list[Workload]",
        csv_dir: "str | Path | None" = None,
    ) -> CampaignResult:
        """Run every workload in order and analyse the merged trace.

        ``csv_dir`` receives the per-segment and merged CSV files; a
        temporary directory is used (and cleaned up) when omitted.
        """
        if not workloads:
            raise ConfigurationError("campaign needs at least one workload")
        own_tmp = csv_dir is None
        tmp = tempfile.TemporaryDirectory() if own_tmp else None
        out_dir = Path(tmp.name) if own_tmp else Path(csv_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            pipeline = (
                StreamingWindow(trim=self.trim) if self.streaming else None
            )
            fed = -math.inf  # the last timestamp the pipeline was fed
            runs: list[RunResult] = []
            csv_paths: list[Path] = []
            t = 0.0
            with obs.timed(
                "campaign.run",
                server=self.simulator.server.name,
                programs=len(workloads),
            ):
                for i, workload in enumerate(workloads):
                    with obs.span("campaign.segment", index=i):
                        result = self.simulator.run(workload, t_start_s=t)
                        runs.append(result)
                        # The meter PC's clock leads the server's by the
                        # offset.
                        csv_paths.append(
                            write_power_csv(
                                out_dir / f"segment_{i:03d}.csv",
                                result.times_s + self.clock_offset_s,
                                result.measured_watts,
                            )
                        )
                        if pipeline is not None:
                            pipeline.add_window(
                                WindowSpec(
                                    label=result.demand.program,
                                    start_s=result.t_start_s,
                                    end_s=result.t_end_s,
                                )
                            )
                            times, watts = read_power_csv(csv_paths[-1])
                            # A later segment can log the last one's
                            # final stamp again; the merge keeps the
                            # first.
                            keep, fed = keep_first(times, fed)
                            pipeline.push_many(
                                times[keep] - self.clock_offset_s,
                                watts[keep],
                            )
                        t = result.t_end_s + self.gap_s

                with obs.span("campaign.analysis"):
                    merged = merge_power_csvs(csv_paths, out_dir / "merged.csv")
                    quality: "TraceQuality | None" = None
                    if pipeline is not None:
                        stats = [w.stats for w in pipeline.finalize()]
                    else:
                        times, watts, quality = self._read_merged(merged, runs)
                        stats = [
                            trimmed_stats(
                                extract_window(
                                    times, watts, r.t_start_s, r.t_end_s
                                ),
                                self.trim,
                            )
                            for r in runs
                        ]
                    measurements = [
                        ProgramMeasurement(
                            label=result.demand.program,
                            gflops=result.demand.gflops,
                            average_watts=window.mean,
                            average_memory_mb=result.average_memory_mb(
                                self.trim
                            ),
                            duration_s=result.duration_s,
                        )
                        for result, window in zip(runs, stats)
                    ]
            return CampaignResult(
                server=self.simulator.server.name,
                measurements=tuple(measurements),
                runs=tuple(runs),
                merged_csv=None if own_tmp else merged,
                quality=quality,
            )
        finally:
            if tmp is not None:
                tmp.cleanup()

    def _read_merged(
        self, merged: Path, runs: "list[RunResult]"
    ) -> "tuple[np.ndarray, np.ndarray, TraceQuality | None]":
        """The merged trace on server time, repaired if asked."""
        quality: "TraceQuality | None" = None
        if self.repair:
            times, watts, _report = read_power_csv_tolerant(merged)
            # A merged campaign trace is multi-modal by design (each
            # program has its own power level), so the global robust-z
            # glitch rejection would delete the highest-power program
            # wholesale; windowed analysis handles level shifts itself.
            #
            # The expected window lives on the repaired trace's own
            # timeline: server time if the repair removes the meter-PC
            # clock offset, meter time if it leaves the timestamps alone
            # (jitter).  Probe first — the skew decision is independent
            # of the expected window — then anchor accordingly, so
            # leading/trailing dropouts count against coverage.
            probe = repair_trace(times, watts, sample_hz=1.0, outlier_z=np.inf)
            shift = (
                0.0
                if "clock_skew_corrected" in probe.quality.flags
                else self.clock_offset_s
            )
            repaired = repair_trace(
                times,
                watts,
                sample_hz=1.0,
                outlier_z=np.inf,
                expected_start_s=runs[0].t_start_s + shift,
                expected_end_s=runs[-1].t_end_s + shift,
            )
            quality = repaired.quality
            if quality.quarantined:
                from repro.errors import TraceQualityError

                raise TraceQualityError(
                    f"merged trace on {self.simulator.server.name} is "
                    f"beyond repair: {', '.join(quality.flags)} "
                    f"(coverage {quality.coverage:.0%})"
                )
            times, watts = repaired.times_s, repaired.watts
        else:
            times, watts = read_power_csv(merged)
        # Clock-sync correction (procedure step 3): map meter time back
        # to server time before window extraction — unless the repair
        # stage already measured and removed the offset itself
        # (correcting twice would shift every window by a full offset).
        if quality is None or "clock_skew_corrected" not in quality.flags:
            times = times - self.clock_offset_s
        return times, watts, quality
