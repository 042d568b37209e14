"""Property-based tests (hypothesis) on the streaming metering pipeline.

The invariants pinned here are the ones the bit-identity contract rests
on: chunk boundaries can never change what a window sees or when it
closes, the positional trim reproduces ``trimmed_stats`` exactly, and
window routing is insensitive to reordering within the edge tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.metering.analysis import (
    EDGE_TOLERANCE_S,
    extract_window,
    trimmed_stats,
)
from repro.metering.stream import (
    StreamingTrim,
    StreamingWindow,
    WindowSpec,
)

watt_values = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
sample_lists = st.lists(watt_values, min_size=1, max_size=200)


def _split(values, cut_points):
    """Split a sequence at the given (possibly duplicated) cut points."""
    bounds = sorted({min(c, len(values)) for c in cut_points})
    out = []
    prev = 0
    for b in bounds:
        out.append(values[prev:b])
        prev = b
    out.append(values[prev:])
    return out


class TestChunkInvariance:
    @given(
        sample_lists,
        st.lists(st.integers(min_value=0, max_value=200), max_size=8),
        st.sampled_from([0.0, 0.1, 0.2, 0.49]),
    )
    def test_trim_identical_under_any_split(self, values, cuts, trim):
        whole = StreamingTrim(trim=trim)
        whole.push_many(np.asarray(values))
        split = StreamingTrim(trim=trim)
        for chunk in _split(values, cuts):
            split.push_many(np.asarray(chunk))
        assert whole.finalize() == split.finalize()

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=1, max_value=6),
            ),
            min_size=1,
            max_size=5,
        ),
        st.data(),
        st.sampled_from([0.0, 0.2]),
    )
    @settings(max_examples=300, deadline=None)
    def test_window_push_many_equals_one_sample_pushes(
        self, windows, data, trim
    ):
        # Arbitrary window sets (non-decreasing starts, overlaps
        # allowed); timestamps repeat, run backwards, and sit on, just
        # inside and just outside the window edges.
        specs, start = [], 0.0
        for k, (step, length) in enumerate(windows):
            start += step
            specs.append(WindowSpec(f"w{k}", start, start + length))
        edges = sorted(
            {-1.0, *(s.start_s for s in specs), *(s.end_s for s in specs)}
        )
        tol = EDGE_TOLERANCE_S
        samples = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(edges),
                    st.sampled_from([0.0, 0.5, 1.5, tol, -tol, 5e-10, -2e-9]),
                    watt_values,
                ),
                max_size=40,
            )
        )
        cuts = data.draw(
            st.lists(st.integers(min_value=0, max_value=40), max_size=6)
        )
        times = np.array([t + jitter for t, jitter, _ in samples])
        values = np.array([w for _, _, w in samples], dtype=float)
        one = _drive(specs, trim, [([t], [w]) for t, w in zip(times, values)])
        chunked = _drive(
            specs, trim, zip(_split(times, cuts), _split(values, cuts))
        )
        assert chunked == one
        assert one == _reference(specs, trim, times, values)


def _drive(specs, trim, chunks):
    """Push ``chunks`` through a window: what closed, late count, error."""
    closed = []
    pipeline = StreamingWindow(trim=trim, on_finalize=closed.append)
    for spec in specs:
        pipeline.add_window(spec)
    error = None
    try:
        for times, values in chunks:
            pipeline.push_many(times, values)
        pipeline.finalize()
    except ConfigurationError as exc:
        error = str(exc)
    return [(r.spec, r.stats) for r in closed], pipeline.late_samples, error


def _reference(specs, trim, times, values):
    """The routing rule written out one sample at a time."""
    tol = EDGE_TOLERANCE_S
    buffers = [[] for _ in specs]
    closed = []  # (spec, stats); len(closed) is the first open window
    late, mark, horizon = 0, -math.inf, -math.inf
    try:
        for t, value in zip(times, values):
            routed = False
            for k in range(len(closed), len(specs)):
                if specs[k].start_s - tol <= t < specs[k].end_s - tol:
                    buffers[k].append(value)
                    routed = True
            if not routed and t < horizon - tol:
                late += 1
            if t > mark:
                mark = t
                while (
                    len(closed) < len(specs)
                    and mark >= specs[len(closed)].end_s + tol
                ):
                    horizon = max(horizon, specs[len(closed)].end_s)
                    closed.append(_close(specs, buffers, len(closed), trim))
        while len(closed) < len(specs):
            closed.append(_close(specs, buffers, len(closed), trim))
    except ConfigurationError as exc:
        return closed, late, str(exc)
    return closed, late, None


def _close(specs, buffers, k, trim):
    spec = specs[k]
    try:
        return spec, trimmed_stats(np.array(buffers[k]), trim)
    except ConfigurationError as exc:
        raise ConfigurationError(
            f"window {spec.label!r} [{spec.start_s}, {spec.end_s}) "
            f"cannot close: {exc}"
        ) from exc


class TestBatchEquivalence:
    @given(sample_lists, st.sampled_from([0.0, 0.1, 0.2, 0.49]))
    def test_trim_matches_trimmed_stats_bit_exact(self, values, trim):
        array = np.asarray(values, dtype=float)
        acc = StreamingTrim(trim=trim)
        acc.push_many(array)
        assert acc.finalize() == trimmed_stats(array, trim)

    @given(
        st.lists(watt_values, min_size=4, max_size=120),
        st.sampled_from([0.0, 0.2]),
    )
    def test_window_matches_extract_window(self, values, trim):
        times = np.arange(float(len(values)))
        watts = np.asarray(values, dtype=float)
        mid = len(values) // 2
        specs = [
            WindowSpec("head", 0.0, float(mid) + 0.5),
            WindowSpec("tail", float(mid), float(len(values))),
        ]
        pipeline = StreamingWindow(trim=trim)
        for spec in specs:
            pipeline.add_window(spec)
        pipeline.push_many(times, watts)
        for spec, result in zip(specs, pipeline.finalize()):
            batch = trimmed_stats(
                extract_window(times, watts, spec.start_s, spec.end_s), trim
            )
            assert result.stats == batch


class TestReorderTolerance:
    @given(
        st.lists(watt_values, min_size=6, max_size=80),
        st.data(),
    )
    @settings(max_examples=50)
    def test_adjacent_swaps_inside_window_do_not_change_result(
        self, values, data
    ):
        # Samples may arrive slightly out of order; as long as no
        # reordered sample crosses a window edge the finalised stats
        # cannot change, because membership is positional in time, not
        # in arrival order... except the trim, which is arrival-order
        # positional.  So swaps are only harmless when the swapped
        # samples stay inside the same window AND trim is 0.
        times = np.arange(float(len(values)))
        watts = np.asarray(values, dtype=float)
        end = float(len(values))
        i = data.draw(
            st.integers(min_value=0, max_value=len(values) - 2), label="i"
        )

        sorted_pipe = StreamingWindow(trim=0.0)
        sorted_pipe.add_window(WindowSpec("w", 0.0, end))
        sorted_pipe.push_many(times, watts)

        swapped = StreamingWindow(trim=0.0)
        swapped.add_window(WindowSpec("w", 0.0, end))
        order = list(range(len(values)))
        order[i], order[i + 1] = order[i + 1], order[i]
        swapped.push_many(times[order], watts[order])

        (a,) = sorted_pipe.finalize()
        (b,) = swapped.finalize()
        # Membership is exact under reordering; the mean's last bits may
        # differ because numpy's pairwise sum sees a permuted array.
        assert a.stats.n_total == b.stats.n_total
        assert a.stats.n_used == b.stats.n_used
        assert b.stats.mean == pytest.approx(a.stats.mean, rel=1e-12)
        assert b.spec.label == "w"
        assert swapped.late_samples == 0
