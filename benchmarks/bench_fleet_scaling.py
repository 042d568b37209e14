"""Fleet scaling — worker-count speedup and cache warm-up.

Runs the full Tables IV-VI evaluation matrix (ten states on each of the
three servers, 30 jobs) serially, through 1/2/4-worker fleet pools with
a cold cache, and again with the cache warm.  The cold 4-worker run
should beat serial by at least 2x on a 4-core machine.  A warm run —
every job answered from the content-addressed cache — cannot skip
reading and SHA-256-hashing every entry it serves, so its bounds are
measured against that floor in the same process: the best warm run
takes at most 1.75x the best of 3 passes that read and hash every entry
file, and beats serial by at least 1.5x.  The acceptance thresholds are
asserted, so a scheduling or cache regression fails this exhibit rather
than just slowing it down.  The pool-speedup assertion needs real
parallelism and is skipped on machines without 4 CPUs (time-sharing one
core makes a pool strictly slower); the warm-cache bounds hold on any
hardware.
"""

import hashlib
import os
import time

from conftest import print_series

from repro.fleet import FleetRunner, ResultCache, evaluation_campaign


def _timed_run(campaign, workers, cache=None):
    t0 = time.perf_counter()
    outcome = FleetRunner(workers=workers, cache=cache).run(campaign)
    wall = time.perf_counter() - t0
    assert outcome.ok
    return outcome, wall


def collect(tmp_path):
    campaign = evaluation_campaign()
    n_jobs = len(campaign.jobs())

    _, serial_wall = _timed_run(campaign, workers=1)

    rows = [("serial", 1, "-", round(serial_wall, 2), "1.0x")]
    walls = {}
    for workers in (1, 2, 4):
        cache = ResultCache(tmp_path / f"cache-{workers}")
        _, cold_wall = _timed_run(campaign, workers, cache)
        # Best of two warm runs: a single read pass on a shared/loaded
        # box can absorb GC of the cold run's results.
        warm_outcome, warm_wall = _timed_run(campaign, workers, cache)
        assert warm_outcome.cache_hits == n_jobs
        warm_wall = min(warm_wall, _timed_run(campaign, workers, cache)[1])
        walls[workers] = (cold_wall, warm_wall)
        rows.append(
            (
                f"fleet w={workers}",
                workers,
                "cold",
                round(cold_wall, 2),
                f"{serial_wall / cold_wall:.1f}x",
            )
        )
        rows.append(
            (
                f"fleet w={workers}",
                workers,
                "warm",
                round(warm_wall, 3),
                f"{serial_wall / warm_wall:.1f}x",
            )
        )
    floor = min(_read_and_hash(cache.paths()) for _ in range(3))
    rows.append(("read+hash floor", "-", "warm", round(floor, 3), "-"))
    return n_jobs, serial_wall, walls, floor, rows


def _read_and_hash(paths):
    """Seconds to read and SHA-256-hash every entry file once: the work a
    verified cache hit cannot skip."""
    t0 = time.perf_counter()
    for path in paths:
        hashlib.sha256(path.read_bytes()).digest()
    return time.perf_counter() - t0


def test_fleet_scaling(benchmark, tmp_path):
    n_jobs, serial_wall, walls, floor, rows = benchmark.pedantic(
        collect, args=(tmp_path,), iterations=1, rounds=1
    )
    print_series(
        f"Fleet scaling on the evaluation matrix ({n_jobs} jobs)",
        rows,
        ("Mode", "Workers", "Cache", "Wall s", "Speedup"),
    )
    cold_4, _ = walls[4]
    # Acceptance: cold 4-worker run >= 2x serial (given the CPUs to do
    # it); anywhere, the best warm run within 1.75x of the read+hash
    # floor and at least 1.5x faster than serial.
    if (os.cpu_count() or 1) >= 4:
        assert serial_wall / cold_4 >= 2.0
    else:
        print(
            f"(cold-pool speedup not asserted: {os.cpu_count()} CPU(s) "
            "available, need 4)"
        )
    best_warm = min(warm for _, warm in walls.values())
    print(
        f"best warm {best_warm:.4f} s = {best_warm / floor:.2f}x the "
        f"read+hash floor ({floor:.4f} s), {serial_wall / best_warm:.2f}x "
        "faster than serial"
    )
    assert best_warm <= 1.75 * floor
    assert serial_wall / best_warm >= 1.5
