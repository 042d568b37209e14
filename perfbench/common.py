"""Shared plumbing for the benchmark: paths, child processes, statistics, output."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for caches, CSV segments, event logs and serve state.
#: It lives in the checkout (the benchmark touches nothing outside it),
#: is ignored by git, and each run removes its own subdirectory.
SCRATCH_ROOT = ROOT / ".bench_tmp"
#: The seed whose outputs are pinned in ``reference.json``.
DEFAULT_SEED = 0
#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Program settings that would change what is measured; always unset.
_PROGRAM_ENV = ("REPRO_OBS", "REPRO_ENGINE")
#: Seconds :func:`reference_kernel` takes at the machine speed the gated
#: times are scaled to (about this VM's usual speed).
REFERENCE_KERNEL_S = 0.040


def require_checkout() -> None:
    """Exit non-zero unless the program's source is beside the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program source under {SRC}; run from the root "
            "of a full checkout"
        )


def make_scratch() -> Path:
    """A fresh scratch directory for this run; also the process's TMPDIR."""
    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT))
    tempfile.tempdir = str(scratch)
    os.environ["TMPDIR"] = str(scratch)
    for name in _PROGRAM_ENV:
        os.environ.pop(name, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return scratch


def remove_scratch(scratch: Path) -> None:
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        SCRATCH_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass


def child_env() -> dict:
    """Environment for program processes: the source tree, nothing else set."""
    env = {k: v for k, v in os.environ.items() if k not in _PROGRAM_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (missed requests) sort last."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: "list[float]") -> float:
    return float(statistics.median(values))


def reference_kernel() -> float:
    """Seconds for a fixed mix of interpreter and NumPy work.

    This VM's speed drifts by up to a quarter over minutes, and every
    CPU-bound phase of a run moves with it.  Timing this kernel between
    the phases and scaling the phase times by ``REFERENCE_KERNEL_S`` over
    its median cancels that drift; the kernel is the benchmark's own code,
    so no change to the program moves it.
    """
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(150_000):
        acc += (i * 0.5) % 7.0
        table[i & 4095] = acc
    values = np.arange(100_000, dtype=float)
    for _ in range(20):
        values = np.sqrt(values * 1.0001 + 1.0)
    return time.perf_counter() - t0


def speed_scale(kernel_samples: "list[float]") -> float:
    """Factor that turns this run's CPU-bound times into reference-speed times."""
    return REFERENCE_KERNEL_S / median(kernel_samples)


def peak_rss_mb(pid: "int | None" = None) -> float:
    """Peak resident set of this process, or of ``pid`` via ``/proc``."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def time_setups(workload: str, seed: int, count: int = SETUP_PROBES) -> "list[float]":
    """Spawn ``count`` fresh interpreters that set the workload up.

    Each is timed from spawn until it reports that import, input
    generation and calibration are done.
    """
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            samples.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
    return samples


def startup_profile(count: int = 3) -> dict:
    """``python -X importtime -c 'import repro'``, medians over ``count``.

    ``startup.import_s`` is the cumulative time of ``import repro``;
    ``startup.scipy_s`` and ``startup.repro_s`` sum the self time of the
    scipy and repro modules it loads.
    """
    runs = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro"],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        total = scipy = repro = 0.0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            module = name.strip()
            if module.split(".")[0] == "scipy":
                scipy += int(self_us) / 1e6
            elif module.split(".")[0] == "repro":
                repro += int(self_us) / 1e6
            if name.rstrip() == " repro":
                total = int(cumulative_us) / 1e6
        runs.append((total, scipy, repro))
    return {
        "startup.import_s": median([r[0] for r in runs]),
        "startup.scipy_s": median([r[1] for r in runs]),
        "startup.repro_s": median([r[2] for r in runs]),
    }


def digest(document) -> str:
    """SHA-256 of a document's canonical JSON: how the program digests results."""
    from repro.fleet.cache import canonical_json

    return hashlib.sha256(canonical_json(document).encode()).hexdigest()


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(
    workload: str,
    seed: int,
    trace: bool,
    rows: "list[tuple[str, str, float, str, int]]",
    properties: "dict[str, object]",
    metrics: "dict[str, float]",
    correct: bool,
    attempted: int,
    failed: int,
    notes: "list[str]",
) -> None:
    """Print the human-readable report, then the one-line JSON result.

    ``rows`` are ``(result name, name in the workload, value, unit,
    samples, raw value or None)``; ``metrics`` must hold every metric
    BENCHMARK.json lists for this kind of run.
    """
    spec = load_spec()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"benchmark did not measure {', '.join(missing)}")
    print(f"perfbench {workload} seed={seed} trace={int(trace)}")
    for result_name, local_name, value, unit, samples, raw in rows:
        unscaled = "" if raw is None else f" raw={raw:.6g}"
        print(f"  {local_name:<26} {value:>14.6g} {unit:<6} n={samples:<4} [{result_name}]{unscaled}")
    for key, value in properties.items():
        print(f"  property {key} = {value}")
    for note in notes:
        print(f"  note: {note}")
    print(f"  correct={correct} attempted={attempted} failed={failed}")
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in listed
        },
    }
    print(json.dumps(result), flush=True)
