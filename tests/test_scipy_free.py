"""The runtime needs numpy only: no path the CLI runs imports scipy.

A fresh interpreter poisons ``sys.modules["scipy"]`` so that any scipy
import raises, then drives the paper's chain end to end: the CLI module,
the ten-state evaluation, the Section VI regression study, a calibration
against custom anchors and the CG kernel.  It then checks the module
set.  This is a deterministic check of what gets imported, not a timing
check.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys

sys.modules["scipy"] = None  # any scipy import now raises ImportError

import contextlib
import io
import runpy

import numpy as np

import repro.cli
from repro import (
    XEON_E5462,
    collect_hpcc_training,
    evaluate_server,
    train_power_model,
    verify_on_npb,
)
from repro.kernels import conjugate_gradient, random_spd_matrix

evaluate_server(XEON_E5462)
dataset = collect_hpcc_training(XEON_E5462)
model = train_power_model(dataset, server_name="Xeon-E5462")
verify_on_npb(XEON_E5462, model, "B")
with contextlib.redirect_stdout(io.StringIO()):
    # Calibrates a custom server against its own anchors.
    runpy.run_path("examples/custom_server.py", run_name="__main__")
    assert repro.cli.main(["evaluate", "Xeon-E5462"]) == 0
    assert repro.cli.main(["regression", "--server", "Xeon-E5462"]) == 0
assert conjugate_gradient(random_spd_matrix(200), np.ones(200)).converged

loaded = sorted(
    name
    for name, module in sys.modules.items()
    if name.split(".")[0] == "scipy" and module is not None
)
print("scipy modules:", loaded)
assert not loaded, loaded
"""


def test_the_paper_chain_runs_without_scipy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "scipy modules: []" in proc.stdout
