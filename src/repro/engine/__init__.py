"""Discrete-time execution engine.

Binds a workload to a server, synthesises the per-second true state
(power, resident memory, PMU counters), passes it through the metering
models, and returns traces:

* :mod:`repro.engine.trace` — sample and result containers.
* :mod:`repro.engine.simulator` — the per-run simulator.
* :mod:`repro.engine.batch` — run lists, a loop of single runs.
* :mod:`repro.engine.experiment` — multi-program campaigns with the CSV
  merge/extract pipeline of Section V-C2.
"""

from repro.engine.trace import RunResult
from repro.engine.simulator import Simulator
from repro.engine.batch import run_batch
from repro.engine.experiment import Campaign, CampaignResult, ProgramMeasurement

__all__ = [
    "RunResult",
    "Simulator",
    "run_batch",
    "Campaign",
    "CampaignResult",
    "ProgramMeasurement",
]
