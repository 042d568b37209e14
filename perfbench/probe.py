"""Set-up probe: a fresh interpreter that sets one workload up, then exits.

Usage: python perfbench/probe.py WORKLOAD SEED

Prints ``ready`` once the program is imported, the workload's inputs are
generated and the lazy calibration is done; the parent times the spawn
up to that line.
"""

import sys

from common import SRC

sys.path.insert(0, str(SRC))

from run import IN_PROCESS  # noqa: E402

IN_PROCESS[sys.argv[1]].prepare(int(sys.argv[2]))
print("ready", flush=True)
