"""Byte pins of every CSV a seeded ``Campaign`` writes.

The per-segment logs and ``merged.csv`` are the paper's §V-C2 artifacts;
whatever the writer, reader or merge do inside, these bytes must not
move.  The cases are the stream-smoke campaigns (``npb``, and ``gap0``,
whose segments log one timestamp twice so the merge's keep-first rule
runs) and the Xeon-E5462 ten-state list.  Batch and streaming campaigns
write the same files, so both modes check one table.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.evaluation import IDLE_WINDOW_S
from repro.core.states import evaluation_states
from repro.demand import ResourceDemand
from repro.engine import Campaign, Simulator
from repro.hardware import XEON_E5462
from repro.workloads.npb import NpbWorkload


def _ten_state_list(server):
    return [
        ResourceDemand.idle(IDLE_WINDOW_S) if state.is_idle else state.workload
        for state in evaluation_states(server)
    ]


#: name -> (simulator seed, gap_s, workloads).
CASES = {
    "npb": (2015, 30.0, [NpbWorkload("ep", "C", n) for n in (1, 2, 4)]),
    "gap0": (1, 0.0, [ResourceDemand.idle(10.0001), ResourceDemand.idle(12.0)]),
    "Xeon-E5462": (7, 30.0, _ten_state_list(XEON_E5462)),
}

PINS = {
    "npb": {
        "merged.csv": "53d7af2dd8fdb3c7fa9a8c47550c5b0e913d08a170c2daeb59b458ef0243d559",
        "segment_000.csv": "069e43af3c4414dade76f50cdfccf3cc49acaa350b476dbb0ff923a3ef5a44c2",
        "segment_001.csv": "1627d23ecaa9836c9054ceea5fe51971911d5aa980a1d775aa21b875ff993e20",
        "segment_002.csv": "3af3ab34c96d5c093324d590a1da1d340afbba3de3c5afe51628ffd7857374b3",
    },
    "gap0": {
        "merged.csv": "5460fd1ceecfb708197f1c79c96490dbe44291173e29879ad1aca465f23d95e8",
        "segment_000.csv": "2333de85b4a61dec075b5b2335e9792e0caf03ea28f8e3f9d5b0657c029d4959",
        "segment_001.csv": "f6e14180c26dae2d22e5ee00a55698bb7e39398ad1b68d7f82baf1a8393322cf",
    },
    "Xeon-E5462": {
        "merged.csv": "1102dd82f869e6dc06bac6f377c104dbbf815a0e7ab06c5835cb705f1da16c6e",
        "segment_000.csv": "77944b8a75d7e5a2b539b7a10b2c8bb64a6da0c582a0a538845e6e92ac19c52b",
        "segment_001.csv": "d4ee5bd26ae75b6af7596a5f16974b8c023e01196c4cee06d634cf3a599fb958",
        "segment_002.csv": "2e994044c009db3f3fdd7e3294197d2c01e535a16047ec45fba8a874d45bb14f",
        "segment_003.csv": "cbf4da51337877ae0e256fd105a453b41f1f2de3f8133cd2fa4d55f8a39f0500",
        "segment_004.csv": "1337c0c843690e2184fd8fb106df0b3f12e82c67c036dde6a5c003e2abb119f6",
        "segment_005.csv": "5c3d659402000ed7f862344a7adcc53f32453517029862838aa8d9184b94976b",
        "segment_006.csv": "2030ff972c71e6b9eeb7db784c543b12b1dbc10ab57834e0c163a99da6e43c14",
        "segment_007.csv": "654f30eef613692648e70c68af2a0c5eccb8a46ea59e30014a28bc5252ba6efd",
        "segment_008.csv": "c354fbe3662149af0273f1b13e8c3e5e97e05332e221121c518176a1b3ef71b9",
        "segment_009.csv": "b3e852a471650df260a339c2b5b32c779e9b3cee014e571fd78905dae867daa7",
    },
}


@pytest.mark.parametrize("streaming", [False, True], ids=["batch", "stream"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_campaign_csv_bytes_are_pinned(tmp_path, name, streaming):
    seed, gap_s, workloads = CASES[name]
    campaign = Campaign(
        Simulator(XEON_E5462, seed=seed), gap_s=gap_s, streaming=streaming
    )
    campaign.run(workloads, csv_dir=tmp_path)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*.csv"))
    }
    assert digests == PINS[name]
