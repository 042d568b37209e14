"""Builtin digest identity: the zoo must not move a single bit.

The tentpole contract: attaching DVFS, core types, and the state grid to
the hardware layer leaves the three Table-I builtins *digest-identical*
to their pre-zoo output — the pinned hex constants below were produced
by the commit immediately before the zoo existed — under every execution
path: one ``Simulator.run`` call per state, the local run list
(``run_batch``), and the fleet process pool.
"""

import tempfile
from pathlib import Path

import pytest

from repro.core.evaluation import evaluate_server
from repro.core.grid import evaluation_digest
from repro.engine.simulator import Simulator
from repro.fleet import FleetRunner, ResultCache
from repro.hardware.specs import get_server
from repro.hardware.zoo import get_zoo_server
from repro.io import server_to_dict

#: sha256(canonical_json(evaluation_to_dict(...))) at seed 0, pre-zoo.
PINNED_DIGESTS = {
    "Xeon-E5462":
        "55ba52dd9d44d7b9b265171694c87b45de258134ae4d74d4629173fbc08a574f",
    "Opteron-8347":
        "7058a9100285bda561a8ab225f6bafd8d3f373e14cc1519aa5c241d59e433785",
    "Xeon-4870":
        "5554c6e6a8b9584313236c04a400a80742e7f9d721f3a4ed0d8d9795825a6f00",
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
class TestBuiltinDigestIdentity:
    def test_serial(self, name, one_run_per_call):
        server = get_server(name)
        result = evaluate_server(
            server, Simulator(server, seed=0), backend=one_run_per_call
        )
        assert evaluation_digest(result) == PINNED_DIGESTS[name]

    def test_batch(self, name):
        server = get_server(name)
        result = evaluate_server(server, Simulator(server, seed=0))
        assert evaluation_digest(result) == PINNED_DIGESTS[name]

    def test_fleet(self, name):
        server = get_server(name)
        with tempfile.TemporaryDirectory() as tmp:
            backend = FleetRunner(
                workers=2, cache=ResultCache(Path(tmp) / "cache")
            )
            result = evaluate_server(
                server, Simulator(server, seed=0), backend=backend
            )
        assert evaluation_digest(result) == PINNED_DIGESTS[name]


class TestBuiltinDocumentFormat:
    """Builtin spec documents carry no zoo keys — cache keys and digests
    derived from them stay byte-identical to the historical format."""

    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_no_zoo_fields_emitted(self, name):
        doc = server_to_dict(get_server(name))
        assert "pstate" not in doc
        assert "core_type" not in doc["processor"]
        assert "dvfs" not in doc["processor"]


class TestZooFleetEquivalence:
    """Fleet workers rebuild zoo simulators from the spec alone."""

    def test_fleet_matches_local_on_a_heterogeneous_server(self):
        server = get_zoo_server("Tesla-K20-Node").at_pstate(1)
        local = evaluate_server(server, Simulator(server, seed=0))
        with tempfile.TemporaryDirectory() as tmp:
            backend = FleetRunner(
                workers=2, cache=ResultCache(Path(tmp) / "cache")
            )
            fleet_result = evaluate_server(
                server, Simulator(server, seed=0), backend=backend
            )
        assert evaluation_digest(fleet_result) == evaluation_digest(local)

    def test_pstates_are_distinct_cache_identities(self):
        server = get_zoo_server("Atom-C2750")
        docs = {
            str(server_to_dict(server.at_pstate(p)))
            for p in range(server.n_pstates)
        }
        assert len(docs) == server.n_pstates
