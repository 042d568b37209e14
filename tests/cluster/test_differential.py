"""Differential suite: a 1-node cluster reproduces ``evaluate_server``.

The ten evaluation states, run as single-node cluster jobs on a 1-node
machine, must produce rows *bit-identical* to
:func:`repro.core.evaluation.evaluate_server` — same trimmed-mean watts,
same GFLOPS, same memory, same durations — under every execution path
(one ``Simulator.run`` call per unique run, the local run list, the
fleet process pool).
Digest equality is the whole claim: the cluster layer adds composition,
never new per-node physics.
"""

import pytest

from repro.cluster import (
    evaluation_jobmix,
    evaluation_rows_digest,
    homogeneous_cluster,
    simulate_cluster,
)
from repro.core.evaluation import evaluate_server
from repro.fleet import FleetRunner
from repro.hardware.specs import get_server


@pytest.fixture(scope="module")
def xeon_digest():
    return evaluation_rows_digest(evaluate_server(get_server("Xeon-E5462")))


def one_node_result(server_name, **kwargs):
    server = get_server(server_name)
    cluster = homogeneous_cluster(server, 1)
    return simulate_cluster(
        cluster, evaluation_jobmix(server_name), **kwargs
    )


@pytest.mark.parametrize("path", ["serial", "batch"])
def test_bit_identical_to_evaluate_server(
    path, one_run_per_call, xeon_digest
):
    backend = one_run_per_call if path == "serial" else None
    result = one_node_result("Xeon-E5462", backend=backend)
    assert result.rows_digest() == xeon_digest


def test_bit_identical_under_fleet_backend(xeon_digest):
    result = one_node_result(
        "Xeon-E5462", backend=FleetRunner(workers=2)
    )
    assert result.rows_digest() == xeon_digest


def test_bit_identical_on_the_opteron():
    server = get_server("Opteron-8347")
    expected = evaluation_rows_digest(evaluate_server(server))
    assert one_node_result("Opteron-8347").rows_digest() == expected


def test_row_content_matches_not_just_the_digest(xeon_digest):
    evaluation = evaluate_server(get_server("Xeon-E5462"))
    result = one_node_result("Xeon-E5462")
    by_label = {r.label: r for r in result.rows}
    assert len(by_label) == len(evaluation.rows) == 10
    for row in evaluation.rows:
        cluster_row = by_label[row.label]
        assert cluster_row.watts == row.watts
        assert cluster_row.gflops == row.gflops
        assert cluster_row.memory_mb == row.memory_mb
        assert cluster_row.duration_s == row.duration_s
