"""Machine-level simulation: rollups, events, knobs, report schema."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterJob,
    ClusterResult,
    InterconnectSpec,
    demo_cluster,
    format_report_document,
    homogeneous_cluster,
    simulate_cluster,
    synthetic_jobmix,
)
from repro.cluster.report import REPORT_KIND, TIMELINE_MAX_POINTS
from repro.demand import ResourceDemand
from repro.errors import ConfigurationError
from repro.fleet import FleetRunner
from repro.fleet.events import EventLog, read_events
from repro.fleet.spec import workload_to_dict
from repro.hardware.specs import get_server


@pytest.fixture(scope="module")
def small_result():
    cluster = demo_cluster(8)
    return simulate_cluster(cluster, synthetic_jobmix(cluster, 6, seed=2))


def comm_job(comm_intensity, duration_s=30.0):
    demand = ResourceDemand(
        program="mpi-heavy",
        nprocs=4,
        duration_s=duration_s,
        gflops=10.0,
        memory_mb=512.0,
        comm_intensity=comm_intensity,
    )
    return ClusterJob(name="mpi-heavy", workload=workload_to_dict(demand))


class TestRollups:
    def test_energy_is_the_1hz_integral(self, small_result):
        r = small_result
        assert r.energy_kj == pytest.approx(float(r.watts.sum()) / 1e3)
        assert r.average_watts == pytest.approx(float(r.watts.mean()))
        assert r.peak_watts == pytest.approx(float(r.watts.max()))
        assert r.watts.size == r.makespan_s

    def test_power_never_drops_below_the_idle_baseline(self, small_result):
        assert float(small_result.watts.min()) >= small_result.idle_watts

    def test_utilisation_is_node_seconds_over_available(self, small_result):
        r = small_result
        expected = r.node_seconds / (r.n_nodes * r.makespan_s)
        assert r.utilisation == pytest.approx(expected)
        assert 0.0 < r.utilisation <= 1.0

    def test_ppw_is_gflop_per_joule(self, small_result):
        r = small_result
        expected = r.total_gflops_seconds / (r.energy_kj * 1e3)
        assert r.ppw == pytest.approx(expected)

    def test_row_lookup(self, small_result):
        assert small_result.row("job-000").name == "job-000"
        with pytest.raises(ConfigurationError, match="no cluster job"):
            small_result.row("job-999")

    def test_runs_are_deterministic(self, small_result):
        cluster = demo_cluster(8)
        again = simulate_cluster(cluster, synthetic_jobmix(cluster, 6, seed=2))
        assert again.rows_digest() == small_result.rows_digest()
        assert np.array_equal(again.watts, small_result.watts)

    def test_format_mentions_the_headline_numbers(self, small_result):
        text = small_result.format()
        assert "PPW" in text
        assert "makespan" in text
        assert "job-000" in text


class TestAbsorbNodeComm:
    def test_absorb_with_fleet_backend_is_an_error(self):
        cluster = homogeneous_cluster(
            get_server("Xeon-E5462"),
            2,
            interconnect=InterconnectSpec(absorb_node_comm=True),
        )
        with pytest.raises(ConfigurationError, match="absorb_node_comm"):
            simulate_cluster(
                cluster, [comm_job(0.5)], backend=FleetRunner(workers=1)
            )

    def test_absorb_lowers_node_watts_for_comm_heavy_jobs(self):
        server = get_server("Xeon-E5462")
        default = simulate_cluster(
            homogeneous_cluster(server, 2), [comm_job(0.8)]
        )
        absorbed = simulate_cluster(
            homogeneous_cluster(
                server,
                2,
                interconnect=InterconnectSpec(absorb_node_comm=True),
            ),
            [comm_job(0.8)],
        )
        assert absorbed.row("mpi-heavy").watts < default.row("mpi-heavy").watts

    def test_absorb_is_a_noop_for_non_communicating_jobs(self):
        server = get_server("Xeon-E5462")
        default = simulate_cluster(
            homogeneous_cluster(server, 2), [comm_job(0.0)]
        )
        absorbed = simulate_cluster(
            homogeneous_cluster(
                server,
                2,
                interconnect=InterconnectSpec(absorb_node_comm=True),
            ),
            [comm_job(0.0)],
        )
        assert absorbed.row("mpi-heavy").watts == pytest.approx(
            default.row("mpi-heavy").watts
        )
        assert np.array_equal(absorbed.watts, default.watts)


class TestEvents:
    def test_cluster_events_share_the_fleet_jsonl_schema(self, tmp_path):
        path = tmp_path / "events.jsonl"
        cluster = demo_cluster(8)
        with EventLog(path) as events:
            simulate_cluster(
                cluster, synthetic_jobmix(cluster, 4, seed=0), events=events
            )
        records = read_events(path)
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "cluster_start"
        assert kinds[-1] == "cluster_finish"
        assert kinds.count("cluster_job") == 4
        finish = records[-1]
        assert finish["jobs"] == 4
        assert finish["energy_kj"] > 0


class TestReportDocument:
    def test_schema_headline_fields(self, small_result):
        doc = small_result.to_dict()
        assert doc["kind"] == REPORT_KIND
        assert doc["schema_version"] == 1
        assert len(doc["rows"]) == len(small_result.rows)
        assert set(doc["rollups"]) == {
            "energy_kj",
            "average_watts",
            "peak_watts",
            "idle_watts",
            "utilisation",
            "ppw",
        }
        assert doc["rows_digest"] == small_result.rows_digest()

    def test_timeline_is_downsampled(self, small_result):
        long = ClusterResult(
            cluster="x",
            n_nodes=1,
            n_racks=1,
            seed=0,
            placement="compact",
            rows=(),
            times_s=np.arange(5000, dtype=float),
            watts=np.full(5000, 100.0),
            idle_watts=100.0,
            makespan_s=5000,
            node_seconds=0,
        )
        timeline = long.to_dict()["timeline"]
        assert timeline["samples"] == 5000
        assert len(timeline["watts"]) <= TIMELINE_MAX_POINTS
        assert timeline["stride_s"] == 10

    def test_format_report_document_round_trip(self, small_result):
        text = format_report_document(small_result.to_dict())
        assert "rows digest" in text
        assert small_result.cluster in text

    def test_format_report_document_rejects_other_kinds(self):
        with pytest.raises(ConfigurationError, match="expected"):
            format_report_document({"kind": "evaluation"})
        doc = {"kind": REPORT_KIND, "schema_version": 42}
        with pytest.raises(ConfigurationError, match="version"):
            format_report_document(doc)
