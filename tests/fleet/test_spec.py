"""Campaign specs and workload serialisation."""

import pytest

from repro import io as repro_io
from repro.demand import ResourceDemand
from repro.errors import ConfigurationError
from repro.fleet.spec import (
    CampaignSpec,
    campaign_from_dict,
    campaign_to_dict,
    demo_campaign,
    evaluation_campaign,
    make_job,
    workload_from_dict,
    workload_label,
    workload_to_dict,
)
from repro.hardware import XEON_E5462, BUILTIN_SERVERS
from repro.workloads.hpl import HplConfig, HplWorkload
from repro.workloads.npb import NpbWorkload
from repro.workloads.specpower import SpecPowerLevel, SpecPowerWorkload


class TestWorkloadSerialisation:
    @pytest.mark.parametrize(
        "workload",
        [
            NpbWorkload("ep", "C", 4),
            NpbWorkload("bt", "B", 4),
            HplWorkload(HplConfig(nprocs=4, memory_fraction=0.5)),
            HplWorkload(HplConfig(nprocs=4, memory_fraction=0.95, nb=50)),
            HplWorkload(HplConfig(nprocs=4, memory_fraction=0.5, p=2, q=2)),
            SpecPowerWorkload(SpecPowerLevel("50%", 0.5)),
        ],
    )
    def test_round_trip_binds_identically(self, workload):
        data = workload_to_dict(workload)
        clone = workload_from_dict(data)
        assert workload_label(clone) == workload_label(workload)
        assert clone.bind(XEON_E5462) == workload.bind(XEON_E5462)

    def test_idle_round_trip(self):
        demand = ResourceDemand.idle(120.0)
        clone = workload_from_dict(workload_to_dict(demand))
        assert clone == demand

    def test_custom_demand_round_trip(self):
        demand = ResourceDemand(
            program="custom", nprocs=2, duration_s=30.0, gflops=1.0,
            memory_mb=512.0,
        )
        assert workload_from_dict(workload_to_dict(demand)) == demand

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError):
            workload_from_dict({"type": "mystery"})

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"type": "npb", "program": "ep", "nprocs": 4}, "no field 'class'"),
            (
                {"type": "npb", "program": "ep", "class": "C", "nprocs": "4x"},
                "bad value",
            ),
            ({"type": "demand", "program": "x", "nprocs": 1}, "bad value"),
        ],
    )
    def test_malformed_workload_rejected(self, data, message):
        with pytest.raises(ConfigurationError, match=message):
            workload_from_dict(data)


class TestFleetJob:
    def test_job_id_is_content_based(self):
        # Same label ("HPL P1 Mh" covers every fraction <= 0.7) but
        # different configuration must give different job ids.
        a = make_job(XEON_E5462, HplWorkload(HplConfig(1, 0.1)))
        b = make_job(XEON_E5462, HplWorkload(HplConfig(1, 0.3)))
        assert a.label == b.label
        assert a.job_id != b.job_id

    def test_equal_content_equal_id(self):
        a = make_job(XEON_E5462, NpbWorkload("ep", "C", 4), seed=7)
        b = make_job(XEON_E5462, NpbWorkload("ep", "C", 4), seed=7)
        assert a.job_id == b.job_id


class TestCampaignSpec:
    def test_demo_campaign_ports_pipeline_workloads(self):
        jobs = demo_campaign().jobs()
        assert [j.label for j in jobs] == [
            "ep.C.1", "ep.C.2", "ep.C.4", "HPL P4 Mh", "HPL P4 Mf",
        ]
        assert all(j.seed == 2015 for j in jobs)

    def test_matrix_campaign_expands_ten_states_per_server(self):
        spec = evaluation_campaign()
        jobs = spec.jobs()
        assert len(jobs) == 10 * len(BUILTIN_SERVERS)
        assert len({j.job_id for j in jobs}) == len(jobs)
        labels = [j.label for j in jobs[:10]]
        assert labels[0] == "Idle"
        assert "HPL P4 Mf" in labels

    def test_round_trip_through_io(self, tmp_path):
        spec = demo_campaign()
        path = repro_io.save_json(
            repro_io.campaign_to_dict(spec), tmp_path / "campaign.json"
        )
        clone = repro_io.campaign_from_dict(repro_io.load_json(path))
        assert clone == spec
        assert [j.job_id for j in clone.jobs()] == [
            j.job_id for j in spec.jobs()
        ]

    def test_custom_server_embedded(self, tmp_path):
        import dataclasses

        custom = dataclasses.replace(XEON_E5462, name="My-Box")
        spec = CampaignSpec(
            name="custom",
            servers=(custom,),
            workloads=(workload_to_dict(NpbWorkload("ep", "C", 2)),),
        )
        data = campaign_to_dict(spec)
        assert isinstance(data["servers"][0], dict)  # not a builtin name
        assert campaign_from_dict(data).servers[0] == custom

    def test_empty_campaign_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(name="empty", servers=(XEON_E5462,))
        with pytest.raises(ConfigurationError):
            CampaignSpec(name="no-servers", servers=(), evaluation_matrix=True)

    def test_unknown_placement_rejected(self):
        with pytest.raises(ConfigurationError, match="placement"):
            CampaignSpec(
                name="bogus",
                servers=(XEON_E5462,),
                evaluation_matrix=True,
                placement="bogus",
            )

    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            campaign_from_dict({"kind": "evaluation", "schema_version": 1})

    def test_bad_workload_fails_at_load_time(self):
        data = campaign_to_dict(demo_campaign())
        data["workloads"].append({"type": "mystery"})
        with pytest.raises(ConfigurationError):
            campaign_from_dict(data)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("name", None),
            ("servers", None),
            ("servers", "Xeon-E5462"),
            ("workloads", {"type": "idle", "duration_s": 1.0}),
            ("workloads", [5]),
            ("seed", "x"),
            ("seed", 1.5),
            ("evaluation_matrix", "false"),
            ("placement", "bogus"),
        ],
    )
    def test_malformed_field_is_a_configuration_error(self, field, value):
        # None deletes the field.  Every damage is named, never a
        # KeyError/TypeError/ValueError from deep inside the reader.
        data = campaign_to_dict(demo_campaign())
        if value is None:
            del data[field]
        else:
            data[field] = value
        with pytest.raises(ConfigurationError, match=field):
            campaign_from_dict(data)


class TestHpccWorkloadCodec:
    @pytest.mark.parametrize("component", ["hpl", "stream", "beff"])
    def test_round_trip_binds_identically(self, component):
        from repro.workloads.hpcc import HpccWorkload

        workload = HpccWorkload(component, 4)
        data = workload_to_dict(workload)
        assert data == {"type": "hpcc", "component": component, "nprocs": 4}
        clone = workload_from_dict(data)
        assert workload_label(clone) == workload_label(workload)
        assert clone.idiosyncrasy_key() == workload.idiosyncrasy_key()
        assert clone.bind(XEON_E5462) == workload.bind(XEON_E5462)

    def test_unknown_component_rejected(self):
        with pytest.raises(ConfigurationError, match="HPCC component"):
            workload_from_dict(
                {"type": "hpcc", "component": "linpack", "nprocs": 2}
            )

    def test_campaign_document_names_hpcc(self):
        spec = CampaignSpec(
            name="hpcc",
            servers=(XEON_E5462,),
            workloads=({"type": "hpcc", "component": "dgemm", "nprocs": 2},),
        )
        (job,) = campaign_from_dict(campaign_to_dict(spec)).jobs()
        assert job.label == "hpcc_dgemm.2"


class TestZooServerNames:
    def test_campaign_resolves_a_zoo_server_name(self):
        from repro.hardware.zoo import get_zoo_server

        data = campaign_to_dict(demo_campaign())
        data["servers"] = ["Tesla-K20-Node"]
        spec = campaign_from_dict(data)
        assert spec.servers == (get_zoo_server("Tesla-K20-Node"),)

    def test_unknown_server_name_rejected(self):
        data = campaign_to_dict(demo_campaign())
        data["servers"] = ["PDP-11"]
        with pytest.raises(ConfigurationError, match="^unknown server"):
            campaign_from_dict(data)
