"""The cluster layer: from one server to a simulated supercomputer.

Composes N single-server models (:mod:`repro.hardware.specs`) into a
whole machine — racks, interconnect, a deterministic FCFS+backfill
scheduler, and whole-machine power/PPW rollups over one simulated trace
per unique (server, workload) pair.  See ``docs/cluster.md``.
"""

from repro.cluster.machine import (
    CLUSTER_KIND,
    CLUSTER_SCHEMA_VERSION,
    GIGABIT_TREE,
    ClusterSpec,
    InterconnectSpec,
    NodeGroup,
    cluster_from_dict,
    cluster_to_dict,
    demo_cluster,
    homogeneous_cluster,
)
from repro.cluster.report import (
    REPORT_KIND,
    REPORT_SCHEMA_VERSION,
    ClusterJobRow,
    ClusterResult,
    evaluation_rows_digest,
    format_report_document,
    rows_digest,
)
from repro.cluster.scheduler import (
    CAMPAIGN_KIND,
    CAMPAIGN_SCHEMA_VERSION,
    PLACEMENT_POLICIES,
    ClusterCampaign,
    ClusterJob,
    Schedule,
    ScheduledJob,
    campaign_from_dict,
    campaign_to_dict,
    evaluation_jobmix,
    schedule_jobs,
    synthetic_jobmix,
)
from repro.cluster.simulate import simulate_campaign, simulate_cluster

__all__ = [
    "CLUSTER_KIND",
    "CLUSTER_SCHEMA_VERSION",
    "CAMPAIGN_KIND",
    "CAMPAIGN_SCHEMA_VERSION",
    "REPORT_KIND",
    "REPORT_SCHEMA_VERSION",
    "PLACEMENT_POLICIES",
    "GIGABIT_TREE",
    "InterconnectSpec",
    "NodeGroup",
    "ClusterSpec",
    "cluster_to_dict",
    "cluster_from_dict",
    "homogeneous_cluster",
    "demo_cluster",
    "ClusterJob",
    "ScheduledJob",
    "Schedule",
    "ClusterCampaign",
    "schedule_jobs",
    "synthetic_jobmix",
    "evaluation_jobmix",
    "campaign_to_dict",
    "campaign_from_dict",
    "ClusterJobRow",
    "ClusterResult",
    "rows_digest",
    "evaluation_rows_digest",
    "format_report_document",
    "simulate_cluster",
    "simulate_campaign",
]
