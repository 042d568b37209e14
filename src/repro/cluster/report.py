"""Cluster run results: rollups, rendering, digests, JSON schema.

The per-job rows carry the same measured quantities as the paper's
evaluation tables (per-node GFLOPS, trimmed-mean watts, resident memory,
duration), which is what makes the cluster layer digest-comparable with
:func:`repro.core.evaluation.evaluate_server`: a 1-node cluster running
the ten evaluation states produces *bit-identical* rows, and
:func:`rows_digest` / :func:`evaluation_rows_digest` hash exactly the
shared fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.evaluation import EvaluationResult
from repro.errors import ConfigurationError

__all__ = [
    "REPORT_KIND",
    "REPORT_SCHEMA_VERSION",
    "TIMELINE_MAX_POINTS",
    "ClusterJobRow",
    "ClusterResult",
    "rows_digest",
    "evaluation_rows_digest",
    "format_report_document",
]

REPORT_KIND = "cluster_report"
REPORT_SCHEMA_VERSION = 1

#: JSON documents downsample the 1 Hz timeline to at most this many
#: points (a 10k-node day-long run must not produce a 100 MB report).
TIMELINE_MAX_POINTS = 512


@dataclass(frozen=True)
class ClusterJobRow:
    """One completed job.

    ``gflops``, ``watts``, and ``memory_mb`` are *per node* (every node
    of a job runs the same per-node workload); ``energy_kj`` is the
    job's whole-machine energy (per-node energy x width).
    """

    name: str
    label: str
    server: str
    n_nodes: int
    n_racks: int
    start_s: int
    end_s: int
    duration_s: float
    gflops: float
    watts: float
    memory_mb: float
    energy_kj: float

    @property
    def total_gflops(self) -> float:
        """Aggregate achieved performance across the job's nodes."""
        return self.gflops * self.n_nodes


@dataclass(frozen=True)
class ClusterResult:
    """Everything one cluster simulation produced."""

    cluster: str
    n_nodes: int
    n_racks: int
    seed: int
    placement: str
    rows: tuple[ClusterJobRow, ...]
    times_s: np.ndarray
    watts: np.ndarray
    idle_watts: float
    makespan_s: int
    node_seconds: int

    @property
    def energy_kj(self) -> float:
        """Whole-machine energy over the makespan (1 Hz integral)."""
        return float(self.watts.sum()) / 1e3

    @property
    def average_watts(self) -> float:
        """Mean machine power over the makespan."""
        return float(self.watts.mean())

    @property
    def peak_watts(self) -> float:
        """Peak machine power."""
        return float(self.watts.max())

    @property
    def utilisation(self) -> float:
        """Busy node-seconds over available node-seconds."""
        available = self.n_nodes * max(self.makespan_s, 1)
        return self.node_seconds / available

    @property
    def total_gflops_seconds(self) -> float:
        """Achieved GFLOP count across every job (GFLOPS x s x nodes)."""
        return sum(r.total_gflops * r.duration_s for r in self.rows)

    @property
    def ppw(self) -> float:
        """Machine performance per watt: achieved GFLOP / consumed J.

        Numerator and denominator both cover the whole makespan, so idle
        gaps and network overhead *lower* the score — scheduling quality
        is part of the metric, exactly as Eq. 1 intends for one server.
        """
        joules = self.energy_kj * 1e3
        return self.total_gflops_seconds / joules if joules else 0.0

    def row(self, name: str) -> ClusterJobRow:
        """Look up a job row by job name."""
        for r in self.rows:
            if r.name == name:
                return r
        raise ConfigurationError(f"no cluster job named {name!r}")

    def rows_digest(self) -> str:
        """Digest of the evaluation-comparable row content."""
        return rows_digest(
            [
                {
                    "label": r.label,
                    "gflops": r.gflops,
                    "watts": r.watts,
                    "memory_mb": r.memory_mb,
                    "duration_s": r.duration_s,
                }
                for r in self.rows
            ]
        )

    def to_dict(self) -> dict[str, Any]:
        """Serialise to the schema-stable ``cluster_report`` document."""
        stride = max(1, -(-len(self.watts) // TIMELINE_MAX_POINTS))
        return {
            "kind": REPORT_KIND,
            "schema_version": REPORT_SCHEMA_VERSION,
            "cluster": self.cluster,
            "n_nodes": self.n_nodes,
            "n_racks": self.n_racks,
            "seed": self.seed,
            "placement": self.placement,
            "makespan_s": self.makespan_s,
            "rows_digest": self.rows_digest(),
            "rollups": {
                "energy_kj": self.energy_kj,
                "average_watts": self.average_watts,
                "peak_watts": self.peak_watts,
                "idle_watts": self.idle_watts,
                "utilisation": self.utilisation,
                "ppw": self.ppw,
            },
            "rows": [
                {
                    "name": r.name,
                    "label": r.label,
                    "server": r.server,
                    "n_nodes": r.n_nodes,
                    "n_racks": r.n_racks,
                    "start_s": r.start_s,
                    "end_s": r.end_s,
                    "duration_s": r.duration_s,
                    "gflops": r.gflops,
                    "watts": r.watts,
                    "memory_mb": r.memory_mb,
                    "energy_kj": r.energy_kj,
                }
                for r in self.rows
            ],
            "timeline": {
                "stride_s": stride,
                "samples": int(self.watts.size),
                "times_s": self.times_s[::stride].tolist(),
                "watts": self.watts[::stride].tolist(),
            },
        }

    def format(self) -> str:
        """Human-readable run summary (what ``cluster run`` prints)."""
        lines = [
            f"cluster {self.cluster}: {self.n_nodes} nodes / "
            f"{self.n_racks} racks, placement {self.placement}, "
            f"seed {self.seed}",
            f"{'Job':<12} {'State':<14} {'Server':<14} {'Nodes':>5} "
            f"{'Racks':>5} {'Start':>7} {'End':>7} {'W/node':>8} "
            f"{'Energy KJ':>10}",
        ]
        for r in self.rows:
            lines.append(
                f"{r.name:<12} {r.label:<14} {r.server:<14} "
                f"{r.n_nodes:>5} {r.n_racks:>5} {r.start_s:>7} "
                f"{r.end_s:>7} {r.watts:>8.1f} {r.energy_kj:>10.2f}"
            )
        lines.append(
            f"makespan {self.makespan_s} s  utilisation "
            f"{self.utilisation:.1%}  energy {self.energy_kj:.1f} KJ"
        )
        lines.append(
            f"power: idle {self.idle_watts:.0f} W  average "
            f"{self.average_watts:.0f} W  peak {self.peak_watts:.0f} W  "
            f"PPW {self.ppw:.4f} GFLOPS/W"
        )
        return "\n".join(lines)


def rows_digest(rows: "list[dict[str, Any]]") -> str:
    """SHA-256 over canonicalised evaluation-comparable rows."""
    from repro.fleet.cache import canonical_digest

    return canonical_digest(rows)


def evaluation_rows_digest(result: EvaluationResult) -> str:
    """The digest of an :class:`EvaluationResult`, same scheme as
    :meth:`ClusterResult.rows_digest` — equal digests mean the cluster
    run reproduced ``evaluate_server`` bit for bit."""
    return rows_digest(
        [
            {
                "label": r.label,
                "gflops": r.gflops,
                "watts": r.watts,
                "memory_mb": r.memory_mb,
                "duration_s": r.duration_s,
            }
            for r in result.rows
        ]
    )


def format_report_document(document: dict[str, Any]) -> str:
    """Render a saved ``cluster_report`` JSON document as text."""
    kind = document.get("kind")
    if kind != REPORT_KIND:
        raise ConfigurationError(
            f"expected a {REPORT_KIND!r} document, found {kind!r}"
        )
    version = document.get("schema_version")
    if version != REPORT_SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported cluster report schema version {version!r} "
            f"(this build reads version {REPORT_SCHEMA_VERSION})"
        )
    roll = document["rollups"]
    lines = [
        f"cluster {document['cluster']}: {document['n_nodes']} nodes / "
        f"{document['n_racks']} racks, placement {document['placement']}, "
        f"seed {document['seed']}",
        f"jobs: {len(document['rows'])}  makespan {document['makespan_s']} s"
        f"  utilisation {roll['utilisation']:.1%}",
        f"energy {roll['energy_kj']:.1f} KJ  average "
        f"{roll['average_watts']:.0f} W  peak {roll['peak_watts']:.0f} W  "
        f"idle {roll['idle_watts']:.0f} W",
        f"PPW {roll['ppw']:.4f} GFLOPS/W",
        f"rows digest: {document['rows_digest']}",
    ]
    return "\n".join(lines)
