"""Cluster composition: many servers, racks, and an interconnect.

The paper evaluates single servers; this module composes N of them into
a machine.  A :class:`ClusterSpec` is a frozen description of the whole
system: one or more :class:`NodeGroup` partitions (a heterogeneous
machine mixes server models, the way Sîrbu & Babaoglu's hybrid
supercomputer mixes CPU/GPU/MIC islands), a rack width, and an
:class:`InterconnectSpec` carrying the network power terms the
single-server model deliberately hides (Section VI-C).

Node identity
-------------

Nodes carry global integer ids ``0 .. n_nodes-1``, concatenated group by
group in declaration order; node ``i`` sits in rack ``i //
nodes_per_rack``.  Placement policies (:mod:`repro.cluster.scheduler`)
are defined over these ids, so a cluster's layout — which group and rack
every node belongs to — is a pure function of the spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro import io as repro_io
from repro.errors import ConfigurationError
from repro.hardware.specs import ServerSpec, get_server

__all__ = [
    "CLUSTER_KIND",
    "CLUSTER_SCHEMA_VERSION",
    "InterconnectSpec",
    "NodeGroup",
    "ClusterSpec",
    "GIGABIT_TREE",
    "cluster_to_dict",
    "cluster_from_dict",
    "homogeneous_cluster",
    "demo_cluster",
]

CLUSTER_KIND = "cluster_spec"
CLUSTER_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class InterconnectSpec:
    """Network power model for the whole machine.

    ``idle_watts_per_node`` is the always-on cost of a NIC and its switch
    port; ``active_watts_per_node`` is the *additional* draw of a node
    communicating at full intensity (scaled by the running job's
    ``comm_intensity``); ``switch_watts_per_rack`` is the per-rack switch
    chassis.  ``absorb_node_comm=True`` additionally moves the node-side
    communication power term (Section VI-C) out of node power and into
    the network total, via ``Simulator(externalize_comm=True)`` — power
    is re-attributed, never double counted.
    """

    name: str = "gigabit-tree"
    idle_watts_per_node: float = 2.0
    active_watts_per_node: float = 3.5
    switch_watts_per_rack: float = 45.0
    absorb_node_comm: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("interconnect name must not be empty")
        for attr in (
            "idle_watts_per_node",
            "active_watts_per_node",
            "switch_watts_per_rack",
        ):
            value = getattr(self, attr)
            if value < 0:
                raise ConfigurationError(
                    f"interconnect {attr} must be >= 0, got {value}"
                )


#: 2015-era gigabit Ethernet tree: the default interconnect.
GIGABIT_TREE = InterconnectSpec()


@dataclass(frozen=True)
class NodeGroup:
    """``count`` identical nodes of one server model."""

    server: ServerSpec
    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ConfigurationError(
                f"node group count must be positive, got {self.count}"
            )


@dataclass(frozen=True)
class ClusterSpec:
    """A whole machine: node groups in racks behind one interconnect."""

    name: str
    groups: tuple[NodeGroup, ...]
    nodes_per_rack: int = 16
    interconnect: InterconnectSpec = field(default_factory=InterconnectSpec)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("cluster name must not be empty")
        if not self.groups:
            raise ConfigurationError("a cluster needs at least one node group")
        if self.nodes_per_rack <= 0:
            raise ConfigurationError(
                f"nodes_per_rack must be positive, got {self.nodes_per_rack}"
            )

    @property
    def n_nodes(self) -> int:
        """Total node count across all groups."""
        return sum(g.count for g in self.groups)

    @property
    def n_racks(self) -> int:
        """Rack count (last rack may be partially filled)."""
        return -(-self.n_nodes // self.nodes_per_rack)

    @property
    def gflops_peak(self) -> float:
        """Theoretical peak of the whole machine, GFLOPS."""
        return sum(g.count * g.server.gflops_peak for g in self.groups)

    def group_bounds(self) -> list[tuple[int, int]]:
        """Per-group ``[start, end)`` global node-id ranges."""
        bounds = []
        start = 0
        for g in self.groups:
            bounds.append((start, start + g.count))
            start += g.count
        return bounds

    def group_of_node(self, node_id: int) -> int:
        """Group index owning global node ``node_id``."""
        for idx, (lo, hi) in enumerate(self.group_bounds()):
            if lo <= node_id < hi:
                return idx
        raise ConfigurationError(
            f"node id {node_id} outside 0..{self.n_nodes - 1}"
        )

    def node_server(self, node_id: int) -> ServerSpec:
        """The server model installed at global node ``node_id``."""
        return self.groups[self.group_of_node(node_id)].server

    def rack_of_node(self, node_id: int) -> int:
        """Rack index of global node ``node_id``."""
        if not 0 <= node_id < self.n_nodes:
            raise ConfigurationError(
                f"node id {node_id} outside 0..{self.n_nodes - 1}"
            )
        return node_id // self.nodes_per_rack


def cluster_to_dict(cluster: ClusterSpec) -> dict[str, Any]:
    """Serialise a :class:`ClusterSpec` to its JSON document."""
    ic = cluster.interconnect
    return {
        "kind": CLUSTER_KIND,
        "schema_version": CLUSTER_SCHEMA_VERSION,
        "name": cluster.name,
        "nodes_per_rack": cluster.nodes_per_rack,
        "groups": [
            {"server": repro_io.server_ref(g.server), "count": g.count}
            for g in cluster.groups
        ],
        "interconnect": {
            "name": ic.name,
            "idle_watts_per_node": ic.idle_watts_per_node,
            "active_watts_per_node": ic.active_watts_per_node,
            "switch_watts_per_rack": ic.switch_watts_per_rack,
            "absorb_node_comm": ic.absorb_node_comm,
        },
    }


def cluster_from_dict(data: dict[str, Any]) -> ClusterSpec:
    """Inverse of :func:`cluster_to_dict`."""
    kind = data.get("kind")
    if kind != CLUSTER_KIND:
        raise ConfigurationError(
            f"expected a {CLUSTER_KIND!r} document, found {kind!r}"
        )
    version = data.get("schema_version")
    if version != CLUSTER_SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported cluster schema version {version!r} "
            f"(this build reads version {CLUSTER_SCHEMA_VERSION})"
        )
    ic_data = data.get("interconnect", {})
    return ClusterSpec(
        name=data["name"],
        groups=tuple(
            NodeGroup(repro_io.server_from_ref(g["server"]), int(g["count"]))
            for g in data["groups"]
        ),
        nodes_per_rack=int(data.get("nodes_per_rack", 16)),
        interconnect=InterconnectSpec(
            name=ic_data.get("name", GIGABIT_TREE.name),
            idle_watts_per_node=float(
                ic_data.get(
                    "idle_watts_per_node", GIGABIT_TREE.idle_watts_per_node
                )
            ),
            active_watts_per_node=float(
                ic_data.get(
                    "active_watts_per_node", GIGABIT_TREE.active_watts_per_node
                )
            ),
            switch_watts_per_rack=float(
                ic_data.get(
                    "switch_watts_per_rack", GIGABIT_TREE.switch_watts_per_rack
                )
            ),
            absorb_node_comm=bool(ic_data.get("absorb_node_comm", False)),
        ),
    )


def homogeneous_cluster(
    server: ServerSpec,
    n_nodes: int,
    nodes_per_rack: int = 16,
    interconnect: "InterconnectSpec | None" = None,
    name: "str | None" = None,
) -> ClusterSpec:
    """``n_nodes`` identical nodes of one server model."""
    return ClusterSpec(
        name=name or f"{server.name.lower()}-x{n_nodes}",
        groups=(NodeGroup(server, n_nodes),),
        nodes_per_rack=nodes_per_rack,
        interconnect=interconnect or GIGABIT_TREE,
    )


def demo_cluster(n_nodes: int = 64, nodes_per_rack: int = 16) -> ClusterSpec:
    """A small heterogeneous machine: 3/4 Xeon-E5462, 1/4 Opteron-8347.

    The default 64-node shape is what the CI smoke job exercises.
    """
    if n_nodes < 4:
        raise ConfigurationError(
            f"the demo cluster needs at least 4 nodes, got {n_nodes}"
        )
    n_opteron = n_nodes // 4
    return ClusterSpec(
        name=f"demo-{n_nodes}",
        groups=(
            NodeGroup(get_server("Xeon-E5462"), n_nodes - n_opteron),
            NodeGroup(get_server("Opteron-8347"), n_opteron),
        ),
        nodes_per_rack=nodes_per_rack,
    )
