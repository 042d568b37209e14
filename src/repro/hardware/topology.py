"""Placement of MPI processes onto cores and chips.

The component power model distinguishes *core* power (per active core) from
*uncore/chip* power (paid once per chip that has at least one active core),
so the mapping of N processes onto the server's chips matters: 4 processes
packed on one chip of the Opteron-8347 wake one uncore, while 4 processes
scattered across chips wake four.

The default policy is ``compact`` (fill a chip before moving to the next),
which matches how MPI implementations with core binding behave on single
servers and how the paper's experiments were run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.specs import ServerSpec

__all__ = ["PROCESS_PLACEMENTS", "Placement", "place_processes"]

#: The process placement policies :func:`place_processes` accepts.
PROCESS_PLACEMENTS: tuple[str, ...] = ("compact", "scatter")


@dataclass(frozen=True)
class Placement:
    """Result of mapping ``nprocs`` processes onto a server.

    Attributes
    ----------
    nprocs:
        Number of processes placed.
    cores_per_chip_used:
        Tuple with one entry per chip: how many of its cores are busy.
    """

    nprocs: int
    cores_per_chip_used: tuple[int, ...]

    @property
    def active_cores(self) -> int:
        """Total busy cores (== nprocs for one process per core)."""
        return sum(self.cores_per_chip_used)

    @property
    def active_chips(self) -> int:
        """Chips with at least one busy core."""
        return sum(1 for used in self.cores_per_chip_used if used > 0)

    @property
    def max_chip_load(self) -> float:
        """Largest fraction of any single chip's cores that are busy."""
        return max(self.cores_per_chip_used, default=0)


def place_processes(
    server: ServerSpec, nprocs: int, policy: str = "compact"
) -> Placement:
    """Map ``nprocs`` single-threaded MPI processes onto ``server``.

    Parameters
    ----------
    server:
        Target machine.
    nprocs:
        Number of processes; must satisfy ``1 <= nprocs <= total_cores``.
    policy:
        ``"compact"`` fills chips in order; ``"scatter"`` round-robins
        across chips (balances thermal load, wakes more uncores).

    Returns
    -------
    Placement
        Per-chip busy-core counts.
    """
    server.validate_core_count(nprocs)
    per_chip = [0] * server.chips
    if policy == "compact":
        remaining = nprocs
        for chip in range(server.chips):
            take = min(remaining, server.cores_per_chip)
            per_chip[chip] = take
            remaining -= take
            if remaining == 0:
                break
    elif policy == "scatter":
        for i in range(nprocs):
            per_chip[i % server.chips] += 1
        for chip, used in enumerate(per_chip):
            if used > server.cores_per_chip:
                raise ConfigurationError(
                    f"scatter placement overflows chip {chip}: "
                    f"{used} > {server.cores_per_chip}"
                )
    else:
        raise ConfigurationError(
            f"unknown placement policy {policy!r}; use "
            + " or ".join(repr(name) for name in PROCESS_PLACEMENTS)
        )
    return Placement(nprocs=nprocs, cores_per_chip_used=tuple(per_chip))
