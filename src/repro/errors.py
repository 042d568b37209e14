"""Exception hierarchy for :mod:`repro`.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish configuration mistakes from runtime
simulation failures.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "WorkloadError",
    "InvalidProcessCountError",
    "InsufficientMemoryError",
    "SimulationError",
    "MeterError",
    "InvalidSampleError",
    "TraceQualityError",
    "JobTimeoutError",
    "CampaignResumeError",
    "CalibrationError",
    "RegressionError",
    "ModelRegistryError",
    "ModelIntegrityError",
    "ValidationBandError",
    "StorageDegradedError",
    "JournalBusyError",
]


def _rebuild(cls, args, kwargs):
    """Unpickle a :class:`ReproError` by calling its constructor again."""
    return cls(*args, **kwargs)


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`.

    Instances pickle by replaying their constructor arguments, so a
    subclass with its own ``__init__`` signature crosses a process
    boundary (a fleet worker's result pipe) with its type, message and
    attributes intact.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args)
        self._init_args = (args, kwargs)
        return self

    def __reduce__(self):
        args, kwargs = self._init_args
        return _rebuild, (type(self), args, kwargs), self.__dict__


class ConfigurationError(ReproError, ValueError):
    """A server, workload, or experiment was configured inconsistently."""


class WorkloadError(ReproError):
    """A workload cannot be instantiated or bound to a server."""


class InvalidProcessCountError(WorkloadError, ValueError):
    """The requested MPI process count is not valid for this program.

    NPB programs constrain their process counts (squares for BT/SP, powers
    of two for CG/FT/IS/LU/MG); this mirrors the empty cells of Table II in
    the paper.
    """

    def __init__(self, program: str, nprocs: int, allowed: str):
        self.program = program
        self.nprocs = nprocs
        self.allowed = allowed
        super().__init__(
            f"{program} cannot run with {nprocs} process(es); allowed: {allowed}"
        )


class InsufficientMemoryError(WorkloadError):
    """The workload's memory footprint exceeds the server's installed DRAM.

    Mirrors the paper's observation that CG class C could not run on the
    8 GB Xeon-E5462 server.
    """

    def __init__(self, program: str, required_mb: float, available_mb: float):
        self.program = program
        self.required_mb = required_mb
        self.available_mb = available_mb
        super().__init__(
            f"{program} needs {required_mb:.0f} MB but server has "
            f"{available_mb:.0f} MB installed"
        )


class SimulationError(ReproError, RuntimeError):
    """The discrete-time simulation reached an inconsistent state."""


class MeterError(ReproError, RuntimeError):
    """The simulated power meter was used outside its operating envelope."""


class InvalidSampleError(MeterError, ValueError):
    """A power sample fed to the meter is not physically meaningful.

    NaN, infinite, or negative ``true_watts`` would silently poison every
    downstream average; the meter rejects them at the point of entry and
    names the first offending index.
    """

    def __init__(self, value: float, index: int, reason: str):
        self.value = value
        self.index = index
        self.reason = reason
        super().__init__(
            f"invalid power sample at index {index}: {value!r} ({reason})"
        )


class TraceQualityError(MeterError):
    """A metered trace is too damaged to analyse (quarantined)."""


class JobTimeoutError(SimulationError):
    """A fleet job exceeded its wall-clock budget and was killed."""


class CampaignResumeError(ConfigurationError):
    """A campaign cannot be resumed from the given journal/cache state."""


class CalibrationError(ReproError, RuntimeError):
    """Power-model calibration failed to fit the anchor measurements."""


class RegressionError(ReproError, RuntimeError):
    """The regression power model cannot be fit or applied."""


class ModelRegistryError(ReproError, RuntimeError):
    """The model registry cannot satisfy a publish or lookup."""


class ModelIntegrityError(ModelRegistryError):
    """A stored model artifact failed its checksum verification.

    The artifact is quarantined rather than served; a corrupted model
    silently predicting wrong watts would defeat the registry's whole
    purpose of making trained models trustworthy reusable artifacts.
    ``problem`` names the failed check, as ``repro doctor audit``
    reports it (``unreadable_artifact``, ``malformed_artifact``,
    ``wrong_kind``, ``wrong_schema_version``, ``digest_mismatch``).
    """

    def __init__(self, message: str, problem: str = "malformed_artifact"):
        super().__init__(message)
        self.problem = problem


class ValidationBandError(ModelRegistryError):
    """A model's validation metrics fall outside the accepted R² bands."""


class StorageDegradedError(ReproError, RuntimeError):
    """A store write failed for capacity/media reasons (ENOSPC, EIO).

    Raised by the safe-write layer (:mod:`repro.doctor.safewrite`) when
    a durable write cannot land because the disk is full, the quota is
    exhausted, or the media errored — conditions a long-lived daemon
    must degrade under (shed load, skip the cache, leave work journaled
    for a retry) rather than crash mid-write.  Deliberately *not* an
    ``OSError`` subclass: existing best-effort ``except OSError`` paths
    (quarantine moves, log rotation) must not silently swallow it.
    """

    def __init__(self, target: object, cause: "BaseException | None" = None):
        self.target = str(target)
        self.errno = getattr(cause, "errno", None)
        detail = f": {cause}" if cause is not None else ""
        super().__init__(f"storage degraded writing {self.target}{detail}")


class JournalBusyError(ReproError, RuntimeError):
    """A journal cannot be compacted because a live writer holds it.

    The serve daemon (and any :class:`~repro.fleet.events.EventLog`)
    keeps an open append handle to its journal; rewriting the file out
    from under that handle would orphan the inode and silently swallow
    every subsequent fsynced append.  ``repro doctor`` therefore
    refuses to compact a journal whose writer lock is held and raises
    this instead — stop the daemon (or let the supervisor's post-crash
    audit run, when no child is alive) to compact.
    """

    def __init__(self, path: object):
        self.path = str(path)
        super().__init__(
            f"journal {self.path} has a live writer; "
            "stop the daemon before compacting it"
        )
