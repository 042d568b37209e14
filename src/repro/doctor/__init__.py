"""Self-healing storage: audit, repair, eviction, and supervision.

The doctor subsystem keeps the repo's four on-disk stores — fleet
result cache, serve journal + results, model registry, event journals
— bounded, verified, and recoverable:

* :mod:`repro.doctor.safewrite` — the ENOSPC/EIO-aware durable-write
  layer every store writes through (plus the chaos harness's
  deterministic disk-full injector);
* :mod:`repro.doctor.jsonl` — the one JSONL journal primitive: every
  journal and span trace is appended, read, tailed and compacted there;
* :mod:`repro.doctor.stores` — one :class:`StoreAdapter` interface
  over all four stores (audit / repair / evict / gc);
* :mod:`repro.doctor.engine` — policy: aggregated audits, capped
  TTL/LRU eviction with refcount-aware pins, garbage collection;
* :mod:`repro.doctor.supervisor` — the serve crash supervisor (restart
  budget, exponential backoff, circuit breaker, post-crash auto-audit).

CLI: ``python -m repro doctor audit|repair|evict|gc`` and
``python -m repro serve --supervise``.  See ``docs/robustness.md``.

Attribute access is lazy (PEP 562): the stores the adapters wrap
(fleet cache, event log, serve state, model registry) themselves
import :mod:`repro.doctor.safewrite` and :mod:`repro.doctor.jsonl`, so
this package must be importable without touching them.
"""

from typing import Any

__all__ = [
    "AuditReport",
    "EvictionPolicy",
    "EvictionReport",
    "Finding",
    "FleetCacheStore",
    "JournalStore",
    "ModelRegistryStore",
    "RestartPolicy",
    "SUBMIT_JOURNAL_KINDS",
    "ServePins",
    "ServeResultsStore",
    "StoreAdapter",
    "StoreEntry",
    "Supervisor",
    "SupervisorOutcome",
    "audit_stores",
    "evict_store",
    "gc_stores",
    "repair_stores",
    "serve_pins",
    "serve_state_stores",
    "submission_cache_keys",
    "verify_cache_entry",
    "verify_model_artifact",
]

_ENGINE = {
    "AuditReport",
    "EvictionPolicy",
    "EvictionReport",
    "ServePins",
    "audit_stores",
    "evict_store",
    "gc_stores",
    "repair_stores",
    "serve_pins",
    "submission_cache_keys",
}
_STORES = {
    "Finding",
    "FleetCacheStore",
    "JournalStore",
    "ModelRegistryStore",
    "SUBMIT_JOURNAL_KINDS",
    "ServeResultsStore",
    "StoreAdapter",
    "StoreEntry",
    "serve_state_stores",
    "verify_cache_entry",
    "verify_model_artifact",
}
_SUPERVISOR = {"RestartPolicy", "Supervisor", "SupervisorOutcome"}


def __getattr__(name: str) -> Any:
    if name in _ENGINE:
        from repro.doctor import engine

        return getattr(engine, name)
    if name in _STORES:
        from repro.doctor import stores

        return getattr(stores, name)
    if name in _SUPERVISOR:
        from repro.doctor import supervisor

        return getattr(supervisor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> "list[str]":
    return sorted(__all__)
