"""JSON persistence for results and trained models.

Lets a measurement campaign be separated from its analysis: run the
evaluation or the regression training once, save the outcome, and reload
it later (or on another machine) without re-simulating.

Schemas carry a ``"kind"`` discriminator and a ``"schema_version"`` so
future format changes can stay backward compatible.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.evaluation import EvaluationResult, EvaluationRow
from repro.core.regression import PowerRegressionModel, VerificationResult
from repro.errors import ConfigurationError
from repro.hardware.specs import BUILTIN_SERVERS
from repro.hardware.zoo import resolve_server
from repro.stats.linreg import OlsModel
from repro.stats.normalize import ZScoreNormalizer

__all__ = [
    "evaluation_to_dict",
    "evaluation_from_dict",
    "campaign_to_dict",
    "campaign_from_dict",
    "verification_to_dict",
    "verification_from_dict",
    "model_to_dict",
    "model_from_dict",
    "server_to_dict",
    "server_from_dict",
    "server_ref",
    "server_from_ref",
    "save_json",
    "load_json",
]

SCHEMA_VERSION = 1


def evaluation_to_dict(result: EvaluationResult) -> dict[str, Any]:
    """Serialise an :class:`EvaluationResult` (Tables IV-VI).

    Complete results serialise exactly as they always have; a *partial*
    result (graceful degradation) additionally records the ``missing``
    state labels and its ``coverage``, so a downstream reader cannot
    mistake a degraded score for a full-matrix one.
    """
    document = {
        "kind": "evaluation",
        "schema_version": SCHEMA_VERSION,
        "server": result.server,
        "rows": [
            {
                "label": row.label,
                "gflops": row.gflops,
                "watts": row.watts,
                "memory_mb": row.memory_mb,
                "duration_s": row.duration_s,
            }
            for row in result.rows
        ],
    }
    if result.missing:
        document["missing"] = list(result.missing)
        document["coverage"] = result.coverage
    return document


def evaluation_from_dict(data: dict[str, Any]) -> EvaluationResult:
    """Inverse of :func:`evaluation_to_dict`."""
    _expect_kind(data, "evaluation")
    rows = tuple(
        EvaluationRow(
            label=r["label"],
            gflops=float(r["gflops"]),
            watts=float(r["watts"]),
            memory_mb=float(r["memory_mb"]),
            duration_s=float(r["duration_s"]),
        )
        for r in data["rows"]
    )
    return EvaluationResult(
        server=data["server"],
        rows=rows,
        missing=tuple(data.get("missing", ())),
    )


def verification_to_dict(result: VerificationResult) -> dict[str, Any]:
    """Serialise a :class:`VerificationResult` (Figs. 12-13 series)."""
    return {
        "kind": "verification",
        "schema_version": SCHEMA_VERSION,
        "server": result.server,
        "npb_class": result.npb_class,
        "labels": list(result.labels),
        "measured": result.measured.tolist(),
        "predicted": result.predicted.tolist(),
    }


def verification_from_dict(data: dict[str, Any]) -> VerificationResult:
    """Inverse of :func:`verification_to_dict`."""
    _expect_kind(data, "verification")
    return VerificationResult(
        server=data["server"],
        npb_class=data["npb_class"],
        labels=tuple(data["labels"]),
        measured=np.asarray(data["measured"], dtype=float),
        predicted=np.asarray(data["predicted"], dtype=float),
    )


def _normalizer_to_dict(norm: ZScoreNormalizer) -> dict[str, Any]:
    if not norm.fitted:
        raise ConfigurationError("cannot serialise an unfitted normalizer")
    return {"mean": norm.mean_.tolist(), "std": norm.std_.tolist()}


def _normalizer_from_dict(data: dict[str, Any]) -> ZScoreNormalizer:
    norm = ZScoreNormalizer()
    norm.mean_ = np.asarray(data["mean"], dtype=float)
    norm.std_ = np.asarray(data["std"], dtype=float)
    return norm


def model_to_dict(model: PowerRegressionModel) -> dict[str, Any]:
    """Serialise a trained :class:`PowerRegressionModel`.

    The forward-stepwise trace is not preserved (it documents training,
    not prediction); loading yields a model with ``stepwise=None``.
    """
    return {
        "kind": "power_regression_model",
        "schema_version": SCHEMA_VERSION,
        "server": model.server,
        "selected": list(model.selected),
        "coefficients": model.ols.coefficients.tolist(),
        "intercept": model.ols.intercept,
        "n_observations": model.ols.n_observations,
        "r_square": model.ols.r_square,
        "adjusted_r_square": model.ols.adjusted_r_square,
        "standard_error": model.ols.standard_error,
        "feature_normalizer": _normalizer_to_dict(model.feature_normalizer),
        "power_normalizer": _normalizer_to_dict(model.power_normalizer),
    }


def model_from_dict(data: dict[str, Any]) -> PowerRegressionModel:
    """Inverse of :func:`model_to_dict`."""
    _expect_kind(data, "power_regression_model")
    ols = OlsModel(
        coefficients=np.asarray(data["coefficients"], dtype=float),
        intercept=float(data["intercept"]),
        n_observations=int(data["n_observations"]),
        r_square=float(data["r_square"]),
        adjusted_r_square=float(data["adjusted_r_square"]),
        standard_error=float(data["standard_error"]),
    )
    return PowerRegressionModel(
        server=data["server"],
        feature_normalizer=_normalizer_from_dict(data["feature_normalizer"]),
        power_normalizer=_normalizer_from_dict(data["power_normalizer"]),
        ols=ols,
        selected=tuple(int(i) for i in data["selected"]),
        stepwise=None,
    )


def _cache_to_dict(spec) -> dict[str, Any] | None:
    if spec is None:
        return None
    return {
        "level": spec.level,
        "size_kb": spec.size_kb,
        "associativity": spec.associativity,
        "line_bytes": spec.line_bytes,
        "instances_per_chip": spec.instances_per_chip,
        "shared": spec.shared,
    }


def _cache_from_dict(data: dict[str, Any] | None):
    from repro.hardware.specs import CacheLevelSpec

    if data is None:
        return None
    return CacheLevelSpec(**data)


def _dvfs_to_dict(dvfs) -> dict[str, Any]:
    """Serialise a DVFS ladder; the tech node goes by registry name when
    it is a registered one, else as an embedded spec."""
    from repro.hardware.technode import TECH_NODES

    registered = TECH_NODES.get(dvfs.tech.name)
    if registered == dvfs.tech:
        tech: Any = dvfs.tech.name
    else:
        tech = {
            "name": dvfs.tech.name,
            "feature_nm": dvfs.tech.feature_nm,
            "vdd_nominal_v": dvfs.tech.vdd_nominal_v,
            "vth_v": dvfs.tech.vth_v,
            "vdd_min_v": dvfs.tech.vdd_min_v,
            "vdd_max_v": dvfs.tech.vdd_max_v,
            "alpha": dvfs.tech.alpha,
        }
    return {
        "tech": tech,
        "ratios": list(dvfs.ratios),
        "idle_chip_fraction": dvfs.idle_chip_fraction,
    }


def _dvfs_from_dict(data: dict[str, Any] | None):
    from repro.hardware.dvfs import DvfsSpec
    from repro.hardware.technode import TechNodeSpec, get_tech_node

    if data is None:
        return None
    tech = data["tech"]
    if isinstance(tech, str):
        node = get_tech_node(tech)
    else:
        node = TechNodeSpec(**tech)
    return DvfsSpec(
        tech=node,
        ratios=tuple(float(r) for r in data["ratios"]),
        idle_chip_fraction=float(data.get("idle_chip_fraction", 0.35)),
    )


def server_to_dict(server) -> dict[str, Any]:
    """Serialise a :class:`~repro.hardware.specs.ServerSpec`.

    Lets custom machine definitions live in version-controlled JSON files
    (the CLI's ``--spec-file``) instead of Python.  Zoo extensions
    (``core_type``, ``dvfs``, ``pstate``) are emitted only when they
    differ from the defaults, so documents for plain servers — and every
    digest or cache key derived from them — are byte-identical to the
    historical format.
    """
    proc = server.processor
    processor: dict[str, Any] = {
        "model": proc.model,
        "frequency_mhz": proc.frequency_mhz,
        "cores": proc.cores,
        "flops_per_cycle": proc.flops_per_cycle,
        "icache": _cache_to_dict(proc.icache),
        "dcache": _cache_to_dict(proc.dcache),
        "l2": _cache_to_dict(proc.l2),
        "l3": _cache_to_dict(proc.l3),
    }
    if proc.core_type != "ooo-cpu":
        processor["core_type"] = proc.core_type
    if proc.dvfs is not None:
        processor["dvfs"] = _dvfs_to_dict(proc.dvfs)
    document = {
        "kind": "server_spec",
        "schema_version": SCHEMA_VERSION,
        "name": server.name,
        "chips": server.chips,
        "hpl_efficiency": server.hpl_efficiency,
        "network_mbit": server.network_mbit,
        "disk_gb": server.disk_gb,
        "power_supplies": server.power_supplies,
        "processor": processor,
        "memory": {
            "total_gb": server.memory.total_gb,
            "technology": server.memory.technology,
            "channels": server.memory.channels,
            "bandwidth_gbs": server.memory.bandwidth_gbs,
        },
    }
    if server.pstate != 0:
        document["pstate"] = server.pstate
    return document


def server_from_dict(data: dict[str, Any]):
    """Inverse of :func:`server_to_dict`."""
    from repro.hardware.specs import MemorySpec, ProcessorSpec, ServerSpec

    _expect_kind(data, "server_spec")
    proc_data = dict(data["processor"])
    for level in ("icache", "dcache", "l2", "l3"):
        proc_data[level] = _cache_from_dict(proc_data.get(level))
    if "dvfs" in proc_data:
        proc_data["dvfs"] = _dvfs_from_dict(proc_data["dvfs"])
    return ServerSpec(
        name=data["name"],
        processor=ProcessorSpec(**proc_data),
        chips=int(data["chips"]),
        memory=MemorySpec(**data["memory"]),
        hpl_efficiency=float(data["hpl_efficiency"]),
        network_mbit=int(data["network_mbit"]),
        disk_gb=float(data["disk_gb"]),
        power_supplies=int(data["power_supplies"]),
        pstate=int(data.get("pstate", 0)),
    )


def server_ref(server) -> "str | dict[str, Any]":
    """How a campaign or cluster document names ``server``.

    A builtin (Table I) server is written by name; any other server — a
    zoo server, a custom spec, a server pinned at another P-state —
    embeds its :func:`server_to_dict` spec, so the document stands on
    its own.
    """
    builtin = BUILTIN_SERVERS.get(server.name)
    if builtin is not None and builtin == server:
        return server.name
    return server_to_dict(server)


def server_from_ref(ref: "str | dict[str, Any]"):
    """Inverse of :func:`server_ref`.

    A name resolves through :func:`repro.hardware.zoo.resolve_server`
    (the builtins first, then the zoo), so a document may also name a
    zoo server; an embedded spec is read with :func:`server_from_dict`.
    """
    if isinstance(ref, str):
        return resolve_server(ref)
    return server_from_dict(ref)


def campaign_to_dict(spec) -> dict[str, Any]:
    """Serialise a :class:`~repro.fleet.spec.CampaignSpec`.

    Delegates to :mod:`repro.fleet.spec` (imported lazily — the fleet
    package imports this module for server serialisation).
    """
    from repro.fleet.spec import campaign_to_dict as _impl

    return _impl(spec)


def campaign_from_dict(data: dict[str, Any]):
    """Inverse of :func:`campaign_to_dict`."""
    from repro.fleet.spec import campaign_from_dict as _impl

    return _impl(data)


def _expect_kind(data: dict[str, Any], kind: str) -> None:
    found = data.get("kind")
    if found != kind:
        raise ConfigurationError(
            f"expected a {kind!r} document, found {found!r}"
        )
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported schema version {version!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )


def save_json(document: dict[str, Any], path: "str | Path") -> Path:
    """Write a serialised document to ``path`` (pretty-printed)."""
    path = Path(path)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def load_json(path: "str | Path") -> dict[str, Any]:
    """Read a serialised document from ``path``."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc
