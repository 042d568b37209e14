"""Versioned on-disk registry of trained power models.

Sîrbu & Babaoglu and EfiMon both treat a trained power model as a
*reusable artifact*: fit once on an instrumented training campaign,
then applied to streams of counter samples for the lifetime of the
machine.  This module gives :class:`~repro.core.regression.
PowerRegressionModel` that artifact form.

Layout, one directory per model name::

    <root>/
      <name>/
        v000001.json        # immutable, checksummed artifact
        v000002.json        # a re-train publishes the next version
      quarantine/           # artifacts that failed verification

Each artifact is a single JSON document carrying the complete
prediction state (coefficients, intercept, selected features, both
z-score normalizers), the training metadata (server, Table VII summary
block, Table VIII coefficients, the forward-stepwise entry trace), and
two SHA-256 digests:

* ``model_digest`` — over the canonical JSON of the prediction payload
  only.  Two publishes of the same trained model share it; the CI
  ``model-smoke`` job compares it across processes.
* ``digest`` — over the canonical JSON of the whole document (minus
  the digest itself).  The integrity checksum.

Writes follow the fleet cache's durability discipline (temp file +
``fsync`` + ``os.replace``), so a crash mid-publish leaves either no
artifact or a complete one.  Reads re-verify ``digest`` before a
single coefficient is trusted: :func:`read_artifact` is the one decoder,
for :meth:`ModelRegistry.get` and the doctor's audit alike.  A failed
check quarantines the file and raises
:class:`~repro.errors.ModelIntegrityError` instead of serving a
silently corrupted model.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro import io as repro_io
from repro import obs
from repro.core.regression import PowerRegressionModel, RegressionDataset
from repro.doctor import safewrite
from repro.errors import ModelIntegrityError, ModelRegistryError
from repro.fleet.cache import canonical_json
from repro.hardware.pmu import REGRESSION_FEATURES

__all__ = [
    "ARTIFACT_KIND",
    "ARTIFACT_SCHEMA_VERSION",
    "ModelArtifact",
    "ModelRegistry",
    "read_artifact",
    "training_metadata",
]

ARTIFACT_KIND = "power_model_artifact"
ARTIFACT_SCHEMA_VERSION = 1

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9._-]{0,63}$")
_VERSION_RE = re.compile(r"^v(\d{6})\.json$")


def _slug(text: str) -> str:
    """A registry-safe name derived from free text (server names)."""
    slug = re.sub(r"[^a-z0-9._-]+", "-", text.lower()).strip("-.")
    return slug or "model"


def training_metadata(
    model: PowerRegressionModel,
    dataset: "RegressionDataset | None" = None,
) -> dict[str, Any]:
    """The training provenance block of an artifact.

    Records the Table VII summary, the Table VIII coefficient vector,
    the stepwise entry trace when the model kept one, and — when the
    training ``dataset`` is still at hand — its shape and the runs it
    came from.
    """
    meta: dict[str, Any] = {
        "features": list(REGRESSION_FEATURES),
        "selected": list(model.selected),
        "selected_names": [REGRESSION_FEATURES[i] for i in model.selected],
        "summary": {
            "multiple_r": model.ols.multiple_r,
            "r_square": model.r_square,
            "adjusted_r_square": model.ols.adjusted_r_square,
            "standard_error": model.ols.standard_error,
            "observations": model.n_observations,
        },
        "coefficients_full": model.coefficients_full().tolist(),
        "intercept": model.intercept,
    }
    if model.stepwise is not None:
        meta["stepwise"] = {
            "selected": list(model.stepwise.selected),
            "f_to_enter": list(model.stepwise.f_to_enter),
        }
    if dataset is not None:
        labels = sorted(set(dataset.labels))
        meta["dataset"] = {
            "n_observations": dataset.n_observations,
            "n_runs": len(labels),
            "run_labels": labels,
        }
    return meta


def _document_digest(document: dict[str, Any]) -> str:
    body = {k: v for k, v in document.items() if k != "digest"}
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


def read_artifact(path: Path) -> dict[str, Any]:
    """Read and check the artifact at ``path``; returns its document.

    The one decoder behind :meth:`ModelRegistry.get` (which quarantines
    what it rejects) and ``repro doctor audit`` (which only reports
    it); it changes no file.  Raises
    :class:`~repro.errors.ModelIntegrityError` whose ``problem`` names
    the first check the artifact fails.
    """
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ModelIntegrityError(
            f"artifact {path} is unreadable: {exc}", "unreadable_artifact"
        ) from exc
    if not isinstance(document, dict):
        problem = "malformed_artifact"
        detail = f"a JSON {type(document).__name__}, not an object"
    elif document.get("kind") != ARTIFACT_KIND:
        problem, detail = "wrong_kind", f"kind is {document.get('kind')!r}"
    elif document.get("schema_version") != ARTIFACT_SCHEMA_VERSION:
        problem = "wrong_schema_version"
        detail = f"schema_version is {document.get('schema_version')!r}"
    else:
        try:
            if document.get("digest") == _document_digest(document):
                return document
            problem, detail = "digest_mismatch", "digest mismatch"
        except (TypeError, ValueError) as exc:
            problem, detail = "malformed_artifact", str(exc)
    raise ModelIntegrityError(
        f"artifact {path} failed verification ({detail})", problem
    )


@dataclass(frozen=True)
class ModelArtifact:
    """One immutable registry entry, as read from (or about to hit) disk."""

    name: str
    version: int
    document: dict[str, Any]
    path: "Path | None" = None

    @property
    def digest(self) -> str:
        """Whole-document integrity checksum."""
        return self.document["digest"]

    @property
    def model_digest(self) -> str:
        """Checksum of the prediction payload only (stable across
        re-publishes of the same trained model)."""
        return self.document["model_digest"]

    @property
    def server(self) -> str:
        """The server the model was trained on."""
        return self.document["server"]

    @property
    def r_square(self) -> float:
        """Training R² (Table VII)."""
        return float(self.document["training"]["summary"]["r_square"])

    @property
    def created_unix_s(self) -> float:
        """Publish wall-clock time."""
        return float(self.document["created_unix_s"])

    def model(self) -> PowerRegressionModel:
        """Reconstruct the trained model (``stepwise`` trace not
        rehydrated — it documents training, not prediction)."""
        return repro_io.model_from_dict(self.document["model"])


class ModelRegistry:
    """Filesystem-backed store of versioned model artifacts."""

    def __init__(self, root: "str | Path"):
        self.root = Path(root)

    # -- paths -----------------------------------------------------------

    def _dir(self, name: str) -> Path:
        if not _NAME_RE.match(name):
            raise ModelRegistryError(
                f"invalid model name {name!r}: need lowercase "
                "letters/digits/._- and at most 64 characters"
            )
        return self.root / name

    def _path(self, name: str, version: int) -> Path:
        return self._dir(name) / f"v{version:06d}.json"

    # -- queries ---------------------------------------------------------

    def names(self) -> list[str]:
        """Every model name with at least one version."""
        if not self.root.exists():
            return []
        return sorted(
            p.name
            for p in self.root.iterdir()
            if p.is_dir() and p.name != "quarantine" and self.versions(p.name)
        )

    def versions(self, name: str) -> list[int]:
        """Published versions of one name, ascending."""
        directory = self._dir(name)
        if not directory.exists():
            return []
        found = []
        for p in directory.iterdir():
            match = _VERSION_RE.match(p.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def get(self, name: str, version: "int | None" = None) -> ModelArtifact:
        """Read one artifact, verifying it first (:func:`read_artifact`).

        ``version=None`` resolves to the latest.  A document that fails
        any check is moved to ``<root>/quarantine/`` and
        :class:`ModelIntegrityError` raised.
        """
        versions = self.versions(name)
        if not versions:
            raise ModelRegistryError(
                f"no model named {name!r} in {self.root}"
            )
        if version is None:
            version = versions[-1]
        if version not in versions:
            raise ModelRegistryError(
                f"{name!r} has no version {version}; published: {versions}"
            )
        path = self._path(name, version)
        try:
            document = read_artifact(path)
        except ModelIntegrityError as exc:
            self._quarantine(path)
            obs.inc("model.registry.integrity_failure")
            raise ModelIntegrityError(
                f"{exc}; quarantined", exc.problem
            ) from exc
        obs.inc("model.registry.load")
        return ModelArtifact(
            name=name, version=version, document=document, path=path
        )

    def load(
        self, name: str, version: "int | None" = None
    ) -> PowerRegressionModel:
        """Shortcut: verified artifact → reconstructed model."""
        return self.get(name, version).model()

    def entries(self) -> list[ModelArtifact]:
        """Every verified artifact, ordered by (name, version)."""
        return [
            self.get(name, version)
            for name in self.names()
            for version in self.versions(name)
        ]

    def verify_all(self) -> list[tuple[str, int, "str | None"]]:
        """Integrity-check the whole registry without loading models.

        Returns ``(name, version, error)`` rows, ``error=None`` when the
        artifact verified clean.  Bad artifacts are quarantined as a
        side effect, exactly as :meth:`get` would.
        """
        rows: list[tuple[str, int, "str | None"]] = []
        for name in self.names():
            for version in self.versions(name):
                try:
                    self.get(name, version)
                except ModelRegistryError as exc:
                    rows.append((name, version, str(exc)))
                else:
                    rows.append((name, version, None))
        return rows

    # -- publishing ------------------------------------------------------

    def publish(
        self,
        model: PowerRegressionModel,
        name: "str | None" = None,
        training: "dict[str, Any] | None" = None,
        dataset: "RegressionDataset | None" = None,
        server_spec: "dict[str, Any] | None" = None,
        created_unix_s: "float | None" = None,
    ) -> ModelArtifact:
        """Write the next version of ``name`` atomically.

        ``training`` overrides the automatic :func:`training_metadata`
        block; ``server_spec`` optionally embeds the full machine
        definition (``repro.io.server_to_dict``) so the artifact is
        self-describing on a machine without the built-in specs.
        """
        name = name or _slug(model.server)
        directory = self._dir(name)
        version = (self.versions(name) or [0])[-1] + 1
        document: dict[str, Any] = {
            "kind": ARTIFACT_KIND,
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "name": name,
            "version": version,
            "created_unix_s": (
                time.time() if created_unix_s is None else created_unix_s
            ),
            "server": model.server,
            "model": repro_io.model_to_dict(model),
            "training": (
                training_metadata(model, dataset)
                if training is None
                else training
            ),
        }
        if server_spec is not None:
            document["server_spec"] = server_spec
        document["model_digest"] = hashlib.sha256(
            canonical_json(document["model"]).encode()
        ).hexdigest()
        document["digest"] = _document_digest(document)
        directory.mkdir(parents=True, exist_ok=True)
        path = self._path(name, version)
        self._write_atomic(
            path.with_suffix(f".tmp.{os.getpid()}"),
            path,
            json.dumps(document, indent=2, sort_keys=True).encode() + b"\n",
        )
        obs.inc("model.registry.publish")
        return ModelArtifact(
            name=name, version=version, document=document, path=path
        )

    # -- internals -------------------------------------------------------

    def _quarantine(self, path: Path) -> None:
        # Named by model too: v000001.json of two different models must
        # not share a corpse name.
        if safewrite.quarantine(
            self.root / "quarantine", f"{path.parent.name}-{path.stem}", path
        ):
            obs.inc("model.registry.quarantined")

    @staticmethod
    def _write_atomic(tmp: Path, dest: Path, payload: bytes) -> None:
        # Raises StorageDegradedError on ENOSPC/EIO — a half-published
        # model is worse than a loud publish failure, so the caller of
        # ``publish`` decides how to degrade.
        safewrite.write_atomic(tmp, dest, payload)
