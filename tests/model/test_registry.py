"""The versioned model registry: publish, reload, verify, quarantine."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import io as repro_io
from repro.errors import ModelIntegrityError, ModelRegistryError
from repro.model import ModelRegistry, training_metadata
from repro.model.registry import _slug


class TestPublish:
    def test_first_publish_is_v1(self, tmp_path, model_e5462):
        artifact = ModelRegistry(tmp_path).publish(model_e5462)
        assert artifact.name == "xeon-e5462"
        assert artifact.version == 1
        assert artifact.path.exists()

    def test_versions_auto_increment(self, tmp_path, model_e5462):
        registry = ModelRegistry(tmp_path)
        registry.publish(model_e5462)
        second = registry.publish(model_e5462)
        assert second.version == 2
        assert registry.versions("xeon-e5462") == [1, 2]

    def test_republish_shares_model_digest(self, tmp_path, model_e5462):
        registry = ModelRegistry(tmp_path)
        first = registry.publish(model_e5462)
        second = registry.publish(model_e5462)
        assert first.model_digest == second.model_digest
        # ...but not the whole-document digest (version differs).
        assert first.digest != second.digest

    def test_artifact_bytes_are_stable(self, tmp_path, model_e5462):
        a = ModelRegistry(tmp_path / "a").publish(
            model_e5462, created_unix_s=0.0
        )
        b = ModelRegistry(tmp_path / "b").publish(
            model_e5462, created_unix_s=0.0
        )
        assert a.path.read_bytes() == b.path.read_bytes()

    def test_invalid_name_rejected(self, tmp_path, model_e5462):
        with pytest.raises(ModelRegistryError, match="invalid model name"):
            ModelRegistry(tmp_path).publish(model_e5462, name="No Spaces!")

    def test_slug_normalises_server_names(self):
        assert _slug("Xeon-E5462") == "xeon-e5462"
        assert _slug("!!!") == "model"

    def test_metadata_records_table_vii(self, model_e5462, training_e5462):
        meta = training_metadata(model_e5462, training_e5462)
        assert meta["summary"]["observations"] == 604
        assert meta["summary"]["r_square"] == model_e5462.r_square
        assert meta["dataset"]["n_observations"] == 604
        assert len(meta["coefficients_full"]) == 6


class TestReload:
    def test_roundtrip_predictions_bit_identical(
        self, tmp_path, model_e5462, training_e5462
    ):
        registry = ModelRegistry(tmp_path)
        registry.publish(model_e5462)
        reloaded = registry.load("xeon-e5462")
        original = model_e5462.predict_normalized(training_e5462.features)
        again = reloaded.predict_normalized(training_e5462.features)
        assert np.array_equal(original, again)

    def test_get_latest_by_default(self, tmp_path, model_e5462):
        registry = ModelRegistry(tmp_path)
        registry.publish(model_e5462)
        registry.publish(model_e5462)
        assert registry.get("xeon-e5462").version == 2
        assert registry.get("xeon-e5462", 1).version == 1

    def test_unknown_name_and_version(self, tmp_path, model_e5462):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(ModelRegistryError, match="no model named"):
            registry.get("nope")
        registry.publish(model_e5462)
        with pytest.raises(ModelRegistryError, match="no version 9"):
            registry.get("xeon-e5462", 9)

    def test_fresh_process_reload_is_bit_identical(
        self, tmp_path, model_e5462, training_e5462
    ):
        """The CI model-smoke property, in miniature: a process that
        never saw the training run must reproduce every output bit."""
        registry = ModelRegistry(tmp_path)
        registry.publish(model_e5462)
        features = tmp_path / "features.json"
        features.write_text(
            json.dumps(training_e5462.features[:17].tolist())
        )
        script = (
            "import json, sys, hashlib, numpy as np\n"
            "from repro.model import ModelRegistry\n"
            "m = ModelRegistry(sys.argv[1]).load('xeon-e5462')\n"
            "f = np.asarray(json.load(open(sys.argv[2])))\n"
            "out = np.ascontiguousarray("
            "m.predict_normalized(f), dtype='<f8').tobytes()\n"
            "print(hashlib.sha256(out).hexdigest())\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), str(features)],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        import hashlib

        local = hashlib.sha256(
            np.ascontiguousarray(
                model_e5462.predict_normalized(training_e5462.features[:17]),
                dtype="<f8",
            ).tobytes()
        ).hexdigest()
        assert result.stdout.strip() == local


class TestIntegrity:
    def test_corruption_quarantines_and_raises(self, tmp_path, model_e5462):
        registry = ModelRegistry(tmp_path)
        artifact = registry.publish(model_e5462)
        document = json.loads(artifact.path.read_text())
        document["model"]["intercept"] = 123.456  # silent coefficient flip
        artifact.path.write_text(json.dumps(document))
        with pytest.raises(ModelIntegrityError, match="digest mismatch"):
            registry.get("xeon-e5462")
        quarantine = tmp_path / "quarantine"
        assert len(list(quarantine.glob("xeon-e5462-v000001.q*.json"))) == 1
        assert not artifact.path.exists()

    def test_unreadable_json_quarantines(self, tmp_path, model_e5462):
        registry = ModelRegistry(tmp_path)
        artifact = registry.publish(model_e5462)
        artifact.path.write_text("{not json")
        with pytest.raises(ModelIntegrityError, match="unreadable"):
            registry.get("xeon-e5462")
        assert not artifact.path.exists()

    def test_verify_all_reports_rows(self, tmp_path, model_e5462):
        registry = ModelRegistry(tmp_path)
        registry.publish(model_e5462)
        registry.publish(model_e5462, name="other")
        rows = registry.verify_all()
        assert rows == [("other", 1, None), ("xeon-e5462", 1, None)]

    def test_verify_all_flags_corruption(self, tmp_path, model_e5462):
        registry = ModelRegistry(tmp_path)
        artifact = registry.publish(model_e5462)
        artifact.path.write_text(
            artifact.path.read_text().replace("power_model_artifact", "x")
        )
        rows = registry.verify_all()
        assert rows[0][0] == "xeon-e5462"
        assert "failed verification" in rows[0][2]


def _rewrite(path, edit):
    document = json.loads(path.read_text())
    edit(document)
    path.write_text(json.dumps(document))


#: One way to damage an artifact per problem the decoder names
#: (``test_unreadable_json_quarantines`` covers text that is not JSON).
DAMAGE = {
    "unreadable_artifact": lambda path: path.write_bytes(b"\xff\xfe{"),
    "malformed_artifact": lambda path: path.write_text("[1, 2]"),
    "wrong_kind": lambda path: _rewrite(
        path, lambda d: d.update(kind="x")
    ),
    "wrong_schema_version": lambda path: _rewrite(
        path, lambda d: d.update(schema_version=2)
    ),
    "digest_mismatch": lambda path: _rewrite(
        path, lambda d: d["model"].update(intercept=123.456)
    ),
}


class TestOneDecoder:
    """The doctor's audit and ``get`` name every problem alike, and
    ``get`` quarantines every one of them."""

    @pytest.mark.parametrize("problem", sorted(DAMAGE))
    def test_problem_is_named_and_quarantined(
        self, tmp_path, model_e5462, problem
    ):
        from repro.doctor.stores import verify_model_artifact

        registry = ModelRegistry(tmp_path)
        artifact = registry.publish(model_e5462)
        DAMAGE[problem](artifact.path)
        assert verify_model_artifact(artifact.path) == problem
        assert artifact.path.exists()  # the audit moves nothing
        with pytest.raises(ModelIntegrityError) as raised:
            registry.get("xeon-e5462")
        assert raised.value.problem == problem
        assert not artifact.path.exists()
        corpses = list((tmp_path / "quarantine").iterdir())
        assert [p.name.split(".q")[0] for p in corpses] == [
            "xeon-e5462-v000001"
        ]

    def test_second_damage_keeps_the_first_corpse(
        self, tmp_path, model_e5462
    ):
        registry = ModelRegistry(tmp_path)
        artifact = registry.publish(model_e5462)
        for _event in range(2):
            artifact.path.write_text("[]")
            with pytest.raises(ModelIntegrityError):
                registry.get("xeon-e5462", 1)
        corpses = list((tmp_path / "quarantine").iterdir())
        assert len(corpses) == 2
        assert all(p.read_text() == "[]" for p in corpses)


class TestListing:
    def test_names_skip_quarantine_and_empty_dirs(self, tmp_path, model_e5462):
        registry = ModelRegistry(tmp_path)
        registry.publish(model_e5462)
        (tmp_path / "quarantine").mkdir()
        (tmp_path / "empty-model").mkdir()
        assert registry.names() == ["xeon-e5462"]

    def test_entries_carry_provenance(self, tmp_path, model_e5462, e5462):
        registry = ModelRegistry(tmp_path)
        registry.publish(
            model_e5462, server_spec=repro_io.server_to_dict(e5462)
        )
        (entry,) = registry.entries()
        assert entry.server == "Xeon-E5462"
        assert entry.r_square == pytest.approx(model_e5462.r_square)
        assert entry.document["server_spec"]["name"] == "Xeon-E5462"
