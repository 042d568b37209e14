"""Pinned digests of the §VI study's outputs.

Per builtin server, one seed-0 simulator runs the HPCC training campaign,
the stepwise model is trained on it, and the model is verified on NPB
classes B and C.  Two sha256 pins per server and class hold the chain
bit for bit:

* the canonical JSON of ``verification_to_dict(verify_on_npb(...))`` --
  labels, normalised measured power and regression predictions;
* the raw ``collect_npb_features`` arrays (labels, per-run mean PMU
  features, trimmed-mean watts) before any model touches them.

A change that moves one draw, one reduction order or one coefficient of
the §VI chain on any server fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.core.regression import (
    collect_hpcc_training,
    collect_npb_features,
    train_power_model,
    verify_on_npb,
)
from repro.engine import Simulator
from repro.fleet.cache import canonical_json
from repro.hardware import get_server
from repro.io import verification_to_dict

SEED = 0

PINNED = {
    ("Xeon-E5462", "B"): (
        "fa630dd8a65968f615dd0965a76f2953823f4333eab1f979d65849fbf07ad5b2",
        "6083893bb41fb0b77311bc304619a54a71283cf9674a293598db7c1ea89e201e",
    ),
    ("Xeon-E5462", "C"): (
        "65bbc24dcfb474c2b4b3c698bee4ef35eab5b62e91113c9773f068172e5b68b7",
        "c63c5b3b3614f75f325bde1b9bc2e724856e65c5f6b4a87ac0c533fe5a5afb6f",
    ),
    ("Opteron-8347", "B"): (
        "edd573e056cfd258b8f9b1d57b268dee9a7eaad560ab19d439c40e6e1bfc25ee",
        "1bcae5cb104384483fb52c81de98b526f32fa23f5e05c12942a6f6de88681ea3",
    ),
    ("Opteron-8347", "C"): (
        "a78280624027e1c493f6a619926ff05f3d0eb73cdec2aa376be34d7b3a340faf",
        "78ded536e64fb9185825839a41faba4c6c88be8ea497add792ab90ed13740190",
    ),
    ("Xeon-4870", "B"): (
        "8b5410743450b44ca994ab51a5607f617c262c2b4aa6c1fd3eedb5ee1e982854",
        "88312d203d09966ad531c3469e57e56cc98e283b6f283f46b367106cffb84907",
    ),
    ("Xeon-4870", "C"): (
        "539ee13f3d2396dc583fa70174030a02c3467cdbda8ca32ace55918c5de00bb2",
        "a956d37a2bac86ec68a9790783bfb2064ab73dfe6bcf07ece81360aebd33a104",
    ),
}


def features_digest(labels, features, watts) -> str:
    """sha256 over the labels and the raw bytes of both arrays."""
    h = hashlib.sha256()
    h.update(canonical_json(list(labels)).encode())
    for array in (features, watts):
        array = np.ascontiguousarray(array, dtype="<f8")
        h.update(repr(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def study():
    """``(server, class) -> (verification digest, features digest)``."""
    out = {}
    for name in sorted({name for name, _ in PINNED}):
        server = get_server(name)
        simulator = Simulator(server, seed=SEED)
        model = train_power_model(
            collect_hpcc_training(server, simulator), server.name
        )
        for klass in ("B", "C"):
            verification = verify_on_npb(server, model, klass, simulator)
            document = canonical_json(verification_to_dict(verification))
            out[name, klass] = (
                hashlib.sha256(document.encode()).hexdigest(),
                features_digest(
                    *collect_npb_features(server, klass, simulator)
                ),
            )
    return out


@pytest.mark.parametrize("key", sorted(PINNED), ids="-".join)
def test_verification_is_pinned(study, key):
    assert study[key][0] == PINNED[key][0]


@pytest.mark.parametrize("key", sorted(PINNED), ids="-".join)
def test_npb_features_are_pinned(study, key):
    assert study[key][1] == PINNED[key][1]
