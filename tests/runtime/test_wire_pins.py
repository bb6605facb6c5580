"""Golden values: what the proof says, and the bytes it is written in.

The statement pins (commitment digests, evaluations, modeled size) were
recorded under the v1 wire format and must survive every encoding
change: the v2 format changed how a proof is written, not what it
proves.  The byte pins fix the v2 proof and envelope encodings
themselves, and must hold for the serial prover, ``jobs=2`` and the
list (reference) backend alike.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.commit import scheme_by_name
from repro.field.vector import ListBackend
from repro.halo2 import create_proof, keygen
from repro.halo2.proof import proof_to_bytes
from repro.model import get_model
from repro.runtime import prove_model

#: model-scheme -> (commitments sha256, evaluations sha256, modeled bytes)
STATEMENT = {
    "dlrm-kzg": ("3edcbcd0c2c9bc58150c8ecfb1be8236b6338601cd66f0dd12ba2cda8faa332c",
                 "10e1320e78f6d770c2abb969bed303414d40de32302f747a06f5929a3d49b879",
                 4736),
    "dlrm-ipa": ("612a89570ade676df42a1605a2b4eb88e157d778af921c09c666d6cec356e82a",
                 "b123d3b447528d25daa00bd91dabe12ee2b961ea339944365b6fff958cbaba6c",
                 5312),
    "mnist-kzg": ("9dd6fcde802c97e03dfe48533ca2219fc3b9a885963f895cd08aa4e91de3df88",
                  "47597ba10178751dddf709dd71ebee839eab89bb9f1aaabc1308721de010eed9",
                  6976),
    "mnist-ipa": ("4363ebe6dd6b3eb463eabda2e5130ca19406309b0480c2e41c53f65230b12824",
                  "1da8b37004ab4998e7e273e15c106593ac25102acc98abc42b1a32174b2dfaff",
                  7552),
    "twitter-kzg": ("0711f9585c7ae63bc99ea3d4d6a0d30676c2ec3450a73917de05786f45370645",
                    "48063777572c92feb9278216a37251659e86b696b3b77863a9214023b5ffd0c8",
                    7648),
    "twitter-ipa": ("8e120afc022f4aa3050488fe410908e8a33b0d49f6230d506a4f98e7795c5c82",
                    "10f2a53c2d4421d4b723907f3c10aa43fe8858a94929a3636808b1e6cf850696",
                    8224),
}

#: model-scheme -> (v2 proof sha256, v2 envelope sha256)
ENCODING = {
    "dlrm-kzg": ("d1d15e94d46fdc5898fd9fe33741f92c0087b95ec6d2914cf9b183570274074e",
                 "d074e377a4119db574721cd3378c6dd72d3ce8499c1d2e07076bc67ac0693762"),
    "dlrm-ipa": ("ee9f99b823eaf94e1941e1ac77a91694fcef3cf2ec7fe616584023f26662a23b",
                 "0eeaa2d6cef37fcb911166849faebc896dd1bcfe5c6228650db57cea4ebd8753"),
    "mnist-kzg": ("a732def151088ea8513ec88b837b94cb4f35c1fd8e738e77e5edcb5d7d001c19",
                  "d001c8f0043eea2aa329da49fe482e3e5ffe8a7d2d7a6fbfa3eb12f77e9b8756"),
    "mnist-ipa": ("22462f81b447a5dc634c604dc2267f02dda331e1dd4796c10ffe2903021aafcf",
                  "ab1144e70da3e83a25c14c8ee0e0a3748f70c6405ab036aa690d663c6c9961e6"),
    "twitter-kzg": ("ebe7d7dab195d49fc33931a4106882bd08a813fd2144c3e84f444f8bc23e6de9",
                    "0ee076ff8edbdc03eca03991ae8e3518b8362d49e440a6b7310be9358053dac0"),
    "twitter-ipa": ("5655de6907612c2ca2369d934e1468798d4eee6a2c71224b3bd7696999bcd15e",
                    "66a5a467c72398f8b9cccd1b9a4e7f0f02ea9293e6bbd2cd40aa1c0a09c7a880"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _prove(key: str, **kwargs):
    model, scheme = key.split("-")
    spec = get_model(model, "mini")
    rng = np.random.default_rng(1234)
    inputs = {name: rng.uniform(-0.5, 0.5, shape)
              for name, shape in sorted(spec.inputs.items())}
    return prove_model(spec, inputs, scheme_name=scheme, use_pk_cache=False,
                       **kwargs)


@pytest.fixture(scope="module", params=sorted(STATEMENT))
def proven(request):
    return request.param, _prove(request.param)


def test_statement_unchanged_by_the_encoding(proven):
    key, result = proven
    proof = result.proof
    commitments = _sha(b"".join(
        c.digest for c in proof.advice_commitments + proof.helper_commitments
        + proof.quotient_commitments))
    evals = [[col, rot, proof.advice_evals[(col, rot)]]
             for col, rot in sorted(proof.advice_evals)]
    evaluations = _sha(json.dumps([evals, list(proof.quotient_evals)])
                       .encode())
    assert (commitments, evaluations, result.modeled_proof_bytes) \
        == STATEMENT[key]


def test_encoding_pinned(proven):
    key, result = proven
    assert (_sha(proof_to_bytes(result.proof)),
            _sha(result.envelope_bytes())) == ENCODING[key]


@pytest.mark.parametrize("key", sorted(ENCODING))
def test_parallel_prover_matches_the_pins(key):
    result = _prove(key, jobs=2)
    assert (_sha(proof_to_bytes(result.proof)),
            _sha(result.envelope_bytes())) == ENCODING[key]


@pytest.mark.parametrize("key", sorted(ENCODING))
def test_list_backend_matches_the_pins(key):
    result = _prove(key, keep_synthesized=True)
    asg = result.synthesized.builder.asg
    scheme = scheme_by_name(result.scheme_name, result.vk.field)
    pk, _ = keygen(result.synthesized.builder.cs, asg, scheme)
    domain = pk.vk.domain
    domain.backend = ListBackend(result.vk.field)
    domain._use_gl64 = False
    domain._inv_vanishing_vec = None
    proof = create_proof(pk, asg, scheme)
    assert _sha(proof_to_bytes(proof)) == ENCODING[key][0]
