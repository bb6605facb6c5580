"""The v2 proof and envelope wire formats under single-bit and
non-canonical mutations.

Every bit of a toy circuit's proof bytes, and of its envelope under a
recomputed checksum, is flipped in turn: each flip must end in a typed
rejection (``ProofFormatError`` / ``VerificationFailure`` or an envelope
subtype), never an acceptance and never a raw exception.  Hand-built
non-canonical encodings — a scalar ``>= p``, a wrong width byte, a
missing, extra or duplicate witness, unsorted keys — must each be
refused by the decoder or the shape check.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.commit import scheme_by_name
from repro.envelope import (
    ProofEnvelope,
    decode_envelope,
    envelope_config_digest,
    envelope_proof_bytes,
    verify_envelope,
)
from repro.envelope.format import CHECKSUM_BYTES
from repro.field import GOLDILOCKS
from repro.halo2 import create_proof, keygen
from repro.halo2.proof import proof_from_bytes, proof_to_bytes
from repro.halo2.verifier import validate_proof_shape, verify_proof_strict
from repro.resilience.errors import (
    EnvelopeError,
    EnvelopeSchemaError,
    ProofFormatError,
    VerificationFailure,
)

from tests.halo2.circuits import mul_circuit

F = GOLDILOCKS
P = F.p


@pytest.fixture(scope="module")
def toy():
    scheme = scheme_by_name("kzg", F)
    cs, asg = mul_circuit()
    pk, vk = keygen(cs, asg, scheme)
    proof = create_proof(pk, asg, scheme)
    instance = asg.instance_values()
    env = ProofEnvelope(
        scheme_name="kzg", model="toy-mul", vk_hash=vk.digest(),
        config_digest=envelope_config_digest(3, 0, 3),
        instance=instance, proof_bytes=proof_to_bytes(proof),
        scalar_bytes=F.scalar_bytes)
    return scheme, vk, proof, instance, env


def _flips(data: bytes):
    for pos in range(len(data)):
        for bit in range(8):
            out = bytearray(data)
            out[pos] ^= 1 << bit
            yield "bit %d of byte %d" % (bit, pos), bytes(out)


def _check_proof(vk, scheme, instance, data: bytes) -> None:
    """Raise on rejection, return on acceptance."""
    verify_proof_strict(vk, proof_from_bytes(data), instance, scheme)


def _check_envelope(vk, good: ProofEnvelope, data: bytes) -> None:
    """What a verify service does with one envelope: decode, bind the
    model/config metadata the registry published, verify."""
    env = decode_envelope(data)
    if env.model != good.model or env.config_digest != good.config_digest:
        raise VerificationFailure("metadata does not match the registry")
    verify_envelope(env, vk)


def _typed_outcome(check, data: bytes) -> str:
    try:
        check(data)
    except (ProofFormatError, VerificationFailure):
        return "rejected"
    except Exception as exc:  # noqa: BLE001 — an untyped escape is the failure under test
        return "escaped %s: %s" % (type(exc).__name__, exc)
    return "accepted"


class TestSingleBitFlips:
    def test_every_proof_bit_flip_rejected_typed(self, toy):
        scheme, vk, proof, instance, _ = toy
        data = proof_to_bytes(proof)
        _check_proof(vk, scheme, instance, data)  # the pristine proof passes
        bad = {}
        for what, mutant in _flips(data):
            outcome = _typed_outcome(
                lambda d: _check_proof(vk, scheme, instance, d), mutant)
            if outcome != "rejected":
                bad[what] = outcome
        assert not bad, "%d of %d flips not rejected typed: %r" % (
            len(bad), 8 * len(data), sorted(bad.items())[:5])

    def test_every_envelope_bit_flip_rejected_typed(self, toy):
        _, vk, _, _, env = toy
        encoded = env.encode()
        _check_envelope(vk, env, encoded)
        body = encoded[:-CHECKSUM_BYTES]
        bad = {}
        for what, mutant in _flips(encoded):
            if len(body) <= len(mutant) and mutant[:len(body)] != body:
                # body flip under a recomputed, valid checksum
                head = mutant[:len(body)]
                mutant = head + hashlib.blake2b(
                    head, digest_size=CHECKSUM_BYTES).digest()
            outcome = _typed_outcome(
                lambda d: _check_envelope(vk, env, d), mutant)
            if outcome != "rejected":
                bad[what] = outcome
        assert not bad, "%d of %d flips not rejected typed: %r" % (
            len(bad), 8 * len(encoded), sorted(bad.items())[:5])


def _offsets(proof):
    """Byte offsets of the opened-column list and the evaluation keys."""
    columns = 8 + 1 + 4 + 3 * 4 + 32 * proof.num_commitments()
    n = len(next(iter(proof.advice_witnesses.values())))
    witnesses = columns + 4 + 4 * len(proof.advice_witnesses)
    keys = witnesses + 8 * n * len(proof.advice_witnesses)
    return columns + 4, keys + 4


class TestNonCanonicalProof:
    def test_scalar_at_p_rejected(self, toy):
        _, _, proof, _, _ = toy
        data = bytearray(proof_to_bytes(proof))
        columns_at, _ = _offsets(proof)
        first_witness = columns_at + 4 * len(proof.advice_witnesses)
        data[first_witness:first_witness + 8] = P.to_bytes(8, "little")
        with pytest.raises(ProofFormatError, match="non-canonical"):
            proof_from_bytes(bytes(data))

    def test_eval_at_p_rejected(self, toy):
        _, vk, proof, instance, _ = toy
        mutant = proof_from_bytes(proof_to_bytes(proof))
        key = next(iter(mutant.advice_evals))
        mutant.advice_evals[key] = P
        with pytest.raises(ProofFormatError, match="non-canonical"):
            proof_from_bytes(proof_to_bytes(mutant))
        with pytest.raises(ProofFormatError, match="out-of-field"):
            validate_proof_shape(vk, mutant, instance)

    def test_unknown_width_byte_rejected(self, toy):
        _, _, proof, _, _ = toy
        data = bytearray(proof_to_bytes(proof))
        for width in (0, 7, 9, 16, 64, 255):
            data[8] = width
            with pytest.raises(ProofFormatError, match="unknown scalar"):
                proof_from_bytes(bytes(data))

    def test_width_must_match_the_key_field(self, toy):
        scheme, vk, proof, instance, _ = toy
        wide = proof_from_bytes(proof_to_bytes(proof))
        wide.scalar_bytes = 32
        wide.advice_witnesses = {c: w.tolist()
                                 for c, w in wide.advice_witnesses.items()}
        wide.quotient_witnesses = [w.tolist()
                                   for w in wide.quotient_witnesses]
        again = proof_from_bytes(proof_to_bytes(wide))  # a valid BN254 width
        assert again.scalar_bytes == 32
        with pytest.raises(ProofFormatError, match="32-byte scalars"):
            verify_proof_strict(vk, again, instance, scheme)

    def test_missing_witness_rejected(self, toy):
        scheme, vk, proof, instance, _ = toy
        mutant = proof_from_bytes(proof_to_bytes(proof))
        mutant.advice_witnesses.pop(next(iter(mutant.advice_witnesses)))
        with pytest.raises(ProofFormatError, match="missing or extra"):
            proof_from_bytes(proof_to_bytes(mutant))
        with pytest.raises(ProofFormatError, match="no witness"):
            verify_proof_strict(vk, mutant, instance, scheme)

    def test_extra_witness_rejected(self, toy):
        scheme, vk, proof, instance, _ = toy
        mutant = proof_from_bytes(proof_to_bytes(proof))
        spare = max(mutant.advice_witnesses) + 1
        mutant.advice_witnesses[spare] = np.zeros(vk.n, dtype=np.uint64)
        with pytest.raises(ProofFormatError, match="missing or extra"):
            proof_from_bytes(proof_to_bytes(mutant))
        with pytest.raises((ProofFormatError, VerificationFailure)):
            verify_proof_strict(vk, mutant, instance, scheme)

    def test_duplicate_witness_rejected(self, toy):
        _, _, proof, _, _ = toy
        data = bytearray(proof_to_bytes(proof))
        columns_at, _ = _offsets(proof)
        data[columns_at + 4:columns_at + 8] = data[columns_at:columns_at + 4]
        with pytest.raises(ProofFormatError, match="strictly increasing"):
            proof_from_bytes(bytes(data))

    def test_unsorted_columns_rejected(self, toy):
        _, _, proof, _, _ = toy
        data = bytearray(proof_to_bytes(proof))
        columns_at, _ = _offsets(proof)
        first = bytes(data[columns_at:columns_at + 4])
        data[columns_at:columns_at + 4] = data[columns_at + 4:columns_at + 8]
        data[columns_at + 4:columns_at + 8] = first
        with pytest.raises(ProofFormatError, match="strictly increasing"):
            proof_from_bytes(bytes(data))

    def test_unsorted_or_duplicate_keys_rejected(self, toy):
        _, _, proof, _, _ = toy
        data = proof_to_bytes(proof)
        _, keys_at = _offsets(proof)
        assert len(proof.advice_evals) >= 2
        first, second = data[keys_at:keys_at + 8], data[keys_at + 8:keys_at + 16]
        swapped = bytearray(data)
        swapped[keys_at:keys_at + 16] = second + first
        duplicated = bytearray(data)
        duplicated[keys_at + 8:keys_at + 16] = first
        for mutant in (swapped, duplicated):
            with pytest.raises(ProofFormatError, match="strictly increasing"):
                proof_from_bytes(bytes(mutant))


class TestNonCanonicalEnvelope:
    def test_instance_scalar_at_p_rejected(self, toy):
        _, _, _, _, env = toy
        instance = [list(col) for col in env.instance]
        instance[0][0] = P
        data = dataclasses.replace(env, instance=instance).encode()
        with pytest.raises(EnvelopeError, match="non-canonical"):
            decode_envelope(data)

    def test_unknown_width_rejected(self, toy):
        _, _, _, _, env = toy
        with pytest.raises(EnvelopeSchemaError, match="scalar width"):
            dataclasses.replace(env, scalar_bytes=9).encode()
        encoded = bytearray(env.encode()[:-CHECKSUM_BYTES])
        width_at = 3 + len("zkml-proof-envelope/v2") + 3 + 7 + 48
        assert encoded[width_at] == 8
        encoded[width_at] = 9
        encoded += hashlib.blake2b(encoded, digest_size=CHECKSUM_BYTES).digest()
        with pytest.raises(EnvelopeSchemaError, match="scalar width"):
            decode_envelope(bytes(encoded))

    def test_width_must_match_the_key_field(self, toy):
        _, vk, _, _, env = toy
        wide = decode_envelope(dataclasses.replace(env,
                                                   scalar_bytes=32).encode())
        assert wide.scalar_bytes == 32
        with pytest.raises(ProofFormatError, match="32-byte scalars"):
            verify_envelope(wide, vk)

    def test_proof_slice_matches_the_decoder(self, toy):
        _, _, _, _, env = toy
        encoded = env.encode()
        assert envelope_proof_bytes(encoded) == env.proof_bytes \
            == decode_envelope(encoded).proof_bytes
