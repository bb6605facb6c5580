"""Verify a decoded envelope against a verifying key.

The decoder (:mod:`repro.envelope.format`) already did the cheap
adversarial filtering; this module does the binding checks (does the
envelope's vk hash / scheme match the key we were handed?) and only then
hands off to the strict proof verifier — the first point where field
arithmetic happens.
"""

from __future__ import annotations

from repro.envelope.format import ProofEnvelope
from repro.field import GOLDILOCKS, PrimeField
from repro.resilience.errors import VerificationFailure

__all__ = ["verify_envelope"]


def verify_envelope(env: ProofEnvelope, vk, field: PrimeField = GOLDILOCKS,
                    strict: bool = True) -> bool:
    """Verify an envelope's proof against ``vk``.

    Binding checks come first: the envelope's verifying-key hash must
    equal ``vk.digest()`` and its scheme must equal ``vk.scheme_name`` —
    a mismatch is a :class:`~repro.resilience.errors.VerificationFailure`
    (the envelope is well-formed; it just isn't a proof *for this key*).
    Only after binding passes are the envelope's scalar width checked
    against the key's field and the proof deserialized and strictly
    verified.  ``strict=False`` restores the legacy boolean path.
    """
    from repro.commit import scheme_by_name
    from repro.halo2.proof import proof_from_bytes
    from repro.halo2.verifier import verify_proof_strict
    from repro.resilience.errors import ProofFormatError

    if env.scheme_name != vk.scheme_name:
        exc = VerificationFailure(
            "envelope scheme %r does not match verifying key scheme %r"
            % (env.scheme_name, vk.scheme_name), model=env.model)
        if strict:
            raise exc
        return False
    if env.vk_hash != vk.digest():
        exc = VerificationFailure(
            "envelope verifying-key hash %s does not match key %s"
            % (env.vk_hash_hex[:16], vk.digest().hex()[:16]),
            model=env.model)
        if strict:
            raise exc
        return False
    scheme = scheme_by_name(env.scheme_name, field)
    try:
        if env.scalar_bytes != vk.field.scalar_bytes:
            raise ProofFormatError(
                "envelope carries %d-byte scalars; the key's field %s uses %d"
                % (env.scalar_bytes, vk.field.name, vk.field.scalar_bytes))
        proof = proof_from_bytes(env.proof_bytes)
        verify_proof_strict(vk, proof, env.instance, scheme)
    except (ProofFormatError, VerificationFailure):
        if strict:
            raise
        return False
    return True
