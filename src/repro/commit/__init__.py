"""Polynomial-commitment substrate.

The paper's halo2 backend supports two commitment schemes — KZG (one-time
universal trusted setup, constant-size openings, single pairing check) and
IPA (transparent, O(log n) proofs, O(n)-group-op verification).  Offline we
cannot link a pairing library, so both backends here commit with a binding
blake2b hash and open by revealing the polynomial; the verifier recomputes
the digest and the evaluation, so a dishonest opening is always rejected.
The *performance envelope* of each backend (proof bytes, verification
work, extra MSMs) is modeled explicitly with the formulas the paper's cost
model uses, so the optimizer sees the same trade-offs as on real halo2.
See DESIGN.md §2 for the substitution rationale.
"""

from repro.commit.merkle import MerkleTree, verify_merkle_path
from repro.commit.scheme import (
    Commitment,
    CommitmentScheme,
    scheme_by_name,
)
from repro.commit.kzg import KZGScheme, KZGSetup
from repro.commit.ipa import IPAScheme
from repro.commit.transcript import Transcript

__all__ = [
    "Commitment",
    "CommitmentScheme",
    "scheme_by_name",
    "KZGScheme",
    "KZGSetup",
    "IPAScheme",
    "MerkleTree",
    "verify_merkle_path",
    "Transcript",
]
