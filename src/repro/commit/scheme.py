"""Common polynomial-commitment interface.

Both backends commit by hashing the coefficient vector (binding) and open
by revealing it (the simulated analogue of a PCS opening witness — see the
package docstring).  A polynomial is revealed once however many points it
is opened at, the way halo2's multiopen argument batches queries per
commitment.  What distinguishes the backends is the *modeled* performance
envelope: proof bytes per object, MSM counts, and verifier work, which
follow the paper's halo2 accounting.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.field.prime_field import PrimeField
from repro.field.scalars import hash_bytes, poly_eval_many
from repro.obs.stats import STATS

#: Size of one commitment (a compressed curve point on BN254) in bytes.
COMMITMENT_BYTES = 32
#: Size of one field element in the paper's modeled (BN254) proof, in
#: bytes — a cost-model input.  The wire format writes each scalar at its
#: field's own width (``PrimeField.scalar_bytes``).
SCALAR_BYTES = 32

#: One opening query: (index of the polynomial, evaluation point).
Query = Tuple[int, int]


@dataclass(frozen=True)
class Commitment:
    """A binding commitment to a polynomial (32-byte digest)."""

    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != COMMITMENT_BYTES:
            raise ValueError("commitment digest must be 32 bytes")


class CommitmentScheme:
    """Base class for the KZG-sim and IPA-sim backends."""

    #: Backend name used by the CLI, optimizer, and reports.
    name = "abstract"
    #: Whether a trusted setup is required (True for KZG).
    requires_trusted_setup = False

    def __init__(self, field: PrimeField):
        self.field = field

    # -- real (simulated-crypto) operations --------------------------------

    def commit(self, coeffs: Sequence[int]) -> Commitment:
        """Commit to a coefficient vector."""
        STATS.commitments += 1
        self._check_degree(len(coeffs))
        digest = hashlib.blake2b(
            self.name.encode() + hash_bytes(coeffs, self.field),
            digest_size=32,
        ).digest()
        return Commitment(digest)

    def open_many(self, polys: Sequence, queries: Sequence[Query]
                  ) -> List[int]:
        """Open committed polynomials: the value of ``polys[i]`` at
        ``point`` for each ``(i, point)`` query.

        The revealed coefficient vectors themselves are the opening
        witnesses (one per polynomial, shipped by the proof).  On
        Goldilocks every query runs through one vectorized evaluation.
        """
        STATS.openings += len(queries)
        return poly_eval_many(self.field, polys, queries)

    def verify_openings(self, commitments: Sequence[Commitment],
                        polys: Sequence, queries: Sequence[Query],
                        values: Sequence[int]) -> bool:
        """Batch opening check: ``polys[i]`` must hash to
        ``commitments[i]``, and each query's evaluation must equal its
        claimed value.  Every polynomial is recommitted once and all
        queries are evaluated in one batch."""
        if len(commitments) != len(polys) or len(queries) != len(values):
            return False
        for commitment, poly in zip(commitments, polys):
            if self.commit(poly).digest != commitment.digest:
                return False
        return poly_eval_many(self.field, polys, queries) == list(values)

    def _check_degree(self, length: int) -> None:
        """Hook for backends with bounded setups (KZG)."""

    # -- modeled accounting (paper cost-model inputs) -----------------------

    def extra_msms(self, d_max: int) -> int:
        """MSMs beyond n_FFT for quotient evaluation proofs (§7.4)."""
        raise NotImplementedError

    def opening_proof_bytes(self, k: int) -> int:
        """Serialized size of one multiopen argument at 2^k rows."""
        raise NotImplementedError

    def verifier_group_ops(self, k: int) -> int:
        """Group operations the verifier performs for the PCS check."""
        raise NotImplementedError


def scheme_by_name(name: str, field: PrimeField) -> CommitmentScheme:
    """Instantiate a backend by name ('kzg' or 'ipa')."""
    from repro.commit.ipa import IPAScheme
    from repro.commit.kzg import KZGScheme

    if name == "kzg":
        return KZGScheme(field)
    if name == "ipa":
        return IPAScheme(field)
    raise KeyError("unknown commitment scheme %r; available: ipa, kzg" % name)
