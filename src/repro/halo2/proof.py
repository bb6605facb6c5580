"""Proof container, modeled serialization size, and the proof wire format.

The in-memory proof carries the simulated opening witnesses (full
coefficient vectors — see ``repro.commit``), one per opened committed
polynomial, so its serialized size is not what a real halo2 proof would
serialize to.  :meth:`Proof.modeled_size_bytes` reports the size a real
proof with this circuit shape would have: one curve point per
commitment, one scalar per opened evaluation, plus the backend's
multiopen argument.  Table 6/7/14 report this quantity.

Wire format ``ZKMLPRF2`` (integers little-endian; a *scalar* is
``width`` bytes, the field's own width)::

    [8B  magic]                         "ZKMLPRF2"
    [u8  width]                         8 (Goldilocks) | 32 (BN254)
    [u32 n]                             coefficients per witness
    3 x [u32 count][count x 32B digest] advice, helper, quotient commitments
    [u32 m][m x u32 column]             opened columns, strictly increasing
    [m x n scalars]                     their coefficient vectors, in order
    [u32 e][e x (u32 column, i32 rot)]  evaluation keys, strictly increasing
    [e scalars]                         value at omega^rot * x per key
    [u32 q][q x n scalars][q scalars]   quotient pieces and their values at x

The encoding is canonical: keys are sorted and unique, every opened
column is evaluated at least once and every evaluated column is opened,
every scalar is ``< p`` of the field its width names, and nothing
trails.  The decoder rejects anything else with a typed
:class:`~repro.resilience.errors.ProofFormatError`, checking each count
against the remaining data before allocating for it.  Evaluation points
are not shipped: the verifier derives them from the transcript.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.commit.scheme import (
    COMMITMENT_BYTES,
    SCALAR_BYTES,
    Commitment,
    CommitmentScheme,
)
from repro.field.prime_field import field_by_scalar_bytes
from repro.field.scalars import all_canonical, decode_scalars, encode_scalars
from repro.resilience.errors import ProofFormatError


@dataclass(eq=False)
class Proof:
    """A ZK-SNARK proof for one circuit execution.

    Coefficient vectors are ``uint64`` arrays on Goldilocks and lists of
    ints on other fields (:func:`witness_vector`).  Compare proofs by
    their bytes (:func:`proof_to_bytes`).
    """

    #: Wire width of one scalar (the field's ``scalar_bytes``).
    scalar_bytes: int
    advice_commitments: List[Commitment]
    helper_commitments: List[Commitment]
    quotient_commitments: List[Commitment]
    #: advice/helper column index -> its coefficient vector, once per
    #: opened polynomial however many rotations query it
    advice_witnesses: Dict[int, Sequence[int]]
    #: (advice column index, rotation) -> evaluation at omega^rotation * x
    advice_evals: Dict[Tuple[int, int], int]
    #: quotient piece coefficient vectors, each opened at x
    quotient_witnesses: List[Sequence[int]]
    quotient_evals: List[int]

    def num_commitments(self) -> int:
        return (
            len(self.advice_commitments)
            + len(self.helper_commitments)
            + len(self.quotient_commitments)
        )

    def num_evaluations(self) -> int:
        return len(self.advice_evals) + len(self.quotient_evals)

    def modeled_size_bytes(self, scheme: CommitmentScheme, k: int) -> int:
        """Serialized size of the equivalent real halo2 proof."""
        return (
            COMMITMENT_BYTES * self.num_commitments()
            + SCALAR_BYTES * self.num_evaluations()
            + scheme.opening_proof_bytes(k)
        )


def witness_vector(coeffs, scalar_bytes: int):
    """A coefficient vector in the proof's representation: a fresh
    ``uint64`` array for 8-byte (Goldilocks) scalars, a list of ints
    otherwise — so proofs from every prover backend pickle alike."""
    if scalar_bytes == 8:
        return np.array(coeffs, dtype=np.uint64)
    if isinstance(coeffs, np.ndarray):
        return coeffs.tolist()
    return [int(c) for c in coeffs]


_MAGIC = b"ZKMLPRF2"

#: Upper bound on any serialized count field.  Real proofs have at most a
#: few thousand commitments/openings; a count beyond this is always a
#: corrupted or hostile length prefix, and rejecting it up front keeps a
#: 4-byte mutation from driving a multi-gigabyte allocation loop.
_MAX_ITEMS = 1 << 20

_U32 = np.dtype("<u4")
_KEY = np.dtype([("col", "<u4"), ("rot", "<i4")])


def _u32(v: int) -> bytes:
    return int(v).to_bytes(4, "little")


def proof_to_bytes(proof: Proof) -> bytes:
    """Serialize a proof to its canonical ``ZKMLPRF2`` byte string.

    The simulated opening witnesses make this larger than the real halo2
    serialization; :meth:`Proof.modeled_size_bytes` reports the
    real-system size.
    """
    width = proof.scalar_bytes
    columns = sorted(proof.advice_witnesses)
    keys = sorted(proof.advice_evals)
    witnesses = [proof.advice_witnesses[c] for c in columns]
    witnesses += proof.quotient_witnesses
    n = len(witnesses[0]) if witnesses else 0
    if any(len(w) != n for w in witnesses):
        raise ProofFormatError("witness vectors differ in length")
    out = [_MAGIC, bytes([width]), _u32(n)]
    for group in (proof.advice_commitments, proof.helper_commitments,
                  proof.quotient_commitments):
        out.append(_u32(len(group)))
        out.extend(com.digest for com in group)
    try:
        out.append(_u32(len(columns)))
        out.append(np.array(columns, dtype=_U32).tobytes())
        out.extend(encode_scalars(proof.advice_witnesses[c], width)
                   for c in columns)
        out.append(_u32(len(keys)))
        out.append(np.array(keys, dtype=_KEY).tobytes())
        out.append(encode_scalars([proof.advice_evals[k] for k in keys],
                                  width))
        out.append(_u32(len(proof.quotient_witnesses)))
        out.extend(encode_scalars(w, width) for w in proof.quotient_witnesses)
        out.append(encode_scalars(proof.quotient_evals, width))
    except OverflowError as exc:
        raise ProofFormatError("proof holds a value that does not fit a "
                               "%d-byte scalar" % width) from exc
    return b"".join(out)


class _Reader:
    """Bounds-checked cursor over untrusted proof bytes."""

    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos

    def take(self, size: int, what: str) -> int:
        """Claim ``size`` bytes; returns their start offset."""
        start = self.pos
        if size > len(self.data) - start:
            raise ProofFormatError(
                "truncated proof: %s at offset %d needs %d bytes, %d left"
                % (what, start, size, len(self.data) - start),
                offset=start, length=len(self.data))
        self.pos = start + size
        return start

    def u32(self, what: str) -> int:
        start = self.take(4, what)
        return int.from_bytes(self.data[start : start + 4], "little")

    def count(self, what: str, item_bytes: int) -> int:
        """A count prefix, capped and checked against the remaining data
        (``item_bytes`` per item) before anything is allocated for it."""
        n = self.u32("%s count" % what)
        if n > _MAX_ITEMS:
            raise ProofFormatError("implausible %s count %d (max %d)"
                                   % (what, n, _MAX_ITEMS),
                                   offset=self.pos - 4)
        if n * item_bytes > len(self.data) - self.pos:
            raise ProofFormatError("%s count %d exceeds remaining %d bytes"
                                   % (what, n, len(self.data) - self.pos),
                                   offset=self.pos - 4)
        return n

    def scalars(self, count: int, width: int, p: int, what: str):
        start = self.take(count * width, what)
        values = decode_scalars(self.data, start, count, width)
        if not all_canonical(values, p):
            raise ProofFormatError("%s holds a non-canonical scalar (>= p)"
                                   % what, offset=start)
        return values

    def witnesses(self, count: int, n: int, width: int, p: int, what: str):
        """``count`` coefficient vectors of ``n`` scalars each."""
        flat = self.scalars(count * n, width, p, what)
        if width == 8:
            return list(flat.reshape(count, n)) if count else []
        return [flat[i * n : (i + 1) * n] for i in range(count)]


def proof_from_bytes(data: bytes) -> Proof:
    """Inverse of :func:`proof_to_bytes`, for untrusted input.

    Every length prefix is validated against the remaining data before
    anything is allocated, and every canonicity rule of the format is
    enforced, so truncated, padded, non-canonical or hostile inputs raise
    :class:`~repro.resilience.errors.ProofFormatError` (a ``ValueError``
    subclass) rather than producing a garbage proof or an unbounded
    allocation.  Whether the width matches the verifying key's field is
    the verifier's check (:func:`~repro.halo2.verifier.validate_proof_shape`).
    """
    data = bytes(data)
    if data[: len(_MAGIC)] != _MAGIC:
        raise ProofFormatError("not a serialized proof (bad magic)",
                               length=len(data))
    r = _Reader(data, len(_MAGIC))
    width = data[r.take(1, "scalar width")]
    field = field_by_scalar_bytes(width)
    if field is None:
        raise ProofFormatError("unknown scalar width %d" % width,
                               offset=len(_MAGIC))
    p = field.p
    n = r.u32("witness length")

    groups = []
    for group_name in ("advice", "helper", "quotient"):
        count = r.count("%s commitment" % group_name, COMMITMENT_BYTES)
        start = r.take(count * COMMITMENT_BYTES, "commitments")
        groups.append([Commitment(data[i : i + COMMITMENT_BYTES])
                       for i in range(start, r.pos, COMMITMENT_BYTES)])

    m = r.count("opened column", 4 + n * width)
    columns = np.frombuffer(data, dtype=_U32, count=m,
                            offset=r.take(4 * m, "opened columns"))
    if m > 1 and not (columns[1:] > columns[:-1]).all():
        raise ProofFormatError("opened columns are not strictly increasing")
    columns = columns.tolist()
    rows = r.witnesses(m, n, width, p, "advice witnesses")

    e = r.count("advice evaluation", _KEY.itemsize + width)
    keys = np.frombuffer(data, dtype=_KEY, count=e,
                         offset=r.take(e * _KEY.itemsize, "evaluation keys"))
    col, rot = keys["col"], keys["rot"]
    if e > 1 and not ((col[1:] > col[:-1])
                      | ((col[1:] == col[:-1]) & (rot[1:] > rot[:-1]))).all():
        raise ProofFormatError("evaluation keys are not strictly increasing")
    keys = list(zip(col.tolist(), rot.tolist()))
    if set(columns) != {c for c, _ in keys}:
        raise ProofFormatError("opened columns do not match the evaluated "
                               "columns (missing or extra witness)")
    values = r.scalars(e, width, p, "advice evaluations")
    values = values.tolist() if width == 8 else values

    q = r.count("quotient piece", (n + 1) * width)
    pieces = r.witnesses(q, n, width, p, "quotient witnesses")
    q_values = r.scalars(q, width, p, "quotient evaluations")
    q_values = q_values.tolist() if width == 8 else q_values
    if r.pos != len(data):
        raise ProofFormatError("trailing bytes in serialized proof",
                               offset=r.pos, length=len(data))
    return Proof(
        scalar_bytes=width,
        advice_commitments=groups[0],
        helper_commitments=groups[1],
        quotient_commitments=groups[2],
        advice_witnesses=dict(zip(columns, rows)),
        advice_evals=dict(zip(keys, values)),
        quotient_witnesses=pieces,
        quotient_evals=q_values,
    )
