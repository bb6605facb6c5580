"""Byte encodings of field-element vectors, and batched evaluation.

Two encodings exist, for two different jobs:

- **Wire scalars** (:func:`encode_scalars` / :func:`decode_scalars`):
  ``field.scalar_bytes`` little-endian bytes per element — 8 on
  Goldilocks, 32 on BN254.  The proof and envelope formats use them.
- **Hash input** (:func:`hash_bytes`): a fixed 32-byte little-endian slot
  per element.  Commitment digests, the verifying-key digest and the
  pk-cache checksum hash this, so none of them depends on the wire width.

Goldilocks vectors run through numpy (one ``uint64`` buffer per vector);
every other field takes the per-element loop, which is also the
reference the numpy path is tested against.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.field import gl64
from repro.field.prime_field import PrimeField

_LE64 = np.dtype("<u8")


def encode_scalars(values, width: int) -> bytes:
    """``width``-byte little-endian encodings of ``values``, concatenated.

    Raises ``OverflowError`` when a value is negative or does not fit in
    ``width`` bytes.
    """
    if width == 8:
        return np.asarray(values, dtype=_LE64).tobytes()
    return b"".join(int(v).to_bytes(width, "little") for v in values)


def decode_scalars(data: bytes, offset: int, count: int, width: int):
    """The ``count`` scalars of ``width`` bytes at ``data[offset:]``.

    Returns a writable ``uint64`` array for 8-byte scalars (Goldilocks)
    and a list of ints otherwise.  The caller checks that the bytes are
    there; canonicity (``< p``) is checked by :func:`all_canonical`.
    """
    if width == 8:
        return np.frombuffer(data, dtype=_LE64, count=count,
                             offset=offset).astype(np.uint64)
    return [int.from_bytes(data[i : i + width], "little")
            for i in range(offset, offset + count * width, width)]


def all_canonical(values, p: int) -> bool:
    """True iff every value lies in ``[0, p)``."""
    if isinstance(values, np.ndarray):
        return not values.size or int(values.max()) < p
    return all(0 <= int(v) < p for v in values)


def hash_bytes(values, field: PrimeField) -> bytes:
    """32-byte little-endian slot per element: the hash input of every
    digest over field vectors.  Identical to
    ``b"".join(int(v).to_bytes(32, "little") for v in values)``."""
    if gl64.is_goldilocks(field.p):
        return gl64.serialize_scalars(gl64.from_ints(values))
    return b"".join(int(v).to_bytes(32, "little") for v in values)


def poly_eval_many(field: PrimeField, polys: Sequence, queries
                   ) -> List[int]:
    """Evaluate ``polys[i]`` at ``point`` for every ``(i, point)`` query.

    On Goldilocks all queries run through one
    :func:`~repro.field.gl64.poly_eval_rows` call over the stacked
    (zero-padded) coefficient matrix; otherwise each is a Horner loop.
    Values are field-exact either way.
    """
    if not queries:
        return []
    if gl64.is_goldilocks(field.p):
        width = max(len(poly) for poly in polys) or 1
        mat = np.zeros((len(polys), width), dtype=np.uint64)
        for i, poly in enumerate(polys):
            mat[i, : len(poly)] = poly
        rows = np.array([i for i, _ in queries], dtype=np.int64)
        points = np.array([point for _, point in queries], dtype=np.uint64)
        return gl64.poly_eval_rows(mat[rows], points).tolist()
    from repro.field.poly import poly_eval

    return [poly_eval(field, polys[i], point) for i, point in queries]
