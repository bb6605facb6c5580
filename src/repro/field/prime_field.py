"""Prime-field arithmetic.

Field elements are plain Python ints reduced mod ``p``.  A
:class:`PrimeField` carries the modulus together with the data the NTT and
the proving system need: a multiplicative generator, the field's
two-adicity, and the corresponding ``2^two_adicity``-th root of unity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Sequence


@lru_cache(maxsize=4096)
def _cached_inv(p: int, a: int) -> int:
    return pow(a, p - 2, p)


@dataclass(frozen=True)
class PrimeField:
    """A prime field F_p with NTT support.

    Attributes:
        name: Human-readable field name.
        p: The prime modulus.
        generator: A multiplicative generator of F_p*.
        two_adicity: Largest ``s`` with ``2^s | p - 1``.
    """

    name: str
    p: int
    generator: int
    two_adicity: int
    _root_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.p < 3:
            raise ValueError("modulus must be an odd prime")
        if (self.p - 1) % (1 << self.two_adicity):
            raise ValueError("two_adicity does not divide p - 1")

    @property
    def scalar_bytes(self) -> int:
        """Wire width of one canonical scalar: the modulus's byte length
        (8 for Goldilocks, 32 for BN254)."""
        return (self.p.bit_length() + 7) // 8

    # -- scalar operations -------------------------------------------------

    def reduce(self, a: int) -> int:
        """Reduce an arbitrary int into ``[0, p)``."""
        return a % self.p

    def add(self, a: int, b: int) -> int:
        s = a + b
        return s - self.p if s >= self.p else s

    def sub(self, a: int, b: int) -> int:
        d = a - b
        return d + self.p if d < 0 else d

    def neg(self, a: int) -> int:
        return self.p - a if a else 0

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def square(self, a: int) -> int:
        return a * a % self.p

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.p)

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError on zero.

        Backed by a small LRU: the prover inverts the same handful of
        constants (``n``, roots of unity, coset shifts) over and over.
        """
        if a == 0:
            raise ZeroDivisionError("inverse of zero in %s" % self.name)
        return _cached_inv(self.p, a)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # -- vector operations -------------------------------------------------

    def batch_inv(self, values: Sequence[int]) -> List[int]:
        """Invert many nonzero elements with a single field inversion.

        Montgomery's trick: prefix products, one inversion, then unwind.
        """
        n = len(values)
        if n == 0:
            return []
        prefix = [0] * n
        acc = 1
        for i, v in enumerate(values):
            if v == 0:
                raise ZeroDivisionError("batch_inv of zero at index %d" % i)
            prefix[i] = acc
            acc = acc * v % self.p
        inv_acc = self.inv(acc)
        out = [0] * n
        for i in range(n - 1, -1, -1):
            out[i] = inv_acc * prefix[i] % self.p
            inv_acc = inv_acc * values[i] % self.p
        return out

    # -- roots of unity ----------------------------------------------------

    def root_of_unity(self, k: int) -> int:
        """A primitive ``2^k``-th root of unity."""
        if k > self.two_adicity:
            raise ValueError(
                "field %s has two-adicity %d < %d" % (self.name, self.two_adicity, k)
            )
        cached = self._root_cache.get(k)
        if cached is not None:
            return cached
        exponent = (self.p - 1) >> k
        root = pow(self.generator, exponent, self.p)
        self._root_cache[k] = root
        return root

    # -- encoding of signed fixed-point values ------------------------------

    def encode_signed(self, v: int) -> int:
        """Map a signed integer to the field (negatives wrap to ``p - |v|``)."""
        return v % self.p

    def decode_signed(self, a: int) -> int:
        """Map a field element back to a signed integer, centered at zero."""
        return a - self.p if a > self.p // 2 else a


GOLDILOCKS = PrimeField(
    name="goldilocks",
    p=(1 << 64) - (1 << 32) + 1,
    generator=7,
    two_adicity=32,
)

BN254_FR = PrimeField(
    name="bn254-fr",
    p=21888242871839275222246405745257275088548364400416034343698204186575808495617,
    generator=5,
    two_adicity=28,
)

_FIELDS = {f.name: f for f in (GOLDILOCKS, BN254_FR)}
_FIELDS_BY_WIDTH = {f.scalar_bytes: f for f in _FIELDS.values()}


def field_by_name(name: str) -> PrimeField:
    """Look up a predefined field by name ('goldilocks' or 'bn254-fr')."""
    try:
        return _FIELDS[name]
    except KeyError:
        raise KeyError(
            "unknown field %r; available: %s" % (name, sorted(_FIELDS))
        ) from None


def field_by_scalar_bytes(width: int) -> Optional[PrimeField]:
    """The predefined field whose scalars are ``width`` bytes wide, or
    ``None`` — how a decoder maps a wire width byte to its modulus."""
    return _FIELDS_BY_WIDTH.get(width)
