"""The vectorized key digests equal their per-scalar loop references.

``VerifyingKey.digest`` and the pk-cache entry checksum hash every fixed
column through :func:`repro.field.scalars.hash_bytes`.  The bytes must
stay those of the original ``to_bytes(32)`` loop on both fields, or every
published verifying key and cached entry would change identity.
"""

import hashlib

import pytest

from repro.commit import scheme_by_name
from repro.field import BN254_FR, GOLDILOCKS
from repro.field.scalars import hash_bytes
from repro.halo2 import Assignment, ConstraintSystem, Ref, keygen
from repro.perf.pkcache import _entry_checksum


def _loop_vk_digest(vk) -> bytes:
    h = hashlib.blake2b(digest_size=32)
    h.update(b"vk:%d:%d:%s" % (vk.k, vk.max_degree, vk.scheme_name.encode()))
    for col in sorted(vk.fixed_polys, key=lambda c: (c.kind.value, c.index)):
        h.update(repr(col).encode())
        for c in vk.fixed_polys[col]:
            h.update(c.to_bytes(32, "little"))
    return h.digest()


def _loop_entry_checksum(pk, vk) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(vk.digest())
    for col in sorted(pk.fixed_evals, key=lambda c: (c.kind.value, c.index)):
        values = pk.fixed_evals[col]
        h.update(repr(col).encode())
        h.update(len(values).to_bytes(8, "little"))
        for v in values:
            h.update(int(v).to_bytes(32, "little"))
    return h.hexdigest()


def _lookup_circuit(field):
    """A gate, a copy and a range lookup over ``field``."""
    cs = ConstraintSystem(field)
    a, b, c = cs.advice_column(), cs.advice_column(), cs.advice_column()
    table = cs.fixed_column()
    sel = cs.selector()
    cs.enable_equality(a)
    cs.enable_equality(c)
    cs.create_gate("mul", [Ref(a) * Ref(b) - Ref(c)], selector=sel)
    cs.add_lookup("range", inputs=[Ref(a)], table=[Ref(table)])
    asg = Assignment(cs, 4)
    for row in range(asg.n):
        asg.assign_fixed(table, row, row)
    asg.assign_advice(a, 0, 6)
    asg.assign_advice(b, 0, 7)
    asg.assign_advice(c, 0, 42)
    asg.enable_selector(sel, 0)
    asg.assign_advice(a, 1, 6)
    asg.copy(a, 0, a, 1)
    return keygen(cs, asg, scheme_by_name("kzg", field))


@pytest.mark.parametrize("field", [GOLDILOCKS, BN254_FR], ids=lambda f: f.name)
def test_digests_match_the_loop_reference(field):
    pk, vk = _lookup_circuit(field)
    assert vk.digest() == _loop_vk_digest(vk)
    assert _entry_checksum(pk, vk) == _loop_entry_checksum(pk, vk)


@pytest.mark.parametrize("field", [GOLDILOCKS, BN254_FR], ids=lambda f: f.name)
def test_hash_bytes_matches_the_loop(field):
    values = [0, 1, field.p - 1, 2**63 % field.p, 12345]
    assert hash_bytes(values, field) \
        == b"".join(v.to_bytes(32, "little") for v in values)
