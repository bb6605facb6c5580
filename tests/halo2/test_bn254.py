"""End-to-end proving over the BN254 scalar field (the paper's field).

Goldilocks is the default for speed; this checks the whole stack is
field-generic by proving and verifying over BN254-Fr, including a gadget
circuit with lookups.
"""

import pytest

from repro.commit import scheme_by_name
from repro.field import BN254_FR
from repro.gadgets import AddGadget, CircuitBuilder, MulGadget, PointwiseGadget
from repro.halo2 import (
    Assignment,
    ConstraintSystem,
    Ref,
    create_proof,
    keygen,
    proof_from_bytes,
    proof_to_bytes,
    verify_proof,
)
from repro.halo2.verifier import verify_proof_strict
from repro.tensor import Entry


@pytest.mark.parametrize("backend", ["kzg", "ipa"])
def test_plain_circuit_over_bn254(backend):
    cs = ConstraintSystem(BN254_FR)
    a, b, c = cs.advice_column(), cs.advice_column(), cs.advice_column()
    sel = cs.selector()
    cs.enable_equality(a)
    cs.enable_equality(c)
    cs.create_gate("mul", [Ref(a) * Ref(b) - Ref(c)], selector=sel)
    asg = Assignment(cs, 3)
    asg.assign_advice(a, 0, 6)
    asg.assign_advice(b, 0, 7)
    asg.assign_advice(c, 0, 42)
    asg.enable_selector(sel, 0)
    asg.assign_advice(a, 1, 42)
    asg.copy(c, 0, a, 1)

    scheme = scheme_by_name(backend, BN254_FR)
    pk, vk = keygen(cs, asg, scheme)
    proof = create_proof(pk, asg, scheme)
    assert verify_proof(vk, proof, asg.instance_values(), scheme)

    # the wire format carries 32-byte scalars and round-trips exactly
    data = proof_to_bytes(proof)
    again = proof_from_bytes(data)
    assert again.scalar_bytes == 32 and proof_to_bytes(again) == data
    verify_proof_strict(vk, again, asg.instance_values(), scheme)

    # and a violated gate is rejected
    asg.assign_advice(c, 0, 43)
    asg.assign_advice(a, 1, 43)
    pk2, vk2 = keygen(cs, asg, scheme)
    bad = create_proof(pk2, asg, scheme)
    assert not verify_proof(vk2, bad, asg.instance_values(), scheme)


def test_gadget_circuit_with_lookups_over_bn254():
    b = CircuitBuilder(k=7, num_cols=8, scale_bits=4, lookup_bits=6,
                       field=BN254_FR)
    add = b.gadget(AddGadget)
    mul = b.gadget(MulGadget)
    relu = b.gadget(PointwiseGadget, fn_name="relu")
    (s,) = add.assign_row([(Entry(b.fp.encode(0.5)), Entry(b.fp.encode(-1.0)))])
    (m,) = mul.assign_row([(s, Entry(b.fp.encode(2.0)))])
    (r,) = relu.assign_row([(m,)])
    assert r.value == 0  # relu(-1.0) at any scale
    b.mock_check()

    scheme = scheme_by_name("kzg", BN254_FR)
    pk, vk = keygen(b.cs, b.asg, scheme)
    proof = create_proof(pk, b.asg, scheme)
    assert verify_proof(vk, proof, b.asg.instance_values(), scheme)


def test_field_encoding_differs_but_semantics_agree():
    from repro.field import GOLDILOCKS

    for field in (GOLDILOCKS, BN254_FR):
        assert field.decode_signed(field.encode_signed(-123)) == -123
    assert BN254_FR.encode_signed(-1) != GOLDILOCKS.encode_signed(-1)
