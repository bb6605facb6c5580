"""Tests for the KZG-sim and IPA-sim commitment backends."""

import random

import pytest

from repro.commit import IPAScheme, KZGScheme, KZGSetup, scheme_by_name
from repro.commit.scheme import Commitment
from repro.field import GOLDILOCKS

F = GOLDILOCKS


@pytest.fixture(params=["kzg", "ipa"])
def scheme(request):
    return scheme_by_name(request.param, F)


class TestCommitOpenVerify:
    def test_honest_opening_verifies(self, scheme):
        coeffs = [random.randrange(F.p) for _ in range(16)]
        com = scheme.commit(coeffs)
        queries = [(0, 12345), (0, 7)]
        values = scheme.open_many([coeffs], queries)
        assert scheme.verify_openings([com], [coeffs], queries, values)

    def test_wrong_value_rejected(self, scheme):
        coeffs = [random.randrange(F.p) for _ in range(16)]
        com = scheme.commit(coeffs)
        queries = [(0, 12345)]
        values = scheme.open_many([coeffs], queries)
        bad = [F.add(values[0], 1)]
        assert not scheme.verify_openings([com], [coeffs], queries, bad)

    def test_wrong_polynomial_rejected(self, scheme):
        coeffs = [random.randrange(F.p) for _ in range(16)]
        other = list(coeffs)
        other[3] = F.add(other[3], 1)
        com = scheme.commit(coeffs)
        queries = [(0, 7)]
        values = scheme.open_many([other], queries)
        assert not scheme.verify_openings([com], [other], queries, values)

    def test_commitment_is_deterministic(self, scheme):
        coeffs = [1, 2, 3]
        assert scheme.commit(coeffs).digest == scheme.commit(coeffs).digest

    def test_backends_domain_separated(self):
        coeffs = [1, 2, 3]
        assert (KZGScheme(F).commit(coeffs).digest
                != IPAScheme(F).commit(coeffs).digest)


class TestKZGSetupBound:
    def test_within_bound_ok(self):
        scheme = KZGScheme(F, KZGSetup(max_k=4))
        scheme.commit([0] * 16)

    def test_exceeding_bound_raises(self):
        scheme = KZGScheme(F, KZGSetup(max_k=4))
        with pytest.raises(ValueError):
            scheme.commit([0] * 17)

    def test_ipa_has_no_bound(self):
        IPAScheme(F).commit([0] * 1024)


class TestModeledEnvelope:
    def test_msm_counts_match_paper(self):
        # KZG: n_FFT + d_max - 1; IPA: n_FFT + d_max  (section 7.4)
        assert KZGScheme(F).extra_msms(3) == 2
        assert IPAScheme(F).extra_msms(3) == 3

    def test_ipa_openings_grow_with_k(self):
        ipa = IPAScheme(F)
        assert ipa.opening_proof_bytes(20) > ipa.opening_proof_bytes(10)

    def test_kzg_openings_constant(self):
        kzg = KZGScheme(F)
        assert kzg.opening_proof_bytes(20) == kzg.opening_proof_bytes(10)

    def test_verifier_work_kzg_constant_ipa_linear(self):
        kzg, ipa = KZGScheme(F), IPAScheme(F)
        assert kzg.verifier_group_ops(20) == kzg.verifier_group_ops(10)
        assert ipa.verifier_group_ops(20) == 1024 * ipa.verifier_group_ops(10)


def test_unknown_scheme_raises():
    with pytest.raises(KeyError):
        scheme_by_name("groth16", F)


def test_commitment_digest_must_be_32_bytes():
    with pytest.raises(ValueError):
        Commitment(b"short")
