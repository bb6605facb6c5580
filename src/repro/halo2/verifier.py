"""Proof verification.

The verifier replays the Fiat–Shamir transcript to re-derive every
challenge, checks the openings in one batch (each revealed polynomial is
recommitted once and evaluated at all of its points together), evaluates
the folded constraint expression at the challenge point ``x`` (fixed and
selector polynomials straight from the verifying key, instance columns
from the public inputs, advice from the proof's evaluations) and accepts
iff

    sum_i y^i * C_i(x)  ==  Z_H(x) * (q_0(x) + x^n q_1(x) + ...).

A witness violating any gate, copy, or lookup constraint makes the left
side indivisible by the vanishing polynomial, so the identity fails at a
random ``x`` with overwhelming probability.

Two entry points: :func:`verify_proof` is the permissive boolean check,
and :func:`verify_proof_strict` is the hardened front door — it runs
:func:`validate_proof_shape` (every count, digest width, and scalar range
checked against the verifying key, raising
:class:`~repro.resilience.errors.ProofFormatError` on violation) and then
maps *any* rejection or internal crash to a typed
:class:`~repro.resilience.errors.VerificationFailure`.  Untrusted proof
bytes should only ever meet the strict path.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.commit.scheme import CommitmentScheme
from repro.commit.transcript import Transcript
from repro.field.scalars import all_canonical, poly_eval_many
from repro.halo2.column import Column, ColumnType
from repro.halo2.expression import evaluate_from_openings
from repro.halo2.keygen import ALPHA, BETA, GAMMA, THETA, VerifyingKey
from repro.halo2.proof import Proof
from repro.resilience.errors import ProofFormatError, VerificationFailure


def validate_proof_shape(
    vk: VerifyingKey,
    proof: Proof,
    instance: List[List[int]],
) -> None:
    """Validate structural bounds before any cryptographic work.

    Checks commitment counts against the verifying key, digest widths,
    scalar ranges (every field element must lie in ``[0, p)``), opening
    key bounds, and the public-input shape.  Raises
    :class:`ProofFormatError` on the first violation; returns ``None``
    when the proof is structurally plausible.
    """
    cs = vk.cs
    p = vk.field.p
    n = vk.n

    expected = (
        ("advice commitment", proof.advice_commitments, cs.num_advice),
        ("helper commitment", proof.helper_commitments, vk.num_helper_advice),
        ("quotient commitment", proof.quotient_commitments,
         vk.num_quotient_pieces),
    )
    for what, group, want in expected:
        if len(group) != want:
            raise ProofFormatError("expected %d %ss, proof has %d"
                                   % (want, what, len(group)))
        for i, com in enumerate(group):
            digest = getattr(com, "digest", None)
            if not isinstance(digest, bytes) or len(digest) != 32:
                raise ProofFormatError("%s %d has a malformed digest"
                                       % (what, i), index=i)

    if proof.scalar_bytes != vk.field.scalar_bytes:
        raise ProofFormatError("proof encodes %d-byte scalars; the key's "
                               "field %s uses %d"
                               % (proof.scalar_bytes, vk.field.name,
                                  vk.field.scalar_bytes))
    if len(proof.quotient_witnesses) != vk.num_quotient_pieces \
            or len(proof.quotient_evals) != vk.num_quotient_pieces:
        raise ProofFormatError("expected %d quotient openings, proof has %d "
                               "witnesses and %d values"
                               % (vk.num_quotient_pieces,
                                  len(proof.quotient_witnesses),
                                  len(proof.quotient_evals)))

    max_col = cs.num_advice + vk.num_helper_advice
    for col, witness in proof.advice_witnesses.items():
        if not (0 <= col < max_col):
            raise ProofFormatError("advice witness names column %d (circuit "
                                   "has %d)" % (col, max_col), column=col)
        _check_vector("advice witness %d" % col, witness, n, p)
    for col, rot in proof.advice_evals:
        if col not in proof.advice_witnesses:
            raise ProofFormatError("advice evaluation (%d,%d) has no "
                                   "witness" % (col, rot), column=col)
        if not (-n < rot < n):
            raise ProofFormatError("advice opening rotation %d out of range "
                                   "for n=%d" % (rot, n), column=col)
    if not all_canonical(list(proof.advice_evals.values()), p):
        raise ProofFormatError("advice evaluations hold an out-of-field "
                               "value")
    for i, witness in enumerate(proof.quotient_witnesses):
        _check_vector("quotient witness %d" % i, witness, n, p)
    if not all_canonical(proof.quotient_evals, p):
        raise ProofFormatError("quotient evaluations hold an out-of-field "
                               "value")

    if len(instance) != cs.num_instance:
        raise ProofFormatError("expected %d instance columns, got %d"
                               % (cs.num_instance, len(instance)))
    for i, col_values in enumerate(instance):
        if len(col_values) != n:
            raise ProofFormatError("instance column %d has %d rows, circuit "
                                   "has %d" % (i, len(col_values), n), column=i)
        if not all_canonical(col_values, p):
            raise ProofFormatError("instance column %d holds an "
                                   "out-of-field value" % i, column=i)


def _check_vector(what: str, values, n: int, p: int) -> None:
    """A coefficient vector: ``n`` canonical scalars."""
    if len(values) != n:
        raise ProofFormatError("%s has %d coefficients, circuit has %d"
                               % (what, len(values), n))
    if not all_canonical(values, p):
        raise ProofFormatError("%s has an out-of-field scalar" % what)


def verify_proof_strict(
    vk: VerifyingKey,
    proof: Proof,
    instance: List[List[int]],
    scheme: CommitmentScheme,
) -> None:
    """Verify or raise — the hardened entry point for untrusted proofs.

    Raises :class:`ProofFormatError` for structural violations and
    :class:`VerificationFailure` for everything else: a clean rejection,
    or *any* internal exception the permissive path would have leaked
    (hostile bytes must never produce a raw traceback).  Returns ``None``
    on success.
    """
    validate_proof_shape(vk, proof, instance)
    try:
        ok = verify_proof(vk, proof, instance, scheme)
    except (ProofFormatError, VerificationFailure):
        raise
    except Exception as exc:  # noqa: BLE001 — hostile bytes must never leak a raw traceback
        raise VerificationFailure(
            "verifier crashed on a shape-valid proof",
            cause=type(exc).__name__, detail=str(exc)[:200],
        ) from exc
    if not ok:
        raise VerificationFailure("proof rejected")


def replay_transcript(vk: VerifyingKey, proof: Proof,
                      instance: List[List[int]]):
    """Re-derive the prover's Fiat–Shamir challenges from the proof's
    commitments: ``({theta, beta, gamma, alpha}, y, x)``."""
    transcript = Transcript(vk.field)
    transcript.append_message(b"vk", vk.digest())
    for col_values in instance:
        transcript.append_scalar_vector(b"instance", col_values)
    for com in proof.advice_commitments:
        transcript.append_commitment(b"advice", com.digest)
    challenges = {
        THETA: transcript.challenge_scalar(b"theta"),
        BETA: transcript.challenge_scalar(b"beta"),
        GAMMA: transcript.challenge_scalar(b"gamma"),
        ALPHA: transcript.challenge_scalar(b"alpha"),
    }
    for com in proof.helper_commitments:
        transcript.append_commitment(b"helper", com.digest)
    y = transcript.challenge_scalar(b"y")
    for com in proof.quotient_commitments:
        transcript.append_commitment(b"quotient", com.digest)
    return challenges, y, transcript.challenge_nonzero(b"x")


def verify_proof(
    vk: VerifyingKey,
    proof: Proof,
    instance: List[List[int]],
    scheme: CommitmentScheme,
) -> bool:
    """Check a proof against public inputs; True iff it verifies."""
    field = vk.field
    domain = vk.domain
    n = vk.n
    cs = vk.cs

    if len(instance) != cs.num_instance:
        return False
    if len(proof.advice_commitments) != cs.num_advice:
        return False
    if len(proof.helper_commitments) != vk.num_helper_advice:
        return False
    if len(proof.quotient_commitments) != vk.num_quotient_pieces:
        return False
    if len(proof.quotient_evals) != vk.num_quotient_pieces:
        return False

    if any(len(col_values) != n for col_values in instance):
        return False
    challenges, y, x = replay_transcript(vk, proof, instance)

    # ---- check the openings: every polynomial once, all points in batch ----
    expected_queries = {(col.index, rot) for col, rot in vk.advice_queries}
    if expected_queries != set(proof.advice_evals):
        return False
    columns = sorted(proof.advice_witnesses)
    if set(columns) != {col for col, _ in expected_queries}:
        return False
    if len(proof.quotient_witnesses) != len(proof.quotient_evals):
        return False
    row_of = {col: i for i, col in enumerate(columns)}
    keys = sorted(proof.advice_evals)
    commitments = [
        proof.advice_commitments[col] if col < cs.num_advice
        else proof.helper_commitments[col - cs.num_advice]
        for col in columns
    ] + list(proof.quotient_commitments)
    polys = [proof.advice_witnesses[col] for col in columns]
    polys += proof.quotient_witnesses
    queries = [(row_of[col], domain.rotate(x, rot)) for col, rot in keys]
    queries += [(len(columns) + i, x)
                for i in range(len(proof.quotient_witnesses))]
    values = [proof.advice_evals[key] for key in keys]
    values += proof.quotient_evals
    if not scheme.verify_openings(commitments, polys, queries, values):
        return False

    # ---- evaluate the folded constraint at x -----------------------------------
    instance_polys = [domain.lagrange_to_coeff(col) for col in instance]

    openings: Dict[Tuple[Column, int], int] = {}
    refs = {
        (col, rot) for _, expr in vk.constraints for col, rot in expr.refs()
    }
    polys, queries, pending = [], [], []
    for col, rot in refs:
        if col.kind == ColumnType.ADVICE:
            openings[(col, rot)] = proof.advice_evals[(col.index, rot)]
            continue
        if col.kind == ColumnType.INSTANCE:
            polys.append(instance_polys[col.index])
        else:
            polys.append(vk.fixed_polys[col])
        queries.append((len(polys) - 1, domain.rotate(x, rot)))
        pending.append((col, rot))
    # fixed, selector and instance evaluations, all in one batch
    openings.update(zip(pending, poly_eval_many(field, polys, queries)))

    folded = 0
    for _, expr in vk.constraints:
        value = evaluate_from_openings(expr, field, openings, challenges)
        folded = field.add(field.mul(folded, y), value)

    x_n = field.pow(x, n)
    q_at_x = 0
    for value in reversed(proof.quotient_evals):
        q_at_x = field.add(field.mul(q_at_x, x_n), value)

    return folded == field.mul(domain.vanishing_eval(x), q_at_x)
