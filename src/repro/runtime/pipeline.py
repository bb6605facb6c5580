"""The user-facing prove/verify pipeline (paper §8's two stages).

``prove_model`` synthesizes the circuit from a materialized model spec,
exposes the model outputs as public inputs, runs keygen and the prover,
and measures wall-clock times; ``verify_model_proof`` replays the
verifier.  Proof artifacts pickle cleanly for the CLI's file workflow.

Observability: every stage runs under a span on the active
:mod:`repro.obs` tracer (``prove_model -> synthesize -> layout/witness``,
``keygen``, ``prove -> commit/helpers/quotient/openings``, ``verify``),
and the run's operation counts (NTTs, commitments, hashes) are captured
as a delta over :data:`repro.obs.stats.STATS` together with the cost
model's *predicted* counts — the raw material for the
predicted-vs-actual report.  Passing a
:class:`~repro.obs.metrics.MetricsRegistry` additionally records circuit
shape statistics and per-phase timings.

Resilience: the synthesize/keygen/prove stages run under a
:class:`~repro.resilience.supervisor.Supervisor` — transient faults are
retried with backoff, a failed Freivalds challenge degrades the layout
plan to direct matmul (counted, never silent), and with
``checkpoint_dir`` each completed stage is persisted so an interrupted
run resumes from the last stage with **byte-identical** proof output.
``verify_model_proof`` is strict by default: malformed proofs raise
:class:`~repro.resilience.errors.ProofFormatError` and rejections raise
:class:`~repro.resilience.errors.VerificationFailure` instead of
returning ``False``.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional

import numpy as np

from repro.commit import scheme_by_name
from repro.envelope import (
    DEFAULT_CAPS,
    EnvelopeCaps,
    ProofEnvelope,
    decode_envelope,
    envelope_config_digest,
    is_envelope,
    verify_envelope,
)
from repro.compiler import SynthesizedModel, synthesize_model
from repro.compiler.logical import LayoutPlan
from repro.field import GOLDILOCKS, PrimeField
from repro.halo2 import Proof, VerifyingKey, create_proof, keygen, verify_proof
from repro.halo2.verifier import verify_proof_strict
from repro.layers.base import LayoutChoices
from repro.model.spec import ModelSpec
from repro.obs import metrics as obs_metrics
from repro.obs.stats import STATS
from repro.obs.trace import get_tracer
from repro.perf.pkcache import GLOBAL_PK_CACHE
from repro.perf.timer import PhaseTimer
from repro.resilience import events
from repro.resilience.checkpoint import CheckpointStore, proving_config_digest
from repro.resilience.errors import (
    FreivaldsCheckError,
    ProvingError,
    region_at,
)
from repro.resilience.supervisor import Supervisor


@dataclass
class ProveResult:
    """Everything a proving run produces."""

    spec_name: str
    scheme_name: str
    proof: Proof
    vk: VerifyingKey
    instance: List[List[int]]
    outputs: Dict[str, np.ndarray]
    num_cols: int
    k: int
    scale_bits: int
    keygen_seconds: float
    proving_seconds: float
    modeled_proof_bytes: int
    #: Wall-clock seconds per prover phase (commit/helpers/quotient/openings).
    phase_seconds: Dict[str, float] = dataclass_field(default_factory=dict)
    #: Peak process RSS in KB sampled at the end of each prover phase
    #: (monotone; empty off-POSIX).  ``zkml bench --mem`` reports it.
    phase_rss_kb: Dict[str, int] = dataclass_field(default_factory=dict)
    #: Whether keygen was skipped via the proving-key cache.
    pk_cache_hit: bool = False
    #: Operation counts observed during proving (NTTs, commitments, ...).
    observed_counts: Dict[str, int] = dataclass_field(default_factory=dict)
    #: The cost model's predicted counts for the same layout (Eqs. 1-2).
    predicted_counts: Dict[str, float] = dataclass_field(default_factory=dict)
    #: The synthesized circuit (regions, assignment), kept only when the
    #: caller passed ``keep_synthesized=True`` — the layer profiler needs
    #: it; everyone else gets ``None`` so results stay lightweight.
    synthesized: Optional[SynthesizedModel] = None
    #: Lookup-table bit width the circuit was built with (part of the
    #: envelope's config digest).
    lookup_bits: Optional[int] = None
    #: ``proof_to_bytes(proof)``, filled by the first :meth:`envelope`.
    _proof_bytes: Optional[bytes] = dataclass_field(
        default=None, repr=False, compare=False)

    def envelope(self) -> ProofEnvelope:
        """Package this result as a v2 proof envelope (the consumer-facing
        format — see :mod:`repro.envelope`)."""
        return _envelope(self)

    def envelope_bytes(self) -> bytes:
        """The canonical serialized envelope (what ``zkml prove`` emits)."""
        return self.envelope().encode()

    def verification_seconds(self, field: PrimeField = GOLDILOCKS) -> float:
        scheme = scheme_by_name(self.scheme_name, field)
        tracer = get_tracer()
        start = time.perf_counter()
        with tracer.span("verify", model=self.spec_name,
                         scheme=self.scheme_name):
            ok = verify_proof(self.vk, self.proof, self.instance, scheme)
        elapsed = time.perf_counter() - start
        if not ok:
            raise AssertionError("freshly created proof failed to verify")
        return elapsed

    def predicted_vs_actual(self) -> List[Dict[str, object]]:
        """Cost-model counts vs the counts this run actually performed."""
        return obs_metrics.predicted_vs_actual(self.predicted_counts,
                                               self.observed_counts)


def _envelope(result) -> ProofEnvelope:
    """A proving result's envelope; the proof is serialized once per
    result and reused by every later call."""
    if result._proof_bytes is None:
        from repro.halo2.proof import proof_to_bytes

        result._proof_bytes = proof_to_bytes(result.proof)
    return ProofEnvelope(
        scheme_name=result.scheme_name,
        model=result.spec_name,
        vk_hash=result.vk.digest(),
        config_digest=envelope_config_digest(
            result.num_cols, result.scale_bits, result.k,
            result.lookup_bits),
        instance=result.instance,
        proof_bytes=result._proof_bytes,
        scalar_bytes=result.vk.field.scalar_bytes,
    )


def _normalize_plan(plan) -> LayoutPlan:
    if plan is None:
        return LayoutPlan(LayoutChoices())
    if isinstance(plan, LayoutChoices):
        return LayoutPlan(plan)
    return plan


def _plan_without_freivalds(plan: LayoutPlan) -> LayoutPlan:
    """The same plan with every Freivalds matmul replaced by direct."""

    def fix(choices: LayoutChoices) -> LayoutChoices:
        if choices.linear == "freivalds":
            return choices.replace(linear="dot_bias")
        return choices

    return LayoutPlan(fix(plan.base),
                      tuple((name, fix(c)) for name, c in plan.overrides))


def prove_model(
    spec: ModelSpec,
    inputs: Dict[str, np.ndarray],
    scheme_name: str = "kzg",
    plan=None,
    num_cols: int = 10,
    scale_bits: int = 5,
    lookup_bits: Optional[int] = None,
    k: Optional[int] = None,
    field: PrimeField = GOLDILOCKS,
    jobs: Optional[int] = None,
    use_pk_cache: bool = True,
    tracer=None,
    metrics=None,
    supervisor: Optional[Supervisor] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    keep_synthesized: bool = False,
) -> ProveResult:
    """Synthesize, keygen, and prove one inference of a model.

    ``jobs`` fans independent prover work over worker processes (see
    ``repro.perf``); with ``use_pk_cache`` repeated proves of the same
    circuit skip keygen via the global proving-key cache.  ``tracer``
    overrides the process tracer for this run; ``metrics`` is an optional
    :class:`~repro.obs.metrics.MetricsRegistry` that receives circuit
    statistics and prover operation counts.

    Every stage runs under ``supervisor`` (a default
    :class:`~repro.resilience.supervisor.Supervisor` if not given):
    transient faults retry with backoff, and a
    :class:`~repro.resilience.errors.FreivaldsCheckError` degrades the
    layout plan to direct matmul and re-synthesizes.  With
    ``checkpoint_dir``, each completed stage is persisted there;
    ``resume=True`` replays completed stages from disk (the checkpoint is
    bound to the full proving configuration, and a resumed run's proof is
    byte-identical to an uninterrupted one).
    """
    tracer = tracer if tracer is not None else get_tracer()
    sup = supervisor if supervisor is not None else Supervisor(tracer=tracer)
    plan_state = {"plan": _normalize_plan(plan)}

    store = None
    if checkpoint_dir is not None:
        store = CheckpointStore(
            checkpoint_dir,
            proving_config_digest(spec, inputs, scheme_name, num_cols,
                                  scale_bits, lookup_bits, k),
            resume=resume,
        )

    def _freivalds_fallback(exc: FreivaldsCheckError) -> None:
        plan_state["plan"] = _plan_without_freivalds(plan_state["plan"])
        events.degraded("freivalds_direct_matmul", layer=exc.layer,
                        model=spec.name)

    with tracer.span("prove_model", model=spec.name, scheme=scheme_name):
        def _synthesize() -> SynthesizedModel:
            with tracer.span("synthesize", model=spec.name):
                result = synthesize_model(
                    spec, inputs, plan=plan_state["plan"], num_cols=num_cols,
                    scale_bits=scale_bits, lookup_bits=lookup_bits, k=k,
                    tracer=tracer,
                )
                for name in spec.outputs:
                    result.builder.expose(result.outputs[name].entries())
                return result

        result, _ = sup.stage(
            store, "synthesize", _synthesize,
            recover={FreivaldsCheckError: _freivalds_fallback},
        )

        scheme = scheme_by_name(scheme_name, field)
        start = time.perf_counter()

        def _keygen():
            with tracer.span("keygen", model=spec.name, k=result.builder.k,
                             num_cols=num_cols, scheme=scheme_name) as sp:
                if use_pk_cache:
                    pk, vk, hit = GLOBAL_PK_CACHE.get_or_create(
                        result.builder.cs, result.builder.asg, scheme
                    )
                else:
                    pk, vk = keygen(result.builder.cs, result.builder.asg,
                                    scheme)
                    hit = False
                sp.set_attr("pk_cache_hit", hit)
                return pk, vk, hit

        (pk, vk, pk_cache_hit), _ = sup.stage(store, "keygen", _keygen)
        keygen_seconds = time.perf_counter() - start

        start = time.perf_counter()

        def _prove():
            timer = PhaseTimer(tracer)
            counts_before = STATS.snapshot()
            try:
                with tracer.span("prove", model=spec.name,
                                 k=result.builder.k, jobs=jobs or 1):
                    proof = create_proof(pk, result.builder.asg, scheme,
                                         jobs=jobs, timer=timer)
            except ProvingError as exc:
                row = exc.context.get("row")
                if row is not None and exc.region is None:
                    region = region_at(result.builder.regions, row)
                    if region is not None:
                        exc.with_context(
                            layer=region.name,
                            region="%s[%d:%d]" % (region.name, region.start,
                                                  region.end),
                        )
                raise
            return {"proof": proof, "phase_seconds": dict(timer.seconds),
                    "phase_rss_kb": dict(timer.rss_kb),
                    "observed": STATS.delta(counts_before)}

        prove_payload, _ = sup.stage(store, "prove", _prove)
        proof = prove_payload["proof"]
        phase_seconds = prove_payload["phase_seconds"]
        phase_rss_kb = prove_payload.get("phase_rss_kb", {})
        observed = prove_payload["observed"]
        proving_seconds = time.perf_counter() - start
        predicted = obs_metrics.predicted_counts(result.layout, scheme_name)

        if metrics is not None:
            obs_metrics.record_circuit_stats(metrics, result,
                                             model=spec.name)
            obs_metrics.record_prover_run(metrics, spec.name, observed,
                                          predicted,
                                          phase_seconds=phase_seconds)
            metrics.gauge("zkml_keygen_seconds", "keygen wall-clock",
                          model=spec.name).set(round(keygen_seconds, 6))
            metrics.gauge("zkml_prove_seconds", "prover wall-clock",
                          model=spec.name).set(round(proving_seconds, 6))
            metrics.gauge("zkml_pk_cache_hit", "1 if keygen was skipped",
                          model=spec.name).set(int(pk_cache_hit))

    return ProveResult(
        spec_name=spec.name,
        scheme_name=scheme_name,
        proof=proof,
        vk=vk,
        instance=result.builder.asg.instance_values(),
        outputs=result.output_values(),
        num_cols=num_cols,
        k=result.builder.k,
        scale_bits=scale_bits,
        keygen_seconds=keygen_seconds,
        proving_seconds=proving_seconds,
        modeled_proof_bytes=proof.modeled_size_bytes(scheme, result.builder.k),
        phase_seconds=dict(phase_seconds),
        phase_rss_kb=dict(phase_rss_kb),
        pk_cache_hit=pk_cache_hit,
        observed_counts=observed,
        predicted_counts=predicted,
        synthesized=result if keep_synthesized else None,
        lookup_bits=lookup_bits,
    )


def verify_model_proof(
    vk: VerifyingKey,
    proof,
    instance: Optional[List[List[int]]] = None,
    scheme_name: str = "kzg",
    field: PrimeField = GOLDILOCKS,
    strict: bool = True,
    caps: EnvelopeCaps = DEFAULT_CAPS,
) -> bool:
    """Verify a model proof against its public inputs.

    ``proof`` may be a :class:`~repro.halo2.Proof` object, a
    :class:`~repro.envelope.ProofEnvelope`, or raw bytes.  Envelope
    bytes (the v1 format every prove surface now emits) are decoded
    under ``caps`` and verified against their embedded public inputs —
    ``instance`` and ``scheme_name`` are taken from the envelope.
    Loose serialized proof bytes (the pre-envelope wire format) still
    verify but emit a :class:`DeprecationWarning`; wrap proofs in
    envelopes instead.

    Strict by default: a structurally invalid proof raises
    :class:`~repro.resilience.errors.ProofFormatError` (envelope
    violations raise its :class:`~repro.resilience.errors.EnvelopeError`
    subtypes) and a rejected one raises
    :class:`~repro.resilience.errors.VerificationFailure`, so the only
    falsy outcome is the legacy ``strict=False`` boolean path.
    """
    from repro.halo2.proof import proof_from_bytes
    from repro.resilience.errors import ProofFormatError

    if isinstance(proof, (bytes, bytearray, memoryview)):
        data = bytes(proof)
        if is_envelope(data):
            proof = decode_envelope(data, caps=caps)
        else:
            warnings.warn(
                "verifying loose proof bytes is deprecated; wrap proofs "
                "in a zkml-proof-envelope/v2 (repro.envelope) instead",
                DeprecationWarning, stacklevel=2)
            proof = proof_from_bytes(data)
    if isinstance(proof, ProofEnvelope):
        with get_tracer().span("verify", scheme=proof.scheme_name,
                               envelope=True):
            return verify_envelope(proof, vk, field=field, strict=strict)
    if instance is None:
        raise ProofFormatError(
            "instance values are required to verify a loose proof "
            "(envelopes carry their own public inputs)")
    scheme = scheme_by_name(scheme_name, field)
    with get_tracer().span("verify", scheme=scheme_name):
        if strict:
            verify_proof_strict(vk, proof, instance, scheme)
            return True
        return verify_proof(vk, proof, instance, scheme)


@dataclass
class BatchProveResult:
    """A single proof covering several inferences."""

    spec_name: str
    scheme_name: str
    proof: Proof
    vk: VerifyingKey
    instance: List[List[int]]
    batch_size: int
    k: int
    keygen_seconds: float
    proving_seconds: float
    modeled_proof_bytes: int
    outputs: List[Dict[str, np.ndarray]]
    #: Wall-clock seconds per prover phase (commit/helpers/quotient/openings).
    phase_seconds: Dict[str, float] = dataclass_field(default_factory=dict)
    #: Whether keygen was skipped via the proving-key cache.
    keygen_cache_hit: bool = False
    #: Operation counts observed during proving (NTTs, commitments, ...).
    observed_counts: Dict[str, int] = dataclass_field(default_factory=dict)
    #: The cost model's predicted counts for the batch layout (Eqs. 1-2).
    predicted_counts: Dict[str, float] = dataclass_field(default_factory=dict)
    #: Grid/scale configuration the batch circuit was built with (part of
    #: the envelope's config digest; defaults match ``prove_batch``'s).
    num_cols: int = 10
    scale_bits: int = 5
    lookup_bits: Optional[int] = None
    #: ``proof_to_bytes(proof)``, filled by the first :meth:`envelope`.
    _proof_bytes: Optional[bytes] = dataclass_field(
        default=None, repr=False, compare=False)

    def envelope(self) -> ProofEnvelope:
        """Package the batch proof as a v2 envelope (one envelope covers
        the whole batch — its instance holds every slot's columns)."""
        return _envelope(self)

    def envelope_bytes(self) -> bytes:
        return self.envelope().encode()

    @property
    def slot_proving_seconds(self) -> float:
        """Proving wall-clock amortized over the batch's inference slots —
        the honest per-inference cost of a coalesced proof."""
        return self.proving_seconds / max(1, self.batch_size)

    def verify(self, field: PrimeField = GOLDILOCKS,
               strict: bool = True) -> bool:
        """Verify the batch proof against all per-inference instances.

        Strict by default, mirroring :func:`verify_model_proof`: a
        malformed proof raises
        :class:`~repro.resilience.errors.ProofFormatError` and a rejected
        one raises
        :class:`~repro.resilience.errors.VerificationFailure`;
        ``strict=False`` restores the legacy boolean path.
        """
        scheme = scheme_by_name(self.scheme_name, field)
        with get_tracer().span("verify", model=self.spec_name,
                               scheme=self.scheme_name,
                               batch_size=self.batch_size):
            if strict:
                verify_proof_strict(self.vk, self.proof, self.instance,
                                    scheme)
                return True
            return verify_proof(self.vk, self.proof, self.instance, scheme)


def prove_batch(
    spec: ModelSpec,
    batch_inputs: List[Dict[str, np.ndarray]],
    scheme_name: str = "kzg",
    plan=None,
    num_cols: int = 10,
    scale_bits: int = 5,
    lookup_bits: Optional[int] = None,
    field: PrimeField = GOLDILOCKS,
    jobs: Optional[int] = None,
    use_pk_cache: bool = True,
    tracer=None,
    metrics=None,
    supervisor: Optional[Supervisor] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
) -> BatchProveResult:
    """Prove several inferences of one model with a single proof.

    The batch shares the weight commitment and the lookup tables; each
    inference's outputs are exposed in its own instance column.

    The batch path runs under the same hardening as :func:`prove_model`:
    keygen consults the global proving-key cache (the circuit digest
    covers the batch shape, so equal-occupancy batches share keys —
    ``keygen_cache_hit`` reports a skip), every stage runs under a
    :class:`~repro.resilience.supervisor.Supervisor` (transient faults
    retry, a failed Freivalds challenge degrades the plan to direct
    matmul), and ``checkpoint_dir``/``resume`` persist and replay
    completed stages exactly like the single-proof pipeline.
    """
    from repro.compiler import synthesize_batch
    from repro.resilience.checkpoint import batch_proving_config_digest

    tracer = tracer if tracer is not None else get_tracer()
    sup = supervisor if supervisor is not None else Supervisor(tracer=tracer)
    plan_state = {"plan": _normalize_plan(plan)}

    store = None
    if checkpoint_dir is not None:
        store = CheckpointStore(
            checkpoint_dir,
            batch_proving_config_digest(spec, batch_inputs, scheme_name,
                                        num_cols, scale_bits, lookup_bits),
            resume=resume,
        )

    def _freivalds_fallback(exc: FreivaldsCheckError) -> None:
        plan_state["plan"] = _plan_without_freivalds(plan_state["plan"])
        events.degraded("freivalds_direct_matmul", layer=exc.layer,
                        model=spec.name)

    with tracer.span("prove_batch", model=spec.name, scheme=scheme_name,
                     batch_size=len(batch_inputs)):
        def _synthesize():
            with tracer.span("synthesize", model=spec.name,
                             batch_size=len(batch_inputs)):
                result = synthesize_batch(
                    spec, batch_inputs, plan=plan_state["plan"],
                    num_cols=num_cols, scale_bits=scale_bits,
                    lookup_bits=lookup_bits, tracer=tracer,
                )
                for outputs in result.outputs:
                    for name in spec.outputs:
                        result.builder.expose(outputs[name].entries())
                return result

        result, _ = sup.stage(
            store, "synthesize", _synthesize,
            recover={FreivaldsCheckError: _freivalds_fallback},
        )

        scheme = scheme_by_name(scheme_name, field)
        start = time.perf_counter()

        def _keygen():
            with tracer.span("keygen", model=spec.name, k=result.builder.k,
                             scheme=scheme_name) as sp:
                if use_pk_cache:
                    pk, vk, hit = GLOBAL_PK_CACHE.get_or_create(
                        result.builder.cs, result.builder.asg, scheme
                    )
                else:
                    pk, vk = keygen(result.builder.cs, result.builder.asg,
                                    scheme)
                    hit = False
                sp.set_attr("pk_cache_hit", hit)
                return pk, vk, hit

        (pk, vk, keygen_cache_hit), _ = sup.stage(store, "keygen", _keygen)
        keygen_seconds = time.perf_counter() - start

        start = time.perf_counter()

        def _prove():
            timer = PhaseTimer(tracer)
            counts_before = STATS.snapshot()
            with tracer.span("prove", model=spec.name, k=result.builder.k,
                             jobs=jobs or 1, batch_size=len(batch_inputs)):
                proof = create_proof(pk, result.builder.asg, scheme,
                                     jobs=jobs, timer=timer)
            return {"proof": proof, "phase_seconds": dict(timer.seconds),
                    "observed": STATS.delta(counts_before)}

        prove_payload, _ = sup.stage(store, "prove", _prove)
        proof = prove_payload["proof"]
        # .get(): a checkpoint written before op counts were captured
        # resumes cleanly with empty counts rather than a KeyError
        observed = prove_payload.get("observed", {})
        proving_seconds = time.perf_counter() - start
        predicted = obs_metrics.predicted_counts(result.layout, scheme_name)

        if metrics is not None:
            obs_metrics.record_circuit_stats(metrics, result,
                                             model=spec.name)
            obs_metrics.record_prover_run(metrics, spec.name, observed,
                                          predicted,
                                          phase_seconds=prove_payload[
                                              "phase_seconds"],
                                          slots=len(batch_inputs))
            metrics.gauge("zkml_keygen_seconds", "keygen wall-clock",
                          model=spec.name).set(round(keygen_seconds, 6))
            metrics.gauge("zkml_prove_seconds", "prover wall-clock",
                          model=spec.name).set(round(proving_seconds, 6))
            metrics.gauge("zkml_pk_cache_hit", "1 if keygen was skipped",
                          model=spec.name).set(int(keygen_cache_hit))

    return BatchProveResult(
        spec_name=spec.name,
        scheme_name=scheme_name,
        proof=proof,
        vk=vk,
        instance=result.builder.asg.instance_values(),
        batch_size=len(batch_inputs),
        k=result.builder.k,
        keygen_seconds=keygen_seconds,
        proving_seconds=proving_seconds,
        modeled_proof_bytes=proof.modeled_size_bytes(scheme,
                                                     result.builder.k),
        outputs=[result.output_values(i) for i in range(len(batch_inputs))],
        phase_seconds=dict(prove_payload["phase_seconds"]),
        keygen_cache_hit=keygen_cache_hit,
        observed_counts=dict(observed),
        predicted_counts=predicted,
        num_cols=num_cols,
        scale_bits=scale_bits,
        lookup_bits=lookup_bits,
    )
