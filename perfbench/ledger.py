"""Per-request span ledger for the benchmark's traced runs.

The traced run wraps the program's public entry points from here (never
from ``src/``), records one span per call with the id of the request it
served, and reduces the spans to per-layer *self* time: a span's
duration minus the part of it that its child spans cover.  Summed over
one request's tree, the self times equal the request's latency exactly,
so whatever no layer claims is reported as the ``unattributed_s``
remainder instead of vanishing.

Spans live in memory for the whole run and are written once, at the end,
as a Chrome trace (``chrome://tracing`` / Perfetto).

Why not the program's own ``repro.obs.trace.Tracer``:

- a ``Tracer`` span has one parent and belongs to no request, while a
  service batch span here serves several requests at once and must land
  in each one's ledger, reached through that request's own
  ``service.request`` span (``Span.parent`` may name a span of the same
  request for exactly this);
- the ``Tracer`` is part of the program under test.  Installing one
  switches on the program's own trace points (pipeline, keygen,
  layouter, ``PhaseTimer``), so the traced run would measure them too,
  and a change to the program's tracing would move the per-layer
  figures.  The benchmark times only the calls it wraps itself.

serve-cluster-http is the exception: its worker spans cross the process
boundary only inside the service's stitched trace, so that workload
installs a ``Tracer`` for its traced window and copies the spans it
needs into a ``Ledger`` (``ServeClusterHttp._ingest`` in workloads.py).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Span name -> the per-layer metric its self time is reported under.
#: Spans whose self time no layer claims (the glue inside a container
#: call such as ``prove_model`` or ``VerifyService.verify_batch``) are
#: missing here on purpose: their self time is the unattributed rest.
SELF_METRIC = {
    "compiler.synthesize": "compiler.synthesize_s",
    "pkcache.lookup": "pkcache.lookup_s",
    "keygen.keygen": "keygen.keygen_s",
    "prover.commit": "prover.commit_s",
    "prover.helpers": "prover.helpers_s",
    "prover.quotient": "prover.quotient_s",
    "prover.openings": "prover.openings_s",
    "proof.serialize": "envelope.encode_s",
    "envelope.encode": "envelope.encode_s",
    "envelope.decode": "envelope.decode_s",
    "proof.parse": "proof.parse_s",
    "verifier.verify": "verifier.verify_s",
    "registry.get": "registry.get_s",
    "http.request": "http.transport_s",
    "http.payload": "http.payload_s",
    "verify_server.request": "verify_server.transport_s",
    "service.request": "service.queue_wait_s",
    "scheduler.dispatch": "scheduler.dispatch_wait_s",
    "cluster.batch": "worker.ipc_s",
}

#: Every metric a ledger line can land in (the reconciliation sums these).
LEDGER_METRICS = tuple(sorted(set(SELF_METRIC.values())))


class Span:
    """One timed call.  ``parent`` is a span id, or the name of a span of
    the same request (a batch span serves several requests, and each of
    them reaches it through its own ``service.request`` span)."""

    __slots__ = ("id", "name", "start", "end", "parent", "requests", "tid")

    def __init__(self, span_id: int, name: str, start: float, parent,
                 requests: Tuple[str, ...]):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.requests = requests
        self.tid = threading.get_ident()


class Ledger:
    """Thread-safe in-memory span store with per-thread request context."""

    def __init__(self):
        self.spans: List[Span] = []
        self.roots: Dict[str, Span] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording -----------------------------------------------------------

    def _new(self, name: str, start: float, parent,
             requests: Tuple[str, ...]) -> Span:
        span = Span(next(self._ids), name, start, parent, requests)
        with self._lock:
            self.spans.append(span)
        return span

    def record(self, name: str, start: float, end: float, parent,
               requests: Sequence[str]) -> Span:
        """Add an already-finished span timed elsewhere."""
        span = self._new(name, start, parent, tuple(requests))
        span.end = end
        return span

    def add_root(self, request_id: str, start: float, end: float) -> Span:
        """The root span of a request timed elsewhere (open loops time a
        request from its due time, before any call is made)."""
        root = self.record("request", start, end, None, (request_id,))
        with self._lock:
            self.roots[request_id] = root
        return root

    def _context(self):
        return getattr(self._local, "context", None)

    @contextmanager
    def request(self, request_id: str):
        """The root span of one request, on the calling thread."""
        root = self._new("request", time.perf_counter(), None, (request_id,))
        with self._lock:
            self.roots[request_id] = root
        with self.context((request_id,), root):
            try:
                yield root
            finally:
                root.end = time.perf_counter()

    @contextmanager
    def context(self, requests: Tuple[str, ...], parent):
        """Attribute spans opened on this thread to ``requests``."""
        saved = self._context()
        self._local.context = (requests, [parent])
        try:
            yield
        finally:
            self._local.context = saved

    @contextmanager
    def span(self, name: str):
        """Time one call under the current request context (no context,
        no span: calls the benchmark makes for its own checks are not
        part of any request)."""
        context = self._context()
        if context is None:
            yield
            return
        requests, stack = context
        top = stack[-1]
        span = self._new(name, time.perf_counter(),
                         top.id if isinstance(top, Span) else top, requests)
        stack.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            stack.pop()

    # -- reduction -----------------------------------------------------------

    def request_trees(self) -> Dict[str, List[Tuple[Span, Optional[Span]]]]:
        """Per request: its spans paired with their resolved parent."""
        by_request: Dict[str, List[Span]] = {}
        with self._lock:
            spans = list(self.spans)
        for span in spans:
            for rid in span.requests:
                by_request.setdefault(rid, []).append(span)
        by_id = {span.id: span for span in spans}
        trees = {}
        for rid, members in by_request.items():
            named = {span.name: span for span in members}
            pairs = []
            for span in members:
                if isinstance(span.parent, str):
                    parent = named.get(span.parent)
                elif span.parent is not None:
                    parent = by_id.get(span.parent)
                else:
                    parent = None
                pairs.append((span, parent))
            trees[rid] = pairs
        return trees

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per request: ledger metric -> summed self seconds.

        The root span's self time, like that of every other span no layer
        claims, is the unattributed rest.  The values of one request
        always sum to its root span's duration; ``"latency"`` carries
        that duration and ``"unattributed_s"`` the rest.
        """
        out = {}
        for rid, pairs in self.request_trees().items():
            root = self.roots.get(rid)
            if root is None:
                continue
            children: Dict[int, List[Span]] = {}
            for span, parent in pairs:
                if parent is not None:
                    children.setdefault(parent.id, []).append(span)
            lines: Dict[str, float] = {}
            claimed = 0.0
            for span, _ in pairs:
                own = _self_time(span, children.get(span.id, ()))
                metric = SELF_METRIC.get(span.name)
                if metric is None:
                    continue
                lines[metric] = lines.get(metric, 0.0) + own
                claimed += own
            latency = root.end - root.start
            lines["latency"] = latency
            lines["unattributed_s"] = latency - claimed
            out[rid] = lines
        return out

    def totals(self, name: str) -> Dict[str, float]:
        """Per request: summed *total* duration of spans called ``name``."""
        out: Dict[str, float] = {}
        with self._lock:
            spans = list(self.spans)
        for span in spans:
            if span.name == name:
                for rid in span.requests:
                    out[rid] = out.get(rid, 0.0) + span.end - span.start
        return out

    def write_chrome_trace(self, path: str) -> None:
        """Write every span once, as Chrome trace complete events."""
        with self._lock:
            spans = list(self.spans)
        epoch = min((s.start for s in spans), default=0.0)
        events = [{
            "name": span.name, "ph": "X", "pid": 1, "tid": span.tid,
            "ts": round((span.start - epoch) * 1e6, 3),
            "dur": round((span.end - span.start) * 1e6, 3),
            "args": {"requests": list(span.requests), "id": span.id},
        } for span in spans]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _self_time(span: Span, children: Iterable[Span]) -> float:
    """``span``'s duration minus the union of its children's intervals
    (clipped to the span, so overlapping children count once)."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in children)
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return (span.end - span.start) - covered


# -- wrapping the program's entry points --------------------------------------


class Patches:
    """Monkeypatches applied for one traced window, undone by ``undo``."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object, bool]] = []

    def replace(self, owner, attr: str, value) -> None:
        # an instance attribute shadowing a method is deleted on undo
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _timed(ledger: Ledger, name: str, fn):
    def wrapper(*args, **kwargs):
        with ledger.span(name):
            return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


def wrap_prover_path(ledger: Ledger, patches: Patches) -> None:
    """Spans around synthesis, the pk cache, keygen, the prover and its
    phases, proof serialization and envelope encoding."""
    import repro.envelope.format as envelope_format
    import repro.halo2.proof as halo2_proof
    import repro.perf.pkcache as pkcache
    import repro.runtime.pipeline as pipeline
    from repro.perf.timer import PhaseTimer

    patches.replace(pipeline, "synthesize_model",
                    _timed(ledger, "compiler.synthesize",
                           pipeline.synthesize_model))
    cache = pkcache.GLOBAL_PK_CACHE
    patches.replace(cache, "get_or_create",
                    _timed(ledger, "pkcache.lookup", cache.get_or_create))
    patches.replace(pkcache, "keygen",
                    _timed(ledger, "keygen.keygen", pkcache.keygen))
    patches.replace(pipeline, "create_proof",
                    _timed(ledger, "prover.prove", pipeline.create_proof))

    class LedgerPhaseTimer(PhaseTimer):
        """The pipeline's PhaseTimer, also opening one span per phase."""

        @contextmanager
        def phase(self, name):
            with ledger.span("prover." + name), super().phase(name):
                yield

    patches.replace(pipeline, "PhaseTimer", LedgerPhaseTimer)
    patches.replace(halo2_proof, "proof_to_bytes",
                    _timed(ledger, "proof.serialize",
                           halo2_proof.proof_to_bytes))
    patches.replace(envelope_format, "encode_envelope",
                    _timed(ledger, "envelope.encode",
                           envelope_format.encode_envelope))


def wrap_verify_service(ledger: Ledger, patches: Patches) -> None:
    """Spans for verify-serve: the request enters ``verify_batch`` on a
    server thread carrying the client's request id, which links it to the
    client's ``verify_server.request`` span; inside it, spans around
    decoding, the registry, proof parsing and the strict verifier."""
    import repro.halo2.proof as halo2_proof
    import repro.halo2.verifier as verifier
    import repro.serve.verify_service as verify_service
    from repro.registry import VKRegistry

    original = verify_service.VerifyService.verify_batch

    def verify_batch(self, envelopes, request_id=None):
        if request_id not in ledger.roots:
            return original(self, envelopes, request_id=request_id)
        with ledger.context((request_id,), "verify_server.request"), \
                ledger.span("verify_service.batch"):
            return original(self, envelopes, request_id=request_id)

    patches.replace(verify_service.VerifyService, "verify_batch",
                    verify_batch)
    patches.replace(verify_service, "decode_envelope",
                    _timed(ledger, "envelope.decode",
                           verify_service.decode_envelope))
    patches.replace(VKRegistry, "get",
                    _timed(ledger, "registry.get", VKRegistry.get))
    patches.replace(halo2_proof, "proof_from_bytes",
                    _timed(ledger, "proof.parse",
                           halo2_proof.proof_from_bytes))
    patches.replace(verifier, "verify_proof_strict",
                    _timed(ledger, "verifier.verify",
                           verifier.verify_proof_strict))


def wrap_http_service(ledger: Ledger, patches: Patches) -> None:
    """Spans for the proving service behind the HTTP front end.

    ``PayloadProcessor.process`` runs on the HTTP handler thread with the
    client's request id, under that request's ``http.request`` span;
    ``ProvingService.submit`` is timed to the moment its future resolves
    (``service.request``).  What happens inside the batch comes from the
    service's own stitched cluster trace (see
    ``ServeClusterHttp._ingest`` in workloads.py).
    """
    import repro.serve.service as service_mod
    from repro.serve.server import PayloadProcessor

    original_process = PayloadProcessor.process
    original_submit = service_mod.ProvingService.submit

    def process(self, payload):
        rid = payload.get("request_id") if isinstance(payload, dict) \
            else None
        if rid not in ledger.roots:
            return original_process(self, payload)
        with ledger.context((rid,), "http.request"), \
                ledger.span("http.payload"):
            return original_process(self, payload)

    def submit(self, spec, inputs, *args, **kwargs):
        context = ledger._context()
        started = time.perf_counter()
        future = original_submit(self, spec, inputs, *args, **kwargs)
        if context is None:
            return future
        requests, stack = context
        parent = stack[-1].id

        def resolved(_future):
            ledger.record("service.request", started, time.perf_counter(),
                          parent, requests)

        future.add_done_callback(resolved)
        return future

    patches.replace(PayloadProcessor, "process", process)
    patches.replace(service_mod.ProvingService, "submit", submit)
