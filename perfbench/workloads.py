"""The benchmark's two workloads, driven through the program's public APIs.

Each workload owns its inputs (all drawn from the run's ``--seed``), the
program objects it starts, its load loop, and the checks that turn a
wrong answer into a failed run.  Everything a workload does happens in
the benchmark process, except cold-start probes and the prove-verify-zoo
fixture, which run in child processes (``coldstart.py``) so that they
start truly cold and do not inflate this process's peak RSS.

Why these two (the metric catalogue in ``metrics.json`` has the layer
and prediction tables):

- ``prove-verify-zoo`` is the paper's prove -> verify flow: all 8 mini
  models round-robin, more circuits than the 4-entry in-memory pk cache
  holds, so every request pays synthesis, keygen and proving, and then
  the read side -- decode, registry, proof parsing and strict verify
  behind verify-serve -- with hostile envelopes mixed in;
- ``serve-cluster-http`` is the proving service as clients reach it:
  an open loop over HTTP into 2 worker processes sharing a disk pk
  cache, the only place where requests queue, coalesce and cross
  processes, and where MB-sized envelopes go through JSON and base64.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

#: All mini zoo models, in the round-robin order of prove-verify-zoo
#: (k 9-12).
ZOO = ("diffusion", "dlrm", "gpt2", "mnist", "mobilenet", "resnet18",
       "twitter", "vgg16")

#: The models serve-cluster-http mixes, each batch padded to one of
#: ``CLUSTER_BUCKETS``: 2 x 4 = 8 keys, more than the in-memory cache's 4.
CLUSTER_MODELS = ("dlrm", "mnist")
CLUSTER_BUCKETS = (1, 2, 4, 8)

#: serve-cluster-http's Poisson arrival rate.  A constant, well below
#: saturation: near it, queueing multiplies any slowdown of the shared
#: machine into latency.
CLUSTER_RATE_RPS = 4.0
CLUSTER_WORKERS = 2

#: Fixed per-workload latency limit behind ``slo_attainment``.
SLO_SECONDS = {
    "prove-verify-zoo": 4.0,
    "serve-cluster-http": 2.0,
}

#: The latency percentiles are taken per slice of the window, then their
#: median over the slices (see ``run.end_to_end``).  prove-verify-zoo
#: slices by round (every model once); the open loop by this many
#: seconds of due times.
SLICE_SECONDS = 5.0

#: Hostile kinds, drawn per round: a checksum flip is rejected by the
#: decoder; a flipped public input or proof byte under a fixed-up
#: checksum decodes and is rejected only by proof parsing or the strict
#: verifier.
HOSTILE_KINDS = ("checksum", "instance", "checksum", "body")

#: Timeout for any single wait on the program (generous; a run that hits
#: it has failed anyway).
WAIT_SECONDS = 120.0


def zoo_inputs(spec, rng) -> Dict[str, np.ndarray]:
    """Seeded inputs in the range ``zkml prove --seed`` uses."""
    return {name: rng.uniform(-0.5, 0.5, shape)
            for name, shape in spec.inputs.items()}


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive method); the median for q=50."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def own_peak_rss_mb() -> float:
    """This process's peak RSS (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Another live process's peak RSS, from ``/proc/<pid>/status``."""
    with open("/proc/%d/status" % pid) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line for pid %d" % pid)


@contextmanager
def request_span(ledger, rid: str, root, name: str):
    """On the calling thread, a ``name`` span of request ``rid`` under
    ``root`` (nothing when the run is untraced)."""
    if ledger is None:
        yield
        return
    with ledger.context((rid,), root), ledger.span(name):
        yield


@dataclass
class Window:
    """What one measured window produced."""

    sent: int = 0
    failed: int = 0
    #: latencies of the requests the latency metrics describe
    latencies: List[float] = field(default_factory=list)
    #: the same latencies, cut into the window's consecutive slices
    slices: List[List[float]] = field(default_factory=list)
    #: closed loops: completed requests per second within each slice
    rates: List[float] = field(default_factory=list)
    slo_met: int = 0
    completed: int = 0
    #: seconds the window measured (throughput's denominator)
    seconds: float = 0.0
    envelope_bytes: List[int] = field(default_factory=list)
    #: check failures: any entry makes the run incorrect
    errors: List[str] = field(default_factory=list)
    #: per-layer values this workload takes from the program's API
    layer: Dict[str, float] = field(default_factory=dict)
    #: op-count deltas summed over the window's requests
    counts: Dict[str, int] = field(default_factory=dict)

    def add_counts(self, delta: Dict[str, int]) -> None:
        for name, value in delta.items():
            self.counts[name] = self.counts.get(name, 0) + int(value)

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)


class Workload:
    """One traffic mix.  Subclasses fill in the hooks."""

    name = ""

    def __init__(self, seed: int, run_dir: str):
        self.seed = seed
        self.run_dir = run_dir
        self.rng = np.random.default_rng(seed)
        self.slo_seconds = SLO_SECONDS[self.name]

    def prepare(self) -> None:
        """Untimed fixtures the parent needs before anything else."""

    def coldstart(self) -> float:
        """In a fresh child process: set up until the first warm request
        has completed, then tear down; returns ``time.monotonic()`` at
        the moment the first warm request completed (the end of the span
        ``setup_s`` measures)."""
        raise NotImplementedError

    def start(self, probe_dir: Optional[str]) -> None:
        """The parent's own set-up (untimed); ``probe_dir`` is the last
        cold-start probe's directory, or ``None`` if none ran."""

    def run(self, seconds: float, ledger=None) -> Window:
        raise NotImplementedError

    def worker_pids(self) -> List[int]:
        return []

    def finish(self, window: Window) -> None:
        """Checks (and per-layer measurements) that need the program after
        the window, untimed."""

    def stop(self) -> None:
        """Stop everything this workload started."""


# -- prove-verify-zoo ---------------------------------------------------------


class ProveVerifyZoo(Workload):
    """Closed loop, one caller: per request, ``prove_model`` +
    ``envelope_bytes()`` on the next of the 8 minis (fresh inputs,
    library defaults), then the envelope goes over one connection to
    verify-serve: ``VerifyServer`` -> ``VerifyService`` -> ``VKRegistry``,
    which must accept it.

    Whole rounds only: every model once, then one hostile request that
    sends a seeded hostile variant of one model's envelope (see
    ``make_fixture``), which must be rejected typed.  Every window thus
    proves each model equally often; the latency metrics describe the 8
    proving requests of each round, the rejections are timed apart.
    """

    name = "prove-verify-zoo"

    def prepare(self) -> None:
        self.fixture = os.path.join(self.run_dir, "fixture")
        if not os.path.isdir(self.fixture):
            run_child("prepare", self.name, self.fixture, self.seed)
        self._load_specs()

    def _load_specs(self) -> None:
        from repro.model.zoo import get_model

        self.specs = [get_model(model, "mini") for model in ZOO]
        self.server = self.service = None

    def make_fixture(self) -> None:
        """In a child process: prove every mini once, publish its
        verifying key and write the seeded hostile variants of its
        envelope."""
        from repro.registry import VKRegistry
        from repro.runtime.pipeline import prove_model

        self._load_specs()
        registry = VKRegistry(os.path.join(self.run_dir, "registry"))
        for model, spec in zip(ZOO, self.specs):
            result = prove_model(spec, zoo_inputs(spec, self.rng))
            env = result.envelope()
            registry.publish(result.vk, env.model, env.config_digest)
            for kind, data in self._hostile_variants(env.encode()).items():
                with open(os.path.join(self.run_dir, "%s.%s.env"
                                       % (model, kind)), "wb") as fh:
                    fh.write(data)

    def _hostile_variants(self, encoded: bytes) -> Dict[str, bytes]:
        """Seeded hostile variants of one valid envelope, built through
        the envelope API: a flipped checksum byte, and a flipped public
        input bit or proof-byte bit under a recomputed checksum."""
        from repro.envelope import decode_envelope
        from repro.envelope.format import CHECKSUM_BYTES

        flipped = bytearray(encoded)
        flipped[-1 - int(self.rng.integers(CHECKSUM_BYTES))] ^= 0xFF
        out = {"checksum": bytes(flipped)}
        env = decode_envelope(encoded)
        column = env.instance[int(self.rng.integers(len(env.instance)))]
        row = int(self.rng.integers(len(column)))
        column[row] ^= 1 << int(self.rng.integers(8))
        out["instance"] = env.encode()
        env = decode_envelope(encoded)
        body = bytearray(env.proof_bytes)
        body[int(self.rng.integers(len(body)))] ^= \
            1 << int(self.rng.integers(8))
        env.proof_bytes = bytes(body)
        out["body"] = env.encode()
        return out

    def hostile(self, model: str, kind: str) -> bytes:
        """The fixture's hostile variant of ``model``'s envelope."""
        with open(os.path.join(self.fixture, "%s.%s.env" % (model, kind)),
                  "rb") as fh:
            return fh.read()

    def _start_server(self, socket_path: str):
        from repro.registry import VKRegistry
        from repro.serve import VerifyService
        from repro.serve.verify_server import VerifyServer

        registry = VKRegistry(os.path.join(self.fixture, "registry"))
        service = VerifyService(registry=registry)
        return service, VerifyServer(service, socket_path).start()

    def coldstart(self) -> float:
        from repro.runtime.pipeline import prove_model
        from repro.serve.client import verify_request

        self._load_specs()
        self.fixture = os.path.join(os.path.dirname(self.run_dir), "fixture")
        socket_path = os.path.join(self.run_dir, "v.sock")
        self.service, self.server = self._start_server(socket_path)
        try:
            spec = self.specs[ZOO.index("dlrm")]
            envelope = prove_model(spec, zoo_inputs(spec, self.rng)) \
                .envelope_bytes()
            report = verify_request(socket_path, [envelope])
            if not report.get("ok") or report.get("accepted") != 1:
                raise RuntimeError("cold-start verify was not accepted")
            return time.monotonic()
        finally:
            self.stop()

    def start(self, probe_dir: Optional[str]) -> None:
        self.socket_path = os.path.join(self.run_dir, "v.sock")
        self.service, self.server = self._start_server(self.socket_path)
        self.rounds = 0

    def run(self, seconds: float, ledger=None) -> Window:
        from repro.obs.stats import STATS
        from repro.perf.pkcache import GLOBAL_PK_CACHE
        from repro.runtime.pipeline import prove_model
        from repro.serve.client import verify_request

        window = Window()
        rejects: Dict[str, List[float]] = {"client": [], "cheap": [],
                                           "deep": []}
        cache_before = GLOBAL_PK_CACHE.stats()
        counter = iter(range(1 << 30))

        def request(spec, inputs, envelope):
            """One request: prove ``spec`` on ``inputs`` and send the
            envelope to verify-serve, or, given ``envelope``, send just
            that; returns (latency, verify-serve report, envelope size),
            or None when it raised."""
            rid = "pv-%d" % next(counter)
            window.sent += 1
            before = STATS.snapshot()
            started = time.perf_counter()
            try:
                with ledger.request(rid) if ledger else nullcontext():
                    if envelope is None:
                        envelope = prove_model(spec, inputs).envelope_bytes()
                    with ledger.span("verify_server.request") \
                            if ledger else nullcontext():
                        report = verify_request(
                            self.socket_path, [envelope],
                            timeout=WAIT_SECONDS, request_id=rid)
            except Exception as exc:  # noqa: BLE001 — a failed request is counted, not fatal
                window.seconds += time.perf_counter() - started
                window.failed += 1
                window.error("%s: %s: %s" % (rid, type(exc).__name__, exc))
                return None
            latency = time.perf_counter() - started
            window.add_counts(STATS.delta(before))
            window.seconds += latency
            return latency, report, len(envelope)

        def hostile_request():
            """The round's hostile request: the model rotates from a
            seeded start, the kind is drawn from the seed."""
            model = ZOO[(self.seed + self.rounds) % len(ZOO)]
            kind = HOSTILE_KINDS[int(self.rng.integers(len(HOSTILE_KINDS)))]
            self.rounds += 1
            done = request(None, None, self.hostile(model, kind))
            if done is None:
                return
            latency, report, _ = done
            problem = self._check(self.specs[ZOO.index(model)].name, kind,
                                  report)
            if problem is not None:
                window.failed += 1
                window.error(problem)
                return
            window.completed += 1
            window.slo_met += latency <= self.slo_seconds
            rejects["client"].append(latency)
            rejects["cheap" if kind == "checksum" else "deep"].append(
                float(report["verify_seconds"]))

        # whole rounds, stopping at the one whose end lies nearest the
        # requested length
        last_round = 0.0
        while window.seconds + last_round / 2 < seconds:
            round_start, round_completed = window.seconds, window.completed
            round_latencies: List[float] = []
            for spec in self.specs:
                done = request(spec, zoo_inputs(spec, self.rng), None)
                if done is None:
                    continue
                latency, report, size = done
                problem = self._check(spec.name, None, report)
                if problem is not None:
                    window.failed += 1
                    window.error(problem)
                    continue
                window.completed += 1
                window.latencies.append(latency)
                round_latencies.append(latency)
                window.slo_met += latency <= self.slo_seconds
                window.envelope_bytes.append(size)
            window.slices.append(round_latencies)
            hostile_request()
            last_round = window.seconds - round_start
            window.rates.append((window.completed - round_completed)
                                / last_round)
        cache_after = GLOBAL_PK_CACHE.stats()
        lookups = cache_after["lookups"] - cache_before["lookups"]
        hits = cache_after["hits"] - cache_before["hits"]
        window.layer.update({
            "pkcache.hit_ratio": hits / lookups if lookups else 0.0,
            "reject_p50_s": percentile(rejects["client"], 50),
            "verify_service.reject_cheap_s": percentile(rejects["cheap"], 50),
            "verify_service.reject_deep_s": percentile(rejects["deep"], 50),
        })
        return window

    @staticmethod
    def _check(model: str, kind: Optional[str], report: Dict
               ) -> Optional[str]:
        """Valid envelopes are accepted for their model; hostile ones are
        rejected with a typed cause (a checksum flip as ``checksum``)."""
        if not report.get("ok"):
            return "request rejected: %s: %s" % (
                report.get("error"), str(report.get("detail"))[:200])
        verdict = (report.get("results") or [{}])[0]
        if kind is None:
            if not verdict.get("ok") or verdict.get("model") != model:
                return "valid %s envelope not accepted: %s" % (
                    model, verdict.get("cause"))
            return None
        if verdict.get("ok"):
            return "hostile %s envelope (%s) was accepted" % (model, kind)
        if verdict.get("cause") in (None, "other"):
            return "hostile %s envelope (%s) rejected untyped: %s" % (
                model, kind, verdict.get("error"))
        if kind == "checksum" and verdict.get("cause") != "checksum":
            return "checksum flip rejected as %r" % verdict.get("cause")
        return None

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.service is not None:
            self.service.close()
            self.service = None


# -- serve-cluster-http -------------------------------------------------------


class Spill:
    """Envelopes parked on disk during a window and checked after it.

    Checking a served envelope means decoding a MB-sized blob.  Doing that
    during the window would put the benchmark's own work on the cores the
    program runs on; keeping the replies in memory until the window ends
    would inflate peak RSS.  So a window only writes one envelope per
    batch to a file and drops it, and ``drain`` reads them back one at a
    time once the window is over.
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._items: List[Tuple[str, tuple]] = []
        self._lock = threading.Lock()

    def put(self, data: bytes, *key) -> None:
        with self._lock:
            path = os.path.join(self.directory, "%d.bin" % len(self._items))
            self._items.append((path, key))
        with open(path, "wb") as fh:
            fh.write(data)

    def drain(self):
        """Yield ``(key, data)`` per parked envelope, deleting each file."""
        with self._lock:
            items, self._items = self._items, []
        for path, key in items:
            with open(path, "rb") as fh:
                data = fh.read()
            os.remove(path)
            yield key, data


def http_post(url: str, body: bytes) -> Tuple[Dict, int]:
    """POST one JSON body; returns the parsed reply and its size."""
    request = urllib.request.Request(
        url + "/v1/prove", data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=WAIT_SECONDS) as reply:
        data = reply.read()
    return json.loads(data), len(data)


def b64_length(text: str) -> int:
    """Bytes a base64 string decodes to."""
    return len(text) * 3 // 4 - (len(text) - len(text.rstrip("=")))


class ServeClusterHttp(Workload):
    """Open loop: seeded Poisson arrivals at ``CLUSTER_RATE_RPS``, each
    POSTed on its own connection to ``HttpFrontEnd`` in front of a
    ``ProvingService`` with 2 worker processes and a shared
    ``DiskPKCache``, dlrm and mnist mixed, ``want_envelope`` set.

    Latency runs from each request's due time, so a stalled generator is
    charged to the program it stalled on, and the generator's own
    lateness is reported.
    """

    name = "serve-cluster-http"

    def prepare(self) -> None:
        from repro.model.zoo import get_model

        self.specs = {model: get_model(model, "mini")
                      for model in CLUSTER_MODELS}
        self.service = self.front = None

    def _start_service(self, pk_dir: str) -> None:
        from repro.serve import ProvingService, ServeConfig
        from repro.serve.http_server import HttpFrontEnd

        self.service = ProvingService(ServeConfig(
            cluster_workers=CLUSTER_WORKERS, pk_cache_dir=pk_dir)).start()
        self.front = HttpFrontEnd(self.service, port=0).start()

    def _body(self, model: str, inputs, rid: str) -> bytes:
        return json.dumps({
            "model": model, "request_id": rid, "want_envelope": True,
            "timeout": WAIT_SECONDS,
            "inputs": {name: value.tolist()
                       for name, value in inputs.items()}}).encode()

    def _fill(self) -> None:
        """Prove one batch of every bucket size for every model: fills the
        disk pk cache and loads it into the workers, so the window meets
        no first-time keygen."""
        for bucket in CLUSTER_BUCKETS:
            futures = [self.service.submit(spec, zoo_inputs(spec, self.rng))
                       for spec in self.specs.values()
                       for _ in range(bucket)]
            for future in futures:
                if not future.result(timeout=WAIT_SECONDS).verified:
                    raise RuntimeError("a warm-up batch did not verify")

    def _first_request(self) -> None:
        """One request over HTTP: a cold start ends when it is answered."""
        model = CLUSTER_MODELS[0]
        reply, _ = http_post(self.front.url, self._body(
            model, zoo_inputs(self.specs[model], self.rng), "warm"))
        if not reply.get("ok") or not reply.get("verified"):
            raise RuntimeError("warm-up request failed: %r"
                               % {k: reply.get(k) for k in
                                  ("error", "detail")})

    def coldstart(self) -> float:
        self.prepare()
        self._start_service(os.path.join(self.run_dir, "pk"))
        try:
            self._first_request()
            return time.monotonic()
        finally:
            self.stop()

    def start(self, probe_dir: Optional[str]) -> None:
        self.pk_dir = os.path.join(probe_dir or self.run_dir, "pk")
        self._start_service(self.pk_dir)
        self._fill()
        self._first_request()
        self.seen_keys: Dict[Tuple[str, int], set] = {}

    def worker_pids(self) -> List[int]:
        return [w["pid"] for w in self.service.status()["cluster"]["workers"]
                if w.get("alive")]

    def _schedule(self, seconds: float):
        """(due offset, model, request body) for every arrival.

        A Poisson process conditioned on its count: exactly
        ``rate x seconds`` arrivals at uniform random times, so every
        window offers the same load and only the arrival pattern varies
        with the seed.  Bodies are encoded here, before the clock runs.
        """
        count = int(round(CLUSTER_RATE_RPS * seconds))
        offsets = np.sort(self.rng.uniform(0.0, seconds, count))
        schedule = []
        for index, offset in enumerate(offsets):
            model = CLUSTER_MODELS[int(self.rng.integers(len(
                CLUSTER_MODELS)))]
            inputs = zoo_inputs(self.specs[model], self.rng)
            schedule.append((float(offset), model,
                             self._body(model, inputs, "sc-%d" % index)))
        return schedule

    def _telemetry(self) -> Dict[str, float]:
        """Worker telemetry and service counters, summed over workers."""
        status = self.service.status()
        out = {"batches": 0.0, "prove_seconds": 0.0, "hits": 0.0,
               "lookups": 0.0, "disk_hits": 0.0}
        ops: Dict[str, int] = {}
        for worker in status["cluster"]["workers"]:
            telemetry = worker.get("telemetry") or {}
            out["batches"] += telemetry.get("batches", 0)
            out["prove_seconds"] += telemetry.get("prove_seconds", 0.0)
            pk = telemetry.get("pk_cache") or {}
            for name in ("hits", "lookups", "disk_hits"):
                out[name] += pk.get(name, 0)
            for op, count in (telemetry.get("ops") or {}).items():
                ops[op] = ops.get(op, 0) + count
        counters = status["counters"]
        out["restarts"] = counters.get("worker_restarts", 0)
        out["shed"] = counters.get("shed_batches", 0)
        out["rejected"] = counters.get("rejected", 0)
        out["ops"] = ops
        return out

    def run(self, seconds: float, ledger=None) -> Window:
        from repro.obs.trace import Tracer, get_tracer, set_tracer

        window = Window()
        spill = Spill(os.path.join(self.run_dir, "spill"))
        schedule = self._schedule(seconds)
        records: List[Optional[Dict]] = [None] * len(schedule)
        # batch id -> digest of its envelope; one envelope per batch is
        # parked for the after-window check, the rest must match it
        digests: Dict[str, bytes] = {}
        lock = threading.Lock()
        url = self.front.url

        def send(index: int, due: float, model: str, body: bytes) -> None:
            rid = "sc-%d" % index
            root = ledger.add_root(rid, due, due) if ledger else None
            sent_at = time.perf_counter()
            try:
                with request_span(ledger, rid, root, "http.request"):
                    reply, size = http_post(url, body)
            except Exception as exc:  # noqa: BLE001 — a failed request is counted, not fatal
                reply, size = {"ok": False, "error": type(exc).__name__,
                               "detail": str(exc)}, 0
            done = time.perf_counter()
            if root is not None:
                root.end = done
            record = {"due": due, "sent": sent_at, "done": done,
                      "size": size}
            problem = self._reply_problem(rid, model, reply)
            if problem is not None:
                record["error"] = problem
                records[index] = record
                return
            envelope_b64 = reply["envelope_b64"]
            record.update(queue=reply["queue_seconds"],
                          prove=reply["prove_seconds"],
                          batch=reply["batch_id"],
                          occupancy=int(reply["batch_size"]),
                          padded=int(reply["padded_size"]),
                          envelope=b64_length(envelope_b64))
            digest = hashlib.blake2b(envelope_b64.encode("ascii"),
                                     digest_size=16).digest()
            with lock:
                first = record["batch"] not in digests
                expected = digests.setdefault(record["batch"], digest)
            if first:
                spill.put(envelope_b64.encode("ascii"), record["batch"],
                          model, record["padded"])
            elif expected != digest:
                record["error"] = "%s: envelope differs from its batch's" \
                    % rid
            records[index] = record

        saved_tracer = get_tracer()
        tracer = Tracer() if ledger is not None else None
        if tracer is not None:
            set_tracer(tracer)
        before = self._telemetry()
        threads = []
        try:
            window_start = time.perf_counter() + 0.05
            for index, (offset, model, body) in enumerate(schedule):
                due = window_start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                window.sent += 1
                thread = threading.Thread(
                    target=send, args=(index, due, model, body),
                    name="perfbench-send-%d" % index)
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join(WAIT_SECONDS)
                if thread.is_alive():
                    window.error("a request was still outstanding after "
                                 "%.0f s" % WAIT_SECONDS)
                    break
        finally:
            if tracer is not None:
                set_tracer(saved_tracer)
        after = self._telemetry()
        done = [r for r in records if r is not None]
        last_done = max((r["done"] for r in done), default=window_start)
        window.seconds = last_done - window_start
        slices: Dict[int, List[float]] = {}
        lags, batches, reply_bytes = [], {}, []
        for record in done:
            lags.append(record["sent"] - record["due"])
            if "error" in record:
                window.failed += 1
                window.error(record["error"])
                continue
            latency = record["done"] - record["due"]
            window.completed += 1
            window.latencies.append(latency)
            slices.setdefault(int((record["due"] - window_start)
                                  // SLICE_SECONDS), []).append(latency)
            window.slo_met += latency <= self.slo_seconds
            window.envelope_bytes.append(record["envelope"])
            reply_bytes.append(record["size"])
            batches[record["batch"]] = (record["occupancy"], record["padded"])
        window.slices = [slices[k] for k in sorted(slices)]
        self._check_envelopes(spill, window)
        self._check_backlog(done, window)
        self._check_counters(before, after, window)
        delta_batches = after["batches"] - before["batches"]
        lookups = after["lookups"] - before["lookups"]
        window.add_counts({op: count - before["ops"].get(op, 0)
                           for op, count in after["ops"].items()})
        window.layer.update({
            "loadgen.send_lag_p90_s": percentile(lags, 90),
            "http.reply_bytes": _mean(reply_bytes),
            "service.batch_occupancy": _mean(o for o, _ in batches.values()),
            "service.slot_fill_ratio":
                sum(o for o, _ in batches.values())
                / max(1, sum(p for _, p in batches.values())),
            "service.shed": (after["shed"] - before["shed"])
            / max(1, window.sent),
            "worker.prove_s": (after["prove_seconds"]
                               - before["prove_seconds"])
            / max(1.0, delta_batches),
            "worker.restarts": after["restarts"],
            "pkcache.hit_ratio": (after["hits"] - before["hits"]) / lookups
            if lookups else 0.0,
            "pkcache.disk_hits": (after["disk_hits"] - before["disk_hits"])
            / max(1, window.sent),
        })
        if tracer is not None:
            self._ingest(tracer, ledger, window)
        return window

    def _reply_problem(self, rid, model, reply) -> Optional[str]:
        """What is wrong with a reply on its face (only field look-ups)."""
        if not reply.get("ok"):
            return "%s: %s: %s" % (rid, reply.get("error"),
                                   str(reply.get("detail"))[:200])
        if not reply.get("verified") \
                or reply.get("model") != self.specs[model].name:
            return "%s: reply not verified or for the wrong model" % rid
        if not isinstance(reply.get("envelope_b64"), str):
            return "%s: reply carries no envelope" % rid
        return None

    def _check_envelopes(self, spill: Spill, window: Window) -> None:
        """After the window: each batch's envelope decodes and names its
        model; the vk hashes it carries are checked in ``finish``."""
        from repro.envelope import decode_envelope
        from repro.resilience.errors import ResilienceError

        for (batch_id, model, padded), data in spill.drain():
            try:
                env = decode_envelope(base64.b64decode(data, validate=True))
            except (ValueError, ResilienceError) as exc:
                window.error("%s: envelope does not decode: %s"
                             % (batch_id, exc))
                continue
            if env.model != self.specs[model].name:
                window.error("%s: envelope names model %r"
                             % (batch_id, env.model))
            self.seen_keys.setdefault((env.model, padded), set()).add(
                env.vk_hash_hex)

    @staticmethod
    def _check_backlog(done: List[Dict], window: Window) -> None:
        """Mark the run overloaded when the backlog grows: queue wait in
        the last quarter of arrivals exceeds the first quarter's by more
        than one median batch, which one unlucky batch cannot cause."""
        ok = [r for r in done if "error" not in r]
        quarter = len(ok) // 4
        if quarter < 2:
            return
        first = percentile([r["queue"] for r in ok[:quarter]], 50)
        last = percentile([r["queue"] for r in ok[-quarter:]], 50)
        batch = percentile([r["prove"] for r in ok], 50)
        if last > first + batch:
            window.error("overloaded: median queue wait grew from %.3f s "
                         "to %.3f s across the window" % (first, last))

    @staticmethod
    def _check_counters(before, after, window: Window) -> None:
        for name in ("restarts", "shed", "rejected"):
            if after[name] != before[name]:
                window.error("cluster %s changed by %d during the window"
                             % (name, after[name] - before[name]))

    def _ingest(self, tracer, ledger, window: Window) -> None:
        """Copy the service's stitched cluster spans into the ledger.

        ``ProvingService`` records a ``serve:batch`` span per cluster
        batch (launch to resolve), a ``serve:queue-wait`` child (waiting
        for a free worker) and the worker's own span tree.  Each lands
        under the ``service.request`` span of every request the batch
        served; the batch span's self time is the IPC cost: batch wall
        time minus dispatch wait and worker time.
        """
        names = {"serve:batch": "cluster.batch",
                 "serve:queue-wait": "scheduler.dispatch",
                 "worker:prove": "worker.prove",
                 "synthesize": "compiler.synthesize",
                 "keygen": "pkcache.lookup",
                 "prove": "prover.prove",
                 "commit": "prover.commit", "helpers": "prover.helpers",
                 "quotient": "prover.quotient",
                 "openings": "prover.openings",
                 "verify": "verifier.verify"}
        spans = tracer.spans()
        by_id = {span.span_id: span for span in spans}
        batch_requests: Dict[int, Tuple[str, ...]] = {}
        for span in spans:
            if span.name == "serve:batch":
                batch_requests[span.span_id] = tuple(
                    span.attrs.get("request_ids") or ())

        def ancestry(span):
            """(nearest kept ancestor id, owning batch span id)."""
            kept, parent = None, span.parent_id
            while parent is not None and parent in by_id:
                node = by_id[parent]
                if kept is None and node.name in names:
                    kept = node.span_id
                if node.name == "serve:batch":
                    return kept, node.span_id
                parent = node.parent_id
            return kept, None

        made = {}
        for span in spans:
            if span.name not in names:
                continue
            if span.name == "serve:batch":
                batch_id, parent = span.span_id, "service.request"
            else:
                parent, batch_id = ancestry(span)
            requests = batch_requests.get(batch_id, ())
            if not requests:
                continue
            made[span.span_id] = ledger.record(names[span.name], span.start,
                                               span.end, parent, requests)
        for node in made.values():
            if isinstance(node.parent, int):
                node.parent = made[node.parent].id
        busy = sum(s.end - s.start for s in spans if s.name == "worker:prove")
        window.layer["worker.busy_ratio"] = busy / (
            window.seconds * CLUSTER_WORKERS)

    def finish(self, window: Window) -> None:
        check_batch_keys(self.specs.values(), self.seen_keys, self.rng,
                         window)
        window.layer["pkcache.disk_load_s"] = self._disk_load_seconds()

    def _disk_load_seconds(self) -> float:
        """Median time to load one cached key pair from the shared disk
        cache (``DiskPKCache.load``, checksum included)."""
        from repro.perf.pkcache import DiskPKCache

        disk = DiskPKCache(self.pk_dir)
        times = []
        for name in sorted(os.listdir(os.path.join(self.pk_dir, "pk"))):
            digest, ext = os.path.splitext(name)
            if ext != ".pkl":
                continue
            started = time.perf_counter()
            loaded = disk.load(digest)
            times.append(time.perf_counter() - started)
            if loaded is None:
                raise RuntimeError("disk pk cache entry %s did not load"
                                   % digest[:12])
        return percentile(times, 50)

    def stop(self) -> None:
        if self.front is not None:
            self.front.stop()
            self.front = None
        if self.service is not None:
            self.service.shutdown()
            self.service = None


def check_batch_keys(specs, seen_keys, rng, window: Window) -> None:
    """Every envelope must name the verifying key of its batch circuit.

    The expected key comes from the benchmark's own keygen run (proving
    key cache off), one per ``(spec name, padded batch size)`` observed.
    """
    from repro.runtime.pipeline import prove_batch

    by_name = {spec.name: spec for spec in specs}
    for (model, padded), hashes in sorted(seen_keys.items()):
        spec = by_name[model]
        expected = prove_batch(spec, [zoo_inputs(spec, rng)] * padded,
                               use_pk_cache=False).vk.digest().hex()
        if hashes != {expected}:
            window.error("%s x%d: envelopes carry vk hashes %s, expected %s"
                         % (model, padded, sorted(h[:12] for h in hashes),
                            expected[:12]))


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


WORKLOADS = {cls.name: cls for cls in (ProveVerifyZoo, ServeClusterHttp)}


# -- child processes ----------------------------------------------------------


def run_child(mode: str, workload: str, run_dir: str, seed: int) -> float:
    """Run ``coldstart.py`` in a fresh interpreter; returns the seconds
    from just before the spawn to the moment the child reported ready."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "coldstart.py")
    os.makedirs(run_dir, exist_ok=True)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, script, mode, workload, run_dir, str(seed)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=WAIT_SECONDS)
    if proc.returncode != 0:
        raise RuntimeError("%s %s child failed (exit %d): %s"
                           % (mode, workload, proc.returncode,
                              proc.stderr.strip()[-600:]))
    ready = float(proc.stdout.strip().splitlines()[-1])
    return ready - started
