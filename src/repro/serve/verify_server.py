"""A unix-domain-socket front end for :class:`VerifyService`.

``zkml verify-serve`` binds one of these alongside (or instead of) the
proving socket.  Same tiny protocol as the proving server: **one JSON
request per connection**, one JSON response, connection closed.

Request fields::

    {"envelopes": ["<b64>", ...],   # serialized v2 envelopes, or ...
     "envelope": "<b64>",           # ... a single one
     "request_id": "req-..."}       # correlation id (minted if absent)

Response::

    {"ok": true, "request_id", "batch_size", "accepted", "rejected",
     "verify_seconds", "results": [{"index", "ok", ...verdict...}]}

or ``{"ok": false, "error", "detail"}`` for request-level rejections
(overload shed, batch cap, deadline, shutdown) — the typed taxonomy
class name rides in ``error`` so clients can distinguish "back off"
from "your envelope is garbage".

The wire layer is hardened independently of the service: the request
line itself is capped (``max_request_bytes``) so a client cannot stream
unbounded bytes before JSON parsing, and base64 payloads that fail to
decode are rejected without touching the envelope decoder.

**Control ops** mirror the proving server: ``{"op": "health"}``,
``{"op": "status"}`` (``zkml-verify-status/v1``), ``{"op": "metrics"}``
(Prometheus text), ``{"op": "dump"}`` (flight recorder).
"""

from __future__ import annotations

import base64
import binascii
import json
import os
import socket
import threading
from typing import Dict, List, Optional

from repro.obs import log as obs_log
from repro.resilience import events
from repro.resilience.errors import ResilienceError, ServiceError
from repro.serve.verify_service import VerifyService

__all__ = ["VerifyServer", "VERIFY_CONTROL_OPS", "DEFAULT_VERIFY_SOCKET"]

#: Operator ops the verify socket answers without verifying anything.
VERIFY_CONTROL_OPS = ("health", "status", "metrics", "dump")

#: Default unix socket path for the verification endpoint.
DEFAULT_VERIFY_SOCKET = "zkml-verify.sock"

#: Default cap on one request line.  Envelopes ride base64 (4/3
#: overhead), so this comfortably holds a few mini-model envelopes while
#: still bounding what an attacker can make us buffer.
DEFAULT_MAX_REQUEST_BYTES = 64 << 20

log = obs_log.get_logger("verify")


class VerifyServer:
    """Accept-loop wrapper: socket connections → ``service.verify_batch``."""

    def __init__(self, service: VerifyService, socket_path: str,
                 max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES):
        self.service = service
        self.socket_path = socket_path
        self.max_request_bytes = max_request_bytes
        self._sock: Optional[socket.socket] = None
        self._accepting = False
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "VerifyServer":
        """Bind the socket and start accepting in a background thread."""
        self._bind()
        self._thread = threading.Thread(target=self._accept_loop,
                                        name="zkml-verify-accept",
                                        daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Bind the socket and accept on the calling thread (CLI mode)."""
        self._bind()
        self._accept_loop()

    def _bind(self) -> None:
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(self.socket_path)
        self._sock.listen(64)
        self._sock.settimeout(0.2)
        self._accepting = True
        log.info("verify-serving on %s", self.socket_path)

    def stop(self) -> None:
        self._accepting = False
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)

    # -- connection handling -------------------------------------------------

    def _accept_loop(self) -> None:
        while self._accepting:
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # socket closed under us during stop()
            handler = threading.Thread(target=self._handle, args=(conn,),
                                       daemon=True)
            handler.start()

    def _handle(self, conn: socket.socket) -> None:
        with conn:
            try:
                payload = self._read_request(conn)
                response = self._process(payload)
            except ResilienceError as exc:
                response = {"ok": False, "error": type(exc).__name__,
                            "detail": str(exc)}
            except Exception as exc:  # noqa: BLE001 — a bad request must not kill the accept loop
                response = {"ok": False, "error": type(exc).__name__,
                            "detail": str(exc)[:200]}
            try:
                conn.sendall(json.dumps(response).encode() + b"\n")
            except OSError:
                pass  # client went away

    def _read_request(self, conn: socket.socket) -> Dict:
        chunks = []
        total = 0
        while not chunks or b"\n" not in chunks[-1]:
            chunk = conn.recv(65536)
            if not chunk:
                break
            total += len(chunk)
            if total > self.max_request_bytes:
                raise ServiceError("request exceeds %d bytes"
                                   % self.max_request_bytes)
            chunks.append(chunk)
        line = b"".join(chunks).split(b"\n", 1)[0]
        if not line:
            raise ServiceError("empty request")
        return json.loads(line)

    def _decode_envelopes(self, payload: Dict) -> List[bytes]:
        if "envelope" in payload:
            raw = [payload["envelope"]]
        else:
            raw = payload.get("envelopes")
        if not isinstance(raw, list) or not raw:
            raise ServiceError(
                "request must carry 'envelope' or a non-empty "
                "'envelopes' list")
        out: List[bytes] = []
        for idx, item in enumerate(raw):
            if not isinstance(item, str):
                raise ServiceError("envelope %d is not a base64 string"
                                   % idx, got=type(item).__name__)
            try:
                out.append(base64.b64decode(item, validate=True))
            except (binascii.Error, ValueError):
                raise ServiceError("envelope %d is not valid base64" % idx)
        return out

    def _process(self, payload: Dict) -> Dict:
        if "op" in payload:
            return self._control(payload)
        rid = payload.get("request_id")
        if rid is not None and not isinstance(rid, str):
            raise ServiceError("request_id must be a string",
                               got=type(rid).__name__)
        envelopes = self._decode_envelopes(payload)
        report = self.service.verify_batch(envelopes, request_id=rid or None)
        report["ok"] = True
        return report

    def _control(self, payload: Dict) -> Dict:
        op = payload["op"]
        if not isinstance(op, str) or op not in VERIFY_CONTROL_OPS:
            raise ServiceError(
                "unknown control op %r (expected one of %s)"
                % (op, "/".join(VERIFY_CONTROL_OPS)))
        if op == "health":
            health = self.service.health()
            health["ok"] = True  # protocol-level ok; liveness is "accepting"
            return health
        if op == "status":
            return {"ok": True, "status": self.service.status()}
        if op == "metrics":
            text = self.service.metrics.to_prometheus()
            resilience = events.EVENTS.to_prometheus()
            if resilience:
                text = text + resilience if text.endswith("\n") or not text \
                    else text + "\n" + resilience
            return {"ok": True, "metrics_text": text}
        path = payload.get("path")
        if path is not None and not isinstance(path, str):
            raise ServiceError("dump path must be a string",
                               got=type(path).__name__)
        artifact = self.service.dump_flight(reason="operator_request",
                                            path=path)
        effective = path or self.service.runtime.dump_path
        out = {"ok": True, "reason": "operator_request",
               "events_recorded": artifact.get("events_recorded", 0),
               "checksum": artifact.get("checksum", "")}
        if effective:
            out["path"] = effective
        if not path:
            out["artifact"] = artifact
        return out
