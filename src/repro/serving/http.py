"""The stdlib HTTP serving tier: ingest, stats, registry, canary, promote.

:func:`serve_http` puts any :class:`~repro.serving.contracts.Ingestor`
behind a ``ThreadingHTTPServer`` speaking a small JSON protocol::

    GET  /v1/healthz                    liveness + what is being served
    POST /v1/ingest                     {"events": [...]} -> detections
    GET  /v1/detections?limit=N         recent detections (ring buffer)
    GET  /v1/stats                      shared-schema stats snapshot
    GET  /v1/models                     registry listing + active version
    POST /v1/models                     {"path": ...} publish a bundle
    POST /v1/models/<v>/canary          {"batches": N} start a canary
    GET  /v1/canary                     canary progress and divergence
    POST /v1/models/<v>/promote         {"force": bool} activate + reload

Event payloads use the one event codec
(:func:`repro.datasets.io.event_to_dict`), so a recorded jsonl log can
be replayed over the wire line-for-line.

**Hot reload.**  Promotion swaps the new model into the live deployment
via :meth:`~repro.serving.service.DetectionService.reload` — the
streaming window is retained, and the swap happens under the server's
ingest lock, so no batch ever sees a half-updated slate.  Post-promote
detections are span-identical to a server that had served the new model
all along (the window retention property; see ``service.py``).

**Canary.**  Before promoting, a candidate can run in *shadow*: a second
:class:`~repro.serving.service.DetectionService` is built from the
candidate bundle, seeded with the primary's retained window (so diffs
reflect the models, not window state), and fed every live batch for N
batches.  Per-batch detection-set differences — spans one model reports
and the other does not — accumulate in the canary report, and
``promote`` refuses a divergent or unfinished canary unless
``force=true``.  A byte-identical repack of the serving model therefore
always passes; a perturbed model is flagged.

**Overload and shutdown.**  Ingest admission is bounded: past
``max_inflight`` concurrent requests the server sheds with ``429`` (+
``Retry-After``) instead of queueing without limit, and ``healthz``
degrades to reflect a supervised fleet's restarts or quarantined
tenants.  Shutdown *drains*: new ingests get ``503`` (+ ``Retry-After``)
while in-flight batches finish under the ingest lock, then a final
checkpoint is cut for durable deployments — a restart resumes the
window span-identically (see :mod:`repro.serving.checkpoint`).

Threading model: ``ThreadingHTTPServer`` handles each request on its own
daemon thread; one :class:`threading.RLock` serializes every mutation
(ingest, canary stepping, publish, promote/reload), so the detection
pipeline itself stays single-threaded and deterministic.  Reads
(stats/detections/models) take the same lock briefly to snapshot.
"""

from __future__ import annotations

import json
import re
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Sequence
from urllib.parse import parse_qs, urlsplit

from repro.core.errors import (
    ArtifactError,
    DatasetError,
    HttpError,
    RegistryError,
    ReproError,
    ServingError,
)
from repro.datasets.io import event_from_dict, event_to_dict
from repro.serving.contracts import ServingHandle
from repro.serving.fleet import FleetDetection
from repro.serving.model_registry import ModelRegistry
from repro.serving.service import DetectionService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.model import BehaviorModel

__all__ = [
    "DetectionServer",
    "HttpServingHandle",
    "serve_http",
    "DEFAULT_CANARY_BATCHES",
    "DEFAULT_DETECTIONS_CAPACITY",
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_RETRY_AFTER",
]

#: Live batches a canary observes before it is complete, by default.
DEFAULT_CANARY_BATCHES = 8

#: Ring-buffer capacity of ``GET /v1/detections``.
DEFAULT_DETECTIONS_CAPACITY = 1024

#: Ingest requests admitted (executing + queued on the ingest lock)
#: before the server sheds load with 429.
DEFAULT_MAX_INFLIGHT = 32

#: Seconds clients are told to back off via ``Retry-After`` on 429/503.
DEFAULT_RETRY_AFTER = 1.0

#: Reject request bodies beyond this size (64 MiB) outright.
_MAX_BODY_BYTES = 64 * 1024 * 1024

#: Divergent spans retained per side in the canary report.
_MAX_DIFF_SPANS = 200

_MODEL_ACTION = re.compile(r"^/v1/models/(\d+)/(canary|promote)$")


def _detection_to_dict(detection) -> dict:
    """Serialize a service or fleet detection to JSON.

    Both shapes share ``query``/``span``; fleet detections add tenant and
    shard attribution, carried through when present.
    """
    payload = {
        "query": detection.query,
        "start": detection.span[0],
        "end": detection.span[1],
    }
    for extra in ("query_id", "batch", "tenant", "shard"):
        value = getattr(detection, extra, None)
        if value is not None:
            payload[extra] = value
    return payload


#: One detection as JSON, with :func:`_detection_to_dict`'s keys in its
#: order and ``json.dumps``'s separators; a fleet detection adds two keys.
_DETECTION_JSON = '{"query": %s, "start": %d, "end": %d, "query_id": %d, "batch": %d}'
_FLEET_DETECTION_JSON = _DETECTION_JSON[:-1] + ', "tenant": %s, "shard": %d}'


class _Quoted(dict):
    """JSON string literals of the names in one reply, each escaped once."""

    def __missing__(self, text: str) -> str:
        quoted = self[text] = encode_basestring_ascii(text)
        return quoted


def _encode_ingest_reply(ingested: int, detections: Sequence, batch: int) -> bytes:
    """The ingest reply's JSON, written straight from the detection records.

    Byte-identical to ``json.dumps`` of ``{"ingested": ..., "detections":
    [_detection_to_dict(d), ...], "batch": ...}`` for service and fleet
    detections, without a dict per detection or the generic encoder.
    """
    quoted = _Quoted()
    items = []
    for d in detections:
        if type(d) is FleetDetection:
            items.append(
                _FLEET_DETECTION_JSON
                % (
                    quoted[d.query], d.start, d.end, d.query_id, d.batch,
                    quoted[d.tenant], d.shard,
                )
            )
        else:
            items.append(
                _DETECTION_JSON % (quoted[d.query], d.start, d.end, d.query_id, d.batch)
            )
    reply = '{"ingested": %d, "detections": [%s], "batch": %d}' % (
        ingested, ", ".join(items), batch
    )
    return reply.encode("ascii")


def _span_key(detection) -> tuple[str, int, int]:
    """The canary comparison key: what was detected, and when."""
    return (detection.query, detection.span[0], detection.span[1])


class _CanaryRun:
    """One in-flight shadow comparison of a candidate model version."""

    def __init__(
        self, version: int, shadow: DetectionService, target_batches: int
    ) -> None:
        self.version = version
        self.shadow = shadow
        self.target_batches = target_batches
        self.batches = 0
        self.divergent_batches = 0
        self.missing: list[dict] = []  # primary reported, candidate did not
        self.extra: list[dict] = []  # candidate reported, primary did not

    @property
    def done(self) -> bool:
        return self.batches >= self.target_batches

    @property
    def divergent(self) -> bool:
        return self.divergent_batches > 0

    @property
    def verdict(self) -> str:
        if not self.done:
            return "running"
        return "divergent" if self.divergent else "clean"

    def step(self, events, primary_detections) -> None:
        """Feed the shadow one live batch and record the detection diff."""
        shadow_detections = self.shadow.ingest(events)
        primary_keys = {_span_key(d) for d in primary_detections}
        shadow_keys = {_span_key(d) for d in shadow_detections}
        if primary_keys != shadow_keys:
            self.divergent_batches += 1
            for query, start, end in sorted(primary_keys - shadow_keys):
                if len(self.missing) < _MAX_DIFF_SPANS:
                    self.missing.append({"query": query, "start": start, "end": end})
            for query, start, end in sorted(shadow_keys - primary_keys):
                if len(self.extra) < _MAX_DIFF_SPANS:
                    self.extra.append({"query": query, "start": start, "end": end})
        self.batches += 1

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "target_batches": self.target_batches,
            "batches": self.batches,
            "divergent_batches": self.divergent_batches,
            "missing": list(self.missing),
            "extra": list(self.extra),
            "done": self.done,
            "verdict": self.verdict,
        }


class DetectionServer:
    """The HTTP tier's application object: one deployment, one lock.

    Owns a :class:`~repro.serving.contracts.ServingHandle` (the live
    deployment plus what it serves), optionally a
    :class:`~repro.serving.model_registry.ModelRegistry`, the recent
    detections ring buffer, and at most one in-flight canary.  The HTTP
    handler below is a thin shell over the ``handle_*`` methods here, so
    everything is unit-testable without sockets.
    """

    def __init__(
        self,
        handle: ServingHandle,
        registry: ModelRegistry | None = None,
        detections_capacity: int = DEFAULT_DETECTIONS_CAPACITY,
        canary_batches: int = DEFAULT_CANARY_BATCHES,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        retry_after: float = DEFAULT_RETRY_AFTER,
    ) -> None:
        if max_inflight < 1:
            raise ServingError("max_inflight must be >= 1")
        self.handle = handle
        self.registry = registry
        self.canary_batches = canary_batches
        self.max_inflight = max_inflight
        self.retry_after = retry_after
        self._lock = threading.RLock()
        # detection records; GET /v1/detections serializes them on read
        self._recent: deque = deque(maxlen=detections_capacity)
        self._canary: _CanaryRun | None = None
        # admission control: the pipeline behind _lock is single-threaded,
        # so "inflight" = ingest requests executing or queued on the lock;
        # _gate guards the counter without touching the pipeline lock
        self._gate = threading.Lock()
        self._inflight = 0
        self._shed = 0
        self._draining = False

    # ------------------------------------------------------------------
    # endpoint implementations (JSON dict in -> JSON dict out; ingest
    # returns its reply already encoded)
    # ------------------------------------------------------------------
    def handle_healthz(self) -> dict:
        with self._lock:
            stats = self.handle.stats.as_dict()
            status = "draining" if self._draining else "ok"
            payload = {
                "status": status,
                "serving_version": self.handle.version,
                "active_version": (
                    self.registry.active_version if self.registry else None
                ),
                "registry": str(self.registry.root) if self.registry else None,
                "reloads": getattr(self.handle.ingestor, "reloads", 0),
                "batches": stats["batches"],
                "events": stats["events"],
                "shed": self._shed,
            }
            # a fault-tolerant deployment (fleet / checkpointed service)
            # reports its own liveness: degraded shards, quarantined
            # tenants, recovery progress — fold it into the probe
            probe = getattr(self.handle.ingestor, "health", None)
            if callable(probe):
                detail = probe()
                payload["deployment"] = detail
                if status == "ok" and detail.get("status") not in (None, "ok"):
                    payload["status"] = str(detail["status"])
            return payload

    def handle_ingest(self, body: dict) -> bytes:
        """Ingest one batch; returns the reply's JSON bytes, not a dict."""
        events_payload = body.get("events")
        if not isinstance(events_payload, list):
            raise HttpError(400, "ingest body must carry an 'events' list")
        try:
            events = [event_from_dict(item) for item in events_payload]
        except DatasetError as exc:
            raise HttpError(400, str(exc)) from exc
        with self._gate:
            if self._draining:
                raise HttpError(
                    503, "server is draining for shutdown",
                    retry_after=self.retry_after,
                )
            if self._inflight >= self.max_inflight:
                self._shed += 1
                raise HttpError(
                    429,
                    f"ingest overloaded: {self._inflight} requests in flight "
                    f"(max {self.max_inflight}); retry later",
                    retry_after=self.retry_after,
                )
            self._inflight += 1
        try:
            with self._lock:
                detections = self.handle.ingest(events)
                if self._canary is not None and not self._canary.done:
                    self._canary.step(events, detections)
                # only a batch's newest `maxlen` can stay in the ring (at
                # maxlen 0 the slice is the whole batch, which it drops)
                self._recent.extend(detections[-self._recent.maxlen :])
                batch = self.handle.stats.batches - 1
            # records are immutable: encode outside the pipeline lock
            return _encode_ingest_reply(len(events), detections, batch)
        finally:
            with self._gate:
                self._inflight -= 1

    def handle_detections(self, limit: int | None = None) -> dict:
        with self._lock:
            recent = list(self._recent)
        if limit is not None:
            if limit < 0:
                raise HttpError(400, f"limit must be >= 0, got {limit}")
            recent = recent[-limit:] if limit else []
        return {
            "detections": [_detection_to_dict(d) for d in recent],
            "capacity": self._recent.maxlen,
        }

    def handle_stats(self) -> dict:
        with self._lock:
            return self.handle.stats.as_dict()

    def handle_models(self) -> dict:
        registry = self._require_registry()
        with self._lock:
            return {
                "active": registry.active_version,
                "serving": self.handle.version,
                "entries": [entry.as_dict() for entry in registry.entries()],
            }

    def handle_publish(self, body: dict) -> dict:
        registry = self._require_registry()
        path = body.get("path")
        if not isinstance(path, str) or not path:
            raise HttpError(
                400, "publish body must carry 'path': a server-side bundle path"
            )
        entry = registry.publish(Path(path))
        return {"published": entry.as_dict(), "active": registry.active_version}

    def handle_canary_start(self, version: int, body: dict) -> dict:
        registry = self._require_registry()
        batches = body.get("batches", self.canary_batches)
        if not isinstance(batches, int) or batches < 1:
            raise HttpError(400, f"canary batches must be an int >= 1, got {batches!r}")
        candidate = registry.load(version)
        with self._lock:
            primary = self.handle.ingestor
            # a durable deployment is still one service: canary against
            # the live window inside the checkpoint wrapper
            primary = getattr(primary, "service", primary)
            if not isinstance(primary, DetectionService):
                raise HttpError(
                    409,
                    "canary comparison requires a single DetectionService "
                    f"deployment, not {type(primary).__name__}",
                )
            shadow = DetectionService()
            shadow.register_all(candidate.queries())
            window = primary.graph.window_events()
            if window:
                # seed the shadow with the retained window so the diff
                # reflects the models, not missing window state; the
                # seed batch's detections are the candidate's view of
                # history, not live divergence — discard them
                shadow.ingest(window)
            self._canary = _CanaryRun(version, shadow, batches)
            return self._canary.as_dict()

    def handle_canary_status(self) -> dict:
        with self._lock:
            if self._canary is None:
                raise HttpError(404, "no canary is running on this server")
            return self._canary.as_dict()

    def handle_promote(self, version: int, body: dict) -> dict:
        registry = self._require_registry()
        force = bool(body.get("force", False))
        with self._lock:
            canary = self._canary
            if not force:
                if canary is None or canary.version != version:
                    raise HttpError(
                        409,
                        f"no canary has run for v{version}; run "
                        f"POST /v1/models/{version}/canary first or pass "
                        '{"force": true}',
                    )
                if not canary.done:
                    raise HttpError(
                        409,
                        f"canary for v{version} is still running "
                        f"({canary.batches}/{canary.target_batches} batches); "
                        'wait for completion or pass {"force": true}',
                    )
                if canary.divergent:
                    raise HttpError(
                        409,
                        f"canary for v{version} diverged on "
                        f"{canary.divergent_batches} of {canary.batches} "
                        "batches (see GET /v1/canary); refusing to promote "
                        'without {"force": true}',
                    )
            model = registry.load(version)
            entry = registry.promote(version)
            # swap under the ingest lock: no batch interleaves with the
            # reload, and the streaming window is retained (see
            # DetectionService.reload for the equivalence guarantee)
            self.handle.reload(model, version)
            self._canary = None
            return {
                "promoted": entry.as_dict(),
                "serving": version,
                "forced": force,
                "canary": canary.as_dict() if canary is not None else None,
            }

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _require_registry(self) -> ModelRegistry:
        if self.registry is None:
            raise HttpError(
                409,
                "no model registry attached to this server; restart with "
                "--registry (CLI) or registry= (serve_http) to manage models",
            )
        return self.registry

    def close(self) -> None:
        """Drain in-flight ingests, cut a final checkpoint, close; idempotent.

        New ingest requests are refused with 503 (+ ``Retry-After``) the
        moment draining starts; taking the pipeline lock then waits out
        every batch already admitted.  If the deployment is durable
        (exposes ``checkpoint()``), the last thing that happens before
        close is a full snapshot cut, so a clean shutdown never needs
        WAL replay on the next boot.
        """
        with self._gate:
            self._draining = True
        with self._lock:
            final_cut = getattr(self.handle.ingestor, "checkpoint", None)
            if callable(final_cut):
                try:
                    final_cut()
                except ReproError:  # pragma: no cover - best-effort final cut
                    pass
            self.handle.close()


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin HTTP shell over :class:`DetectionServer`: route, decode, reply."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # a reply past one segment goes out in several; without TCP_NODELAY
    # the last can sit behind the peer's delayed ACK (~40ms/request on
    # loopback), dwarfing actual ingest time
    disable_nagle_algorithm = True

    @property
    def app(self) -> DetectionServer:
        return self.server.app  # type: ignore[attr-defined]

    # -- framing --------------------------------------------------------
    def _reply(
        self,
        status: int,
        payload: dict | bytes,
        retry_after: float | None = None,
        close: bool = False,
    ) -> None:
        """Send one reply: ``payload`` is a JSON dict or its encoded bytes.

        ``close`` adds ``Connection: close``.  A ``HEAD`` request gets the
        head alone, its ``Content-Length`` still that of the body.
        """
        if isinstance(payload, bytes):
            body = payload
        else:
            body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            # ceil to whole seconds: Retry-After is delta-seconds per RFC
            self.send_header("Retry-After", str(max(1, int(retry_after + 0.999))))
        if close:
            self.send_header("Connection", "close")
        if self.command == "HEAD":
            body = b""
        if self.request_version == "HTTP/0.9":
            # no status line or headers in HTTP/0.9: the body alone
            self.wfile.write(body)
            return
        # end_headers() would write the head on its own and wake the
        # client twice; the body joins the header buffer instead, so the
        # status line, headers and body leave in one write
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """Errors the stdlib raises itself (a malformed request line, an
        unsupported method, oversized headers) leave as the JSON error
        reply every other error carries, in one write, and close the
        connection as the stdlib's own ``send_error`` does."""
        if message is None:
            message = self.responses.get(code, ("error",))[0]
        self._reply(code, {"error": message, "status": code}, close=True)

    def _read_body(self) -> dict:
        declared = (self.headers.get("Content-Length") or "0").strip()
        digits = declared.lstrip("0") or "0"
        if not (digits.isascii() and digits.isdigit()):
            # the body is left unread, so where the next request starts
            # is unknown: the reply closes the connection
            self.close_connection = True
            raise HttpError(400, f"invalid Content-Length {declared[:40]!r}")
        if len(digits) > len(str(_MAX_BODY_BYTES)) or int(digits) > _MAX_BODY_BYTES:
            self.close_connection = True
            raise HttpError(413, f"request body over {_MAX_BODY_BYTES} bytes")
        length = int(digits)
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload

    def _dispatch(self, method: str) -> None:
        try:
            self._reply(200, self._route(method))
        except HttpError as exc:
            self._reply(
                exc.status,
                {"error": str(exc), "status": exc.status},
                retry_after=exc.retry_after,
                close=self.close_connection,
            )
        except (ArtifactError, DatasetError) as exc:
            self._reply(400, {"error": str(exc), "status": 400})
        except (RegistryError, ServingError) as exc:
            self._reply(409, {"error": str(exc), "status": 409})
        except ReproError as exc:
            self._reply(400, {"error": str(exc), "status": 400})
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self._reply(500, {"error": f"internal error: {exc}", "status": 500})

    def _route(self, method: str) -> dict | bytes:
        parts = urlsplit(self.path)
        path = parts.path.rstrip("/") or "/"
        app = self.app
        if method == "GET":
            if path == "/v1/healthz":
                return app.handle_healthz()
            if path == "/v1/stats":
                return app.handle_stats()
            if path == "/v1/detections":
                query = parse_qs(parts.query)
                limit = None
                if "limit" in query:
                    try:
                        limit = int(query["limit"][0])
                    except ValueError as exc:
                        raise HttpError(
                            400, f"limit must be an integer: {query['limit'][0]!r}"
                        ) from exc
                return app.handle_detections(limit)
            if path == "/v1/models":
                return app.handle_models()
            if path == "/v1/canary":
                return app.handle_canary_status()
            raise HttpError(404, f"no such endpoint: GET {path}")
        body = self._read_body()
        if path == "/v1/ingest":
            return app.handle_ingest(body)
        if path == "/v1/models":
            return app.handle_publish(body)
        action = _MODEL_ACTION.match(path)
        if action:
            version = int(action.group(1))
            if action.group(2) == "canary":
                return app.handle_canary_start(version, body)
            return app.handle_promote(version, body)
        raise HttpError(404, f"no such endpoint: POST {path}")

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("POST")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Suppress per-request stderr chatter (stats carry the numbers)."""


class HttpServingHandle:
    """A running HTTP deployment: server thread + application + address."""

    def __init__(self, server: ThreadingHTTPServer, app: DetectionServer) -> None:
        self.server = server
        self.app = app
        self._thread: threading.Thread | None = None
        self._served = False

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — port resolved even when bound to 0."""
        host, port = self.server.server_address[:2]
        return (str(host), int(port))

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start_background(self) -> "HttpServingHandle":
        """Serve on a daemon thread (the test/embedding mode)."""
        if self._thread is None:
            self._served = True
            self._thread = threading.Thread(
                target=self.server.serve_forever, daemon=True
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (the CLI mode)."""
        self._served = True
        self.server.serve_forever()

    def close(self) -> None:
        """Stop accepting requests and close the deployment; idempotent."""
        if self._served:
            # shutdown() waits on serve_forever's exit event, which only
            # ever gets set if the serve loop ran — skip it otherwise or
            # closing a never-started server would block forever
            self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.app.close()

    def __enter__(self) -> "HttpServingHandle":
        return self.start_background()

    def __exit__(self, *_exc) -> None:
        self.close()


def serve_http(
    handle: "ServingHandle | DetectionService",
    host: str = "127.0.0.1",
    port: int = 0,
    registry: "ModelRegistry | str | Path | None" = None,
    detections_capacity: int = DEFAULT_DETECTIONS_CAPACITY,
    canary_batches: int = DEFAULT_CANARY_BATCHES,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    retry_after: float = DEFAULT_RETRY_AFTER,
) -> HttpServingHandle:
    """Bind a deployment to an HTTP address; returns the running handle.

    ``port=0`` binds an ephemeral port (read it back from
    ``handle.address``).  The returned handle is not serving yet: call
    :meth:`~HttpServingHandle.start_background` (or enter it as a
    context manager) for a daemon thread, or
    :meth:`~HttpServingHandle.serve_forever` to serve on the calling
    thread.
    """
    if not isinstance(handle, ServingHandle):
        handle = ServingHandle(handle)
    if registry is not None and not isinstance(registry, ModelRegistry):
        registry = ModelRegistry(registry)
    app = DetectionServer(
        handle,
        registry=registry,
        detections_capacity=detections_capacity,
        canary_batches=canary_batches,
        max_inflight=max_inflight,
        retry_after=retry_after,
    )
    try:
        server = ThreadingHTTPServer((host, port), _RequestHandler)
    except OSError as exc:
        raise HttpError(500, f"cannot bind {host}:{port}: {exc}") from exc
    server.daemon_threads = True
    server.app = app  # type: ignore[attr-defined]
    return HttpServingHandle(server, app)
