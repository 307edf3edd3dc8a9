"""Tests for the HTTP serving tier: endpoints, registry flow, canary.

Most tests bind a real ``ThreadingHTTPServer`` on an ephemeral port and
speak the ``/v1/*`` JSON protocol over actual sockets.  The
load-bearing flow: publish -> canary (identical repack passes, a
perturbed model is flagged divergent) -> promote hot-reloads the live
deployment in place.  The reply-path tests drive the request handler
over in-memory streams, to pin the exact bytes of each reply and count
its writes.
"""

import io
import json
import socket
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.api import ModelRegistry, Workspace, serve_http
from repro.core.errors import HttpError
from repro.datasets.io import event_to_dict
from repro.serving.fleet import FleetDetection
from repro.serving.http import (
    DetectionServer,
    _detection_to_dict,
    _encode_ingest_reply,
    _RequestHandler,
)
from repro.serving.service import Detection
from repro.syscall.events import SyscallEvent

from conftest import make_behavior_model


def event(time, src_key, src_label, dst_key, dst_label):
    return SyscallEvent(
        time=time,
        syscall="op",
        src_key=src_key,
        src_label=src_label,
        dst_key=dst_key,
        dst_label=dst_label,
    )


def chain_events(base, i):
    """One instance of the conftest model's A->B->C chain at ``base``."""
    return [
        event(base, f"a{i}", "A", f"b{i}", "B"),
        event(base + 1, f"b{i}", "B", f"c{i}", "C"),
    ]


def call(server, method, path, payload=None):
    """One JSON request against a running server; returns (status, body)."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        server.url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def post_events(server, events):
    return call(
        server, "POST", "/v1/ingest", {"events": [event_to_dict(e) for e in events]}
    )


@pytest.fixture
def model():
    return make_behavior_model()


@pytest.fixture
def server(model):
    handle = serve_http(Workspace().serve(model))
    with handle:
        yield handle


@pytest.fixture
def registry_server(model, tmp_path):
    registry = ModelRegistry(tmp_path / "registry")
    version = registry.publish(model).version
    handle = Workspace().serve_http(model, registry=registry, version=version)
    with handle:
        yield handle, registry


class TestPlainEndpoints:
    def test_healthz(self, server):
        status, body = call(server, "GET", "/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["registry"] is None
        assert body["reloads"] == 0

    def test_ingest_reports_detections(self, server):
        status, body = post_events(server, chain_events(0, 0))
        assert status == 200
        assert body["ingested"] == 2
        assert body["batch"] == 0
        assert [(d["query"], d["start"], d["end"]) for d in body["detections"]] == [
            ("chain-abc#1", 0, 1)
        ]

    def test_ingest_never_computes_latency_percentiles(self, server, monkeypatch):
        """An ingest reply reads the batch counter only: a stats snapshot
        sorts the latency reservoir, a per-request cost that grows with
        uptime."""
        from repro.serving.service import LatencyReservoir

        def refuse(_reservoir, _quantile):
            raise AssertionError("ingest computed a latency percentile")

        monkeypatch.setattr(LatencyReservoir, "percentile", refuse)
        for i in range(3):
            status, body = post_events(server, chain_events(10 * i, i))
            assert status == 200, body
            assert body["batch"] == i

    def test_detections_ring_buffer_and_limit(self, server):
        post_events(server, chain_events(0, 0))
        post_events(server, chain_events(5, 1))
        status, body = call(server, "GET", "/v1/detections")
        assert status == 200
        assert [d["start"] for d in body["detections"]] == [0, 5]
        _, limited = call(server, "GET", "/v1/detections?limit=1")
        assert [d["start"] for d in limited["detections"]] == [5]
        assert call(server, "GET", "/v1/detections?limit=-1")[0] == 400
        assert call(server, "GET", "/v1/detections?limit=x")[0] == 400

    def test_stats_speak_the_shared_schema(self, server):
        from repro.api import stats_from_dict

        post_events(server, chain_events(0, 0))
        status, body = call(server, "GET", "/v1/stats")
        assert status == 200
        view = stats_from_dict(body)
        assert view.kind == "service"
        assert view.events == 2
        assert view.detections == 1

    def test_unknown_endpoint_404(self, server):
        assert call(server, "GET", "/v1/nothing")[0] == 404
        assert call(server, "POST", "/v1/nothing", {})[0] == 404

    def test_malformed_bodies_400(self, server):
        assert call(server, "POST", "/v1/ingest", {"events": "nope"})[0] == 400
        assert call(server, "POST", "/v1/ingest", {"events": [{"x": 1}]})[0] == 400
        status, body = call(server, "POST", "/v1/ingest", [1, 2])
        assert status == 400
        assert "JSON object" in body["error"]

    def test_models_without_registry_409(self, server):
        status, body = call(server, "GET", "/v1/models")
        assert status == 409
        assert "no model registry" in body["error"]

    def test_canary_status_without_canary_404(self, server):
        assert call(server, "GET", "/v1/canary")[0] == 404


class TestRegistryEndpoints:
    def test_models_lists_registry(self, registry_server):
        server, registry = registry_server
        status, body = call(server, "GET", "/v1/models")
        assert status == 200
        assert body["active"] == 1
        assert body["serving"] == 1
        assert [e["version"] for e in body["entries"]] == [1]

    def test_publish_over_http(self, registry_server, model, tmp_path):
        server, registry = registry_server
        bundle = make_behavior_model(span_cap=20).save(tmp_path / "wider.tgm")
        status, body = call(server, "POST", "/v1/models", {"path": str(bundle)})
        assert status == 200
        assert body["published"]["version"] == 2
        assert body["published"]["state"] == "candidate"
        assert registry.latest_version == 2

    def test_publish_bad_path_400(self, registry_server):
        server, _registry = registry_server
        status, body = call(server, "POST", "/v1/models", {"path": "/nope/x.tgm"})
        assert status == 400
        assert "no such model bundle" in body["error"]
        assert call(server, "POST", "/v1/models", {})[0] == 400

    def test_promote_without_canary_409(self, registry_server, model, tmp_path):
        server, registry = registry_server
        registry.publish(make_behavior_model(span_cap=20))
        status, body = call(server, "POST", "/v1/models/2/promote", {})
        assert status == 409
        assert "no canary has run" in body["error"]

    def test_promote_unknown_version_force_409(self, registry_server):
        server, _registry = registry_server
        status, body = call(server, "POST", "/v1/models/9/promote", {"force": True})
        assert status == 409
        assert "no version 9" in body["error"]


class TestCanaryPromotion:
    def repack(self, model):
        """Same queries, different bytes: a repack with provenance noise."""
        from repro.api.model import BehaviorModel

        return BehaviorModel(
            config=model.config,
            records=model.records,
            labels=model.labels,
            provenance={**model.provenance, "note": "repack"},
        )

    def test_identical_repack_passes_canary_and_promotes(self, registry_server):
        server, registry = registry_server
        post_events(server, chain_events(0, 0))
        version = registry.publish(self.repack(make_behavior_model())).version
        assert version == 2

        status, body = call(
            server, "POST", f"/v1/models/{version}/canary", {"batches": 2}
        )
        assert status == 200
        assert body["verdict"] == "running"
        post_events(server, chain_events(10, 1))
        post_events(server, chain_events(20, 2))
        status, body = call(server, "GET", "/v1/canary")
        assert body["done"] is True
        assert body["verdict"] == "clean"
        assert body["divergent_batches"] == 0

        status, body = call(server, "POST", f"/v1/models/{version}/promote", {})
        assert status == 200
        assert body["serving"] == version
        assert body["forced"] is False
        assert registry.active_version == version
        assert registry.entry(1).state == "retired"

        _, health = call(server, "GET", "/v1/healthz")
        assert health["serving_version"] == version
        assert health["reloads"] == 1
        # canary state is consumed by promotion
        assert call(server, "GET", "/v1/canary")[0] == 404
        # the deployment keeps detecting after the reload
        _, out = post_events(server, chain_events(30, 3))
        assert [d["start"] for d in out["detections"]] == [30]

    def test_perturbed_model_is_flagged_and_refused(self, registry_server):
        server, registry = registry_server
        post_events(server, chain_events(0, 0))
        # same pattern, different behavior name: every detection batch
        # diverges because the two models report different query names
        version = registry.publish(make_behavior_model(behavior="chain-alt")).version

        status, body = call(
            server, "POST", f"/v1/models/{version}/canary", {"batches": 1}
        )
        assert status == 200
        post_events(server, chain_events(10, 1))
        status, body = call(server, "GET", "/v1/canary")
        assert body["done"] is True
        assert body["verdict"] == "divergent"
        assert body["divergent_batches"] == 1
        assert [d["query"] for d in body["missing"]] == ["chain-abc#1"]
        assert [d["query"] for d in body["extra"]] == ["chain-alt#1"]

        status, body = call(server, "POST", f"/v1/models/{version}/promote", {})
        assert status == 409
        assert "diverged" in body["error"]
        assert registry.active_version == 1

        status, body = call(
            server, "POST", f"/v1/models/{version}/promote", {"force": True}
        )
        assert status == 200
        assert body["forced"] is True
        assert registry.active_version == version

    def test_incomplete_canary_refused(self, registry_server):
        server, registry = registry_server
        version = registry.publish(self.repack(make_behavior_model())).version
        call(server, "POST", f"/v1/models/{version}/canary", {"batches": 5})
        post_events(server, chain_events(0, 0))
        status, body = call(server, "POST", f"/v1/models/{version}/promote", {})
        assert status == 409
        assert "still running" in body["error"]

    def test_canary_bad_batches_400(self, registry_server):
        server, _registry = registry_server
        assert call(server, "POST", "/v1/models/1/canary", {"batches": 0})[0] == 400
        assert call(server, "POST", "/v1/models/1/canary", {"batches": "x"})[0] == 400

    def test_canary_unknown_version_409(self, registry_server):
        server, _registry = registry_server
        status, body = call(server, "POST", "/v1/models/9/canary", {})
        assert status == 409
        assert "no version 9" in body["error"]


class TestAppObject:
    def test_canary_requires_single_service(self, model, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(model)
        handle = Workspace().serve(model, shards=2)
        app = DetectionServer(handle, registry=registry)
        with pytest.raises(HttpError) as excinfo:
            app.handle_canary_start(1, {})
        assert excinfo.value.status == 409
        assert "DetectionService" in str(excinfo.value)
        handle.close()

    def test_close_without_serving_does_not_block(self, model):
        handle = serve_http(Workspace().serve(model))
        handle.close()  # never started; must not deadlock on shutdown()


# ----------------------------------------------------------------------
# the reply path: exact bytes, the detections ring, one write per reply
# ----------------------------------------------------------------------
def dict_form_reply(ingested, detections, batch):
    """``json.dumps`` of the ingest reply built as one dict per detection."""
    return json.dumps(
        {
            "ingested": ingested,
            "detections": [_detection_to_dict(d) for d in detections],
            "batch": batch,
        }
    ).encode("utf-8")


def ingest_body(events):
    return {"events": [event_to_dict(e) for e in events]}


#: Names that exercise every JSON escape: quotes, backslashes, control
#: characters, non-ASCII and a character outside the BMP.
AWKWARD = 'chäin "q" \\ \t\n\x01   \U0001f600'


class CountingWriter:
    """A fake ``wfile`` that records every write."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)

    def flush(self):
        pass


def handle_raw(app, method, path, payload=None, version="HTTP/1.1"):
    """One request through the real handler, over in-memory streams.

    Returns the list of writes the handler made to its ``wfile``.
    """
    body = json.dumps(payload).encode() if payload is not None else b""
    if version == "HTTP/0.9":
        head = f"{method} {path}\r\n"
    else:
        head = f"{method} {path} {version}\r\nContent-Length: {len(body)}\r\n\r\n"
    return handle_bytes(app, head.encode() + body)


def handle_bytes(app, request):
    """Feed raw request bytes to the real handler; returns its writes."""
    handler = _RequestHandler.__new__(_RequestHandler)
    handler.server = SimpleNamespace(app=app)
    handler.client_address = ("127.0.0.1", 0)
    handler.rfile = io.BytesIO(request)
    handler.wfile = CountingWriter()
    handler.close_connection = True
    handler.handle_one_request()
    return handler.wfile.writes


def parse_reply(raw):
    """``(status, headers, body)`` of one raw HTTP/1.x reply."""
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("ascii").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    assert int(headers["Content-Length"]) == len(body)
    return int(status_line.split()[1]), headers, body


class TestIngestReplyBytes:
    def test_encoder_equals_dict_form(self):
        service = [
            Detection(0, "chain-abc#1", 0, 1, 0),
            Detection(3, AWKWARD, 17, 2**40, 12),
            Detection(1, "", 5, 5, 12),
            Detection(3, AWKWARD, 18, 19, 12),
        ]
        fleet = [
            FleetDetection("acme", 0, 0, "chain-abc#1", 0, 1, 0),
            FleetDetection(AWKWARD, 3, 2, AWKWARD, 9, 11, 4),
            FleetDetection("", 1, 2, "x", 10, 12, 4),
        ]
        for detections in (service, fleet, service + fleet, []):
            assert _encode_ingest_reply(8, detections, 12) == dict_form_reply(
                8, detections, 12
            )

    def test_service_replies_equal_dict_form(self):
        model = make_behavior_model(behavior=AWKWARD)
        app = DetectionServer(Workspace().serve(model))
        twin = Workspace().serve(model)
        chains = [e for i in range(4) for e in chain_events(10 * i, i)]
        batches = [chains, [], [event(50, "a9", "A", "b9", "B")], chain_events(60, 9)]
        counts = []
        for batch in batches:
            detections = twin.ingest(batch)
            counts.append(len(detections))
            assert app.handle_ingest(ingest_body(batch)) == dict_form_reply(
                len(batch), detections, twin.stats.batches - 1
            )
        assert counts == [4, 0, 0, 1]

    def test_fleet_replies_equal_dict_form(self):
        model = make_behavior_model()
        app = DetectionServer(Workspace().serve(model, shards=2, runner="inline"))
        twin = Workspace().serve(model, shards=2, runner="inline")
        try:
            batch = [
                event(base + step, f"{tenant}|{a}{i}", a.upper(), f"{tenant}|{b}{i}", b.upper())
                for tenant in ("acme", AWKWARD)
                for i, base in enumerate((0, 10, 20))
                for step, (a, b) in enumerate((("a", "b"), ("b", "c")))
            ]
            for events, tenants in ((batch, {"acme", AWKWARD}), ([], set())):
                detections = twin.ingest(events)
                assert len(detections) == 3 * len(tenants)
                assert {d.tenant for d in detections} == tenants
                assert app.handle_ingest(ingest_body(events)) == dict_form_reply(
                    len(events), detections, twin.stats.batches - 1
                )
        finally:
            app.close()
            twin.close()

    def test_socket_reply_bytes(self, server):
        post_events(server, chain_events(0, 0))
        request = urllib.request.Request(
            server.url + "/v1/ingest",
            data=json.dumps(ingest_body(chain_events(10, 1))).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            raw = response.read()
        assert raw == dict_form_reply(
            2, [Detection(0, "chain-abc#1", 10, 11, 1)], 1
        )


class TestDetectionsRing:
    def test_keeps_each_batchs_newest_capacity(self, model):
        app = DetectionServer(Workspace().serve(model), detections_capacity=3)
        twin = Workspace().serve(model)
        first = [e for i in range(5) for e in chain_events(10 * i, i)]
        app.handle_ingest(ingest_body(first))
        detections = twin.ingest(first)
        assert len(detections) == 5
        newest = [_detection_to_dict(d) for d in detections[-3:]]
        assert app.handle_detections() == {"detections": newest, "capacity": 3}
        assert app.handle_detections(2)["detections"] == newest[-2:]
        assert app.handle_detections(10)["detections"] == newest
        assert app.handle_detections(0)["detections"] == []
        with pytest.raises(HttpError) as excinfo:
            app.handle_detections(-1)
        assert excinfo.value.status == 400

        second = chain_events(100, 9)
        app.handle_ingest(ingest_body(second))
        later = [_detection_to_dict(d) for d in twin.ingest(second)]
        assert app.handle_detections()["detections"] == newest[-2:] + later


class TestOneWritePerReply:
    def test_ok_replies(self, model):
        app = DetectionServer(Workspace().serve(model))
        (raw,) = handle_raw(app, "POST", "/v1/ingest", ingest_body(chain_events(0, 0)))
        status, headers, body = parse_reply(raw)
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert body == dict_form_reply(2, [Detection(0, "chain-abc#1", 0, 1, 0)], 0)
        (raw,) = handle_raw(app, "GET", "/v1/detections?limit=1")
        status, _, body = parse_reply(raw)
        assert status == 200
        assert json.loads(body)["detections"][0]["start"] == 0

    def test_client_errors(self, model):
        app = DetectionServer(Workspace().serve(model))
        (raw,) = handle_raw(app, "GET", "/v1/nothing")
        assert parse_reply(raw)[0] == 404
        (raw,) = handle_raw(app, "POST", "/v1/ingest", {"events": "nope"})
        status, headers, body = parse_reply(raw)
        assert status == 400
        assert "Retry-After" not in headers
        assert json.loads(body)["status"] == 400

    def test_429_with_retry_after(self, model, monkeypatch):
        handle = Workspace().serve(model)
        app = DetectionServer(handle, max_inflight=1, retry_after=2.5)
        service = handle.ingestor
        ingest = service.ingest
        shed = []

        def ingest_while_another_is_in_flight(events):
            shed.extend(handle_raw(app, "POST", "/v1/ingest", {"events": []}))
            return ingest(events)

        monkeypatch.setattr(service, "ingest", ingest_while_another_is_in_flight)
        (admitted,) = handle_raw(app, "POST", "/v1/ingest", {"events": []})
        assert parse_reply(admitted)[0] == 200
        (raw,) = shed
        status, headers, _ = parse_reply(raw)
        assert status == 429
        assert headers["Retry-After"] == "3"

    def test_503_with_retry_after_while_draining(self, model):
        app = DetectionServer(Workspace().serve(model), retry_after=2.5)
        app.close()
        (raw,) = handle_raw(app, "POST", "/v1/ingest", {"events": []})
        status, headers, body = parse_reply(raw)
        assert status == 503
        assert headers["Retry-After"] == "3"
        assert "draining" in json.loads(body)["error"]

    def test_http_09_gets_the_body_alone(self, model):
        app = DetectionServer(Workspace().serve(model))
        (raw,) = handle_raw(app, "GET", "/v1/healthz", version="HTTP/0.9")
        assert json.loads(raw)["status"] == "ok"


class TestHostileFraming:
    """Requests the stdlib parser or the body reader rejects get the JSON
    error reply, in one write, and close the connection."""

    @pytest.fixture
    def app(self, model):
        return DetectionServer(Workspace().serve(model))

    def assert_json_error(self, writes, status):
        (raw,) = writes
        code, headers, body = parse_reply(raw)
        assert code == status
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"
        assert json.loads(body)["status"] == status
        return json.loads(body)["error"]

    def test_unsupported_method(self, app):
        error = self.assert_json_error(handle_raw(app, "PUT", "/v1/ingest", {}), 501)
        assert "PUT" in error

    @pytest.mark.parametrize(
        "line",
        [b"GET /a b HTTP/1.1", b"GET / HTTP/1.1 extra HTTP/1.1"],
    )
    def test_garbage_request_line(self, app, line):
        self.assert_json_error(handle_bytes(app, line + b"\r\n\r\n"), 400)

    @pytest.mark.parametrize(
        "line, status",
        [(b"GET / HTTP/2.0", 505), (b"GET / HTTP/abc", 400), (b"GARBAGE", 400)],
    )
    def test_errors_before_the_version_is_known(self, app, line, status):
        # until the request line names a version the stdlib answers as
        # HTTP/0.9 does: the body alone, with no status line or headers
        (raw,) = handle_bytes(app, line + b"\r\n\r\n")
        assert json.loads(raw)["status"] == status

    def test_oversized_headers(self, app):
        headers = "".join(f"X-{i}: y\r\n" for i in range(101))
        request = f"GET /v1/healthz HTTP/1.1\r\n{headers}\r\n"
        self.assert_json_error(handle_bytes(app, request.encode()), 431)

    def test_head_gets_the_head_alone(self, app):
        (raw,) = handle_bytes(app, b"HEAD /v1/healthz HTTP/1.1\r\n\r\n")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 501 ")
        assert b"Connection: close" in head
        assert body == b""

    @pytest.mark.parametrize("length", ["abc", "-1", "1.5", "+3", "1_0", "\u0661"])
    def test_invalid_content_length(self, app, length):
        request = (
            f"POST /v1/ingest HTTP/1.1\r\nContent-Length: {length}\r\n\r\n{{}}"
        )
        error = self.assert_json_error(handle_bytes(app, request.encode()), 400)
        assert "Content-Length" in error

    def test_oversized_content_length(self, app):
        for length in ("9" * 5000, str(64 * 1024 * 1024 + 1)):
            request = f"POST /v1/ingest HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
            self.assert_json_error(handle_bytes(app, request.encode()), 413)

    def test_leading_zeros_are_a_length(self, app):
        body = json.dumps(ingest_body(chain_events(0, 0))).encode()
        request = (
            f"POST /v1/ingest HTTP/1.1\r\nContent-Length: 000{len(body)}\r\n\r\n"
        ).encode() + body
        (raw,) = handle_bytes(app, request)
        assert parse_reply(raw)[0] == 200

    def test_negative_length_over_a_socket_does_not_hang(self, server):
        with socket.create_connection(server.address, timeout=2) as conn:
            conn.sendall(
                b"POST /v1/ingest HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: -1\r\n\r\n{}"
            )
            reply = b""
            while chunk := conn.recv(65536):
                reply += chunk
        status, headers, body = parse_reply(reply)
        assert status == 400
        assert headers["Connection"] == "close"
        assert "Content-Length" in json.loads(body)["error"]
