"""Tests for the HTTP serving tier: endpoints, registry flow, canary.

Each test binds a real ``ThreadingHTTPServer`` on an ephemeral port and
speaks the ``/v1/*`` JSON protocol over actual sockets.  The
load-bearing flow: publish -> canary (identical repack passes, a
perturbed model is flagged divergent) -> promote hot-reloads the live
deployment in place.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.api import ModelRegistry, Workspace, serve_http
from repro.core.errors import HttpError
from repro.datasets.io import event_to_dict
from repro.serving.http import DetectionServer
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
