"""Tests for the public serving contract: Ingestor, stats schema, handle.

The contract (``repro.api`` is the canonical import path; definitions
live in ``repro.serving.contracts``) is what every deployment agrees on:
both stats implementations emit the same versioned ``as_dict()`` schema,
``stats_from_dict`` round-trips either byte-for-byte, and
``Workspace.serve`` returns a :class:`ServingHandle` that satisfies the
:class:`Ingestor` protocol by delegation.
"""

import pytest

import repro
from repro.api import (
    STATS_SCHEMA_KEYS,
    STATS_SCHEMA_VERSION,
    Ingestor,
    ServingHandle,
    StatsView,
    stats_from_dict,
)
from repro.core.errors import ServingError
from repro.serving import DetectionFleet, DetectionService
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


@pytest.fixture
def model():
    return make_behavior_model()


class TestStatsSchema:
    def test_schema_version_is_first_key(self):
        assert STATS_SCHEMA_KEYS[0] == "schema_version"

    def test_service_payload_carries_schema(self, model):
        service = DetectionService()
        service.register_all(model.queries())
        service.ingest(chain_events(0, 0))
        payload = service.stats.as_dict()
        assert payload["schema_version"] == STATS_SCHEMA_VERSION
        assert payload["kind"] == "service"
        for key in STATS_SCHEMA_KEYS:
            assert key in payload

    def test_fleet_payload_carries_schema(self, model):
        fleet = DetectionFleet(shards=2)
        fleet.register_all(model.queries())
        fleet.ingest(chain_events(0, 0))
        payload = fleet.stats.as_dict()
        assert payload["schema_version"] == STATS_SCHEMA_VERSION
        assert payload["kind"] == "fleet"
        for key in STATS_SCHEMA_KEYS:
            assert key in payload
        fleet.close()

    def test_service_round_trip_exact(self, model):
        service = DetectionService()
        service.register_all(model.queries())
        service.ingest(chain_events(0, 0))
        payload = service.stats.as_dict()
        view = stats_from_dict(payload)
        assert isinstance(view, StatsView)
        assert view.as_dict() == payload
        assert view.events == payload["events"]
        assert view.detections == 1
        assert not view.is_fleet

    def test_fleet_round_trip_exact(self, model):
        fleet = DetectionFleet(shards=2)
        fleet.register_all(model.queries())
        fleet.ingest(chain_events(0, 0))
        payload = fleet.stats.as_dict()
        view = stats_from_dict(payload)
        assert view.as_dict() == payload
        assert view.is_fleet
        shard_views = view.per_shard
        assert len(shard_views) == payload["shards"]
        for shard in shard_views:
            assert shard.kind == "service"
        fleet.close()

    def test_unknown_attribute_raises(self, model):
        view = stats_from_dict(DetectionService().stats.as_dict())
        with pytest.raises(AttributeError, match="no key"):
            view.nonexistent_counter


class TestStatsValidation:
    def base(self):
        return DetectionService().stats.as_dict()

    def test_non_dict_rejected(self):
        with pytest.raises(ServingError, match="must be a dict"):
            stats_from_dict([1, 2, 3])

    def test_missing_key_rejected(self):
        payload = self.base()
        del payload["detections"]
        with pytest.raises(ServingError, match="missing schema keys: detections"):
            stats_from_dict(payload)

    def test_newer_schema_version_rejected(self):
        payload = self.base()
        payload["schema_version"] = STATS_SCHEMA_VERSION + 1
        with pytest.raises(ServingError, match="newer than this library"):
            stats_from_dict(payload)

    def test_invalid_schema_version_rejected(self):
        payload = self.base()
        payload["schema_version"] = "one"
        with pytest.raises(ServingError, match="invalid stats schema_version"):
            stats_from_dict(payload)

    def test_unknown_kind_rejected(self):
        payload = self.base()
        payload["kind"] = "mystery"
        with pytest.raises(ServingError, match="unknown stats kind"):
            stats_from_dict(payload)

    def test_fleet_extras_required(self):
        payload = self.base()
        payload["kind"] = "fleet"
        with pytest.raises(ServingError, match="missing 'shards'"):
            stats_from_dict(payload)


class TestServingHandle:
    def test_serve_returns_protocol_conformant_handle(self, model):
        handle = repro.Workspace().serve(model)
        assert isinstance(handle, ServingHandle)
        assert isinstance(handle, Ingestor)
        assert handle.model is model
        assert handle.registry is None
        assert handle.window_span == 10

    def test_handle_delegates_ingest_and_replay(self, model):
        handle = repro.Workspace().serve(model)
        detections = handle.ingest(chain_events(0, 0))
        assert [d.span for d in detections] == [(0, 1)]
        replayed = []
        for _batch, found in handle.replay(chain_events(5, 1), batch_size=2):
            replayed.extend(found)
        assert [d.span for d in replayed] == [(5, 6)]
        assert handle.stats.as_dict()["detections"] == 2

    def test_handle_is_context_manager(self, model):
        with repro.Workspace().serve(model) as handle:
            assert handle.ingest(chain_events(0, 0))

    def test_handle_reload_swaps_model_and_version(self, model):
        handle = repro.Workspace().serve(model)
        handle.ingest(chain_events(0, 0))
        replacement = make_behavior_model(behavior="chain-xyz")
        handle.reload(replacement, version=7)
        assert handle.model is replacement
        assert handle.version == 7
        detections = handle.ingest(chain_events(20, 1))
        assert [d.query for d in detections] == ["chain-xyz#1"]

    def test_reload_without_support_raises(self, model):
        class Bare:
            stats = None

            def register_all(self, queries):
                return []

            def ingest(self, events):
                return []

            def replay(self, events, batch_size):
                return iter(())

            def close(self):
                pass

        handle = ServingHandle(Bare())
        with pytest.raises(ServingError, match="does not support hot reload"):
            handle.reload(model)

    def test_serve_with_shards_wraps_fleet(self, model):
        handle = repro.Workspace().serve(model, shards=2)
        assert isinstance(handle, ServingHandle)
        assert isinstance(handle.ingestor, DetectionFleet)
        assert handle.ingest(chain_events(0, 0))
        handle.close()


class TestPublicExports:
    def test_repro_all_exports_serving_surface(self):
        for name in (
            "Ingestor",
            "ServingHandle",
            "StatsView",
            "stats_from_dict",
            "ModelRegistry",
            "RegistryEntry",
            "RegistryError",
            "HttpError",
            "serve_http",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_api_is_canonical_import_path(self):
        import repro.api as api
        import repro.serving.contracts as contracts

        assert api.Ingestor is contracts.Ingestor
        assert api.ServingHandle is contracts.ServingHandle
        assert api.stats_from_dict is contracts.stats_from_dict
        assert api.STATS_SCHEMA_KEYS is contracts.STATS_SCHEMA_KEYS
