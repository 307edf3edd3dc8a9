"""Streaming behavior-detection serving layer.

The paper's end product — discriminative behavior queries — is meant to
run *continuously* against live monitoring data.  This package is the
serving half of that deployment:

* :mod:`repro.serving.streaming` — :class:`StreamingGraph`, a temporal
  graph that ingests syscall events incrementally under a sliding
  time-window eviction policy, maintaining the one-edge label-pair index
  and the label signature online;
* :mod:`repro.serving.registry` — :class:`QueryRegistry`, many registered
  behavior queries grouped by shared signature prefixes so one prefilter
  pass over the window signature answers every impossible query at once;
* :mod:`repro.serving.service` — :class:`DetectionService`, the facade
  tying both together: ``ingest(events) -> list[Detection]``, evaluating
  surviving queries incrementally against only the newly-ingested delta;
* :mod:`repro.serving.fleet` — :class:`DetectionFleet`, the multi-tenant
  tier: events routed by tenant key across N shards of per-tenant
  services (inline or one worker process per shard), with bounded
  queues, backpressure accounting, and a :class:`FleetStats` rollup;
* :mod:`repro.serving.model_registry` — :class:`ModelRegistry`, a
  versioned on-disk store of deployable ``.tgm`` bundles with a
  candidate → active → retired promotion state machine;
* :mod:`repro.serving.http` — :class:`DetectionServer` /
  :func:`serve_http`, the stdlib HTTP tier exposing ingest, stats,
  registry management, hot reload, and canary promotion over ``/v1/*``.

Batch and streaming share one span join
(:func:`repro.core.graph_index.find_spans`): the batch
:class:`~repro.query.engine.QueryEngine` is "ingest everything, then
flush" over the same join.

Every deployment shares one caller surface — the
:class:`~repro.serving.contracts.Ingestor` protocol and the versioned
stats schema, both defined in :mod:`repro.serving.contracts` and
re-exported from :mod:`repro.api` (the canonical import path).
``Workspace.serve``, the CLI handlers, the HTTP tier, and the serving
benchmarks are written against it, so swapping a one-host service for a
sharded fleet is a constructor change, not a rewrite.
"""

from repro.serving.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    CheckpointedService,
    CheckpointStore,
    RecoveredService,
    recover_service,
)
from repro.serving.contracts import (
    STATS_SCHEMA_KEYS,
    STATS_SCHEMA_VERSION,
    Ingestor,
    ServingHandle,
    StatsView,
    stats_from_dict,
)
from repro.serving.fleet import (
    DEFAULT_TENANT,
    TENANT_SEPARATOR,
    DetectionFleet,
    FleetDetection,
    FleetStats,
    default_tenant_key,
    interleave_streams,
    shard_for_tenant,
    simulate_tenant_streams,
    tag_tenant_events,
    tenant_key_for_separator,
)
from repro.serving.registry import (
    BehaviorQuery,
    QueryRegistry,
    load_queries_jsonl,
    save_queries_jsonl,
)
from repro.serving.http import DetectionServer, HttpServingHandle, serve_http
from repro.serving.model_registry import ModelRegistry, RegistryEntry
from repro.serving.service import (
    Detection,
    DetectionService,
    LatencyReservoir,
    ServiceStats,
    merged_latency_percentile,
)
from repro.serving.streaming import IngestDelta, StreamingGraph, StreamStats

__all__ = [
    "BehaviorQuery",
    "CheckpointStore",
    "CheckpointedService",
    "DEFAULT_CHECKPOINT_EVERY",
    "DEFAULT_TENANT",
    "Detection",
    "DetectionFleet",
    "DetectionServer",
    "DetectionService",
    "FleetDetection",
    "FleetStats",
    "HttpServingHandle",
    "IngestDelta",
    "Ingestor",
    "LatencyReservoir",
    "ModelRegistry",
    "QueryRegistry",
    "RecoveredService",
    "RegistryEntry",
    "STATS_SCHEMA_KEYS",
    "STATS_SCHEMA_VERSION",
    "ServiceStats",
    "ServingHandle",
    "StatsView",
    "StreamingGraph",
    "StreamStats",
    "TENANT_SEPARATOR",
    "default_tenant_key",
    "interleave_streams",
    "load_queries_jsonl",
    "merged_latency_percentile",
    "recover_service",
    "save_queries_jsonl",
    "serve_http",
    "shard_for_tenant",
    "simulate_tenant_streams",
    "stats_from_dict",
    "tag_tenant_events",
    "tenant_key_for_separator",
]
