"""Sharded multi-tenant detection fleet behind the single-service ingest API.

One :class:`~repro.serving.service.DetectionService` owns one sliding
window — fine for one host's stream, hopeless for a deployment
monitoring many tenants' event streams at once.  :class:`DetectionFleet`
scales the *data plane* by partitioning it while keeping the *query
surface* single (the partition/provenance discipline of the LSST
multi-petabyte-database design): callers still speak the
:class:`~repro.serving.Ingestor` surface — ``register_all`` /
``ingest`` / ``replay`` / ``stats`` / ``close`` — and the fleet routes
each event to a shard by its **tenant key**, where a per-tenant
:class:`DetectionService` (own window, own dedup state) evaluates it.

Correctness contract
--------------------
Fleet detections are **exactly the union of per-tenant serial
``DetectionService`` detections** — for any shard count, any routing of
tenants to shards, and any batching of the mixed stream — because a
shard never mixes tenants into one window: each tenant's events reach
its own service in arrival order, and services on different shards share
nothing.  ``tests/test_fleet.py`` asserts the identity property-style;
``benchmarks/bench_fleet.py`` re-asserts it inside the gated benchmark.

Shard runners
-------------
* ``runner="inline"`` (default): shards are plain in-process tenant
  maps.  Zero parallelism, zero serialization — the correctness
  reference, and the right choice for tests and modest streams.
* ``runner="process"``: one worker process per shard, fed through a
  **bounded** input queue (``queue_depth`` batches).  A full queue is
  *backpressure*: the router counts the stall
  (``FleetStats.backpressure_waits``) and blocks — draining finished
  results while it waits — instead of buffering without bound.  The
  registered query slate is serialized once into one shared-memory
  blob (:func:`repro.core.shm.publish_blob`, the blob
  :func:`repro.core.parallel.run_sharded` ships a non-fork pool's
  start-up state in), which every shard reads instead of receiving
  its own copy through its start-up pipe.  Per-batch results
  carry additive counter deltas (:meth:`ServiceStats.counters`), which
  the router folds into parent-side per-shard :class:`ServiceStats` —
  fleet stats are always readable without a barrier.

Late arrivals are dropped *per tenant* by each tenant's own window
(never because a neighbour tenant's clock ran ahead) and roll up into
``FleetStats.late_dropped``.

Fault tolerance
---------------
With ``checkpoint_dir=`` set, every tenant service is durable: its
batches are logged to a per-(shard, tenant) WAL and snapshotted every
``checkpoint_every`` batches (see :mod:`repro.serving.checkpoint`).  The
router is then a *supervisor*: a dead or stalled worker is killed,
respawned with bounded exponential backoff against a per-shard
``restart_budget``, and the new worker re-warms every tenant service
from its checkpoint directory, replaying the WAL tail.  Replayed batches
answer the router's still-pending submissions (matched by submit seq +
a parent-lifetime epoch token), and batches that never reached the WAL
are resubmitted in order — so a ``kill -9`` mid-stream yields exactly
the detections of an uninterrupted run.  A batch a tenant service
*rejects* (a poisoned batch) quarantines that tenant — its later events
are dropped and counted — instead of killing the shard.  All of it is
accounted in :class:`FleetStats` (``restarts``, ``force_killed``,
``recovered_events``, ``quarantined``, ``quarantine_dropped``) and
surfaced by :meth:`DetectionFleet.health`.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection as _mp_connection
import os
import queue as _queue
import time as _time
import traceback
import uuid
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence
from urllib.parse import quote, unquote

from repro.core.errors import CheckpointError, ServingError, ShardTimeoutError
from repro.core.faults import FaultPlan
from repro.core.parallel import resolve_start_method
from repro.serving.contracts import STATS_SCHEMA_VERSION
from repro.core.shm import BlobDescriptor, publish_blob, read_blob
from repro.serving.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    CheckpointStore,
    recover_service,
)
from repro.serving.registry import BehaviorQuery, query_from_dict, query_to_dict
from repro.serving.service import (
    Detection,
    DetectionService,
    ServiceStats,
    merged_latency_percentile,
)
from repro.syscall.events import SyscallEvent

__all__ = [
    "DetectionFleet",
    "FleetDetection",
    "FleetStats",
    "TENANT_SEPARATOR",
    "DEFAULT_TENANT",
    "default_tenant_key",
    "tenant_key_for_separator",
    "shard_for_tenant",
    "tag_tenant_events",
    "interleave_streams",
    "simulate_tenant_streams",
]

#: Separator splitting the tenant id off a tagged entity key
#: (``"tenant-007|proc:1234"``).
TENANT_SEPARATOR = "|"

#: Tenant that untagged events route to, so a single-host log replays
#: through a fleet unchanged (everything lands on one shard's service).
DEFAULT_TENANT = "default"

#: Bounded input-queue depth per process shard, in batches.
DEFAULT_QUEUE_DEPTH = 8

#: Worker restarts the supervisor will attempt per shard before giving up.
DEFAULT_RESTART_BUDGET = 3

#: Base delay of the supervisor's exponential restart backoff, seconds.
DEFAULT_RESTART_BACKOFF = 0.05

#: Backoff ceiling, seconds.
_RESTART_BACKOFF_CAP = 2.0

#: How long the router waits on shard results before declaring a stall.
DEFAULT_RESULT_TIMEOUT = 60.0


def tenant_key_for_separator(separator: str) -> Callable[[SyscallEvent], str]:
    """Build a tenant-key function splitting a prefix off ``src_key``.

    Events whose source key carries no separator map to
    :data:`DEFAULT_TENANT` — a whole untagged log is one tenant.
    """
    if not separator:
        raise ServingError("tenant-key separator must be non-empty")

    def tenant_key(event: SyscallEvent) -> str:
        key = event.src_key
        head, sep, _ = key.partition(separator)
        return head if sep else DEFAULT_TENANT

    return tenant_key


#: The default routing key: ``src_key`` prefix before ``"|"``.
default_tenant_key = tenant_key_for_separator(TENANT_SEPARATOR)


def shard_for_tenant(tenant: str, shards: int) -> int:
    """Stable tenant → shard assignment (CRC32, identical across
    processes and runs — unlike ``hash()``, which is salted per
    interpreter)."""
    return zlib.crc32(tenant.encode("utf-8")) % shards


def tag_tenant_events(
    tenant: str, events: Sequence[SyscallEvent]
) -> list[SyscallEvent]:
    """Prefix every entity key with ``tenant|`` so the router can split
    a mixed stream back into per-tenant substreams.

    Tagging both endpoints keeps each tenant's entity namespace disjoint;
    labels (what patterns match on) are untouched.
    """
    if TENANT_SEPARATOR in tenant:
        raise ServingError(
            f"tenant id {tenant!r} must not contain {TENANT_SEPARATOR!r}"
        )
    prefix = f"{tenant}{TENANT_SEPARATOR}"
    return [
        SyscallEvent(
            time=event.time,
            syscall=event.syscall,
            src_key=prefix + event.src_key,
            src_label=event.src_label,
            dst_key=prefix + event.dst_key,
            dst_label=event.dst_label,
        )
        for event in events
    ]


def interleave_streams(
    streams: Sequence[Sequence[SyscallEvent]], chunk: int = 32
) -> list[SyscallEvent]:
    """Round-robin merge of event streams, ``chunk`` events at a time.

    Per-stream order is preserved (each tenant's events stay in arrival
    order); across streams the merge deliberately mixes tenants within
    every ingest batch — the fleet's routing workload.
    """
    if chunk < 1:
        raise ServingError("interleave chunk must be >= 1")
    cursors = [0] * len(streams)
    merged: list[SyscallEvent] = []
    remaining = sum(len(stream) for stream in streams)
    while remaining:
        for i, stream in enumerate(streams):
            take = stream[cursors[i] : cursors[i] + chunk]
            merged.extend(take)
            cursors[i] += len(take)
            remaining -= len(take)
    return merged


def simulate_tenant_streams(
    tenants: int,
    instances: int,
    seed: int = 11,
    chunk: int = 32,
    behaviors: Sequence[str] | None = None,
) -> list[SyscallEvent]:
    """Load-generator input: ``tenants`` tagged busy-host logs, interleaved.

    Each tenant gets its own :func:`~repro.syscall.collector.build_test_data`
    log (seed ``seed + t``) tagged with ``tenant-<t>``; the streams are
    round-robin interleaved so consecutive ingest batches mix tenants.
    Used by ``repro detect --shards --tenants`` and the fleet benchmark.
    """
    from repro.syscall.collector import build_test_data

    if tenants < 1:
        raise ServingError("tenants must be >= 1")
    overrides: dict = {}
    if behaviors is not None:
        overrides["behaviors"] = tuple(behaviors)
    streams = []
    for t in range(tenants):
        data = build_test_data(instances=instances, seed=seed + t, **overrides)
        streams.append(tag_tenant_events(f"tenant-{t:03d}", data.events))
    return interleave_streams(streams, chunk=chunk)


@dataclass(frozen=True)
class FleetDetection:
    """One identified behavior instance, attributed to its tenant + shard.

    ``batch`` is the *tenant-local* batch index (the tenant service's own
    ingest counter), deterministic for any shard count or routing.
    """

    tenant: str
    shard: int
    query_id: int
    query: str
    start: int
    end: int
    batch: int

    @property
    def span(self) -> tuple[int, int]:
        """The identified time interval on the tenant's own clock."""
        return (self.start, self.end)

    @property
    def key(self) -> tuple[str, str, int, int]:
        """Routing-invariant identity: ``(tenant, query, start, end)``."""
        return (self.tenant, self.query, self.start, self.end)


@dataclass(frozen=True)
class FleetStats:
    """Fleet-level rollup over parent-side per-shard :class:`ServiceStats`.

    ``shards`` holds live references to the router's per-shard stats —
    read, don't mutate.  Aggregates are sums; tail latency merges the
    shard reservoirs count-weighted
    (:func:`~repro.serving.service.merged_latency_percentile`).

    ``events_per_second`` here divides by **router wall-clock**
    (``wall_seconds``: time spent inside fleet calls, during which
    process shards work concurrently), not by summed per-shard ingest
    seconds — the number an operator sizing a fleet actually wants.
    """

    shards: tuple[ServiceStats, ...]
    tenants: int
    queue_depth: int
    routed_batches: int
    routed_events: int
    backpressure_waits: int
    wall_seconds: float
    restarts: int = 0
    force_killed: int = 0
    recovered_events: int = 0
    quarantined: tuple[str, ...] = ()
    quarantine_dropped: int = 0

    # -- aggregates over shards -----------------------------------------
    @property
    def batches(self) -> int:
        """Tenant-service ingest calls across all shards."""
        return sum(s.batches for s in self.shards)

    @property
    def events(self) -> int:
        """Events accepted into tenant windows across all shards."""
        return sum(s.events for s in self.shards)

    @property
    def detections(self) -> int:
        return sum(s.detections for s in self.shards)

    @property
    def queries_evaluated(self) -> int:
        return sum(s.queries_evaluated for s in self.shards)

    @property
    def queries_prefiltered(self) -> int:
        return sum(s.queries_prefiltered for s in self.shards)

    @property
    def matching_seconds(self) -> float:
        return sum(s.matching_seconds for s in self.shards)

    @property
    def evicted(self) -> int:
        return sum(s.evicted for s in self.shards)

    @property
    def late_dropped(self) -> int:
        return sum(s.late_dropped for s in self.shards)

    @property
    def reinserted(self) -> int:
        return sum(s.reinserted for s in self.shards)

    @property
    def total_seconds(self) -> float:
        """Summed in-shard ingest seconds (busy time, not wall time)."""
        return sum(s.total_seconds for s in self.shards)

    @property
    def events_per_second(self) -> float:
        """Aggregate throughput over router wall-clock."""
        return self.routed_events / self.wall_seconds if self.wall_seconds else 0.0

    def latency_percentile(self, quantile: float) -> float:
        """Count-weighted nearest-rank percentile across shard reservoirs."""
        return merged_latency_percentile(
            (s.latency for s in self.shards), quantile
        )

    @property
    def max_batch_seconds(self) -> float:
        """Slowest single tenant-batch ingest anywhere in the fleet."""
        return max((s.latency.max for s in self.shards), default=0.0)

    def as_dict(self) -> dict:
        """JSON-compatible snapshot: the shared
        :data:`~repro.serving.service.STATS_SCHEMA_KEYS` schema plus
        fleet-only rollup extras (``per_shard`` nests each shard's own
        ``as_dict``)."""
        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "kind": "fleet",
            "batches": self.batches,
            "events": self.events,
            "detections": self.detections,
            "queries_evaluated": self.queries_evaluated,
            "queries_prefiltered": self.queries_prefiltered,
            "matching_seconds": self.matching_seconds,
            "total_seconds": self.total_seconds,
            "events_per_second": self.events_per_second,
            "evicted": self.evicted,
            "late_dropped": self.late_dropped,
            "reinserted": self.reinserted,
            "latency_ms": {
                "p50": self.latency_percentile(0.5) * 1000,
                "p95": self.latency_percentile(0.95) * 1000,
                "p99": self.latency_percentile(0.99) * 1000,
                "max": self.max_batch_seconds * 1000,
            },
            "latency_samples": {
                "observed": sum(s.latency.count for s in self.shards),
                "kept": sum(s.latency.kept for s in self.shards),
                "capacity": sum(s.latency.capacity for s in self.shards),
            },
            # fleet-only rollup
            "shards": len(self.shards),
            "tenants": self.tenants,
            "queue_depth": self.queue_depth,
            "routed_batches": self.routed_batches,
            "routed_events": self.routed_events,
            "backpressure_waits": self.backpressure_waits,
            "wall_seconds": self.wall_seconds,
            "restarts": self.restarts,
            "force_killed": self.force_killed,
            "recovered_events": self.recovered_events,
            "quarantined": list(self.quarantined),
            "quarantine_dropped": self.quarantine_dropped,
            "per_shard": [s.as_dict() for s in self.shards],
        }


class _ShardState:
    """One shard's tenant services — the same code inline and in workers.

    Lazily opens a :class:`DetectionService` per first-seen tenant and
    reports each ingest as ``(detections, counter_delta, seconds)``:
    the delta is the difference of the service's additive
    :meth:`~ServiceStats.counters` across the call, the currency the
    router folds into its parent-side per-shard stats regardless of
    which process the ingest ran in.
    """

    def __init__(
        self,
        queries: Sequence[BehaviorQuery],
        window_span: int | None,
        *,
        shard_id: int = 0,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        faults: FaultPlan | None = None,
        epoch: str = "",
    ) -> None:
        self._queries = list(queries)
        self._window_span = window_span
        self._shard_id = shard_id
        self._checkpoint_dir = checkpoint_dir
        self._checkpoint_every = checkpoint_every
        self._faults = faults
        self._epoch = epoch
        self._services: dict[str, DetectionService] = {}
        self._previous: dict[str, dict] = {}
        self._stores: dict[str, CheckpointStore] = {}
        self._since_snapshot: dict[str, int] = {}

    def _scope(self, tenant: str) -> dict:
        return {"shard": self._shard_id, "tenant": tenant}

    def _tenant_dir(self, tenant: str) -> Path:
        assert self._checkpoint_dir is not None
        return Path(self._checkpoint_dir) / quote(tenant, safe="")

    def recover_tenants(self) -> list[tuple[str, int, str, list[Detection], int]]:
        """Re-warm every checkpointed tenant service from disk.

        Returns one entry per WAL record replayed on top of a tenant's
        restored snapshot: ``(tenant, seq, epoch, detections, events)``.
        The supervisor matches these against its in-flight bookkeeping
        to answer batches that were logged but never acknowledged.
        """
        if self._checkpoint_dir is None:
            return []
        root = Path(self._checkpoint_dir)
        if not root.is_dir():
            return []
        replayed: list[tuple[str, int, str, list[Detection], int]] = []
        for child in sorted(root.iterdir()):
            if not child.is_dir():
                continue
            tenant = unquote(child.name)
            recovered = recover_service(
                child,
                queries=self._queries,
                window_span=self._window_span,
                faults=self._faults,
                fault_scope=self._scope(tenant),
            )
            self._services[tenant] = recovered.service
            self._previous[tenant] = recovered.service.stats.counters()
            self._stores[tenant] = recovered.store
            self._since_snapshot[tenant] = len(recovered.replayed)
            for seq, epoch, detections, num_events in recovered.replayed:
                replayed.append((tenant, seq, epoch, detections, num_events))
        return replayed

    def ingest(
        self, tenant: str, events: Sequence[SyscallEvent], seq: int = -1
    ) -> tuple[list[Detection], dict, float]:
        service = self._services.get(tenant)
        if service is None:
            service = DetectionService(
                window_span=self._window_span,
                faults=self._faults,
                fault_scope=self._scope(tenant),
            )
            service.register_all(self._queries)
            self._services[tenant] = service
            self._previous[tenant] = service.stats.counters()
            if self._checkpoint_dir is not None:
                self._stores[tenant] = CheckpointStore(
                    self._tenant_dir(tenant),
                    faults=self._faults,
                    fault_scope=self._scope(tenant),
                )
                self._since_snapshot[tenant] = 0
        store = self._stores.get(tenant)
        if (
            store is not None
            and self._since_snapshot[tenant] >= self._checkpoint_every
        ):
            # cut *before* appending, so a snapshot never absorbs a batch
            # whose ack may still be in flight: the batch's WAL record
            # must stay in the replay range until the *next* cut, or a
            # crash between ingest and ack leaves the supervisor unable
            # to settle the batch (it would resubmit, double-ingesting
            # events the restored window already seals)
            store.snapshot(service)
            self._since_snapshot[tenant] = 0
        offset = (
            store.append(seq, events, epoch=self._epoch)
            if store is not None
            else None
        )
        started = _time.perf_counter()
        try:
            detections = service.ingest(events)
        except ServingError:
            if store is not None and offset is not None:
                # the rejected batch never mutated the service; keep it
                # out of the WAL so recovery replays reality, not intent
                store.truncate_to(offset)
            raise
        elapsed = _time.perf_counter() - started
        current = service.stats.counters()
        previous = self._previous[tenant]
        delta = {key: current[key] - previous[key] for key in current}
        self._previous[tenant] = current
        if store is not None:
            self._since_snapshot[tenant] += 1
        return detections, delta, elapsed

    def reload(self, queries: Sequence[BehaviorQuery]) -> None:
        """Swap the slate on every open tenant service + future tenants."""
        self._queries = list(queries)
        for service in self._services.values():
            service.reload(self._queries)
        # the slate is part of each snapshot: make the swap durable now
        self.checkpoint_all()

    def checkpoint_all(self) -> None:
        """Cut a snapshot for every checkpointed tenant service."""
        for tenant, store in self._stores.items():
            store.snapshot(self._services[tenant])
            self._since_snapshot[tenant] = 0

    def close(self) -> None:
        for store in self._stores.values():
            store.close()


def _flush_queue(out_queue) -> None:
    """Drain the result queue's feeder before a simulated hard kill.

    ``os._exit`` while the queue's feeder thread is mid-``put`` would
    leave a half-written frame (or a held write lock) in the channel,
    wedging the supervisor — an artifact of simulating SIGKILL
    in-process, not of the crash semantics under test: the current
    batch's ack is still never sent, so recovery must prove the same
    settle-or-resubmit property either way.
    """
    try:
        out_queue.close()
        out_queue.join_thread()
    except Exception:  # pragma: no cover - queue already broken
        pass


def _shard_worker(
    shard_id: int,
    in_queue,
    out_queue,
    blob: BlobDescriptor,
    window_span: int | None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    faults: FaultPlan | None = None,
    incarnation: int = 0,
    epoch: str = "",
) -> None:
    """Process-shard main loop: read the shared slate, serve batches.

    On startup (first spawn *and* supervisor respawn) the worker
    re-warms every tenant service found under its checkpoint directory
    and reports the replayed WAL tail in its ``ready`` message.  A batch
    its tenant service rejects quarantines the tenant (``quarantined``
    message) instead of killing the shard; an injected torn-WAL write
    (:class:`~repro.core.errors.CheckpointError`) simulates a crash and
    hard-exits, exercising the supervisor path.
    """
    if faults is not None:
        faults = faults.scoped(incarnation=incarnation)
    try:
        payload = json.loads(read_blob(blob).decode("utf-8"))
        queries = [query_from_dict(entry) for entry in payload]
        state = _ShardState(
            queries,
            window_span,
            shard_id=shard_id,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            faults=faults,
            epoch=epoch,
        )
        recovered = state.recover_tenants()
    except BaseException:
        out_queue.put(("error", shard_id, None, traceback.format_exc()))
        return
    out_queue.put(("ready", shard_id, incarnation, recovered))
    # Supervision may resubmit a batch the previous worker already logged
    # (e.g. it died between queue-put and ack while the router was mid-put,
    # so the same item reaches both the resubmit loop and the interrupted
    # submit).  At-least-once delivery + this dedup = effectively-once:
    # same-epoch (seq, tenant) keys already replayed from the WAL, or
    # already handled in this incarnation, are dropped silently — the
    # router's accounting was settled by the first delivery's ack/replay.
    done = {
        (seq, tenant)
        for tenant, seq, rec_epoch, _, _ in recovered
        if rec_epoch == epoch
    }
    while True:
        item = in_queue.get()
        if item[0] == "stop":
            try:
                state.checkpoint_all()
                state.close()
            except Exception:  # pragma: no cover - best-effort final cut
                pass
            return
        _, seq, tenant, events = item
        if (seq, tenant) in done:
            continue
        if faults is not None:
            faults.maybe_sleep("worker.stall", shard=shard_id, tenant=tenant)
        try:
            detections, delta, elapsed = state.ingest(tenant, events, seq=seq)
        except CheckpointError:
            # injected torn WAL write: the simulated power loss takes the
            # worker with it (skipping atexit, like a real SIGKILL)
            _flush_queue(out_queue)
            os._exit(137)
        except Exception:
            done.add((seq, tenant))
            out_queue.put(
                (
                    "quarantined",
                    shard_id,
                    seq,
                    tenant,
                    len(events),
                    traceback.format_exc(),
                )
            )
            continue
        done.add((seq, tenant))
        if faults is not None:
            faults.maybe_exit("worker.kill", shard=shard_id, tenant=tenant,
                              flush=lambda: _flush_queue(out_queue))
        out_queue.put(("ok", shard_id, seq, tenant, detections, delta, elapsed))


class DetectionFleet:
    """Multi-tenant detection behind the single-service ingest surface.

    Parameters
    ----------
    shards:
        Number of independent shards events are partitioned across.
    tenant_key:
        ``event -> tenant id`` routing function; defaults to the
        ``src_key`` prefix before ``"|"`` (untagged events all map to
        :data:`DEFAULT_TENANT`).
    window_span:
        Forwarded to every per-tenant :class:`DetectionService` — the
        same value a serial per-tenant deployment would use, keeping
        the union-identity contract exact.
    runner:
        ``"inline"`` (in-process shards) or ``"process"`` (one worker
        process per shard with bounded queues; see the module doc).
    queue_depth:
        Bounded per-shard input queue, in batches (process runner only —
        inline shards drain synchronously and never backpressure).
    assign:
        ``(tenant, shards) -> shard`` override for tests and rebalancing
        experiments; defaults to :func:`shard_for_tenant`.  Detections
        are identical for *any* assignment — only load balance changes.
    checkpoint_dir / checkpoint_every:
        When set, every tenant service is made durable under
        ``<checkpoint_dir>/shard-<n>/<tenant>/`` (WAL per batch, snapshot
        every ``checkpoint_every`` tenant batches; see
        :mod:`repro.serving.checkpoint`), restarted workers re-warm from
        it, and a fresh fleet pointed at the same directory resumes the
        previous run's windows.
    restart_budget / restart_backoff:
        Supervisor limits for the process runner: a dead or stalled
        worker is respawned at most ``restart_budget`` times per shard,
        with exponential backoff starting at ``restart_backoff`` seconds.
        ``restart_budget=0`` disables supervision (a dead worker raises,
        the pre-supervision behavior).
    result_timeout:
        Seconds the router waits on shard results before treating the
        shard as stalled — supervised shards are then killed and
        restarted; unsupervised fleets raise
        :class:`~repro.core.errors.ShardTimeoutError`.
    faults:
        Deterministic fault injection plan for chaos testing
        (:class:`~repro.core.faults.FaultPlan`).

    Register every query before the first ingest (process workers take
    the slate snapshot at startup), then ``ingest``/``replay`` freely and
    ``close()`` when done — or use the fleet as a context manager.
    """

    def __init__(
        self,
        shards: int = 1,
        *,
        tenant_key: Callable[[SyscallEvent], str] | None = None,
        window_span: int | None = None,
        runner: str = "inline",
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        assign: Callable[[str, int], int] | None = None,
        checkpoint_dir: "str | Path | None" = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        restart_budget: int = DEFAULT_RESTART_BUDGET,
        restart_backoff: float = DEFAULT_RESTART_BACKOFF,
        result_timeout: float = DEFAULT_RESULT_TIMEOUT,
        faults: FaultPlan | None = None,
    ) -> None:
        if shards < 1:
            raise ServingError("a fleet needs at least one shard")
        if runner not in ("inline", "process"):
            raise ServingError(f"unknown shard runner {runner!r}")
        if queue_depth < 1:
            raise ServingError("queue_depth must be >= 1")
        if window_span is not None and window_span < 0:
            raise ServingError("window_span must be non-negative or None")
        if checkpoint_every < 1:
            raise ServingError("checkpoint_every must be >= 1")
        if restart_budget < 0:
            raise ServingError("restart_budget must be >= 0")
        if restart_backoff < 0:
            raise ServingError("restart_backoff must be >= 0")
        if result_timeout <= 0:
            raise ServingError("result_timeout must be > 0")
        self.num_shards = shards
        self.window_span = window_span
        self.runner = runner
        self._tenant_key = tenant_key or default_tenant_key
        self._assign = assign or shard_for_tenant
        self._queue_depth = queue_depth
        self._checkpoint_dir = (
            str(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self._checkpoint_every = checkpoint_every
        self._restart_budget = restart_budget
        self._restart_backoff = restart_backoff
        self._result_timeout = result_timeout
        self._faults = faults
        self._queries: list[BehaviorQuery] = []
        self._shard_stats = [ServiceStats() for _ in range(shards)]
        self._tenants: set[str] = set()
        self._routed_batches = 0
        self._routed_events = 0
        self._backpressure_waits = 0
        self._wall_seconds = 0.0
        self._started = False
        self._closed = False
        # fault-tolerance accounting
        self._epoch = uuid.uuid4().hex
        self._restarts = [0] * shards
        self._incarnations = [0] * shards
        self._force_killed = 0
        self._recovered_events = 0
        self._quarantined: dict[str, str] = {}
        self._quarantine_dropped = 0
        self._last_acked = -1
        # inline runner state
        self._states: list[_ShardState] = []
        # process runner state
        self._ctx = None
        self._blob = None
        self._procs: list = []
        self._in_queues: list = []
        # one result queue per shard, remade on every respawn: a worker
        # hard-killed mid-write (injected or real SIGKILL) can wedge its
        # channel's write lock forever, and a shared queue would spread
        # that to every surviving shard and its own replacement
        self._result_queues: list = []
        self._blob_handle = None
        self._next_seq = 0
        self._pending: dict[int, int] = {}
        self._collected: dict[int, list[FleetDetection]] = {}
        self._inflight: list[dict[tuple[int, str], list[SyscallEvent]]] = [
            {} for _ in range(shards)
        ]

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, query: BehaviorQuery) -> int:
        """Register one behavior query on every (future) tenant service.

        Returns the query's slate index — equal to the ``query_id`` each
        per-tenant service assigns, since all services register the same
        slate in the same order.
        """
        if self._started:
            raise ServingError(
                "register queries before the first ingest: process shards "
                "snapshot the slate at startup, and a late-registered wide "
                "query could not see already-evicted edges anyway"
            )
        if (
            self.window_span is not None
            and query.max_span > self.window_span
        ):
            raise ServingError(
                f"query {query.name!r} has max_span {query.max_span} wider than "
                f"the fleet window {self.window_span}; widen the window or "
                "shorten the query cap"
            )
        self._queries.append(query)
        return len(self._queries) - 1

    def register_all(self, queries: Sequence[BehaviorQuery]) -> list[int]:
        """Register a query batch (the model-bundle serving path)."""
        return [self.register(query) for query in queries]

    def reload(self, queries: Sequence[BehaviorQuery]) -> list[int]:
        """Hot-swap the query slate on every tenant window (inline only).

        Each open tenant service performs its own warmed
        :meth:`~repro.serving.service.DetectionService.reload`, so every
        tenant keeps its retained window; tenants first seen after the
        reload register the new slate from the start.  Process-runner
        fleets snapshot the slate in their workers at startup and do not
        support reload — restart the fleet (or run the HTTP tier over an
        inline fleet / single service) to swap models there.
        """
        if self.runner != "inline":
            raise ServingError(
                "hot reload is only supported on inline fleets; process "
                "workers snapshot the query slate at startup — restart the "
                "fleet to change models"
            )
        for query in queries:
            if self.window_span is not None and query.max_span > self.window_span:
                raise ServingError(
                    f"query {query.name!r} has max_span {query.max_span} wider "
                    f"than the fleet window {self.window_span}; widen the "
                    "window or shorten the query cap"
                )
        self._queries = list(queries)
        for state in self._states:
            state.reload(self._queries)
        return list(range(len(self._queries)))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bring shards up eagerly (idempotent).

        ``ingest`` starts the fleet lazily; calling this first lets
        benchmarks exclude process-spawn cost from timed sections and
        surfaces worker startup failures early.
        """
        if self._closed:
            raise ServingError("fleet is closed")
        if self._started:
            return
        self._started = True
        if self.runner == "inline":
            self._states = [
                _ShardState(
                    self._queries,
                    self.window_span,
                    shard_id=shard_id,
                    checkpoint_dir=self._shard_dir(shard_id),
                    checkpoint_every=self._checkpoint_every,
                    faults=self._faults,
                    epoch=self._epoch,
                )
                for shard_id in range(self.num_shards)
            ]
            for shard_id, state in enumerate(self._states):
                self._absorb_recovery(shard_id, state.recover_tenants())
            return
        self._ctx = multiprocessing.get_context(resolve_start_method())
        payload = json.dumps(
            [query_to_dict(query) for query in self._queries]
        ).encode("utf-8")
        self._blob, self._blob_handle = publish_blob(payload)
        try:
            for shard_id in range(self.num_shards):
                self._in_queues.append(None)
                self._result_queues.append(None)
                self._procs.append(None)
                self._spawn(shard_id, incarnation=0)
            ready: set[int] = set()
            while len(ready) < self.num_shards:
                message = self._next_message(timeout=self._result_timeout)
                if message[0] == "ready":
                    ready.add(message[1])
                    self._absorb_recovery(message[1], message[3])
                else:
                    self._handle(message)
        except BaseException:
            self.close()
            raise

    def _shard_dir(self, shard_id: int) -> str | None:
        if self._checkpoint_dir is None:
            return None
        return str(Path(self._checkpoint_dir) / f"shard-{shard_id:02d}")

    def _spawn(self, shard_id: int, incarnation: int) -> None:
        """(Re)start one shard worker process on fresh channels."""
        in_queue = self._ctx.Queue(maxsize=self._queue_depth)
        result_queue = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_shard_worker,
            args=(
                shard_id,
                in_queue,
                result_queue,
                self._blob,
                self.window_span,
                self._shard_dir(shard_id),
                self._checkpoint_every,
                self._faults,
                incarnation,
                self._epoch,
            ),
            daemon=True,
        )
        proc.start()
        self._in_queues[shard_id] = in_queue
        self._result_queues[shard_id] = result_queue
        self._procs[shard_id] = proc
        self._incarnations[shard_id] = incarnation

    def _absorb_recovery(
        self,
        shard_id: int,
        recovered: Sequence[tuple[str, int, str, list[Detection], int]],
    ) -> None:
        """Fold a (re)started shard's replayed WAL tail into router state.

        Every replayed batch counts toward ``recovered_events``; batches
        from *this* router lifetime (matching epoch) that are still
        pending are answered in place — their detections were re-derived
        by the replay, so the submit completes without resubmission.
        """
        for tenant, seq, epoch, detections, num_events in recovered:
            self._recovered_events += num_events
            self._tenants.add(tenant)
            if epoch != self._epoch:
                continue
            key = (seq, tenant)
            if key in self._inflight[shard_id] and seq in self._pending:
                self._shard_stats[shard_id].add_delta({})
                self._collected[seq].extend(
                    FleetDetection(
                        tenant=tenant,
                        shard=shard_id,
                        query_id=d.query_id,
                        query=d.query,
                        start=d.start,
                        end=d.end,
                        batch=d.batch,
                    )
                    for d in detections
                )
                self._pending[seq] -= 1
                self._last_acked = max(self._last_acked, seq)
                del self._inflight[shard_id][key]

    def close(self) -> None:
        """Shut shard workers down and release the shared slate; idempotent.

        Checkpointed shards cut a final snapshot before exiting (workers
        on receipt of ``stop``, inline states right here).  A worker that
        outlives the join grace period is escalated ``terminate()`` →
        ``kill()`` and counted in ``FleetStats.force_killed`` — close
        never strands a wedged worker process.
        """
        if self._closed:
            return
        self._closed = True
        if self.runner == "inline" and self._started:
            for state in self._states:
                try:
                    state.checkpoint_all()
                except CheckpointError:  # pragma: no cover - disk full etc.
                    pass
                state.close()
        if self.runner == "process" and self._started:
            for in_queue in self._in_queues:
                if in_queue is None:
                    continue
                try:
                    in_queue.put(("stop",), timeout=5)
                except (_queue.Full, ValueError, OSError):
                    pass
            for proc in self._procs:
                if proc is None:
                    continue
                proc.join(timeout=10)
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join(timeout=5)
                if proc.is_alive():  # pragma: no cover - unkillable worker
                    proc.kill()
                    proc.join(timeout=5)
                    self._force_killed += 1
            for result_queue in self._result_queues:
                if result_queue is None:
                    continue
                try:
                    while True:
                        result_queue.get_nowait()
                except (_queue.Empty, OSError, ValueError):
                    pass
            queues = [q for q in self._in_queues if q is not None]
            queues.extend(q for q in self._result_queues if q is not None)
            for mpq in queues:
                mpq.close()
                mpq.cancel_join_thread()
        if self._blob_handle is not None:
            self._blob_handle.unlink()
            self._blob_handle = None

    def __enter__(self) -> "DetectionFleet":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, events: Sequence[SyscallEvent]) -> list[FleetDetection]:
        """Route one mixed batch to its tenants' shards; report detections.

        Synchronous: returns every detection this batch produced, sorted
        by ``(tenant, query_id, span)`` so inline and process runners
        emit identical lists.  Under the process runner the shards
        touched by the batch work concurrently.
        """
        if self._closed:
            raise ServingError("fleet is closed")
        self.start()
        started = _time.perf_counter()
        groups = self._group(events)
        seq = self._new_batch(groups)
        detections = self._await_batch(seq)
        self._routed_batches += 1
        self._routed_events += len(events)
        self._wall_seconds += _time.perf_counter() - started
        return detections

    def replay(
        self, events: Sequence[SyscallEvent], batch_size: int
    ) -> Iterator[tuple[int, list[FleetDetection]]]:
        """Feed a recorded mixed log through the fleet batch by batch.

        Under the process runner the replay is **pipelined**: up to
        ``queue_depth`` batches per shard are in flight at once, and each
        batch's detections are yielded — in batch order — as soon as all
        of its tenant groups complete.  The accumulated detections are
        identical to calling :meth:`ingest` per batch.
        """
        from repro.syscall.collector import iter_event_batches

        if self._closed:
            raise ServingError("fleet is closed")
        self.start()
        events = list(events)
        if self.runner == "inline":
            for index, batch in enumerate(iter_event_batches(events, batch_size)):
                yield index, self.ingest(batch)
            return
        seqs: list[int] = []
        emitted = 0
        for batch in iter_event_batches(events, batch_size):
            started = _time.perf_counter()
            seqs.append(self._new_batch(self._group(batch)))
            self._routed_batches += 1
            self._routed_events += len(batch)
            self._drain()
            self._wall_seconds += _time.perf_counter() - started
            while emitted < len(seqs) and not self._pending[seqs[emitted]]:
                yield emitted, self._finish_batch(seqs[emitted])
                emitted += 1
        while emitted < len(seqs):
            started = _time.perf_counter()
            while self._pending[seqs[emitted]]:
                self._handle(self._next_message(timeout=self._result_timeout))
            self._wall_seconds += _time.perf_counter() - started
            yield emitted, self._finish_batch(seqs[emitted])
            emitted += 1

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    @property
    def stats(self) -> FleetStats:
        """Live fleet rollup (complete whenever no replay is mid-flight)."""
        return FleetStats(
            shards=tuple(self._shard_stats),
            tenants=len(self._tenants),
            queue_depth=self._queue_depth,
            routed_batches=self._routed_batches,
            routed_events=self._routed_events,
            backpressure_waits=self._backpressure_waits,
            wall_seconds=self._wall_seconds,
            restarts=sum(self._restarts),
            force_killed=self._force_killed,
            recovered_events=self._recovered_events,
            quarantined=tuple(sorted(self._quarantined)),
            quarantine_dropped=self._quarantine_dropped,
        )

    def health(self) -> dict:
        """Liveness/degradation rollup for the HTTP ``/healthz`` probe.

        ``status`` is ``"ok"`` when every shard is serving on its original
        worker and nothing is quarantined, ``"degraded"`` when any shard
        has been restarted, has exhausted its restart budget, is dead, or
        any tenant is quarantined.
        """
        shards = []
        degraded = False
        for shard_id in range(self.num_shards):
            if self.runner == "inline" or not self._started:
                alive = self._started and not self._closed
            else:
                proc = self._procs[shard_id]
                alive = proc is not None and proc.is_alive()
            budget_remaining = self._restart_budget - self._restarts[shard_id]
            entry = {
                "shard": shard_id,
                "alive": alive,
                "restarts": self._restarts[shard_id],
                "budget_remaining": budget_remaining,
                "inflight": len(self._inflight[shard_id]),
            }
            if (self._started and not self._closed and not alive
                    and self.runner == "process"):
                degraded = True
            if self._restarts[shard_id] > 0 or budget_remaining <= 0:
                degraded = True
            shards.append(entry)
        if self._quarantined:
            degraded = True
        return {
            "status": "degraded" if degraded else "ok",
            "shards": shards,
            "quarantined": sorted(self._quarantined),
            "restarts": sum(self._restarts),
            "recovered_events": self._recovered_events,
            "last_acked_seq": self._last_acked,
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _group(self, events: Sequence[SyscallEvent]) -> dict[str, list[SyscallEvent]]:
        """Split a mixed batch into per-tenant groups, arrival order kept."""
        groups: dict[str, list[SyscallEvent]] = {}
        for event in events:
            groups.setdefault(str(self._tenant_key(event)), []).append(event)
        return groups

    def _new_batch(self, groups: dict[str, list[SyscallEvent]]) -> int:
        """Dispatch one batch's tenant groups; returns its sequence id."""
        seq = self._next_seq
        self._next_seq += 1
        self._pending[seq] = 0
        self._collected[seq] = []
        for tenant, tenant_events in groups.items():
            shard = self._assign(tenant, self.num_shards)
            if not 0 <= shard < self.num_shards:
                raise ServingError(
                    f"shard assignment for tenant {tenant!r} out of range: "
                    f"{shard} (fleet has {self.num_shards})"
                )
            if tenant in self._quarantined:
                self._quarantine_dropped += len(tenant_events)
                continue
            self._tenants.add(tenant)
            self._pending[seq] += 1
            if self.runner == "inline":
                try:
                    detections, delta, elapsed = self._states[shard].ingest(
                        tenant, tenant_events, seq=seq
                    )
                except CheckpointError:
                    # injected torn WAL write: with no worker process to
                    # die, the simulated crash surfaces to the caller
                    raise
                except ServingError as exc:
                    self._quarantine(tenant, str(exc), len(tenant_events))
                    self._pending[seq] -= 1
                    continue
                self._apply(shard, seq, tenant, detections, delta, elapsed)
            else:
                self._inflight[shard][(seq, tenant)] = list(tenant_events)
                self._put(shard, ("batch", seq, tenant, tenant_events))
        return seq

    def _await_batch(self, seq: int) -> list[FleetDetection]:
        """Block until one batch's groups all completed; return detections."""
        while self._pending[seq]:
            self._handle(self._next_message(timeout=self._result_timeout))
        return self._finish_batch(seq)

    def _finish_batch(self, seq: int) -> list[FleetDetection]:
        del self._pending[seq]
        detections = self._collected.pop(seq)
        detections.sort(key=lambda d: (d.tenant, d.query_id, d.start, d.end))
        return detections

    def _apply(
        self,
        shard: int,
        seq: int,
        tenant: str,
        detections: Sequence[Detection],
        delta: dict,
        elapsed: float,
    ) -> None:
        """Fold one completed tenant-group ingest into router state."""
        self._shard_stats[shard].add_delta(delta, batch_seconds=elapsed)
        self._collected[seq].extend(
            FleetDetection(
                tenant=tenant,
                shard=shard,
                query_id=d.query_id,
                query=d.query,
                start=d.start,
                end=d.end,
                batch=d.batch,
            )
            for d in detections
        )
        self._pending[seq] -= 1
        self._inflight[shard].pop((seq, tenant), None)
        self._last_acked = max(self._last_acked, seq)

    def _put(self, shard: int, item: tuple) -> None:
        """Bounded-queue submit: count the stall, then block politely.

        While blocked the router keeps draining finished results, so a
        full input queue can never deadlock against a full fleet.  The
        queue reference is re-read every round because supervision may
        have replaced it (worker restart swaps in a fresh queue).  A
        queue that stays full past ``result_timeout`` means the consumer
        is wedged, not just busy — the shard is treated exactly like a
        stalled result wait: hard-killed and restarted under supervision,
        or surfaced as a typed :class:`ShardTimeoutError`.
        """
        try:
            self._in_queues[shard].put_nowait(item)
            return
        except _queue.Full:
            self._backpressure_waits += 1
        deadline = _time.perf_counter() + self._result_timeout
        while True:
            self._drain()
            try:
                self._in_queues[shard].put(item, timeout=0.05)
                return
            except _queue.Full:
                self._check_workers()
                if _time.perf_counter() > deadline:
                    self._restart_stalled(
                        [shard],
                        f"input queue full for {self._result_timeout:.0f}s",
                    )
                    deadline = _time.perf_counter() + self._result_timeout

    def _drain(self) -> None:
        """Absorb every already-available worker message (non-blocking)."""
        # snapshot: _handle can recurse into supervision, which swaps a
        # shard's queue out from under the loop mid-iteration
        for result_queue in list(self._result_queues):
            if result_queue is None:
                continue
            while True:
                try:
                    message = result_queue.get_nowait()
                except (_queue.Empty, OSError, ValueError):
                    break
                self._handle(message)

    def _poll_results(self, timeout: float) -> tuple | None:
        """One bounded multiplexed receive across the per-shard queues.

        Returns the first available message, or ``None`` after
        ``timeout`` seconds with every queue idle.
        """
        readers = {}
        for result_queue in self._result_queues:
            if result_queue is not None:
                readers[result_queue._reader] = result_queue
        if not readers:
            return None
        for conn in _mp_connection.wait(list(readers), timeout=timeout):
            try:
                return readers[conn].get_nowait()
            except (_queue.Empty, OSError, ValueError):
                continue
        return None

    def _next_message(self, timeout: float) -> tuple:
        """Blocking receive with worker-liveness checks (no silent hangs).

        A deadline pass means some shard sat on work for ``timeout``
        seconds: under supervision the stalled shards are hard-killed and
        restarted (replaying their checkpoints); otherwise a typed
        :class:`~repro.core.errors.ShardTimeoutError` surfaces the stall
        with the shard id and the last acknowledged submit seq.
        """
        deadline = _time.perf_counter() + timeout
        while True:
            message = self._poll_results(timeout=0.25)
            if message is not None:
                return message
            self._check_workers()
            if _time.perf_counter() > deadline:
                stalled = [
                    shard_id
                    for shard_id in range(self.num_shards)
                    if self._inflight[shard_id]
                ]
                self._restart_stalled(stalled, f"stalled for {timeout:.0f}s")
                deadline = _time.perf_counter() + timeout

    def _restart_stalled(self, stalled: list[int], reason: str) -> None:
        """Hard-kill and resupervise wedged shards, or raise if we can't.

        Shared stall escalation for both wait paths (result wait in
        :meth:`_next_message`, full-queue wait in :meth:`_put`).  Shards
        with restart budget left are SIGKILLed (counted in
        ``force_killed``) and handed to :meth:`_supervise`; with no
        recoverable shard the stall is permanent and surfaces as a typed
        :class:`~repro.core.errors.ShardTimeoutError`.
        """
        recoverable = [
            shard_id
            for shard_id in stalled
            if self._restarts[shard_id] < self._restart_budget
        ]
        if recoverable:
            for shard_id in recoverable:
                proc = self._procs[shard_id]
                if proc is not None and proc.is_alive():
                    proc.kill()
                    proc.join(timeout=5)
                    self._force_killed += 1
                self._supervise(shard_id, reason)
            return
        raise ShardTimeoutError(
            f"fleet shard(s) {reason} "
            f"(stalled shards: {stalled or 'unknown'}, "
            f"last acked seq: {self._last_acked})",
            shard=stalled[0] if stalled else None,
            last_acked_seq=self._last_acked,
        ) from None

    def _check_workers(self) -> None:
        for shard_id, proc in enumerate(self._procs):
            if (
                proc is not None
                and not proc.is_alive()
                and proc.exitcode not in (0, None)
            ):
                self._supervise(
                    shard_id, f"worker died with exit code {proc.exitcode}"
                )

    def _supervise(self, shard_id: int, reason: str) -> None:
        """Restart one dead/stalled shard and make its work whole again.

        Retires the dead worker's result queue unread (a SIGKILL mid-ack
        can leave it wedged or holding a torn frame; every batch the ack
        would have settled is re-derived by the checkpoint replay or
        resubmitted), drains the surviving shards' queues, charges the
        shard's restart budget with exponential backoff, respawns the
        worker under the next incarnation (so incarnation-scoped fault
        rules don't re-fire), waits for its ``ready`` — whose checkpoint
        replay answers every still-pending batch that had reached the
        WAL — and resubmits the rest in submit order.  With the budget
        exhausted the failure is permanent and raises.
        """
        self._procs[shard_id] = None  # don't re-detect this corpse
        dead_queue = self._result_queues[shard_id]
        if dead_queue is not None:
            self._result_queues[shard_id] = None
            dead_queue.close()
            dead_queue.cancel_join_thread()
        self._drain()
        if self._restarts[shard_id] >= self._restart_budget:
            raise ServingError(
                f"shard {shard_id} {reason}; restart budget "
                f"({self._restart_budget}) exhausted"
            )
        self._restarts[shard_id] += 1
        delay = min(
            self._restart_backoff * (2 ** (self._restarts[shard_id] - 1)),
            _RESTART_BACKOFF_CAP,
        )
        if delay > 0:
            _time.sleep(delay)
        old_queue = self._in_queues[shard_id]
        if old_queue is not None:
            old_queue.close()
            old_queue.cancel_join_thread()
            self._in_queues[shard_id] = None
        self._spawn(shard_id, incarnation=self._incarnations[shard_id] + 1)
        deadline = _time.perf_counter() + self._result_timeout
        while True:
            message = self._poll_results(timeout=0.25)
            if message is None:
                proc = self._procs[shard_id]
                if proc is not None and not proc.is_alive():
                    self._supervise(shard_id, "died again during restart")
                    return
                if _time.perf_counter() > deadline:
                    raise ServingError(
                        f"shard {shard_id} restart timed out after "
                        f"{self._result_timeout:.0f}s waiting for recovery"
                    ) from None
                continue
            if message[0] == "ready" and message[1] == shard_id:
                self._absorb_recovery(shard_id, message[3])
                break
            self._handle(message)
        # snapshot the keys: _put drains results (and may recurse into
        # supervision), either of which can settle entries mid-loop
        for key in sorted(self._inflight[shard_id]):
            seq, tenant = key
            events = self._inflight[shard_id].get(key)
            if events is None or seq not in self._pending:
                continue
            self._put(shard_id, ("batch", seq, tenant, events))

    def _handle(self, message: tuple) -> None:
        kind = message[0]
        if kind == "ok":
            _, shard, seq, tenant, detections, delta, elapsed = message
            self._apply(shard, seq, tenant, detections, delta, elapsed)
        elif kind == "quarantined":
            _, shard, seq, tenant, num_events, text = message
            self._quarantine(tenant, text, num_events)
            self._inflight[shard].pop((seq, tenant), None)
            if seq is not None and seq in self._pending:
                self._pending[seq] -= 1
                self._last_acked = max(self._last_acked, seq)
        elif kind == "error":
            _, shard, seq, text = message
            if seq is not None and seq in self._pending:
                self._pending[seq] -= 1
            raise ServingError(f"shard {shard} ingest failed:\n{text}")
        elif kind == "ready":
            pass  # late duplicate; startup already consumed the real one
        else:  # pragma: no cover - protocol bug guard
            raise ServingError(f"unknown shard message {kind!r}")

    def _quarantine(self, tenant: str, reason: str, num_events: int) -> None:
        """Fence a tenant whose batch poisoned its service.

        The tenant's service stops receiving traffic (later events are
        dropped at routing and counted in ``quarantine_dropped``); the
        shard and every other tenant on it keep serving.
        """
        if tenant not in self._quarantined:
            self._quarantined[tenant] = reason.strip().splitlines()[-1][:500]
        self._quarantine_dropped += num_events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DetectionFleet(shards={self.num_shards}, runner={self.runner!r}, "
            f"tenants={len(self._tenants)}, queries={len(self._queries)})"
        )
