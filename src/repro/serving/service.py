"""The streaming detection service facade.

:class:`DetectionService` ties the live window
(:class:`~repro.serving.streaming.StreamingGraph`) to the query side
(:class:`~repro.serving.registry.QueryRegistry`): every
:meth:`~DetectionService.ingest` call appends one event batch, runs the
registry's one-pass signature prefilter against the window's online
signature, and evaluates only the surviving queries — and only against
the newly-ingested delta.  Incrementality comes from the shared matching
core's span join (:func:`repro.core.graph_index.find_spans`):

* ``min_last_index`` pins every reported span's *last* edge into the
  batch delta, so spans already reported by earlier batches are never
  re-derived;
* ``start_index`` starts the join at the earliest edge that could open
  an in-cap match ending in the delta (``delta_min_time - max_span``),
  so per-batch work scales with the query's span, not the window size;
* the join reads the window's flat ``(src, dst, time)`` edge columns,
  maintained incrementally by :meth:`StreamingGraph.edge_arrays` across
  ingest and eviction, in place.

Detections are deduplicated by ``(query, span)``, matching the batch
engine's span semantics: accumulating the detections of a replayed log
yields exactly the span set ``QueryEngine.search_temporal`` reports on
the frozen whole — the equivalence `tests/test_serving.py` asserts.
Both sides compute exact span sets, with no match cap, so the
equivalence holds for every query, however many matches it has.
"""

from __future__ import annotations

import math
import random
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.faults import FaultPlan

from repro.core.errors import ServingError
from repro.core.graph_index import Span, find_spans
from repro.core.pattern import TemporalPattern
from repro.serving.contracts import STATS_SCHEMA_KEYS, STATS_SCHEMA_VERSION
from repro.serving.registry import BehaviorQuery, QueryRegistry
from repro.serving.streaming import StreamingGraph
from repro.syscall.events import SyscallEvent

__all__ = [
    "Detection",
    "DetectionService",
    "LatencyReservoir",
    "ServiceStats",
    "STATS_SCHEMA_KEYS",
    "merged_latency_percentile",
]

#: Default latency-reservoir size.  4096 samples keep the nearest-rank
#: p95/p99 within a fraction of a rank percentile of the exact answer
#: (see :class:`LatencyReservoir`) at ~32 KiB per service, forever.
DEFAULT_LATENCY_CAPACITY = 4096


class LatencyReservoir:
    """Bounded per-batch latency sample with exact count/total/max.

    ``ServiceStats`` used to keep *every* per-batch ingest duration in an
    unbounded list — a real leak for a service ingesting for weeks.  This
    reservoir caps memory at ``capacity`` samples via Vitter's Algorithm
    R (each of the ``count`` observations ends up in the kept sample with
    equal probability ``capacity / count``), while the aggregates that
    must stay exact — observation count, total seconds (throughput
    denominator), and maximum — are tracked outside the sample.

    **Percentile error.**  :meth:`percentile` is exact until ``count``
    exceeds ``capacity``.  Beyond that it is the nearest-rank percentile
    of a uniform random sample of size ``k = capacity``: the estimated
    quantile's *rank* error has standard deviation ``sqrt(q*(1-q)/k)`` —
    at the default 4096 samples that is ~0.34 rank percentiles for p95
    and ~0.16 for p99 — so the reported value is a true per-batch latency
    from within a whisker of the requested rank.  The replacement RNG is
    seeded per reservoir, keeping replays deterministic.
    """

    __slots__ = ("capacity", "count", "total", "max", "_samples", "_rng")

    def __init__(self, capacity: int = DEFAULT_LATENCY_CAPACITY) -> None:
        if capacity < 1:
            raise ServingError("latency reservoir capacity must be >= 1")
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self._samples: list[float] = []
        self._rng = random.Random(0xB10C)

    def add(self, seconds: float) -> None:
        """Record one observation (Algorithm R replacement once full)."""
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds
        if len(self._samples) < self.capacity:
            self._samples.append(seconds)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                self._samples[slot] = seconds

    @property
    def kept(self) -> int:
        """Number of samples currently held (``min(count, capacity)``)."""
        return len(self._samples)

    @property
    def samples(self) -> tuple[float, ...]:
        """The kept sample, ingest order (for cross-reservoir rollups)."""
        return tuple(self._samples)

    def percentile(self, quantile: float) -> float:
        """Nearest-rank percentile of the kept sample, in seconds."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        index = min(len(ordered) - 1, max(0, math.ceil(len(ordered) * quantile) - 1))
        return ordered[index]


def merged_latency_percentile(
    reservoirs: Iterable[LatencyReservoir], quantile: float
) -> float:
    """Nearest-rank percentile across several reservoirs, count-weighted.

    Each reservoir's kept samples stand in for ``count`` observations, so
    a sample from a busier shard carries proportionally more weight —
    without this, a nearly idle shard's handful of batches would drag the
    fleet-level tail toward its own distribution.  With every reservoir
    under capacity the weights are all 1 and the result is exactly the
    nearest-rank percentile of the concatenated samples.
    """
    weighted: list[tuple[float, float]] = []
    total = 0
    for reservoir in reservoirs:
        if not reservoir.kept:
            continue
        weight = reservoir.count / reservoir.kept
        total += reservoir.count
        weighted.extend((value, weight) for value in reservoir.samples)
    if not weighted:
        return 0.0
    weighted.sort()
    rank = max(1, math.ceil(total * quantile))
    cumulative = 0.0
    for value, weight in weighted:
        cumulative += weight
        if cumulative >= rank - 1e-9:
            return value
    return weighted[-1][0]


@dataclass(frozen=True)
class Detection:
    """One identified behavior instance reported by the service."""

    query_id: int
    query: str
    start: int
    end: int
    batch: int

    @property
    def span(self) -> Span:
        """The identified time interval, the unit of deduplication."""
        return (self.start, self.end)


@dataclass
class ServiceStats:
    """Serving-side counters: throughput, latency, prefilter + window effect.

    Per-batch ingest latency lives in a bounded :class:`LatencyReservoir`
    (``latency``) instead of an unbounded list; ``evicted`` /
    ``late_dropped`` / ``reinserted`` mirror the window's lifetime
    counters so one object — and one :meth:`as_dict` schema — describes a
    service completely.
    """

    batches: int = 0
    events: int = 0
    detections: int = 0
    queries_evaluated: int = 0
    queries_prefiltered: int = 0
    matching_seconds: float = 0.0
    evicted: int = 0
    late_dropped: int = 0
    reinserted: int = 0
    latency: LatencyReservoir = field(default_factory=LatencyReservoir)

    @property
    def total_seconds(self) -> float:
        """Wall-clock spent inside :meth:`DetectionService.ingest`."""
        return self.latency.total

    @property
    def events_per_second(self) -> float:
        """Sustained ingest throughput over all batches."""
        total = self.total_seconds
        return self.events / total if total > 0 else 0.0

    def record_batch(self, seconds: float) -> None:
        """Record one ingest call's wall-clock duration."""
        self.latency.add(seconds)

    def latency_percentile(self, quantile: float) -> float:
        """Nearest-rank percentile of per-batch ingest latency, in seconds.

        The single definition the CLI report and the serving benchmark
        both read, so the gated ``latency_p95_ms`` and the operator-facing
        number can never drift apart.  Exact up to the reservoir capacity,
        then within the documented sampling error (see
        :class:`LatencyReservoir`).
        """
        return self.latency.percentile(quantile)

    def counters(self) -> dict:
        """The additive counters, as a plain dict.

        Everything here merges by plain addition — the currency the fleet
        uses to roll per-batch deltas from shard workers into parent-side
        shard stats (:meth:`add_delta`).  Latency samples are *not*
        counters; they travel separately, one per ingest call.
        """
        return {
            "batches": self.batches,
            "events": self.events,
            "detections": self.detections,
            "queries_evaluated": self.queries_evaluated,
            "queries_prefiltered": self.queries_prefiltered,
            "matching_seconds": self.matching_seconds,
            "evicted": self.evicted,
            "late_dropped": self.late_dropped,
            "reinserted": self.reinserted,
        }

    def add_delta(self, delta: dict, batch_seconds: float | None = None) -> None:
        """Fold one :meth:`counters` delta (and its latency sample) in."""
        for key, value in delta.items():
            setattr(self, key, getattr(self, key) + value)
        if batch_seconds is not None:
            self.latency.add(batch_seconds)

    def as_dict(self) -> dict:
        """JSON-compatible stats snapshot (:data:`STATS_SCHEMA_KEYS`)."""
        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "kind": "service",
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
                "max": self.latency.max * 1000,
            },
            "latency_samples": {
                "observed": self.latency.count,
                "kept": self.latency.kept,
                "capacity": self.latency.capacity,
            },
        }


class DetectionService:
    """Continuous behavior detection over an event stream.

    Parameters
    ----------
    window_span:
        Sliding-window width.  ``None`` (default) sizes the window
        automatically to the widest registered query span — the smallest
        window that keeps streaming detections span-identical to the
        batch engine.  An explicit window must cover every registered
        query's ``max_span``.
    use_prefilter:
        Toggle the registry's shared signature prefilter (detections are
        identical either way; only impossible-query passes get slower).
    faults / fault_scope:
        Optional deterministic fault injection
        (:class:`~repro.core.faults.FaultPlan`): the ``service.slow_batch``
        and ``service.poison`` sites fire inside :meth:`ingest`.
        ``fault_scope`` narrows the plan's rules (e.g.
        ``{"shard": 1, "tenant": "acme"}`` inside a fleet worker).
    """

    def __init__(
        self,
        window_span: int | None = None,
        use_prefilter: bool = True,
        faults: "FaultPlan | None" = None,
        fault_scope: dict | None = None,
    ) -> None:
        self.registry = QueryRegistry()
        self.graph = StreamingGraph()
        self.use_prefilter = use_prefilter
        self.stats = ServiceStats()
        self.reloads = 0
        self.faults = faults
        self.fault_scope = fault_scope or {}
        self._explicit_window = window_span
        self._seen: dict[int, set[Span]] = {}

    @classmethod
    def recover(
        cls,
        directory,
        *,
        queries: "Sequence[BehaviorQuery] | None" = None,
        window_span: int | None = None,
        use_prefilter: bool = True,
    ) -> "DetectionService":
        """Rebuild a service from a checkpoint directory.

        Restores the newest valid snapshot and replays the WAL tail; the
        result is span-identical at every batch boundary to a service
        that never crashed (see :mod:`repro.serving.checkpoint`).  The
        keyword arguments only matter when the directory holds no usable
        snapshot (a crash before the first checkpoint): they configure
        the fresh service the genesis WAL is replayed into.
        """
        from repro.serving.checkpoint import recover_service

        return recover_service(
            directory,
            queries=queries,
            window_span=window_span,
            use_prefilter=use_prefilter,
        ).service

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        query: BehaviorQuery | None = None,
        *,
        name: str | None = None,
        pattern: TemporalPattern | None = None,
        max_span: int | None = None,
    ) -> int:
        """Register a behavior query (object or ``name/pattern/max_span``).

        Register all queries before the first :meth:`ingest` for strict
        batch equivalence: widening the window mid-stream cannot bring
        already-evicted edges back, so a late-registered wide query may
        miss matches that straddle the registration point.
        """
        if query is None:
            if name is None or pattern is None or max_span is None:
                raise ServingError(
                    "register() needs a BehaviorQuery or name+pattern+max_span"
                )
            query = BehaviorQuery(name=name, pattern=pattern, max_span=max_span)
        if (
            self._explicit_window is not None
            and query.max_span > self._explicit_window
        ):
            raise ServingError(
                f"query {query.name!r} has max_span {query.max_span} wider than "
                f"the service window {self._explicit_window}; its matches would "
                "straddle evictions — widen the window or shorten the query cap"
            )
        query_id = self.registry.register(query)
        self._seen[query_id] = set()
        return query_id

    def register_all(self, queries: Sequence[BehaviorQuery]) -> list[int]:
        """Register a query batch (the model-bundle serving path)."""
        return [self.register(query) for query in queries]

    @property
    def window_span(self) -> int | None:
        """The effective eviction window (``None`` with nothing registered)."""
        if self._explicit_window is not None:
            return self._explicit_window
        return self.registry.max_span if len(self.registry) else None

    def reload(self, queries: Sequence[BehaviorQuery]) -> list[int]:
        """Swap the query slate in-place **without dropping the window**.

        The new slate replaces the old one atomically from the caller's
        point of view: the new registry and its dedup state are built and
        *warmed* off to the side, then swapped in between ingests (the
        HTTP tier additionally holds its ingest lock across this call so
        no batch can interleave).  The live :class:`StreamingGraph` —
        the retained sliding window — is untouched.

        Warming evaluates every new query once against the retained
        window and marks all fully-live matches as already reported,
        exactly the dedup state a service that had served the new slate
        all along would hold for the retained span.  Together with the
        delta-only join (``min_last_index`` pins every post-reload match
        into post-reload batches) this yields the **window retention
        property**: detections after the reload are span-identical to a
        fresh service that served the new model over the whole log,
        compared from the same batch boundary — even when out-of-order
        batches reinsert pre-reload edges (pinned by
        ``tests/test_hot_reload.py``).  An actually-cold restart (empty
        window) would miss every match straddling the boundary.

        Caveats, both inherited from registration semantics: an explicit
        window must still cover every new query's ``max_span`` (checked
        before anything is swapped), and with an auto-sized window a new
        slate *wider* than the old one cannot resurrect already-evicted
        edges — the wider window only applies going forward.
        """
        for query in queries:
            if (
                self._explicit_window is not None
                and query.max_span > self._explicit_window
            ):
                raise ServingError(
                    f"query {query.name!r} has max_span {query.max_span} wider "
                    f"than the service window {self._explicit_window}; its "
                    "matches would straddle evictions — widen the window or "
                    "shorten the query cap"
                )
        registry = QueryRegistry()
        seen: dict[int, set[Span]] = {}
        ids: list[int] = []
        for query in queries:
            query_id = registry.register(query)
            seen[query_id] = set()
            ids.append(query_id)
        if self.graph.num_edges:
            start_index = self.graph.first_live_index
            for query_id, query in registry:
                seen[query_id] = find_spans(
                    query.pattern,
                    self.graph,
                    max_span=query.max_span,
                    start_index=start_index,
                    min_last_index=start_index,
                )
        self.registry = registry
        self._seen = seen
        self.reloads += 1
        return ids

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, events: Sequence[SyscallEvent]) -> list[Detection]:
        """Append one event batch and report newly identified instances."""
        started = _time.perf_counter()
        if self.faults is not None:
            self.faults.maybe_sleep("service.slow_batch", **self.fault_scope)
            if self.faults.fire("service.poison", **self.fault_scope):
                raise ServingError(
                    "injected fault at service.poison: poisoned batch"
                )
        self.graph.window_span = self.window_span
        delta = self.graph.ingest(events)
        self.stats.events += delta.appended - delta.reinserted
        self.stats.evicted += delta.evicted
        self.stats.late_dropped += delta.late
        self.stats.reinserted += delta.reinserted
        batch_index = self.stats.batches
        self.stats.batches += 1
        if delta.empty:
            self.stats.record_batch(_time.perf_counter() - started)
            return []

        if self.use_prefilter:
            survivors = self.registry.survivors(self.graph.signature())
        else:
            survivors = list(self.registry)
        self.stats.queries_prefiltered += len(self.registry) - len(survivors)
        self.stats.queries_evaluated += len(survivors)

        detections: list[Detection] = []
        match_started = _time.perf_counter()
        for query_id, query in survivors:
            spans = self._new_spans(query, delta.start_index, delta.min_time)
            seen = self._seen[query_id]
            for span in spans:
                if span not in seen:
                    seen.add(span)
                    detections.append(
                        Detection(query_id, query.name, span[0], span[1], batch_index)
                    )
        self.stats.matching_seconds += _time.perf_counter() - match_started
        self.stats.detections += len(detections)
        if delta.evicted:
            # the prune threshold (oldest live time) only moves on eviction
            self._prune_seen()
        self.stats.record_batch(_time.perf_counter() - started)
        return detections

    def replay(
        self, events: Sequence[SyscallEvent], batch_size: int
    ) -> Iterator[tuple[int, list[Detection]]]:
        """Feed a recorded log through :meth:`ingest` batch by batch."""
        from repro.syscall.collector import iter_event_batches

        for index, batch in enumerate(iter_event_batches(events, batch_size)):
            yield index, self.ingest(batch)

    def close(self) -> None:
        """Release resources; idempotent.

        A single in-process service holds nothing that outlives it — this
        exists so :class:`DetectionService` and
        :class:`~repro.serving.fleet.DetectionFleet` (whose shards may be
        worker processes) satisfy one :class:`~repro.serving.Ingestor`
        surface and callers can shut either down uniformly.
        """

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _new_spans(
        self, query: BehaviorQuery, delta_start: int, delta_min_time: int
    ) -> list[Span]:
        """Distinct spans of matches whose last edge lies in the delta.

        Any such match has its last edge at time ``>= delta_min_time``,
        so its first edge cannot predate ``delta_min_time - max_span`` —
        the join starts there instead of at the window edge.
        """
        start_index = max(
            self.graph.first_live_index,
            self.graph.index_after_time(delta_min_time - query.max_span),
        )
        return sorted(
            find_spans(
                query.pattern,
                self.graph,
                max_span=query.max_span,
                start_index=start_index,
                min_last_index=delta_start,
            )
        )

    def _prune_seen(self) -> None:
        """Forget reported spans that can no longer be rediscovered.

        A span is only ever re-found (after tail reinsertion) while all
        of its edges are live, so spans starting before the window's
        oldest live time are safe to drop — this bounds dedup memory by
        the window, not the stream length.
        """
        bounds = self.graph.window_bounds()
        if bounds is None:
            return
        oldest = bounds[0]
        for query_id, seen in self._seen.items():
            if seen:
                self._seen[query_id] = {s for s in seen if s[0] >= oldest}
