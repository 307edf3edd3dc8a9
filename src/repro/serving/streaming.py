"""Incrementally maintained temporal graph with sliding-window eviction.

:class:`StreamingGraph` is the serving-side counterpart of the frozen
:class:`~repro.core.graph.TemporalGraph`: instead of building the one-edge
label-pair index, the label signature, and the flat kernel edge columns
(:meth:`StreamingGraph.edge_arrays` — the streaming twin of the batch
graph's :mod:`repro.core.kernel` arrays) once at freeze time, it maintains
all of them *online* while syscall events arrive in batches and old edges
slide out of the time window.

Edge identity is the key design point.  Every ingested edge receives a
monotonically increasing **global id** — its position in the ingest order,
which equals time order within the live window — and keeps that id for its
whole life.  Evicting old edges never renumbers the survivors, so the
per-label-pair candidate lists stay valid (their dead prefixes are skipped
by the matcher's ``start_index`` frontier and compacted away lazily), and
the joins of :mod:`repro.core.graph_index` run unchanged against a live
window: the graph satisfies the matcher's
:class:`~repro.core.graph_index.EdgeIndexedSource` protocol.

Out-of-order arrival is handled by **tail reinsertion**: when a batch
contains events older than the newest sealed edge (but still inside the
window), the sealed tail from the insertion point onward is popped,
merged with the new events in time order, and re-appended under fresh
ids.  The re-appended edges count as part of the batch delta, so matches
spanning them are (re)discovered; the
:class:`~repro.serving.service.DetectionService` deduplicates re-reported
spans.  Events older than the window lower bound are dropped and counted
as late.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.core.buffers import new_column
from repro.core.errors import ServingError
from repro.core.graph import TemporalEdge, TemporalGraph
from repro.core.graph_index import Signature
from repro.syscall.events import SyscallEvent

__all__ = ["StreamingGraph", "IngestDelta", "StreamStats"]

#: (time, src_key, src_label, dst_key, dst_label) — an edge detached from
#: node ids, the currency of tail reinsertion.
_RawEvent = tuple[int, str, str, str, str]


@dataclass(frozen=True)
class IngestDelta:
    """What one :meth:`StreamingGraph.ingest` call changed.

    ``start_index`` is the global id of the first edge (re)appended by
    this batch: every match whose last edge id is ``>= start_index`` is
    new (or touches reinserted edges) and must be (re)evaluated; every
    other match was already reported by an earlier batch.
    """

    start_index: int
    appended: int
    reinserted: int
    evicted: int
    late: int
    min_time: int = 0
    max_time: int = 0

    @property
    def empty(self) -> bool:
        """Whether the batch added no edges at all."""
        return self.appended == 0


@dataclass
class StreamStats:
    """Lifetime counters of one streaming graph."""

    batches: int = 0
    ingested: int = 0
    evicted: int = 0
    reinserted: int = 0
    late_dropped: int = 0


class _EdgeView:
    """Read-only ``edges[global_id]`` access for the matching core.

    ``__len__`` is the global id space (so any live id indexes in range);
    ``__iter__`` yields the *live* edges only — without it, Python's
    sequence-iteration fallback would start at id 0 and stop dead on the
    first compacted-away id.
    """

    __slots__ = ("_graph",)

    def __init__(self, graph: "StreamingGraph") -> None:
        self._graph = graph

    def __getitem__(self, global_id: int) -> TemporalEdge:
        graph = self._graph
        offset = global_id - graph._base
        if offset < 0:
            raise IndexError(f"edge {global_id} was compacted away")
        return graph._store[offset]

    def __len__(self) -> int:
        return self._graph._next_id

    def __iter__(self):
        graph = self._graph
        return iter(graph._store[graph._first_live :])


class StreamingGraph:
    """A live temporal graph over the most recent ``window_span`` of time.

    Parameters
    ----------
    window_span:
        Sliding-window width on the event-time axis.  Edges older than
        ``batch_min_time - window_span`` are evicted at the *start* of
        each ingest — before the batch is appended — so every match whose
        span respects a cap ``<= window_span`` and whose last edge lies in
        the new batch still has all of its edges live when the service
        evaluates the delta.  ``None`` keeps everything (the batch
        "ingest everything, then flush" mode).
    """

    def __init__(self, window_span: int | None = None, name: str = "stream") -> None:
        if window_span is not None and window_span < 0:
            raise ServingError("window_span must be non-negative or None")
        self.window_span = window_span
        self.name = name
        self.stats = StreamStats()
        # edge store: _store[i] has global id _base + i; entries below
        # _first_live are evicted (kept until amortized compaction).
        # _srcs/_dsts/_times are the incrementally maintained kernel: the
        # flat edge columns the shared matcher joins over (see
        # repro.core.kernel.EdgeArrays), kept parallel to _store through
        # every append / tail pop / compaction.  They are contiguous
        # int64 buffers (repro.core.buffers) so the vectorized join can
        # wrap them zero-copy, exactly like a frozen graph's columns.
        self._store: list[TemporalEdge] = []
        self._srcs = new_column()
        self._dsts = new_column()
        self._times = new_column()
        self._base = 0
        self._first_live = 0
        self._next_id = 0
        # one-edge label-pair index: global ids, ascending; dead prefixes
        # tracked per pair and compacted when they dominate the list
        self._pair: dict[tuple[str, str], list[int]] = {}
        self._pair_dead: dict[tuple[str, str], int] = {}
        # node identity: entity key <-> node id, live-edge refcounts
        self._node_of_key: dict[str, int] = {}
        self._key_of_node: dict[int, str] = {}
        self._label_of_node: dict[int, str] = {}
        self._node_refs: dict[int, int] = {}
        self._next_node = 0
        # online label signature (live nodes / live edges)
        self._sig_nodes: Counter[str] = Counter()
        self._sig_pairs: Counter[tuple[str, str]] = Counter()

    # ------------------------------------------------------------------
    # EdgeIndexedSource protocol (shared matching core)
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of live edges in the window."""
        return len(self._store) - self._first_live

    @property
    def edges(self) -> Sequence[TemporalEdge]:
        """Edge access by global id (live ids only)."""
        return _EdgeView(self)

    def edges_between(self, src_label: str, dst_label: str) -> Sequence[int]:
        """Global edge ids for a label pair, ascending.

        The list may carry a dead (evicted) prefix; callers must start
        their join frontier at :attr:`first_live_index` or later, which
        the :class:`~repro.serving.service.DetectionService` always does.
        """
        return self._pair.get((src_label, dst_label), ())

    def edge_arrays(self) -> tuple[int, Sequence[int], Sequence[int], Sequence[int]]:
        """The live window's kernel: flat ``(base, src, dst, time)`` columns.

        Position ``id - base`` of each column describes the edge with
        global id ``id`` — exactly what the joins in
        :mod:`repro.core.graph_index` consume.  The
        columns are the maintained-in-place lists, so the returned view
        is only valid until the next :meth:`ingest`.
        """
        return (self._base, self._srcs, self._dsts, self._times)

    # ------------------------------------------------------------------
    # window accessors
    # ------------------------------------------------------------------
    @property
    def first_live_index(self) -> int:
        """Global id of the oldest live edge (== next id when empty)."""
        return self._base + self._first_live

    @property
    def next_index(self) -> int:
        """Global id the next ingested edge will receive."""
        return self._next_id

    @property
    def num_nodes(self) -> int:
        """Number of live nodes (nodes touching at least one live edge)."""
        return len(self._label_of_node)

    def label(self, node: int) -> str:
        """Label of a live node id."""
        return self._label_of_node[node]

    def window_bounds(self) -> tuple[int, int] | None:
        """``(oldest, newest)`` live edge times, or ``None`` when empty."""
        if not self.num_edges:
            return None
        return (self._times[self._first_live], self._times[-1])

    def index_after_time(self, time: int) -> int:
        """Global id of the first live edge with timestamp ``>= time``."""
        offset = bisect_left(self._times, time, lo=self._first_live)
        return self._base + offset

    def signature(self) -> Signature:
        """The live window's label signature, maintained online.

        The returned :class:`Signature` shares the graph's counters —
        read it before the next ingest rather than holding onto it.
        """
        return Signature(self._sig_nodes, self._sig_pairs)

    def window_events(self) -> list[SyscallEvent]:
        """Reconstruct the live window as a time-ordered event list.

        The returned events rebuild an identical window when ingested
        into a fresh :class:`StreamingGraph` (same entity keys, labels,
        and timestamps; the synthetic ``syscall`` name is not part of
        graph identity).  This is how the canary tier seeds a shadow
        service with the primary's retained window so old and new models
        are compared over the same live state.
        """
        events: list[SyscallEvent] = []
        for i in range(self._first_live, len(self._store)):
            edge = self._store[i]
            events.append(
                SyscallEvent(
                    time=edge.time,
                    syscall="window-replay",
                    src_key=self._key_of_node[edge.src],
                    src_label=self._label_of_node[edge.src],
                    dst_key=self._key_of_node[edge.dst],
                    dst_label=self._label_of_node[edge.dst],
                )
            )
        return events

    def as_temporal_graph(self, name: str = "") -> TemporalGraph:
        """Materialize the live window as a frozen batch graph."""
        graph = TemporalGraph(name=name or f"{self.name}[window]")
        remap: dict[int, int] = {}
        for i in range(self._first_live, len(self._store)):
            edge = self._store[i]
            for node in edge.endpoints():
                if node not in remap:
                    remap[node] = graph.add_node(self._label_of_node[node])
            graph.add_edge(remap[edge.src], remap[edge.dst], edge.time)
        return graph.freeze()

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, events: Sequence[SyscallEvent]) -> IngestDelta:
        """Append a batch of events, evicting edges that slid out of window.

        Events are sorted by time within the batch; arrivals older than
        the newest sealed edge trigger tail reinsertion, and arrivals
        older than the window lower bound are dropped as late.  Returns
        the :class:`IngestDelta` the service evaluates queries against.
        """
        batch: list[_RawEvent] = sorted(
            (e.time, e.src_key, e.src_label, e.dst_key, e.dst_label)
            for e in events
        )
        for raw in batch:
            if raw[0] < 0:
                raise ServingError(f"negative event timestamp {raw[0]}")
        late = 0
        if batch and self.window_span is not None and self.num_edges:
            # an event is late only relative to data already sealed: once
            # the stream reached time T, edges before T - window_span are
            # gone and nothing arriving below that line can be matched
            # correctly anymore.  Old events arriving alongside newer ones
            # in the same batch are NOT late — eviction anchors at the
            # batch minimum so their partners stay live.
            horizon = self._times[-1] - self.window_span
            kept = [raw for raw in batch if raw[0] >= horizon]
            late = len(batch) - len(kept)
            batch = kept
        if not batch:
            self.stats.batches += 1
            self.stats.late_dropped += late
            return IngestDelta(self._next_id, 0, 0, 0, late)

        # validate the whole batch BEFORE mutating anything, so a rejected
        # ingest leaves the window exactly as it was (callers may catch
        # the error and keep streaming)
        for i in range(1, len(batch)):
            if batch[i][0] == batch[i - 1][0]:
                raise ServingError(
                    f"timestamp collision at t={batch[i][0]} within the batch; "
                    "sequentialize concurrent events first "
                    "(see repro.core.concurrent)"
                )
        for raw in batch:
            pos = bisect_left(self._times, raw[0], lo=self._first_live)
            if pos < len(self._times) and self._times[pos] == raw[0]:
                raise ServingError(
                    f"timestamp collision at t={raw[0]}: the live window "
                    "already seals that instant; sequentialize concurrent "
                    "events first (see repro.core.concurrent)"
                )

        reinserted = self._pop_tail(batch[0][0])
        if reinserted:
            batch = sorted(batch + reinserted)
        evicted = self._evict_before(batch[0][0])
        start_index = self._next_id
        for raw in batch:
            self._append(raw)

        self.stats.batches += 1
        self.stats.ingested += len(batch) - len(reinserted)
        self.stats.reinserted += len(reinserted)
        self.stats.evicted += evicted
        self.stats.late_dropped += late
        return IngestDelta(
            start_index=start_index,
            appended=len(batch),
            reinserted=len(reinserted),
            evicted=evicted,
            late=late,
            min_time=batch[0][0],
            max_time=batch[-1][0],
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _node_for(self, key: str, label: str) -> int:
        node = self._node_of_key.get(key)
        if node is None:
            node = self._next_node
            self._next_node += 1
            self._node_of_key[key] = node
            self._key_of_node[node] = key
            self._label_of_node[node] = label
            self._node_refs[node] = 0
            self._sig_nodes[label] += 1
        return node

    def _release_node(self, node: int) -> None:
        self._node_refs[node] -= 1
        if self._node_refs[node] == 0:
            label = self._label_of_node[node]
            self._sig_nodes[label] -= 1
            if not self._sig_nodes[label]:
                del self._sig_nodes[label]
            del self._node_of_key[self._key_of_node[node]]
            del self._key_of_node[node]
            del self._label_of_node[node]
            del self._node_refs[node]

    def _append(self, raw: _RawEvent) -> None:
        time, src_key, src_label, dst_key, dst_label = raw
        # ingest() validated collisions up-front; this guards the internal
        # id-order == time-order invariant against future logic errors
        assert not self.num_edges or time > self._times[-1], (
            f"append at t={time} would break time order"
        )
        src = self._node_for(src_key, src_label)
        dst = self._node_for(dst_key, dst_label)
        self._node_refs[src] += 1
        self._node_refs[dst] += 1
        self._store.append(TemporalEdge(src, dst, time))
        self._srcs.append(src)
        self._dsts.append(dst)
        self._times.append(time)
        pair = (src_label, dst_label)
        self._pair.setdefault(pair, []).append(self._next_id)
        self._sig_pairs[pair] += 1
        self._next_id += 1

    def _drop_pair_entry(self, pair: tuple[str, str], from_tail: bool) -> None:
        lst = self._pair[pair]
        if from_tail:
            lst.pop()
            if not lst or len(lst) == self._pair_dead.get(pair, 0):
                self._pair.pop(pair)
                self._pair_dead.pop(pair, None)
        else:
            dead = self._pair_dead.get(pair, 0) + 1
            if dead == len(lst):
                self._pair.pop(pair)
                self._pair_dead.pop(pair, None)
            elif dead * 2 > len(lst):
                del lst[:dead]
                self._pair_dead.pop(pair, None)
            else:
                self._pair_dead[pair] = dead
        self._sig_pairs[pair] -= 1
        if not self._sig_pairs[pair]:
            del self._sig_pairs[pair]

    def _evict_before(self, threshold_anchor: int) -> int:
        """Evict live edges older than ``threshold_anchor - window_span``."""
        if self.window_span is None:
            return 0
        threshold = threshold_anchor - self.window_span
        evicted = 0
        while self._first_live < len(self._store):
            if self._times[self._first_live] >= threshold:
                break
            edge = self._store[self._first_live]
            pair = (self._label_of_node[edge.src], self._label_of_node[edge.dst])
            self._drop_pair_entry(pair, from_tail=False)
            self._release_node(edge.src)
            self._release_node(edge.dst)
            self._first_live += 1
            evicted += 1
        if self._first_live * 2 > len(self._store) and self._first_live:
            del self._store[: self._first_live]
            del self._srcs[: self._first_live]
            del self._dsts[: self._first_live]
            del self._times[: self._first_live]
            self._base += self._first_live
            self._first_live = 0
        return evicted

    def _pop_tail(self, min_incoming_time: int) -> list[_RawEvent]:
        """Unseal live edges with time ``>= min_incoming_time`` (ooo arrival).

        Returns the unsealed edges as raw events for re-appending; their
        ids are surrendered (the next append reuses them), so id order
        keeps equaling time order after the merge.
        """
        if not self.num_edges or min_incoming_time > self._times[-1]:
            return []
        cut = bisect_left(self._times, min_incoming_time, lo=self._first_live)
        popped: list[_RawEvent] = []
        for i in range(len(self._store) - 1, cut - 1, -1):
            edge = self._store[i]
            src_label = self._label_of_node[edge.src]
            dst_label = self._label_of_node[edge.dst]
            popped.append(
                (
                    edge.time,
                    self._key_of_node[edge.src],
                    src_label,
                    self._key_of_node[edge.dst],
                    dst_label,
                )
            )
            self._drop_pair_entry((src_label, dst_label), from_tail=True)
            self._release_node(edge.src)
            self._release_node(edge.dst)
        del self._store[cut:]
        del self._srcs[cut:]
        del self._dsts[cut:]
        del self._times[cut:]
        self._next_id = self._base + len(self._store)
        popped.reverse()
        return popped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bounds = self.window_bounds()
        return (
            f"StreamingGraph(name={self.name!r}, live_edges={self.num_edges}, "
            f"live_nodes={self.num_nodes}, window={bounds})"
        )
