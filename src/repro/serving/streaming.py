"""Incrementally maintained temporal graph with sliding-window eviction.

:class:`StreamingGraph` is the serving-side counterpart of the frozen
:class:`~repro.core.graph.TemporalGraph`: instead of building the one-edge
label-pair index, the label signature, and the flat kernel edge columns
(:meth:`StreamingGraph.edge_arrays` — the streaming twin of the batch
graph's :mod:`repro.core.kernel` arrays) once at freeze time, it maintains
all of them *online* while syscall events arrive in batches and old edges
slide out of the time window.

**Columns only.**  A live edge is one slot in each of four int columns —
source node, destination node, timestamp and interned label pair — and
one entry in its pair's candidate list; no per-edge object exists.
Entity keys and labels are interned to small int ids *per stream* (a
label pair to the code of its two label ids), and every table is
reference counted by the live window: a node's entry goes when its last
live edge is evicted, a label's when its last live node goes, a pair's
when its last live edge goes.  So the tables stay bounded by the window,
not by the stream's lifetime, however many distinct entities and labels
pass through.

Edge identity is the key design point.  Every ingested edge receives a
monotonically increasing **global id** — its position in the ingest order,
which equals time order within the live window — and keeps that id for its
whole life.  Evicting old edges never renumbers the survivors: position
``id - base`` of each column describes edge ``id`` (``base`` moves only
when the dead prefix is compacted away), and the per-label-pair candidate
lists stay valid (their dead prefixes are skipped by the matcher's
``start_index`` frontier and compacted away lazily).  So the joins of
:mod:`repro.core.graph_index` run unchanged against a live window: the
graph satisfies the matcher's
:class:`~repro.core.graph_index.EdgeIndexedSource` protocol.

**Labels belong to nodes.**  An entity key's label is fixed when its node
is created — by the earliest live event naming the key — and every edge
is indexed under its endpoint nodes' labels, as
:func:`~repro.syscall.events.events_to_graph` does for a frozen log.  An
event that names a live key with another label joins that key's node and
its label is ignored; a key whose node has left the window comes back as
a new entity with the label of its new first event.

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
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence

from repro.core.buffers import new_column
from repro.core.errors import ServingError
from repro.core.graph import TemporalGraph
from repro.core.graph_index import Signature
from repro.syscall.events import SyscallEvent

__all__ = ["StreamingGraph", "IngestDelta", "StreamStats"]

#: (time, src_key, src_label, dst_key, dst_label) — an edge detached from
#: node ids, the currency of tail reinsertion.
_RawEvent = tuple[int, str, str, str, str]

#: Pair codes pack ``(src label id, dst label id)`` into one int.
_PAIR_SHIFT = 32

#: The ``syscall`` of a reconstructed window event (not graph identity).
_WINDOW_SYSCALL = "window-replay"

_time_of = attrgetter("time")
_src_key_of = attrgetter("src_key")
_src_label_of = attrgetter("src_label")
_dst_key_of = attrgetter("dst_key")
_dst_label_of = attrgetter("dst_label")


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
        # edge columns: offset i describes global id _base + i; offsets
        # below _first_live are evicted (kept until amortized compaction).
        # _srcs/_dsts/_times are the kernel the shared matcher joins over
        # (see repro.core.kernel.EdgeArrays); _pairs holds each edge's
        # interned label-pair code, which is what eviction reads (a list:
        # codes exceed 2**32, and a list hands them back without boxing).
        self._srcs = new_column()
        self._dsts = new_column()
        self._times = new_column()
        self._pairs: list[int] = []
        self._base = 0
        self._first_live = 0
        self._next_id = 0
        # nodes: entity key -> node id; per-id slots, recycled through a
        # free list; refs counts live edge endpoints
        self._node_of_key: dict[str, int] = {}
        self._node_key: list[str | None] = []
        self._node_label: list[int] = []
        self._node_refs: list[int] = []
        self._free_nodes: list[int] = []
        # labels: label -> label id (slots recycled like node ids), and
        # label -> live node count, which is also the window signature's
        # node-label multiset
        self._label_id: dict[str, int] = {}
        self._label_str: list[str | None] = []
        self._label_nodes: dict[str, int] = {}
        self._free_labels: list[int] = []
        # label pairs, keyed by their code (src label id << _PAIR_SHIFT |
        # dst label id): the one-edge index lists (global ids, ascending,
        # with a dead prefix of _pair_dead evicted ids when nonzero) and
        # the (src_label, dst_label) key, built once per pair
        self._pair_ids: dict[int, list[int]] = {}
        self._pair_dead: dict[int, int] = {}
        self._pair_key: dict[int, tuple[str, str]] = {}
        # each pair's live list length under its key: the window
        # signature's edge-label multiset
        self._pair_counts: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # EdgeIndexedSource protocol (shared matching core)
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of live edges in the window."""
        return len(self._times) - self._first_live

    def edges_between(self, src_label: str, dst_label: str) -> Sequence[int]:
        """Global edge ids for a label pair, ascending.

        The list may carry a dead (evicted) prefix; callers must start
        their join frontier at :attr:`first_live_index` or later, which
        the :class:`~repro.serving.service.DetectionService` always does.
        """
        label_id = self._label_id
        src = label_id.get(src_label)
        dst = label_id.get(dst_label)
        if src is None or dst is None:
            return ()
        return self._pair_ids.get(src << _PAIR_SHIFT | dst, ())

    def edge_arrays(self) -> tuple[int, Sequence[int], Sequence[int], Sequence[int]]:
        """The live window's kernel: flat ``(base, src, dst, time)`` columns.

        Position ``id - base`` of each column describes the edge with
        global id ``id`` — exactly what the joins in
        :mod:`repro.core.graph_index` consume.  The
        columns are the maintained-in-place buffers, so the returned view
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
        return len(self._node_of_key)

    def label(self, node: int) -> str:
        """Label of a live node id."""
        return self._label_str[self._node_label[node]]

    def window_bounds(self) -> tuple[int, int] | None:
        """``(oldest, newest)`` live edge times, or ``None`` when empty."""
        if not self.num_edges:
            return None
        return (self._times[self._first_live], self._times[-1])

    def index_after_time(self, time: int) -> int:
        """Global id of the first live edge with timestamp ``>= time``."""
        return self._base + bisect_left(self._times, time, self._first_live)

    def signature(self) -> Signature:
        """The live window's label signature, maintained online.

        Node-label counts change only when a node is created or released,
        and a pair's count is its index list's live length.  The returned
        :class:`Signature` shares the graph's dicts — read it before the
        next ingest rather than holding onto it.
        """
        return Signature(self._label_nodes, self._pair_counts)

    def window_columns(self) -> dict[str, list]:
        """The live window as event columns, in time order.

        Keys follow :class:`~repro.syscall.events.SyscallEvent`'s field
        order — the packed layout of checkpoint WAL records and snapshots
        (``checkpoint._EVENT_COLUMNS``).  Each edge carries its nodes'
        keys and labels and the synthetic ``syscall`` name
        ``"window-replay"`` (not part of graph identity).  Ingesting the
        events into a fresh :class:`StreamingGraph` rebuilds an identical
        window.
        """
        lo = self._first_live
        srcs = self._srcs[lo:]
        dsts = self._dsts[lo:]
        key_of = self._node_key.__getitem__
        label_id_of = self._node_label.__getitem__
        label_of = self._label_str.__getitem__
        return {
            "time": self._times[lo:].tolist(),
            "syscall": [_WINDOW_SYSCALL] * len(srcs),
            "src_key": list(map(key_of, srcs)),
            "src_label": list(map(label_of, map(label_id_of, srcs))),
            "dst_key": list(map(key_of, dsts)),
            "dst_label": list(map(label_of, map(label_id_of, dsts))),
        }

    def window_events(self) -> list[SyscallEvent]:
        """:meth:`window_columns` as a time-ordered event list.

        This is how the canary tier seeds a shadow service with the
        primary's retained window so old and new models are compared over
        the same live state.
        """
        return [SyscallEvent(*row) for row in zip(*self.window_columns().values())]

    def as_temporal_graph(self, name: str = "") -> TemporalGraph:
        """Materialize the live window as a frozen batch graph."""
        graph = TemporalGraph(name=name or f"{self.name}[window]")
        remap: dict[int, int] = {}
        lo = self._first_live
        for src, dst, time in zip(self._srcs[lo:], self._dsts[lo:], self._times[lo:]):
            for node in (src, dst):
                if node not in remap:
                    remap[node] = graph.add_node(self.label(node))
            graph.add_edge(remap[src], remap[dst], time)
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
        batch = sorted(events, key=_time_of)
        times = list(map(_time_of, batch))
        if times and times[0] < 0:
            raise ServingError(f"negative event timestamp {times[0]}")
        late = 0
        if times and self.window_span is not None and self.num_edges:
            # an event is late only relative to data already sealed: once
            # the stream reached time T, edges before T - window_span are
            # gone and nothing arriving below that line can be matched
            # correctly anymore.  Old events arriving alongside newer ones
            # in the same batch are NOT late — eviction anchors at the
            # batch minimum so their partners stay live.
            late = bisect_left(times, self._times[-1] - self.window_span)
            del batch[:late], times[:late]
        if not times:
            self.stats.batches += 1
            self.stats.late_dropped += late
            return IngestDelta(self._next_id, 0, 0, 0, late)

        # validate the whole batch BEFORE mutating anything, so a rejected
        # ingest leaves the window exactly as it was (callers may catch
        # the error and keep streaming)
        if len(set(times)) < len(times):
            clash = next(a for a, b in zip(times, times[1:]) if a == b)
            raise ServingError(
                f"timestamp collision at t={clash} within the batch; "
                "sequentialize concurrent events first "
                "(see repro.core.concurrent)"
            )
        sealed = self._times
        if self.num_edges and times[0] <= sealed[-1]:
            # only events at or before the newest sealed time can collide
            newest = sealed[-1]
            for time in times:
                if time > newest:
                    break
                pos = bisect_left(sealed, time, self._first_live)
                if sealed[pos] == time:
                    raise ServingError(
                        f"timestamp collision at t={time}: the live window "
                        "already seals that instant; sequentialize concurrent "
                        "events first (see repro.core.concurrent)"
                    )

        reinserted = self._pop_tail(times[0])
        if reinserted:
            rows = [
                (e.time, e.src_key, e.src_label, e.dst_key, e.dst_label)
                for e in batch
            ]
            rows.extend(reinserted)
            rows.sort()
            times, src_keys, src_labels, dst_keys, dst_labels = zip(*rows)
        else:
            src_keys = map(_src_key_of, batch)
            src_labels = map(_src_label_of, batch)
            dst_keys = map(_dst_key_of, batch)
            dst_labels = map(_dst_label_of, batch)
        evicted = self._evict_before(times[0])
        start_index = self._next_id
        # ingest() validated collisions up-front; this guards the internal
        # id-order == time-order invariant against future logic errors
        assert not self.num_edges or times[0] > self._times[-1], (
            f"append at t={times[0]} would break time order"
        )
        self._append(times, src_keys, src_labels, dst_keys, dst_labels)

        self.stats.batches += 1
        self.stats.ingested += len(times) - len(reinserted)
        self.stats.reinserted += len(reinserted)
        self.stats.evicted += evicted
        self.stats.late_dropped += late
        return IngestDelta(
            start_index=start_index,
            appended=len(times),
            reinserted=len(reinserted),
            evicted=evicted,
            late=late,
            min_time=times[0],
            max_time=times[-1],
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _append(
        self,
        times: Iterable[int],
        src_keys: Iterable[str],
        src_labels: Iterable[str],
        dst_keys: Iterable[str],
        dst_labels: Iterable[str],
    ) -> None:
        """Append time-ordered edges, each indexed under its nodes' labels."""
        node_of_key = self._node_of_key
        node_label = self._node_label
        refs = self._node_refs
        new_node = self._new_node
        label_str = self._label_str
        pair_ids = self._pair_ids
        pair_key = self._pair_key
        counts = self._pair_counts
        src_append = self._srcs.append
        dst_append = self._dsts.append
        time_append = self._times.append
        pair_append = self._pairs.append
        edge = self._next_id
        for time, src_key, src_label, dst_key, dst_label in zip(
            times, src_keys, src_labels, dst_keys, dst_labels
        ):
            src = node_of_key.get(src_key)
            if src is None:
                src = new_node(src_key, src_label)
            else:
                refs[src] += 1
            dst = node_of_key.get(dst_key)
            if dst is None:
                dst = new_node(dst_key, dst_label)
            else:
                refs[dst] += 1
            src_label_id = node_label[src]
            dst_label_id = node_label[dst]
            code = src_label_id << _PAIR_SHIFT | dst_label_id
            ids = pair_ids.get(code)
            if ids is None:
                pair_ids[code] = [edge]
                key = (label_str[src_label_id], label_str[dst_label_id])
                pair_key[code] = key
                counts[key] = 1
            else:
                ids.append(edge)
                counts[pair_key[code]] += 1
            src_append(src)
            dst_append(dst)
            time_append(time)
            pair_append(code)
            edge += 1
        self._next_id = edge

    def _new_node(self, key: str, label: str) -> int:
        """Create a node with one reference (the edge being appended)."""
        label_id = self._label_id.get(label)
        if label_id is not None:
            self._label_nodes[label] += 1
        else:
            if self._free_labels:
                label_id = self._free_labels.pop()
                self._label_str[label_id] = label
            else:
                label_id = len(self._label_str)
                self._label_str.append(label)
            self._label_id[label] = label_id
            self._label_nodes[label] = 1
        if self._free_nodes:
            node = self._free_nodes.pop()
            self._node_key[node] = key
            self._node_label[node] = label_id
            self._node_refs[node] = 1
        else:
            node = len(self._node_key)
            self._node_key.append(key)
            self._node_label.append(label_id)
            self._node_refs.append(1)
        self._node_of_key[key] = node
        return node

    def _release_node(self, node: int) -> None:
        """Forget a node whose last live edge is gone (and maybe its label)."""
        del self._node_of_key[self._node_key[node]]
        self._node_key[node] = None
        self._free_nodes.append(node)
        label_id = self._node_label[node]
        label = self._label_str[label_id]
        remaining = self._label_nodes[label] - 1
        if remaining:
            self._label_nodes[label] = remaining
        else:
            del self._label_nodes[label]
            del self._label_id[label]
            self._label_str[label_id] = None
            self._free_labels.append(label_id)

    def _drop_pair(self, code: int) -> None:
        """Forget a pair whose last live edge is gone."""
        del self._pair_ids[code]
        self._pair_dead.pop(code, None)
        del self._pair_counts[self._pair_key.pop(code)]

    def _evict_before(self, threshold_anchor: int) -> int:
        """Evict live edges older than ``threshold_anchor - window_span``."""
        if self.window_span is None:
            return 0
        lo = self._first_live
        hi = bisect_left(self._times, threshold_anchor - self.window_span, lo)
        srcs, dsts, pairs = self._srcs, self._dsts, self._pairs
        refs = self._node_refs
        release = self._release_node
        pair_ids, pair_dead = self._pair_ids, self._pair_dead
        pair_key, counts = self._pair_key, self._pair_counts
        for offset in range(lo, hi):
            code = pairs[offset]
            ids = pair_ids[code]
            size = len(ids)
            if size == 1:
                # a one-edge pair (most pairs under fine labels) just goes
                del pair_ids[code]
                del counts[pair_key.pop(code)]
            else:
                dead = pair_dead.get(code, 0) + 1
                if dead == size:
                    self._drop_pair(code)
                else:
                    if dead * 2 > size:
                        del ids[:dead]
                        del pair_dead[code]
                    else:
                        pair_dead[code] = dead
                    counts[pair_key[code]] = size - dead
            node = srcs[offset]
            count = refs[node] - 1
            refs[node] = count
            if not count:
                release(node)
            node = dsts[offset]
            count = refs[node] - 1
            refs[node] = count
            if not count:
                release(node)
        self._first_live = hi
        if hi * 2 > len(self._times) and hi:
            for column in (srcs, dsts, self._times, pairs):
                del column[:hi]
            self._base += hi
            self._first_live = 0
        return hi - lo

    def _pop_tail(self, min_incoming_time: int) -> list[_RawEvent]:
        """Unseal live edges with time ``>= min_incoming_time`` (ooo arrival).

        Returns the unsealed edges as raw events, under their nodes'
        labels, for re-appending; their ids are surrendered (the next
        append reuses them), so id order keeps equaling time order after
        the merge.
        """
        times = self._times
        if not self.num_edges or min_incoming_time > times[-1]:
            return []
        cut = bisect_left(times, min_incoming_time, self._first_live)
        srcs, dsts, pairs = self._srcs, self._dsts, self._pairs
        refs = self._node_refs
        popped: list[_RawEvent] = []
        for offset in range(len(times) - 1, cut - 1, -1):
            src, dst, code = srcs[offset], dsts[offset], pairs[offset]
            popped.append(
                (
                    times[offset],
                    self._node_key[src],
                    self.label(src),
                    self._node_key[dst],
                    self.label(dst),
                )
            )
            ids = self._pair_ids[code]
            ids.pop()
            live = len(ids) - self._pair_dead.get(code, 0)
            if live:
                self._pair_counts[self._pair_key[code]] = live
            else:
                self._drop_pair(code)
            for node in (src, dst):
                refs[node] -= 1
                if not refs[node]:
                    self._release_node(node)
        for column in (srcs, dsts, times, pairs):
            del column[cut:]
        self._next_id = self._base + len(times)
        popped.reverse()
        return popped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bounds = self.window_bounds()
        return (
            f"StreamingGraph(name={self.name!r}, live_edges={self.num_edges}, "
            f"live_nodes={self.num_nodes}, window={bounds})"
        )
