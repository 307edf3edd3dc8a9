"""Temporal graph data structures.

A temporal graph (paper Section 2) is a tuple ``(V, E, A, T)``:

* ``V`` — a node set; here nodes are dense integer ids ``0..n-1``,
* ``E ⊆ V × V × T`` — directed edges *totally ordered* by timestamp
  (multi-edges between the same node pair are allowed),
* ``A : V → Σ`` — a labeling function (here: arbitrary strings),
* ``T`` — non-negative integer timestamps.

:class:`TemporalGraph` is the mutable builder / container used both for
raw system-monitoring data and for the training sets fed to the miner.
Patterns (timestamps normalized to ``1..|E|``) live in
:mod:`repro.core.pattern`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.buffers import IntColumn, int_column
from repro.core.errors import GraphError, TimestampOrderError
from repro.core.kernel import EdgeArrays, GraphKernel

__all__ = ["TemporalEdge", "TemporalGraph"]


@dataclass(frozen=True, slots=True)
class TemporalEdge:
    """A directed, timestamped edge ``(src, dst, time)``.

    ``src`` and ``dst`` are integer node ids in the owning graph and
    ``time`` is a non-negative integer timestamp.
    """

    src: int
    dst: int
    time: int

    def endpoints(self) -> tuple[int, int]:
        """Return ``(src, dst)`` as a tuple."""
        return (self.src, self.dst)


class TemporalGraph:
    """A node-labeled directed temporal multigraph with total edge order.

    Nodes are created through :meth:`add_node` and receive consecutive
    integer ids.  Edges are appended through :meth:`add_edge`; timestamps
    must be strictly increasing in insertion order unless explicitly
    provided, in which case the graph sorts and validates them at
    :meth:`freeze` time.

    The class supports cheap, index-backed access patterns needed by the
    miner: edges sorted by time, per-node adjacency, per-label node lists
    and the one-edge label-pair index.  Residual-graph bookkeeping reads
    the interned-label kernel (:meth:`kernel`).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._labels: list[str] = []
        self._edges: list[TemporalEdge] = []
        self._frozen = False
        self._next_auto_time = 0
        # Lazily built indexes (freeze() populates them).
        self._out: list[list[int]] = []
        self._in: list[list[int]] = []
        self._label_nodes: dict[str, list[int]] = {}
        self._edge_times: list[int] = []
        self._pair_edges: dict[tuple[str, str], list[int]] = {}
        # Array-backed data plane (repro.core.kernel): contiguous int64
        # buffers (repro.core.buffers), built lazily on first use and
        # never pickled — a spawned fan-out worker rebuilds them, and the
        # corpus store hands in read-only page views via
        # from_frozen_columns().
        self._col_src: IntColumn | None = None
        self._col_dst: IntColumn | None = None
        self._col_time: IntColumn | None = None
        self._kernel: GraphKernel | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, label: str) -> int:
        """Add a node with ``label`` and return its integer id."""
        if self._frozen:
            raise GraphError("cannot add nodes to a frozen graph")
        self._labels.append(label)
        return len(self._labels) - 1

    def add_edge(self, src: int, dst: int, time: int | None = None) -> TemporalEdge:
        """Append a directed edge from ``src`` to ``dst``.

        When ``time`` is omitted, the next unused integer timestamp is
        assigned, which keeps the graph totally ordered by construction.
        Explicit timestamps may arrive out of order; :meth:`freeze` sorts
        and validates them.
        """
        if self._frozen:
            raise GraphError("cannot add edges to a frozen graph")
        n = len(self._labels)
        if not (0 <= src < n and 0 <= dst < n):
            raise GraphError(f"edge ({src}, {dst}) references unknown node")
        if time is None:
            time = self._next_auto_time
        if time < 0:
            raise TimestampOrderError(f"negative timestamp {time}")
        self._next_auto_time = max(self._next_auto_time, time + 1)
        edge = TemporalEdge(src, dst, time)
        self._edges.append(edge)
        return edge

    def freeze(self) -> "TemporalGraph":
        """Sort edges by time, validate the total order, build indexes.

        Returns ``self`` so builders can chain
        ``TemporalGraph().freeze()``.  Freezing is idempotent.
        """
        if self._frozen:
            return self
        self._edges.sort(key=lambda e: e.time)
        seen_times = set()
        for edge in self._edges:
            if edge.time in seen_times:
                raise TimestampOrderError(
                    f"concurrent edges at t={edge.time}; sequentialize first "
                    "(see repro.core.concurrent)"
                )
            seen_times.add(edge.time)
        self._build_indexes()
        self._frozen = True
        return self

    def _build_indexes(self) -> None:
        n = len(self._labels)
        self._out = [[] for _ in range(n)]
        self._in = [[] for _ in range(n)]
        self._label_nodes = {}
        self._pair_edges = {}
        self._edge_times = [e.time for e in self._edges]
        for node, label in enumerate(self._labels):
            self._label_nodes.setdefault(label, []).append(node)
        for idx, edge in enumerate(self._edges):
            self._out[edge.src].append(idx)
            self._in[edge.dst].append(idx)
            key = (self._labels[edge.src], self._labels[edge.dst])
            self._pair_edges.setdefault(key, []).append(idx)

    # ------------------------------------------------------------------
    # read access
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` has been called."""
        return self._frozen

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of edges."""
        return len(self._edges)

    @property
    def edges(self) -> Sequence[TemporalEdge]:
        """Edges sorted by timestamp (once frozen)."""
        return self._edges

    @property
    def labels(self) -> Sequence[str]:
        """Node labels indexed by node id."""
        return self._labels

    def label(self, node: int) -> str:
        """Return the label of ``node``."""
        return self._labels[node]

    def label_set(self) -> frozenset[str]:
        """Return the set of distinct node labels in this graph."""
        return frozenset(self._labels)

    def nodes_with_label(self, label: str) -> Sequence[int]:
        """Return node ids carrying ``label`` (empty if none)."""
        self._require_frozen()
        return self._label_nodes.get(label, ())

    def out_edges(self, node: int) -> Iterator[TemporalEdge]:
        """Iterate edges leaving ``node``."""
        self._require_frozen()
        return (self._edges[i] for i in self._out[node])

    def in_edges(self, node: int) -> Iterator[TemporalEdge]:
        """Iterate edges entering ``node``."""
        self._require_frozen()
        return (self._edges[i] for i in self._in[node])

    def out_degree(self, node: int) -> int:
        """Number of edges leaving ``node``."""
        self._require_frozen()
        return len(self._out[node])

    def in_degree(self, node: int) -> int:
        """Number of edges entering ``node``."""
        self._require_frozen()
        return len(self._in[node])

    def edges_between(self, src_label: str, dst_label: str) -> Sequence[int]:
        """Edge indexes whose endpoints carry the given labels, by time.

        This is the one-edge substructure index used by the graph-index
        matcher (baseline ``PruneGI``) and the query engine.
        """
        self._require_frozen()
        return self._pair_edges.get((src_label, dst_label), ())

    def label_pair_index(self) -> Mapping[tuple[str, str], Sequence[int]]:
        """The full one-edge substructure index: label pair -> edge indexes.

        Keys are ``(src_label, dst_label)`` pairs that occur in the graph;
        values are time-sorted edge indexes.  This is the same index
        :meth:`edges_between` reads one entry of; exposing the whole
        mapping lets index-first consumers (seed enumeration, signature
        construction) iterate label pairs without scanning edges.  The
        returned mapping is read-only — the underlying index is part of
        the frozen graph's invariants.
        """
        self._require_frozen()
        return MappingProxyType(self._pair_edges)

    def edge_arrays(self) -> EdgeArrays:
        """Flat ``(base, src, dst, time)`` edge columns (base is 0).

        The columns are contiguous int64 buffers (see
        :mod:`repro.core.buffers`): built once on first access and
        cached, or — for graphs reconstructed by
        :meth:`from_frozen_columns` — the columns handed in there, such
        as read-only views of a corpus-store page.  They are what the
        joins of :mod:`repro.core.graph_index` scan instead of per-edge
        objects.
        """
        self._require_frozen()
        if self._col_src is None:
            self._col_src = int_column(edge.src for edge in self._edges)
            self._col_dst = int_column(edge.dst for edge in self._edges)
            self._col_time = int_column(self._edge_times)
        return (0, self._col_src, self._col_dst, self._col_time)

    def kernel(self) -> GraphKernel:
        """The graph's interned-label CSR kernel, built once and cached.

        Labels intern through the process-wide
        :data:`~repro.core.kernel.PROCESS_INTERNER`, so one kernel serves
        every mining run in the process: a background graph mined
        against many behaviors is flattened once.  The cache is dropped
        on pickling: a spawned fan-out worker rebuilds the kernels of the
        graphs it mines rather than deserializing them.
        """
        self._require_frozen()
        if self._kernel is None:
            self._kernel = GraphKernel.from_graph(self)
        return self._kernel

    def edge_index_after(self, time: int) -> int:
        """Index of the first edge with timestamp strictly greater than ``time``."""
        self._require_frozen()
        return bisect_right(self._edge_times, time)

    def residual_size(self, time: int) -> int:
        """Number of edges with timestamp strictly greater than ``time``.

        This is ``|R(G, G')|`` for any match ``G'`` whose largest edge
        timestamp equals ``time`` (paper Section 4.2).
        """
        return self.num_edges - self.edge_index_after(time)

    def span(self) -> tuple[int, int]:
        """Return ``(first, last)`` edge timestamps.

        Raises :class:`GraphError` on an empty graph.
        """
        if not self._edges:
            raise GraphError("span() on empty graph")
        return (self._edges[0].time, self._edges[-1].time)

    def window(self, start: int, end: int, name: str = "") -> "TemporalGraph":
        """Extract the subgraph induced by edges with ``start <= t <= end``.

        Node ids are compacted; the result is frozen.  Used to slice long
        monitoring logs into per-interval training/test graphs.
        """
        self._require_frozen()
        sub = TemporalGraph(name=name or f"{self.name}[{start},{end}]")
        remap: dict[int, int] = {}
        lo = bisect_right(self._edge_times, start - 1)
        for i in range(lo, len(self._edges)):
            edge = self._edges[i]
            if edge.time > end:
                break
            for node in edge.endpoints():
                if node not in remap:
                    remap[node] = sub.add_node(self._labels[node])
            sub.add_edge(remap[edge.src], remap[edge.dst], edge.time)
        return sub.freeze()

    def _require_frozen(self) -> None:
        if not self._frozen:
            raise GraphError("operation requires a frozen graph; call freeze()")

    # ------------------------------------------------------------------
    # dunder / misc
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # The kernel and flat edge columns are cheap, deterministic
        # derivations; shipping them to spawned pool workers would
        # pickle every column twice (and memoryview columns cannot
        # pickle at all).  Workers rebuild them lazily on first use.
        state = self.__dict__.copy()
        state["_kernel"] = None
        state["_col_src"] = None
        state["_col_dst"] = None
        state["_col_time"] = None
        return state

    def __len__(self) -> int:
        return len(self._edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TemporalGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )

    @classmethod
    def from_frozen_columns(
        cls,
        name: str,
        labels: Sequence[str],
        src: IntColumn,
        dst: IntColumn,
        time: IntColumn,
    ) -> "TemporalGraph":
        """Rebuild a frozen graph from flat edge columns, zero-copy.

        The columns must describe an already-frozen graph: time-sorted,
        strictly increasing timestamps, endpoints in ``0..len(labels)-1``
        — exactly what :meth:`edge_arrays` of a frozen graph returns.
        They are adopted as the graph's cached columns *without copying*,
        so read-only views of a corpus-store page stay views (the
        :class:`~repro.datasets.store.CorpusStore` decode path); only the
        object-layer indexes are rebuilt locally.  No validation re-runs —
        the writer froze the original, and freezing is deterministic.
        """
        graph = cls(name=name)
        graph._labels = list(labels)
        graph._edges = [
            TemporalEdge(s, d, t) for s, d, t in zip(src, dst, time)
        ]
        graph._build_indexes()
        if graph._edges:
            graph._next_auto_time = graph._edges[-1].time + 1
        graph._frozen = True
        graph._col_src = src
        graph._col_dst = dst
        graph._col_time = time
        return graph

    @classmethod
    def from_events(
        cls,
        events: Iterable[tuple[str, str, int]],
        name: str = "",
        node_keys: Mapping[str, str] | None = None,
    ) -> "TemporalGraph":
        """Build a graph from ``(src_key, dst_key, time)`` triples.

        ``node_keys`` optionally maps entity keys to labels; when omitted
        the key itself is used as the label.  Entity keys identify nodes:
        repeated keys reuse the same node.
        """
        graph = cls(name=name)
        ids: dict[str, int] = {}

        def node_for(key: str) -> int:
            if key not in ids:
                label = node_keys[key] if node_keys is not None else key
                ids[key] = graph.add_node(label)
            return ids[key]

        for src_key, dst_key, time in events:
            graph.add_edge(node_for(src_key), node_for(dst_key), time)
        return graph.freeze()
