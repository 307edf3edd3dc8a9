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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from types import MappingProxyType
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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


#: A frozen graph's object layer: ``(edges, out, in, label -> nodes)``,
#: where ``out[n]``/``in[n]`` list the indexes of the edges leaving and
#: entering node ``n``, ascending.
_ObjectLayer = tuple[
    list[TemporalEdge], list[list[int]], list[list[int]], dict[str, list[int]]
]


def _nodes_by_label(labels: Sequence[str]) -> dict[str, list[int]]:
    index: dict[str, list[int]] = {}
    for node, label in enumerate(labels):
        index.setdefault(label, []).append(node)
    return index


def _adjacency(
    num_nodes: int, src: Iterable[int], dst: Iterable[int]
) -> tuple[list[list[int]], list[list[int]]]:
    """Per node, the ascending indexes of the edges leaving and entering it."""
    out: list[list[int]] = [[] for _ in range(num_nodes)]
    inn: list[list[int]] = [[] for _ in range(num_nodes)]
    for idx, (s, d) in enumerate(zip(src, dst)):
        out[s].append(idx)
        inn[d].append(idx)
    return out, inn


def _pair_index(
    labels: Sequence[str], src: IntColumn, dst: IntColumn
) -> dict[tuple[str, str], list[int]]:
    """Label pair -> time-sorted edge indexes, read off the edge columns."""
    index: dict[tuple[str, str], list[int]] = {}
    label = labels.__getitem__
    for idx, key in enumerate(zip(map(label, src), map(label, dst))):
        index.setdefault(key, []).append(idx)
    return index


class TemporalGraph:
    """A node-labeled directed temporal multigraph with total edge order.

    Nodes are created through :meth:`add_node` and receive consecutive
    integer ids.  Edges are appended through :meth:`add_edge`; timestamps
    must be strictly increasing in insertion order unless explicitly
    provided, in which case the graph sorts and validates them at
    :meth:`freeze` time.

    A frozen graph is its flat edge columns (:meth:`edge_arrays`) plus
    its time list and one-edge label-pair index: what the miner, the
    kernel (:meth:`kernel`) and the span join read.  The object layer —
    :class:`TemporalEdge` objects, per-node adjacency and per-label node
    lists, behind :attr:`edges`, :meth:`out_edges`/:meth:`in_edges`, the
    degree methods and :meth:`nodes_with_label` — is built by
    :meth:`freeze` from the edges it sorted, and by a graph made from
    columns (:meth:`from_frozen_columns`, :meth:`window`) on first use.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._labels: list[str] = []
        # the construction list; a frozen graph reads its edges from the
        # object layer instead
        self._edges: list[TemporalEdge] = []
        self._frozen = False
        self._next_auto_time = 0
        # Every frozen graph holds its time list and its one-edge
        # label-pair index (freeze() or from_frozen_columns() builds them).
        self._edge_times: list[int] = []
        self._pair_edges: dict[tuple[str, str], list[int]] = {}
        # The object layer: ``(edges, out, in, label -> nodes)``, published
        # in one assignment.  freeze() builds it from the edges it sorted;
        # a graph made from columns builds it on first use.
        self._objects: _ObjectLayer | None = None
        # Array-backed data plane (repro.core.kernel): contiguous int64
        # buffers (repro.core.buffers).  from_frozen_columns() adopts the
        # columns it is handed (such as read-only views of a corpus-store
        # page); a graph built with add_edge() derives them on first use.
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
        edges = self._edges
        labels = self._labels
        n = len(labels)
        out: list[list[int]] = [[] for _ in range(n)]
        inn: list[list[int]] = [[] for _ in range(n)]
        pair_edges: dict[tuple[str, str], list[int]] = {}
        self._edge_times = [e.time for e in edges]
        for idx, edge in enumerate(edges):
            out[edge.src].append(idx)
            inn[edge.dst].append(idx)
            key = (labels[edge.src], labels[edge.dst])
            pair_edges.setdefault(key, []).append(idx)
        self._pair_edges = pair_edges
        self._objects = (edges, out, inn, _nodes_by_label(labels))

    def _layer(self) -> _ObjectLayer:
        """The object layer, built from the edge columns on first use."""
        self._require_frozen()
        layer = self._objects
        if layer is None:
            _base, src, dst, time = self.edge_arrays()
            layer = (
                list(map(TemporalEdge, src, dst, time)),
                *_adjacency(len(self._labels), src, dst),
                _nodes_by_label(self._labels),
            )
            # one assignment publishes the whole layer, so a concurrent
            # reader sees all of it or none of it
            self._objects = layer
        return layer

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
        return len(self._edge_times) if self._frozen else len(self._edges)

    @property
    def edges(self) -> Sequence[TemporalEdge]:
        """Edges sorted by timestamp (once frozen)."""
        return self._layer()[0] if self._frozen else self._edges

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
        return self._layer()[3].get(label, ())

    def out_edges(self, node: int) -> Iterator[TemporalEdge]:
        """Iterate edges leaving ``node``."""
        edges, out, _in, _nodes = self._layer()
        return (edges[i] for i in out[node])

    def in_edges(self, node: int) -> Iterator[TemporalEdge]:
        """Iterate edges entering ``node``."""
        edges, _out, inn, _nodes = self._layer()
        return (edges[i] for i in inn[node])

    def out_degree(self, node: int) -> int:
        """Number of edges leaving ``node``."""
        return len(self._layer()[1][node])

    def in_degree(self, node: int) -> int:
        """Number of edges entering ``node``."""
        return len(self._layer()[2][node])

    def adjacency(self) -> tuple[Sequence[Sequence[int]], Sequence[Sequence[int]]]:
        """``(out, in)``: per node, the ascending indexes of the edges
        leaving and entering it — what the kernel's CSR flattens.

        The object layer's lists once it is built (:meth:`freeze` builds
        it); otherwise derived from the edge columns, without building
        the layer.
        """
        self._require_frozen()
        layer = self._objects
        if layer is not None:
            return layer[1], layer[2]
        _base, src, dst, _time = self.edge_arrays()
        return _adjacency(len(self._labels), src, dst)

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
        :mod:`repro.core.buffers`): for graphs reconstructed by
        :meth:`from_frozen_columns`, the columns handed in there, such as
        read-only views of a corpus-store page; for graphs built with
        :meth:`add_edge`, built once on first access and cached.  They
        are what the joins of :mod:`repro.core.graph_index` and the
        kernel scan instead of per-edge objects.
        """
        self._require_frozen()
        if self._col_time is None:
            edges = self._edges
            self._col_src = int_column(edge.src for edge in edges)
            self._col_dst = int_column(edge.dst for edge in edges)
            # published last: a set time column marks all three built
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
        times = self._edge_times if self._frozen else [e.time for e in self._edges]
        if not times:
            raise GraphError("span() on empty graph")
        return (times[0], times[-1])

    def window(self, start: int, end: int, name: str = "") -> "TemporalGraph":
        """Extract the subgraph induced by edges with ``start <= t <= end``.

        Node ids are compacted; the result is frozen.  Used to slice long
        monitoring logs into per-interval training/test graphs.
        """
        self._require_frozen()
        _base, src, dst, time = self.edge_arrays()
        lo = bisect_left(self._edge_times, start)
        hi = bisect_right(self._edge_times, end, lo)
        labels = self._labels
        return TemporalGraph.from_window_columns(
            name or f"{self.name}[{start},{end}]",
            src[lo:hi],
            dst[lo:hi],
            time[lo:hi],
            lambda nodes: [labels[node] for node in nodes],
        )

    def _require_frozen(self) -> None:
        if not self._frozen:
            raise GraphError("operation requires a frozen graph; call freeze()")

    # ------------------------------------------------------------------
    # dunder / misc
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # A frozen graph travels as its columns, time list and pair index:
        # the kernel and the object layer are cheap, deterministic
        # derivations that a spawned pool worker rebuilds on first use.
        # Memoryview page columns cannot pickle, so columns travel as
        # arrays.
        state = self.__dict__.copy()
        state["_kernel"] = None
        if self._frozen:
            _base, src, dst, time = self.edge_arrays()
            state.update(
                _edges=[],
                _objects=None,
                _col_src=int_column(src),
                _col_dst=int_column(dst),
                _col_time=int_column(time),
            )
        return state

    def __len__(self) -> int:
        return self.num_edges

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
        They are adopted as the graph's columns *without copying*, so
        read-only views of a corpus-store page stay views (the
        :class:`~repro.datasets.store.CorpusStore` decode path).  Only the
        time list and the one-edge label-pair index are derived here; the
        object layer (edge objects, per-node adjacency, label -> nodes)
        is built on first use, so mining or querying the graph never
        builds it.  No validation re-runs — the writer froze the
        original, and freezing is deterministic.
        """
        graph = cls(name=name)
        graph._labels = labels = list(labels)
        graph._edge_times = times = list(time)
        graph._pair_edges = _pair_index(labels, src, dst)
        if times:
            graph._next_auto_time = times[-1] + 1
        graph._col_src = src
        graph._col_dst = dst
        graph._col_time = time
        graph._frozen = True
        return graph

    @classmethod
    def from_window_columns(
        cls,
        name: str,
        src: IntColumn,
        dst: IntColumn,
        time: IntColumn,
        labels_of: Callable[[list[int]], Sequence[str]],
    ) -> "TemporalGraph":
        """A frozen graph of a time range cut from a larger graph's columns.

        ``src``/``dst``/``time`` are the range's edges, in time order,
        with the larger graph's node ids.  Nodes are renumbered in first
        encounter order (each edge's source before its destination), and
        ``labels_of`` maps the larger graph's ids of the kept nodes, in
        that order, to their labels.  This is the one remap behind
        :meth:`window` and :meth:`CorpusStore.window
        <repro.datasets.store.CorpusStore.window>`, whose results are
        byte-identical.
        """
        nodes = list(dict.fromkeys(chain.from_iterable(zip(src, dst))))
        ids = dict(zip(nodes, range(len(nodes))))
        return cls.from_frozen_columns(
            name,
            labels_of(nodes),
            int_column(map(ids.__getitem__, src)),
            int_column(map(ids.__getitem__, dst)),
            time,
        )

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
