"""Interned-label CSR graph kernel — the shared array-backed data plane.

Every hot loop in this repo — embedding extension in the miner, the
temporal index join in the query engine, delta evaluation in the
streaming service — ultimately walks the same thing: a time-sorted edge
list with node labels.  The object layer
(:class:`~repro.core.graph.TemporalGraph` with per-edge
:class:`~repro.core.graph.TemporalEdge` instances and string-keyed dict
indexes) is the *construction* interface; those loops read the flat
arrays below instead.

:class:`GraphKernel` flattens a frozen graph once into compact parallel
arrays:

* ``edge_src`` / ``edge_dst`` / ``edge_time`` — flat, time-sorted edge
  columns (position ``i`` is edge index ``i``), stored as contiguous
  int64 buffers (:mod:`repro.core.buffers`): scalar loops read them at
  near-list speed and the vectorized matcher wraps them zero-copy into
  numpy arrays;
* ``out_indptr``/``out_indices`` and ``in_indptr``/``in_indices`` — CSR
  adjacency: the edge indexes leaving/entering node ``n`` are
  ``indices[indptr[n]:indptr[n + 1]]``, ascending, so "incident edges
  after cut point ``c``" is one :func:`~bisect.bisect_right` away;
* ``out_dsts`` / ``in_srcs`` — the far endpoint of each CSR slot
  (``out_dsts[j] == edge_dst[out_indices[j]]``), kept as plain lists so
  the growth hot loop reads the endpoint it branches on at list speed
  instead of paying the buffer scalar-access tax per incident edge;
* ``node_label_ids`` — node labels interned to dense ints through the
  process-wide :data:`PROCESS_INTERNER`;
* ``suffix_label_ids`` — the residual node-label sets as frozensets of
  interned ids (the only copy: the miner's subgraph pruning reads them
  through :func:`~repro.core.residual.summarize_residuals`).  Suffixes
  with equal label sets share one frozenset, so a kernel holds at most
  distinct-labels + 1 sets, not one per edge.

**Interning contract.**  Kernels and sequence encodings intern through
one :class:`LabelInterner` per process, :data:`PROCESS_INTERNER`, so a
graph is flattened once and every mining run in the process reuses its
kernel.  Mining compares ids only for equality and set intersection
inside one process, where equal ids ⟺ equal strings; ids follow the
process's interning history, so they are meaningless across processes:
persist labels, never ids (a model bundle persists its own dataset
interner's label order, :meth:`LabelInterner.snapshot`).  The interner
only grows, by the distinct labels the process has flattened or
encoded.  Containment/equality results are identical to the string
path because interning is a bijection.

**Correctness contract.**  Growth, residual summaries and the match
join run only over the kernel and its edge columns (the join in a
vectorized and a scalar form, one per :mod:`repro.core.buffers`
backend), pinned against the brute-force oracle (:mod:`repro.core.brute`):
``tests/test_kernel.py`` checks the child embedding tables
:func:`~repro.core.growth.extend_embeddings` builds, the residual label
sets and the :func:`~repro.core.graph_index.find_matches` enumeration
against exhaustive enumeration on random graphs.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Sequence

from repro.core.buffers import IntColumn

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (graph imports us)
    from repro.core.graph import TemporalGraph

__all__ = [
    "LabelInterner",
    "PROCESS_INTERNER",
    "GraphKernel",
    "EdgeArrays",
    "build_kernels",
]

#: What an *edge-indexed source* hands the array join: ``(base, src, dst,
#: time)`` where position ``i - base`` of each flat column describes the
#: edge with global id ``i``.  Frozen graphs use ``base == 0``; the
#: streaming window's base is its compaction offset.  Columns are
#: contiguous int64 buffers (see :mod:`repro.core.buffers`).
EdgeArrays = tuple[int, IntColumn, IntColumn, IntColumn]


class LabelInterner:
    """Bijective ``label string <-> dense int id`` mapping.

    Ids are handed out in first-:meth:`intern` order, which makes them
    deterministic for a fixed construction order.  :meth:`intern` is
    safe for concurrent threads: a miss assigns its id under a lock, and
    the label is listed before its id is published, so a reader that
    finds an id can always :meth:`label_of` it.
    """

    __slots__ = ("_ids", "_labels", "_lock")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._labels: list[str] = []
        self._lock = threading.Lock()

    def intern(self, label: str) -> int:
        """Return the id of ``label``, assigning the next id if unseen."""
        lid = self._ids.get(label)
        if lid is None:
            with self._lock:
                lid = self._ids.get(label)
                if lid is None:
                    lid = len(self._labels)
                    self._labels.append(label)
                    self._ids[label] = lid
        return lid

    def id_of(self, label: str) -> int | None:
        """Return the id of ``label`` or ``None`` without assigning one."""
        return self._ids.get(label)

    def snapshot(self) -> tuple[str, ...]:
        """The interned labels in id order (id ``i`` carries label ``i``).

        This is the persistable form of an interner: ids are never
        written to disk (see the interning contract above), only the
        first-encounter label order, from which :meth:`restore` rebuilds
        a bit-identical mapping in any process.
        """
        return tuple(self._labels)

    @classmethod
    def restore(cls, labels: Sequence[str]) -> "LabelInterner":
        """Rebuild an interner from a :meth:`snapshot` label order."""
        interner = cls()
        for label in labels:
            interner.intern(label)
        return interner

    def label_of(self, lid: int) -> str:
        """Return the label string carrying id ``lid``."""
        return self._labels[lid]

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: str) -> bool:
        return label in self._ids


#: The process-wide interner of kernel and sequence-encoding labels (see
#: the interning contract above).
PROCESS_INTERNER = LabelInterner()


class GraphKernel:
    """Frozen array-backed view of one :class:`TemporalGraph`.

    Built once per graph via :meth:`from_graph` (graphs cache their
    kernel — see :meth:`TemporalGraph.kernel`) and read by every hot
    path afterwards.  The edge columns are contiguous int64 buffers
    shared with the owning graph's :meth:`edge_arrays` (possibly
    read-only views of store pages); CSR runs and label-id tables are
    plain lists / frozensets.  The kernel itself is immutable by
    convention.
    """

    __slots__ = (
        "num_nodes",
        "num_edges",
        "edge_src",
        "edge_dst",
        "edge_time",
        "node_labels",
        "node_label_ids",
        "out_indptr",
        "out_indices",
        "out_dsts",
        "in_indptr",
        "in_indices",
        "in_srcs",
        "suffix_label_ids",
    )

    def __init__(
        self,
        edge_src: IntColumn,
        edge_dst: IntColumn,
        edge_time: IntColumn,
        node_labels: Sequence[str],
        node_label_ids: list[int],
        out_indptr: list[int],
        out_indices: list[int],
        in_indptr: list[int],
        in_indices: list[int],
        suffix_label_ids: list[frozenset[int]],
    ) -> None:
        self.num_nodes = len(node_label_ids)
        self.num_edges = len(edge_src)
        self.edge_src = edge_src
        self.edge_dst = edge_dst
        self.edge_time = edge_time
        self.node_labels = node_labels
        self.node_label_ids = node_label_ids
        self.out_indptr = out_indptr
        self.out_indices = out_indices
        self.in_indptr = in_indptr
        self.in_indices = in_indices
        self.out_dsts = [edge_dst[j] for j in out_indices]
        self.in_srcs = [edge_src[j] for j in in_indices]
        self.suffix_label_ids = suffix_label_ids

    @classmethod
    def from_graph(cls, graph: "TemporalGraph") -> "GraphKernel":
        """Flatten a frozen graph, interning through :data:`PROCESS_INTERNER`.

        Prefer :meth:`TemporalGraph.kernel`, which caches the result on
        the graph; this constructor always builds fresh.
        """
        if not graph.frozen:
            graph.freeze()
        base, edge_src, edge_dst, edge_time = graph.edge_arrays()
        assert base == 0, "frozen graphs index edges from zero"
        labels = graph.labels
        intern = PROCESS_INTERNER.intern
        node_label_ids = [intern(label) for label in labels]
        out_indptr, out_indices = _csr(graph._out)
        in_indptr, in_indices = _csr(graph._in)
        # suffix_label_ids[i] = interned labels of nodes touched by edges
        # i..end; suffix_label_ids[m] is empty.  An edge that brings no
        # new label reuses the next suffix's set, so the list holds at
        # most distinct-labels + 1 sets.
        m = len(edge_src)
        suffix: list[frozenset[int]] = [frozenset()] * (m + 1)
        acc: set[int] = set()
        current = suffix[m]
        for i in range(m - 1, -1, -1):
            size = len(acc)
            acc.add(node_label_ids[edge_src[i]])
            acc.add(node_label_ids[edge_dst[i]])
            if len(acc) != size:
                current = frozenset(acc)
            suffix[i] = current
        return cls(
            edge_src=edge_src,
            edge_dst=edge_dst,
            edge_time=edge_time,
            node_labels=labels,
            node_label_ids=node_label_ids,
            out_indptr=out_indptr,
            out_indices=out_indices,
            in_indptr=in_indptr,
            in_indices=in_indices,
            suffix_label_ids=suffix,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GraphKernel(nodes={self.num_nodes}, edges={self.num_edges})"


def _csr(adjacency: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Flatten a list-of-lists adjacency into ``(indptr, indices)``."""
    indptr = [0] * (len(adjacency) + 1)
    indices: list[int] = []
    extend = indices.extend
    for node, row in enumerate(adjacency):
        extend(row)
        indptr[node + 1] = len(indices)
    return indptr, indices


def build_kernels(graphs: Sequence["TemporalGraph"]) -> list[GraphKernel]:
    """The cached kernels of a graph *dataset* (built on first use).

    All share :data:`PROCESS_INTERNER`, so residual label-id sets union
    and intersect across the miner's positives and negatives.
    """
    return [graph.kernel() for graph in graphs]
