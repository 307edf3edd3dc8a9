"""Consecutive pattern growth with embedding bookkeeping (paper Section 3).

Consecutive growth appends one edge with pattern timestamp ``|E|+1``; in
the data this means a match of the grown pattern extends a match of the
parent by one data edge whose timestamp is strictly larger than every
already-matched edge — i.e. an edge of the parent match's *residual
graph*.  The miner therefore never re-matches patterns from scratch: each
pattern carries its embedding table and children inherit extended
embeddings from one pass over the parent's residual edges: a
CSR-adjacency walk over the interned kernel (:mod:`repro.core.kernel`)
that touches only the edges incident to each embedding, once per
distinct node tuple.  A one-edge seed's table is read off the graphs'
label-pair indexes, one seed at a time, when the search reaches it.

Three growth options (Figure 5) keep T-connectivity and cover the whole
pattern space (Theorem 1):

* forward  — ``(u, v)`` with ``u`` mapped, ``v`` new;
* backward — ``(u, v)`` with ``u`` new, ``v`` mapped;
* inward   — both endpoints mapped (multi-edges allowed).

Extension keys identify children uniquely (Lemma 3): two distinct keys
always denote non-identical patterns, and each pattern has exactly one
parent (its edge-prefix), so the depth-first search is repetition-free
without canonical labeling.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, NamedTuple, Sequence

from repro.core.graph import TemporalGraph
from repro.core.kernel import GraphKernel
from repro.core.pattern import TemporalPattern

__all__ = [
    "Embedding",
    "EmbeddingTable",
    "ExtensionKey",
    "seed_patterns",
    "extend_embeddings",
    "child_pattern",
]


class Embedding(NamedTuple):
    """A match footprint: node images plus the last matched edge index."""

    nodes: tuple[int, ...]
    last_index: int


# graph index -> set of embeddings of one pattern in that graph.
EmbeddingTable = dict[int, set[Embedding]]

# ("f", src_pattern_node, new_dst_label) | ("b", new_src_label,
# dst_pattern_node) | ("i", src_pattern_node, dst_pattern_node)
ExtensionKey = tuple[str, object, object]


def seed_patterns(
    graphs: Sequence[TemporalGraph], key: tuple[str, str]
) -> EmbeddingTable:
    """The embedding table of the one-edge pattern ``key`` over ``graphs``.

    ``key`` is a ``(src_label, dst_label)`` pair; its rows are read off
    each frozen graph's one-edge label-pair index
    (:meth:`TemporalGraph.label_pair_index`), and graphs without a row
    are left out.  Self-loop data edges are skipped: the pattern model
    has no self-loops (injective node mapping over two distinct pattern
    nodes can never cover one).  The miner builds one table per seed it
    explores, so seeds after its search stops are never built.
    """
    table: EmbeddingTable = {}
    for gid, graph in enumerate(graphs):
        idxs = graph.label_pair_index().get(key)
        if not idxs:
            continue
        edges = graph.edges
        rows = set()
        for idx in idxs:
            edge = edges[idx]
            if edge.src != edge.dst:
                rows.add(Embedding((edge.src, edge.dst), idx))
        if rows:
            table[gid] = rows
    return table


def extend_embeddings(
    graphs: Sequence[TemporalGraph],
    embeddings: EmbeddingTable,
    kernels: Sequence[GraphKernel] | None = None,
) -> dict[ExtensionKey, EmbeddingTable]:
    """Produce all children's embeddings from the parents' residual edges.

    For every embedding, every data edge after its cut point that touches
    at least one mapped node yields a child embedding under the forward /
    backward / inward extension key describing it at pattern level.
    A child row depends only on the node images and the new edge, so
    embeddings that share their node images are walked once, from their
    earliest cut: a later cut's incident edges are a subset.

    The walk reads the CSR adjacency of the embedding's mapped nodes,
    bisecting each incident edge run to the cut point — work proportional
    to the *incident* residual edges, not the whole residual graph.
    ``kernels`` supplies prebuilt per-graph kernels (the miner passes its
    dataset kernels); otherwise each graph's cached kernel is used, so
    the graphs must be frozen.
    """
    out: dict[ExtensionKey, EmbeddingTable] = {}
    for gid, emb_set in embeddings.items():
        kernel = kernels[gid] if kernels is not None else graphs[gid].kernel()
        _extend_in_kernel(kernel, gid, emb_set, out)
    return out


def _extend_in_kernel(
    kernel: GraphKernel,
    gid: int,
    emb_set: set[Embedding],
    out: dict[ExtensionKey, EmbeddingTable],
) -> None:
    """Adjacency-driven extension over one graph's kernel arrays.

    The embeddings are first reduced to the earliest cut of each node
    tuple (see :func:`extend_embeddings`).  Each edge incident to a node
    tuple after its cut is reached exactly once: via the out-run of its
    (mapped) source for forward/inward growth, via the in-run of its
    (mapped) destination — with mapped sources skipped — for backward
    growth.  Self-loops are skipped (patterns have none).
    The far endpoint of each CSR slot is read from the kernel's
    ``out_dsts``/``in_srcs`` twin lists, not from the edge columns —
    list reads beat buffer scalar access in this loop (the columns'
    buffer layout earns its keep in the vectorized matcher and the
    store decode, not here).

    Emission is the dominant cost at data scale, so the inner loops cut
    it down: rows are built through the C-level ``tuple.__new__`` (they
    are still :class:`Embedding` instances) and accumulated in a per-graph
    ``key -> rows`` dict that is folded into the shared output once at
    the end — one dict probe per row instead of two ``setdefault`` hops.
    """
    out_indptr = kernel.out_indptr
    out_indices = kernel.out_indices
    out_dsts = kernel.out_dsts
    in_indptr = kernel.in_indptr
    in_indices = kernel.in_indices
    in_srcs = kernel.in_srcs
    labels = kernel.node_labels
    row = tuple.__new__
    local: dict[ExtensionKey, set[Embedding]] = {}
    local_get = local.get
    first_cut: dict[tuple[int, ...], int] = {}
    for nodes, cut in emb_set:
        if first_cut.get(nodes, cut) >= cut:
            first_cut[nodes] = cut
    for nodes, cut in first_cut.items():
        node_to_pattern = {dn: pi for pi, dn in enumerate(nodes)}
        mapped = node_to_pattern.get
        for pi, dn in enumerate(nodes):
            hi = out_indptr[dn + 1]
            for j in range(bisect_right(out_indices, cut, out_indptr[dn], hi), hi):
                dst = out_dsts[j]
                if dst == dn:
                    continue
                idx = out_indices[j]
                dst_p = mapped(dst)
                if dst_p is None:
                    key: ExtensionKey = ("f", pi, labels[dst])
                    new_nodes = nodes + (dst,)
                else:
                    key = ("i", pi, dst_p)
                    new_nodes = nodes
                rows = local_get(key)
                if rows is None:
                    rows = local[key] = set()
                rows.add(row(Embedding, (new_nodes, idx)))
            hi = in_indptr[dn + 1]
            for j in range(bisect_right(in_indices, cut, in_indptr[dn], hi), hi):
                src = in_srcs[j]
                if src == dn or mapped(src) is not None:
                    continue
                idx = in_indices[j]
                key = ("b", labels[src], pi)
                rows = local_get(key)
                if rows is None:
                    rows = local[key] = set()
                rows.add(row(Embedding, (nodes + (src,), idx)))
    for key, rows in local.items():
        out.setdefault(key, {})[gid] = rows


def child_pattern(pattern: TemporalPattern, key: ExtensionKey) -> TemporalPattern:
    """Instantiate the child pattern denoted by an extension key."""
    kind, a, b = key
    if kind == "f":
        return pattern.grow_forward(int(a), str(b))
    if kind == "b":
        return pattern.grow_backward(str(a), int(b))
    if kind == "i":
        return pattern.grow_inward(int(a), int(b))
    raise ValueError(f"unknown extension kind {kind!r}")


def sort_extension_keys(keys: Iterable[ExtensionKey]) -> list[ExtensionKey]:
    """Deterministic ordering of mixed int/str extension keys."""
    return sorted(keys, key=lambda k: (k[0], str(k[1]), str(k[2])))
