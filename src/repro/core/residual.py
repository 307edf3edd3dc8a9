"""Residual graphs and residual-graph-set equivalence (paper Section 4.2/4.4).

For a match ``G'`` of a pattern in data graph ``G``, the *residual graph*
``R(G, G')`` keeps exactly the edges of ``G`` whose timestamp exceeds the
largest matched timestamp — the edges still available for consecutive
growth.  Because edges are totally ordered, a residual graph is fully
determined by the pair ``(graph id, cut index)`` where the cut index is
the data-edge position right after the last matched edge.  A pattern's
*residual graph set* ``R(G, g)`` is the set of such pairs over all matches
in all graphs of ``G``.

Lemma 6 shows that for ``g1 ⊆t g2`` the residual sets are equal iff the
integers ``I(G, g) = Σ_{R ∈ R(G,g)} |R|`` are equal, so TGMiner compares
residual sets in O(1) after a single linear scan.  The ``LinearScan``
baseline instead stores the cut-pair sets explicitly and compares them
element by element.

Summaries are computed over the dataset's kernels
(:mod:`repro.core.kernel`): residual sizes come from their edge counts
and the residual node-label sets ``L(G, g)`` from their precomputed
suffix sets of interned label ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.growth import EmbeddingTable
from repro.core.kernel import GraphKernel

__all__ = ["ResidualSummary", "summarize_residuals", "linear_scan_equal"]


@dataclass(frozen=True)
class ResidualSummary:
    """Pre-computed residual information of one pattern w.r.t. one graph set.

    Attributes
    ----------
    i_value:
        ``I(G, g)`` — total edge count across the (distinct) residual
        graphs; the integer-compressed representation of the set.
    cut_pairs:
        Sorted tuple of ``(graph index, cut edge index)`` pairs uniquely
        identifying each residual graph.  Only materialized when the
        linear-scan baseline needs it (``None`` otherwise).
    label_set:
        The residual node label set ``L(G, g)`` — union of the interned
        label ids of nodes incident to residual edges (used by subgraph
        pruning's condition (3)).  Ids come from the kernels' interner,
        so only membership/intersection against ids of the same interner
        is meaningful.
    """

    i_value: int
    cut_pairs: tuple[tuple[int, int], ...] | None
    label_set: frozenset[int]


def summarize_residuals(
    kernels: Sequence[GraphKernel],
    embeddings: EmbeddingTable,
    keep_cut_pairs: bool = False,
    with_labels: bool = True,
) -> ResidualSummary:
    """Aggregate residual information from a pattern's embedding table.

    Works one graph at a time.  A graph's residual graphs are its
    *distinct* cut points (residual graphs form a set): with ``m`` edges,
    the cuts ``C`` contribute ``|C| * (m - 1) - sum(C)`` edges to
    ``I(G, g)``.  Suffix label sets nest (an earlier cut's residual
    holds every later cut's edges), so the graph's share of the label
    set is the smallest cut's suffix set.

    Parameters
    ----------
    kernels:
        Kernels of the data graph set ``G`` (indexable by graph id), all
        sharing one dataset interner; the label set is read from their
        precomputed suffix sets.
    embeddings:
        The pattern's embedding table over ``G``: graph id -> its
        (non-empty) set of embeddings, each ending in the index of its
        last matched edge.
    keep_cut_pairs:
        Materialize the sorted cut-pair tuple for linear-scan equality.
    with_labels:
        Compute the residual node label set (skippable for negative sets,
        where subgraph pruning never consults labels).
    """
    i_value = 0
    label_sets: list[frozenset[int]] = []
    pairs: list[tuple[int, int]] = []
    for gid, emb_set in embeddings.items():
        kernel = kernels[gid]
        cuts = {emb[1] for emb in emb_set}
        i_value += len(cuts) * (kernel.num_edges - 1) - sum(cuts)
        if with_labels:
            label_sets.append(kernel.suffix_label_ids[min(cuts) + 1])
        if keep_cut_pairs:
            pairs.extend((gid, cut) for cut in cuts)
    return ResidualSummary(
        i_value=i_value,
        cut_pairs=tuple(sorted(pairs)) if keep_cut_pairs else None,
        label_set=frozenset().union(*label_sets),
    )


def linear_scan_equal(
    left: tuple[tuple[int, int], ...], right: tuple[tuple[int, int], ...]
) -> bool:
    """Element-wise residual-set comparison (the ``LinearScan`` baseline).

    Deliberately compares pair by pair instead of hashing whole tuples so
    the per-test cost is linear in the residual-set size, as in the
    paper's baseline.
    """
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if a != b:
            return False
    return True
