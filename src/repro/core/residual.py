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
from typing import Iterable, Sequence

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
    cut_points: Iterable[tuple[int, int]],
    keep_cut_pairs: bool = False,
    with_labels: bool = True,
) -> ResidualSummary:
    """Aggregate residual information from match cut points.

    Parameters
    ----------
    kernels:
        Kernels of the data graph set ``G`` (indexable by graph id), all
        sharing one dataset interner; the label set is read from their
        precomputed suffix sets.
    cut_points:
        ``(graph id, last matched edge index)`` per match; duplicates are
        collapsed because residual graphs form a *set*.
    keep_cut_pairs:
        Materialize the explicit cut-pair tuple for linear-scan equality.
    with_labels:
        Compute the residual node label set (skippable for negative sets,
        where subgraph pruning never consults labels).
    """
    distinct = sorted(set(cut_points))
    i_value = 0
    labels: set[int] = set()
    for gid, cut in distinct:
        kernel = kernels[gid]
        i_value += kernel.num_edges - (cut + 1)
        if with_labels:
            labels |= kernel.suffix_label_ids[cut + 1]
    return ResidualSummary(
        i_value=i_value,
        cut_pairs=tuple(distinct) if keep_cut_pairs else None,
        label_set=frozenset(labels),
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
