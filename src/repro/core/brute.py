"""Brute-force temporal subgraph matcher (reference oracle).

This module enumerates *all* matches of a temporal pattern inside a
temporal graph by straightforward backtracking over the pattern's edges in
temporal order.  It makes no use of the paper's sequence encodings, so it
serves as the correctness oracle for:

* :mod:`repro.core.subgraph` (subsequence-test algorithm, Lemma 5),
* :mod:`repro.core.vf2` (modified VF2 baseline),
* :mod:`repro.core.graph_index` (index-join matcher),
* the miner's incremental embedding bookkeeping.

Matching a pattern edge to a data edge must preserve the total edge order,
so each successive pattern edge may only map to a data edge with a strictly
larger timestamp than the previously matched one — which is why the search
walks data edges left to right.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.graph import TemporalGraph
from repro.core.pattern import TemporalPattern

__all__ = ["enumerate_matches", "count_matches", "contains_pattern", "Match"]


class Match:
    """One match of a pattern in a data graph.

    Attributes
    ----------
    nodes:
        Tuple mapping pattern node id -> data node id (injective).
    edge_indexes:
        Tuple mapping pattern edge position -> data edge index, strictly
        increasing (order-preserving timestamp mapping ``τ``).
    """

    __slots__ = ("nodes", "edge_indexes")

    def __init__(self, nodes: tuple[int, ...], edge_indexes: tuple[int, ...]) -> None:
        self.nodes = nodes
        self.edge_indexes = edge_indexes

    def last_edge_index(self) -> int:
        """Data index of the latest matched edge (the residual cut point)."""
        return self.edge_indexes[-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Match(nodes={self.nodes}, edges={self.edge_indexes})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self.nodes == other.nodes and self.edge_indexes == other.edge_indexes

    def __hash__(self) -> int:
        return hash((self.nodes, self.edge_indexes))


def enumerate_matches(
    pattern: TemporalPattern,
    graph: TemporalGraph,
    limit: int | None = None,
) -> Iterator[Match]:
    """Yield every match of ``pattern`` in ``graph``.

    ``limit`` optionally stops the enumeration after that many matches
    (useful when only existence or a bounded sample is needed).
    """
    if not graph.frozen:
        graph.freeze()
    m = pattern.num_edges
    if m > graph.num_edges or pattern.num_nodes > graph.num_nodes:
        return
    edges = graph.edges
    labels = graph.labels
    p_edges = pattern.edges
    p_labels = pattern.labels
    assignment: dict[int, int] = {}
    used_nodes: set[int] = set()
    chosen: list[int] = []
    emitted = 0

    def backtrack(edge_pos: int, from_index: int) -> Iterator[Match]:
        nonlocal emitted
        if edge_pos == m:
            nodes = tuple(assignment[i] for i in range(pattern.num_nodes))
            yield Match(nodes, tuple(chosen))
            emitted += 1
            return
        pu, pv = p_edges[edge_pos]
        # Remaining pattern edges need at least that many data edges.
        last_start = graph.num_edges - (m - edge_pos) + 1
        for idx in range(from_index, last_start):
            edge = edges[idx]
            du, dv = edge.src, edge.dst
            bind_u = pu not in assignment
            bind_v = pv not in assignment
            if not bind_u and assignment[pu] != du:
                continue
            if not bind_v and assignment[pv] != dv:
                continue
            if bind_u:
                if du in used_nodes or labels[du] != p_labels[pu]:
                    continue
            if bind_v:
                if dv in used_nodes or labels[dv] != p_labels[pv]:
                    continue
                if bind_u and pu != pv and du == dv:
                    continue
            if bind_u:
                assignment[pu] = du
                used_nodes.add(du)
            if bind_v and pv not in assignment:
                assignment[pv] = dv
                used_nodes.add(dv)
            chosen.append(idx)
            yield from backtrack(edge_pos + 1, idx + 1)
            chosen.pop()
            if bind_u:
                del assignment[pu]
                used_nodes.discard(du)
            if bind_v and pv in assignment and assignment[pv] == dv:
                del assignment[pv]
                used_nodes.discard(dv)
            if limit is not None and emitted >= limit:
                return

    try:
        yield from backtrack(0, 0)
    finally:
        del backtrack  # the closure reaches itself: break the cycle


def count_matches(pattern: TemporalPattern, graph: TemporalGraph) -> int:
    """Number of matches of ``pattern`` in ``graph``."""
    return sum(1 for _match in enumerate_matches(pattern, graph))


def contains_pattern(pattern: TemporalPattern, graph: TemporalGraph) -> bool:
    """Whether at least one match of ``pattern`` exists in ``graph``."""
    return next(enumerate_matches(pattern, graph, limit=1), None) is not None
