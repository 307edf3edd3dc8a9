"""Modified VF2 temporal subgraph test (the ``PruneVF2`` baseline).

The paper's ``PruneVF2`` baseline performs temporal subgraph tests with a
VF2-style algorithm [Cordella et al. 2004] adapted to temporal graphs: the
classic state-space search maps *nodes* first (with label and degree
feasibility rules) and only afterwards verifies that an order-preserving
edge mapping ``τ`` exists for the candidate node mapping.

Because node-first search ignores the total edge order until verification,
it explores many states a temporal-order-aware algorithm would never
visit — which is exactly why the paper reports it up to 32x slower than
the subsequence-test algorithm.  We keep the implementation faithful to
that structure rather than "fixing" it.

The one optional deviation is the index-backed candidate seeding: with a
:class:`~repro.core.graph_index.CandidateFilter` supplied as
``label_index``, per-node candidate lists are seeded from the filter's
label → nodes index of the big pattern instead of scanning all of its
nodes.  This is pure candidate pruning — the accepted mappings are
identical.  The tester runs no signature pretest of its own: with the
filter on, the miner rejects pairs whose label multisets cannot nest
before calling it.  The bare tester carries no filter, and
:func:`repro.core.miner.miner_variant` builds the ``PruneVF2`` baseline
without one, so the paper's unfiltered cost profile stays reproducible;
only ``TGMiner`` configs with ``index_prefilter`` enabled attach a
filter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pattern import TemporalPattern

__all__ = ["VF2SubgraphTester"]


@dataclass
class VF2SubgraphTester:
    """VF2-style tester with the same interface as the sequence tester.

    ``label_index``: an optional candidate filter whose label → nodes
    index seeds the per-node candidate lists (see the module docstring).
    """

    label_index: object | None = None

    def contains(self, small: TemporalPattern, big: TemporalPattern) -> bool:
        """Return whether ``small ⊆t big``."""
        return self.mapping(small, big) is not None

    def mapping(
        self, small: TemporalPattern, big: TemporalPattern
    ) -> tuple[int, ...] | None:
        """Return a witness node mapping for ``small ⊆t big`` or ``None``."""
        if small.num_edges > big.num_edges or small.num_nodes > big.num_nodes:
            return None
        # Static structures.
        small_adj = _adjacency(small)
        big_adj = _adjacency(big)
        small_out, small_in = small.out_degrees, small.in_degrees
        big_out, big_in = big.out_degrees, big.in_degrees
        n_small = small.num_nodes

        # Candidate big nodes per small node, filtered by label + degree.
        # With a filter, candidates come from its label → nodes index of
        # `big` (same lists, in the same node order, without the scan).
        index = self.label_index
        by_label = index.label_nodes(big) if index is not None else None
        candidates: list[list[int]] = []
        for a in range(n_small):
            pool = (
                by_label.get(small.label(a), ())
                if by_label is not None
                else range(big.num_nodes)
            )
            options = [
                b
                for b in pool
                if big.label(b) == small.label(a)
                and big_out[b] >= small_out[a]
                and big_in[b] >= small_in[a]
            ]
            if not options:
                return None
            candidates.append(options)

        assignment: list[int] = [-1] * n_small
        used: set[int] = set()
        order = sorted(range(n_small), key=lambda a: len(candidates[a]))

        def feasible(a: int, b: int) -> bool:
            # Every already-mapped neighbor relation must exist in `big`
            # (multi-edge counts checked multiset-wise).
            for other, need in small_adj.get(a, {}).items():
                mapped = assignment[other]
                if mapped != -1 and big_adj.get(b, {}).get(mapped, 0) < need:
                    return False
            for other, need in small_adj.get(-a - 1, {}).items():
                mapped = assignment[other]
                if mapped != -1 and big_adj.get(-b - 1, {}).get(mapped, 0) < need:
                    return False
            return True

        def verify() -> bool:
            # Greedy order-embedding of small's edge list into big's.
            pos = 0
            big_edges = big.edges
            for u, v in small.edges:
                want = (assignment[u], assignment[v])
                while pos < len(big_edges) and big_edges[pos] != want:
                    pos += 1
                if pos == len(big_edges):
                    return False
                pos += 1
            return True

        def search(depth: int) -> bool:
            if depth == n_small:
                return verify()
            a = order[depth]
            for b in candidates[a]:
                if b in used or not feasible(a, b):
                    continue
                assignment[a] = b
                used.add(b)
                if search(depth + 1):
                    return True
                used.discard(b)
                assignment[a] = -1
            return False

        found = search(0)
        # search reaches itself through its closure cell; unbinding it
        # breaks the cycle (see SequenceSubgraphTester.mapping)
        del search
        return tuple(assignment) if found else None


def _adjacency(pattern: TemporalPattern) -> dict[int, dict[int, int]]:
    """Multiset adjacency: ``adj[u][v]`` counts ``u -> v`` edges.

    Incoming relations are stored under the key ``-u - 1`` so a single
    dict covers both directions.
    """
    adj: dict[int, dict[int, int]] = {}
    for u, v in pattern.edges:
        adj.setdefault(u, {})
        adj[u][v] = adj[u].get(v, 0) + 1
        adj.setdefault(-v - 1, {})
        adj[-v - 1][u] = adj[-v - 1].get(u, 0) + 1
    return adj
