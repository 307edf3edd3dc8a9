"""Subsequence-test based temporal subgraph test (paper Section 4.3).

Deciding ``g1 ⊆t g2`` is NP-complete (Proposition 3), but total edge order
lets us search far less than general subgraph isomorphism.  Following
Lemma 5 the test enumerates injective node mappings ``fs`` realizing
``nodeseq(g1) ⊑ enhseq(g2)`` and accepts as soon as one of them satisfies
``fs(edgeseq(g1)) ⊑ edgeseq(g2)``.

The enumeration applies the Appendix J pruning techniques:

* **label sequence test** — a label-level subsequence pre-test on both the
  node and edge sequences rejects most non-subgraph pairs without any
  mapping search;
* **local information match** — a candidate mapping ``a -> b`` is dropped
  when ``b``'s in/out degree cannot cover ``a``'s;
* **prefix pruning** — failed search states ``(next g1 node, enhseq
  position, used g2 nodes)`` are memoized so a prefix reached again through
  a different assignment order is pruned immediately.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pattern import TemporalPattern
from repro.core.sequence import encode, label_subsequence

__all__ = ["SequenceSubgraphTester", "is_temporal_subgraph", "find_mapping"]


@dataclass
class SequenceSubgraphTester:
    """Reusable tester carrying the Appendix J pruning toggles.

    The miner creates one tester per run and counts the tests it asks
    for in :class:`~repro.core.miner.MiningStats` (``subgraph_tests``);
    the toggles let the ablation benchmark switch each pruning off.

    The tester itself runs no label-multiset pretest: with
    ``MinerConfig.index_prefilter`` on, the miner compares the pair's
    exact signature bitmasks
    (:meth:`~repro.core.graph_index.CandidateFilter.pattern_mask`) before
    calling :meth:`mapping`, so only pairs that pass reach it.
    """

    use_label_test: bool = True
    use_local_info: bool = True
    use_prefix_pruning: bool = True

    # ------------------------------------------------------------------
    def contains(self, small: TemporalPattern, big: TemporalPattern) -> bool:
        """Return whether ``small ⊆t big``."""
        return self.mapping(small, big) is not None

    def mapping(
        self, small: TemporalPattern, big: TemporalPattern
    ) -> tuple[int, ...] | None:
        """Return an injective node mapping proving ``small ⊆t big``.

        The result maps small-pattern node ``i`` to big-pattern node
        ``result[i]``; ``None`` when no temporal subgraph relation exists.
        """
        if small.num_edges > big.num_edges or small.num_nodes > big.num_nodes:
            return None
        enc_small = encode(small)
        enc_big = encode(big)
        if self.use_label_test and not self._label_pretest(enc_small, enc_big):
            return None

        n_small = small.num_nodes
        enh = enc_big.enhseq
        # interned-id projections: equality-only comparisons, identical
        # outcomes to the label strings at int-hash cost
        enh_labels = enc_big.enh_label_ids
        small_labels = enc_small.node_label_ids
        small_out = small.out_degrees
        small_in = small.in_degrees
        big_out = big.out_degrees
        big_in = big.in_degrees
        small_edges = enc_small.edgeseq
        big_edges = enc_big.edgeseq
        # Memo of failed search states.  The key must include the full
        # assignment prefix: the final edge-subsequence test depends on
        # *which* small node maps to which big node, so caching on the
        # used-node set alone would wrongly prune assignments that only
        # differ by a permutation.  Distinct position choices that bind
        # the same candidates can still converge on an identical state,
        # which is when this memo saves work (Appendix J prefix pruning).
        failed_states: set[tuple[int, int, tuple[int, ...]]] = set()
        assignment: list[int] = [-1] * n_small
        used: set[int] = set()

        def edge_test() -> bool:
            pos = 0
            n_big_edges = len(big_edges)
            for u, v in small_edges:
                want = (assignment[u], assignment[v])
                while pos < n_big_edges and big_edges[pos] != want:
                    pos += 1
                if pos == n_big_edges:
                    return False
                pos += 1
            return True

        def search(node: int, enh_from: int) -> bool:
            if node == n_small:
                return edge_test()
            state = (node, enh_from, tuple(assignment[:node]))
            if self.use_prefix_pruning and state in failed_states:
                return False
            label = small_labels[node]
            for pos in range(enh_from, len(enh)):
                if enh_labels[pos] != label:
                    continue
                cand = enh[pos]
                if cand in used:
                    continue
                if self.use_local_info and (
                    big_out[cand] < small_out[node] or big_in[cand] < small_in[node]
                ):
                    continue
                assignment[node] = cand
                used.add(cand)
                if search(node + 1, pos + 1):
                    return True
                used.discard(cand)
                assignment[node] = -1
            if self.use_prefix_pruning:
                failed_states.add(state)
            return False

        found = search(0, 0)
        # search reaches itself through its closure cell; unbinding it
        # breaks the cycle, so the closures and the state they hold are
        # freed on return instead of by the cyclic collector
        del search
        return tuple(assignment) if found else None

    # ------------------------------------------------------------------
    @staticmethod
    def _label_pretest(enc_small, enc_big) -> bool:
        """Label sequence test (Appendix J): necessary conditions only.

        Runs over the interned-id projections — subsequence containment
        only compares elements for equality, so the id bijection gives
        the same verdicts as the label strings.
        """
        if not label_subsequence(enc_small.node_label_ids, enc_big.enh_label_ids):
            return False
        return label_subsequence(
            enc_small.edge_label_pair_ids, enc_big.edge_label_pair_ids
        )


_DEFAULT_TESTER = SequenceSubgraphTester()


def is_temporal_subgraph(small: TemporalPattern, big: TemporalPattern) -> bool:
    """Module-level convenience wrapper: ``small ⊆t big``."""
    return _DEFAULT_TESTER.contains(small, big)


def find_mapping(
    small: TemporalPattern,
    big: TemporalPattern,
) -> tuple[int, ...] | None:
    """Module-level convenience wrapper returning a witness mapping."""
    return _DEFAULT_TESTER.mapping(small, big)
