"""Tests for the candidate-pruning prefilter (signatures + CandidateFilter).

Soundness is the contract everything rests on: the filter may only reject
pairs that provably have no mapping, so every indexed component must
return results identical to its unindexed counterpart.
"""

import random

from repro.core.graph_index import (
    CandidateFilter,
    Signature,
    graph_signature,
    pattern_signature,
    signature_contains,
)
from repro.core.miner import MinerConfig, TGMiner
from repro.core.pattern import TemporalPattern
from repro.core.subgraph import SequenceSubgraphTester
from repro.core.vf2 import VF2SubgraphTester
from repro.query.engine import QueryEngine

from repro.core.errors import PatternError

from conftest import build_graph, random_embedded_pattern, random_temporal_graph


def random_pattern(rng, n_nodes, n_edges):
    """A random T-connected pattern (rejection-samples random graphs)."""
    while True:
        graph = random_temporal_graph(rng, n_nodes=n_nodes, n_edges=n_edges)
        try:
            return TemporalPattern.from_graph(graph)
        except PatternError:
            continue


class TestSignatures:
    def test_pattern_signature_counts(self):
        pattern = TemporalPattern(("A", "B", "A"), ((0, 1), (1, 2), (0, 1)))
        sig = pattern_signature(pattern)
        assert sig.node_labels == {"A": 2, "B": 1}
        assert sig.edge_labels == {("A", "B"): 2, ("B", "A"): 1}

    def test_graph_signature_counts(self, figure3_graph):
        sig = graph_signature(figure3_graph)
        assert sig.node_labels == {"A": 1, "B": 1, "C": 1, "E": 1}
        assert sig.edge_labels == {
            ("A", "B"): 2,
            ("B", "C"): 1,
            ("A", "C"): 1,
            ("C", "E"): 1,
            ("A", "E"): 1,
        }

    def test_graph_and_pattern_signature_agree(self):
        pattern = TemporalPattern(("A", "B", "C"), ((0, 1), (1, 2), (0, 2)))
        assert pattern_signature(pattern) == graph_signature(
            pattern.as_temporal_graph()
        )

    def test_containment_multiset_semantics(self):
        big = Signature({"A": 2, "B": 1}, {("A", "B"): 2})
        assert signature_contains(big, Signature({"A": 1}, {("A", "B"): 1}))
        assert signature_contains(big, big)
        # one more A-node than available
        assert not signature_contains(big, Signature({"A": 3}, {}))
        # label pair absent entirely
        assert not signature_contains(big, Signature({"A": 1}, {("B", "A"): 1}))
        # multi-edge count exceeded
        assert not signature_contains(big, Signature({}, {("A", "B"): 3}))

    def test_label_pair_index_matches_edges_between(self, figure3_graph):
        index = figure3_graph.label_pair_index()
        for pair, idxs in index.items():
            assert list(figure3_graph.edges_between(*pair)) == list(idxs)
        total = sum(len(idxs) for idxs in index.values())
        assert total == figure3_graph.num_edges


class TestCandidateFilter:
    def test_never_rejects_true_subgraph(self):
        """Soundness: a pair with a real mapping must pass the prefilter."""
        rng = random.Random(3)
        filt = CandidateFilter()
        checked = 0
        for _ in range(120):
            big = random_pattern(rng, n_nodes=6, n_edges=10)
            big_graph = big.as_temporal_graph()
            small = random_embedded_pattern(rng, big_graph, max_edges=4)
            assert filt.pattern_vs_pattern(small, big)
            assert filt.pattern_vs_graph(small, big_graph)
            checked += 1
        assert filt.stats.checks == 2 * checked
        assert filt.stats.rejections == 0

    def test_agrees_with_full_test_on_random_pairs(self):
        """The filter may reject only pairs the exact tester also rejects."""
        rng = random.Random(7)
        filt = CandidateFilter()
        exact = SequenceSubgraphTester()
        rejections = 0
        for _ in range(200):
            small = random_pattern(rng, n_nodes=4, n_edges=4)
            big = random_pattern(rng, n_nodes=6, n_edges=9)
            if not filt.pattern_vs_pattern(small, big):
                rejections += 1
                assert exact.mapping(small, big) is None
        assert rejections > 0  # the corpus must exercise the reject path

    def test_signature_caching(self):
        filt = CandidateFilter()
        pattern = TemporalPattern(("A", "B"), ((0, 1),))
        assert filt.signature_of_pattern(pattern) is filt.signature_of_pattern(pattern)
        graph = build_graph([(0, 1, 1)], labels=["A", "B"])
        assert filt.signature_of_graph(graph) is filt.signature_of_graph(graph)

    def test_label_nodes_index(self):
        filt = CandidateFilter()
        pattern = TemporalPattern(("A", "B", "A"), ((0, 1), (1, 2)))
        assert filt.label_nodes(pattern) == {"A": [0, 2], "B": [1]}


class TestFilteredTesters:
    def test_sequence_and_vf2_match_unfiltered(self):
        rng = random.Random(11)
        filt = CandidateFilter()
        plain_seq, filt_seq = SequenceSubgraphTester(), SequenceSubgraphTester(
            prefilter=filt
        )
        plain_vf2, filt_vf2 = VF2SubgraphTester(), VF2SubgraphTester(prefilter=filt)
        for _ in range(150):
            small = random_pattern(rng, n_nodes=4, n_edges=5)
            big = random_pattern(rng, n_nodes=6, n_edges=10)
            expected = plain_seq.contains(small, big)
            assert filt_seq.contains(small, big) == expected
            assert plain_vf2.contains(small, big) == expected
            assert filt_vf2.contains(small, big) == expected
        assert filt_seq.stats.prefilter_rejections > 0
        assert filt_vf2.stats.prefilter_rejections > 0

    def test_vf2_mapping_identical_with_filter(self):
        rng = random.Random(13)
        filt = CandidateFilter()
        plain, filtered = VF2SubgraphTester(), VF2SubgraphTester(prefilter=filt)
        for _ in range(80):
            big = random_pattern(rng, n_nodes=6, n_edges=9)
            small = random_embedded_pattern(rng, big.as_temporal_graph(), max_edges=3)
            assert plain.mapping(small, big) == filtered.mapping(small, big)


def mining_corpus(seed=0, n_pos=6, n_neg=6):
    """Dense shared-alphabet corpus so pruning lookups (and hence the
    prefilter) actually fire during mining."""
    rng = random.Random(seed)
    pos = [
        random_temporal_graph(rng, n_nodes=5, n_edges=14, alphabet="AB")
        for _ in range(n_pos)
    ]
    neg = [
        random_temporal_graph(rng, n_nodes=5, n_edges=14, alphabet="AB")
        for _ in range(n_neg)
    ]
    return pos, neg


class TestIndexedMining:
    def test_indexed_mining_identical_pattern_sets(self):
        """Acceptance: indexed and unindexed mining agree byte-for-byte."""
        pos, neg = mining_corpus()
        results = {}
        for indexed in (True, False):
            config = MinerConfig(
                max_edges=4, min_pos_support=0.5, index_prefilter=indexed
            )
            results[indexed] = TGMiner(config).mine(pos, neg)
        on, off = results[True], results[False]
        assert on.best_score == off.best_score
        assert [m.pattern.key() for m in on.best] == [
            m.pattern.key() for m in off.best
        ]
        assert {s: m.pattern.key() for s, m in on.best_by_size.items()} == {
            s: m.pattern.key() for s, m in off.best_by_size.items()
        }
        assert on.stats.patterns_explored == off.stats.patterns_explored
        assert (
            on.stats.subgraph_pruning_triggers == off.stats.subgraph_pruning_triggers
        )
        assert (
            on.stats.supergraph_pruning_triggers
            == off.stats.supergraph_pruning_triggers
        )
        # The same candidate pairs reach the tester either way; with the
        # filter, most are answered by signature alone (no mapping search).
        assert on.stats.subgraph_tests == off.stats.subgraph_tests
        assert on.stats.index_prefilter_checks > 0
        assert on.stats.index_prefilter_skips > 0
        assert off.stats.index_prefilter_checks == 0
        assert off.stats.index_prefilter_skips == 0

    def test_indexed_mining_identical_across_testers(self):
        pos, neg = mining_corpus(seed=23)
        keys = set()
        for tester in ("sequence", "vf2", "gi"):
            for indexed in (True, False):
                config = MinerConfig(
                    max_edges=3,
                    min_pos_support=0.5,
                    subgraph_test=tester,
                    index_prefilter=indexed,
                )
                result = TGMiner(config).mine(pos, neg)
                keys.add(tuple(m.pattern.key() for m in result.best))
        assert len(keys) == 1


class TestIndexedQueries:
    def test_temporal_search_identical_spans(self):
        rng = random.Random(29)
        graph = random_temporal_graph(rng, n_nodes=8, n_edges=30)
        indexed, plain = QueryEngine(graph), QueryEngine(graph, use_index=False)
        for _ in range(20):
            pattern = random_embedded_pattern(rng, graph, max_edges=3)
            assert indexed.search_temporal(pattern, max_span=40) == (
                plain.search_temporal(pattern, max_span=40)
            )

    def test_impossible_query_short_circuits(self):
        graph = build_graph([(0, 1, 1), (1, 2, 2)], labels=["A", "B", "C"])
        engine = QueryEngine(graph)
        absent = TemporalPattern(("X", "Y"), ((0, 1),))
        assert engine.search_temporal(absent, max_span=10) == []
        assert engine.filter.stats.rejections == 1
