"""Tests for the candidate-pruning prefilter (signatures + CandidateFilter).

Soundness is the contract everything rests on: the filter may only reject
pairs that provably have no mapping, so every indexed component must
return results identical to its unindexed counterpart, and the query
engine, which runs no pretest, must answer exactly what the bare span
join does.
"""

import random
from dataclasses import fields

import pytest

from repro.baselines.gspan import NonTemporalPattern
from repro.core.graph_index import (
    CandidateFilter,
    GraphIndexTester,
    Signature,
    find_spans,
    graph_signature,
    pattern_signature,
    signature_contains,
)
from repro.core.miner import MinerConfig, MiningStats, TGMiner
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


def masks_nest(filt, small, big):
    """The miner's inline pretest: ``small``'s mask bits all set in ``big``'s."""
    return filt.pattern_mask(small) & ~filt.pattern_mask(big) == 0


class TestCandidateFilter:
    def test_never_rejects_true_subgraph(self):
        """Soundness: a pair with a real mapping must pass the prefilter."""
        rng = random.Random(3)
        filt = CandidateFilter()
        for _ in range(120):
            big = random_pattern(rng, n_nodes=6, n_edges=10)
            big_graph = big.as_temporal_graph()
            small = random_embedded_pattern(rng, big_graph, max_edges=4)
            assert masks_nest(filt, small, big)
            assert signature_contains(
                graph_signature(big_graph), pattern_signature(small)
            )

    def test_agrees_with_full_test_on_random_pairs(self):
        """The filter may reject only pairs the exact tester also rejects."""
        rng = random.Random(7)
        filt = CandidateFilter()
        exact = SequenceSubgraphTester()
        rejections = 0
        for _ in range(200):
            small = random_pattern(rng, n_nodes=4, n_edges=4)
            big = random_pattern(rng, n_nodes=6, n_edges=9)
            if not masks_nest(filt, small, big):
                rejections += 1
                assert exact.mapping(small, big) is None
        assert rejections > 0  # the corpus must exercise the reject path

    def test_label_nodes_index(self):
        filt = CandidateFilter()
        pattern = TemporalPattern(("A", "B", "A"), ((0, 1), (1, 2)))
        assert filt.label_nodes(pattern) == {"A": [0, 2], "B": [1]}


class TestVF2LabelIndex:
    def test_vf2_with_label_index_agrees_with_sequence_tester(self):
        rng = random.Random(11)
        sequence = SequenceSubgraphTester()
        plain = VF2SubgraphTester()
        indexed = VF2SubgraphTester(label_index=CandidateFilter())
        for _ in range(150):
            small = random_pattern(rng, n_nodes=4, n_edges=5)
            big = random_pattern(rng, n_nodes=6, n_edges=10)
            expected = sequence.contains(small, big)
            assert plain.contains(small, big) == expected
            assert indexed.contains(small, big) == expected

    def test_vf2_mapping_identical_with_label_index(self):
        rng = random.Random(13)
        filt = CandidateFilter()
        plain, indexed = VF2SubgraphTester(), VF2SubgraphTester(label_index=filt)
        for _ in range(80):
            big = random_pattern(rng, n_nodes=6, n_edges=9)
            small = random_embedded_pattern(rng, big.as_temporal_graph(), max_edges=3)
            assert plain.mapping(small, big) == indexed.mapping(small, big)


TESTERS = {
    "gi": GraphIndexTester,
    "sequence": SequenceSubgraphTester,
    "vf2": VF2SubgraphTester,
}


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

    @pytest.mark.parametrize("tester", sorted(TESTERS))
    def test_pretest_forwards_exactly_the_nesting_pairs(self, tester, monkeypatch):
        """The inline mask pretest is exact and changes no other counter.

        With the filter off every candidate pair reaches the tester; with
        it on, exactly those that pass the tester's size check and
        label-signature containment do, in the same order.
        """
        pos, neg = mining_corpus()
        cls = TESTERS[tester]
        mapping = cls.mapping
        calls: list = []

        def recording(self, small, big):
            calls.append((small, big))
            return mapping(self, small, big)

        monkeypatch.setattr(cls, "mapping", recording)
        runs = {}
        for indexed in (True, False):
            calls.clear()
            # a low support floor lets both prunings fire on this corpus
            config = MinerConfig(
                max_edges=4,
                min_pos_support=0.3,
                subgraph_test=tester,
                index_prefilter=indexed,
            )
            stats = TGMiner(config).mine(pos, neg).stats
            runs[indexed] = (list(calls), stats)
        (on_pairs, on), (off_pairs, off) = runs[True], runs[False]
        sized = [
            (small, big)
            for small, big in off_pairs
            if small.num_edges <= big.num_edges and small.num_nodes <= big.num_nodes
        ]
        nests = [
            signature_contains(pattern_signature(big), pattern_signature(small))
            for small, big in sized
        ]
        assert on_pairs == [pair for pair, ok in zip(sized, nests) if ok]
        assert on.index_prefilter_checks == len(sized)
        assert on.index_prefilter_skips == nests.count(False) > 0
        assert off.index_prefilter_checks == off.index_prefilter_skips == 0
        prefilter_fields = {
            "elapsed_seconds",
            "index_prefilter_checks",
            "index_prefilter_skips",
        }
        for stat in fields(MiningStats):
            if stat.name not in prefilter_fields:
                assert getattr(on, stat.name) == getattr(off, stat.name), stat.name
        assert off.subgraph_tests == len(off_pairs)
        assert on.subgraph_pruning_triggers > 0
        assert on.supergraph_pruning_triggers > 0


class TestIndexedQueries:
    def test_temporal_search_identical_spans(self):
        rng = random.Random(29)
        graph = random_temporal_graph(rng, n_nodes=8, n_edges=30)
        engine = QueryEngine(graph)
        for _ in range(20):
            pattern = random_embedded_pattern(rng, graph, max_edges=3)
            assert engine.search_temporal(pattern, max_span=40) == sorted(
                find_spans(pattern, graph, max_span=40)
            )

    def test_impossible_query_short_circuits(self):
        """Queries with a label pair the graph lacks find no span,
        temporal or not."""
        graph = build_graph([(0, 1, 1), (1, 2, 2)], labels=["A", "B", "C"])
        engine = QueryEngine(graph)
        absent = TemporalPattern(("X", "Y"), ((0, 1),))
        assert engine.search_temporal(absent, max_span=10) == []
        # one present and one absent pair: the absent one anchors, and
        # with no anchor occurrence there is no window to search
        order_free = NonTemporalPattern(("A", "B", "Y"), ((0, 1), (1, 2)))
        assert engine.search_nontemporal(order_free, max_span=10) == []
