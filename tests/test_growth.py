"""Tests for consecutive growth and its completeness guarantee (Theorem 1)."""

import random
from itertools import combinations

from repro.core.growth import (
    Embedding,
    child_pattern,
    extend_embeddings,
    seed_patterns,
    sort_extension_keys,
)
from repro.core.miner import MinerConfig, TGMiner
from repro.core.pattern import TemporalPattern

from conftest import build_graph, random_temporal_graph


class TestSeeds:
    def test_seed_patterns_group_by_label_pair(self):
        g = build_graph([(0, 1, 0), (1, 2, 1), (0, 2, 2)], labels=["A", "B", "A"])
        assert seed_patterns([g], ("A", "B")) == {0: {Embedding((0, 1), 0)}}
        assert seed_patterns([g], ("B", "A")) == {0: {Embedding((1, 2), 1)}}
        assert seed_patterns([g], ("A", "A")) == {0: {Embedding((0, 2), 2)}}
        assert seed_patterns([g], ("B", "B")) == {}

    def test_seed_patterns_skip_self_loops(self):
        g = build_graph([(0, 0, 0), (0, 1, 1)], labels=["A", "B"])
        assert seed_patterns([g], ("A", "A")) == {}
        assert seed_patterns([g], ("A", "B")) == {0: {Embedding((0, 1), 1)}}

    def test_seed_patterns_multiple_graphs(self):
        g1 = build_graph([(0, 1, 0)], labels=["A", "B"])
        g2 = build_graph([(0, 1, 5)], labels=["A", "C"])
        g3 = build_graph([(0, 1, 5)], labels=["A", "B"])
        # graphs without a row are left out; ids stay the list positions
        assert set(seed_patterns([g1, g2, g3], ("A", "B"))) == {0, 2}
        assert set(seed_patterns([g1, g2, g3], ("A", "C"))) == {1}


class TestExtensions:
    def test_forward_backward_inward_keys(self):
        g = build_graph(
            [(0, 1, 0), (1, 2, 1), (3, 1, 2), (0, 1, 3)],
            labels=["A", "B", "C", "D"],
        )
        embs = {0: {Embedding((0, 1), 0)}}
        ext = extend_embeddings([g], embs)
        assert ("f", 1, "C") in ext  # B -> new C
        assert ("b", "D", 1) in ext  # new D -> B
        assert ("i", 0, 1) in ext  # second A -> B edge
        # forward child extends node tuple
        emb = next(iter(ext[("f", 1, "C")][0]))
        assert emb.nodes == (0, 1, 2)
        assert emb.last_index == 1

    def test_extension_respects_temporal_order(self):
        # An edge *before* the embedding's cut cannot extend it.
        g = build_graph([(1, 2, 0), (0, 1, 1)], labels=["A", "B", "C"])
        embs = {0: {Embedding((0, 1), 1)}}  # matched A->B at index 1
        ext = extend_embeddings([g], embs)
        assert ext == {}

    def test_child_pattern_matches_key_kinds(self):
        p = TemporalPattern.single_edge("A", "B")
        assert child_pattern(p, ("f", 1, "C")).edges == ((0, 1), (1, 2))
        assert child_pattern(p, ("b", "C", 0)).edges == ((0, 1), (2, 0))
        assert child_pattern(p, ("i", 1, 0)).edges == ((0, 1), (1, 0))

    def test_sort_extension_keys_is_total(self):
        keys = [("i", 1, 0), ("f", 0, "Z"), ("b", "A", 1), ("f", 0, "A")]
        ordered = sort_extension_keys(keys)
        assert ordered[0][0] == "b"
        assert ordered == sort_extension_keys(list(reversed(keys)))


def enumerate_t_connected_patterns(graph, max_edges):
    """Reference enumeration: all T-connected patterns with >= 1 match.

    Every match is an increasing edge-index tuple whose edges form a
    T-connected subgraph; normalizing each one yields the pattern set the
    miner must cover exactly (Theorem 1 completeness).
    """
    found = set()
    n = graph.num_edges
    for size in range(1, max_edges + 1):
        for combo in combinations(range(n), size):
            nodes = set()
            ok = True
            for pos, idx in enumerate(combo):
                edge = graph.edges[idx]
                if edge.src == edge.dst:
                    ok = False
                    break
                if pos > 0 and edge.src not in nodes and edge.dst not in nodes:
                    ok = False
                    break
                nodes.update(edge.endpoints())
            if not ok:
                continue
            sub = build_graph(
                [
                    (graph.edges[i].src, graph.edges[i].dst, graph.edges[i].time)
                    for i in combo
                ],
                labels=list(graph.labels),
            )
            # drop isolated nodes by re-normalizing through from_graph
            found.add(_normalize(sub).key())
    return found


def _normalize(graph):
    remap = {}
    labels = []
    edges = []
    for edge in graph.edges:
        for node in edge.endpoints():
            if node not in remap:
                remap[node] = len(labels)
                labels.append(graph.label(node))
        edges.append((remap[edge.src], remap[edge.dst]))
    return TemporalPattern(labels, edges)


class TestCompleteness:
    """Theorem 1: the DFS covers every T-connected pattern exactly once."""

    def _explored_patterns(self, graphs):
        recorded = []

        config = MinerConfig(
            max_edges=3,
            min_pos_support=0.0,
            subgraph_pruning=False,
            supergraph_pruning=False,
            upper_bound_pruning=False,
        )
        miner = TGMiner(config)
        result = miner.mine(graphs, [])
        return result

    def test_exploration_matches_reference_enumeration(self):
        rng = random.Random(3)
        for _ in range(6):
            g = random_temporal_graph(rng, n_nodes=4, n_edges=6, alphabet="AB")
            expected = enumerate_t_connected_patterns(g, max_edges=3)
            result = self._explored_patterns([g])
            assert result.stats.patterns_explored == len(expected)

    def test_no_repetition_union_of_graphs(self):
        rng = random.Random(9)
        g1 = random_temporal_graph(rng, n_nodes=4, n_edges=5, alphabet="AB")
        g2 = random_temporal_graph(rng, n_nodes=4, n_edges=5, alphabet="AB")
        expected = enumerate_t_connected_patterns(
            g1, 3
        ) | enumerate_t_connected_patterns(g2, 3)
        result = self._explored_patterns([g1, g2])
        assert result.stats.patterns_explored == len(expected)
