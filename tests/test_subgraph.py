"""Unit tests for the three temporal subgraph testers, using the
brute-force matcher as the correctness oracle."""

import random

import pytest

from repro.core.brute import contains_pattern
from repro.core.graph_index import GraphIndexTester
from repro.core.pattern import TemporalPattern
from repro.core.subgraph import (
    SequenceSubgraphTester,
    find_mapping,
    is_temporal_subgraph,
)
from repro.core.vf2 import VF2SubgraphTester

from conftest import random_embedded_pattern, random_temporal_graph

TESTERS = [
    pytest.param(SequenceSubgraphTester(), id="sequence"),
    pytest.param(VF2SubgraphTester(), id="vf2"),
    pytest.param(GraphIndexTester(), id="graph-index"),
]


def p(labels, edges):
    return TemporalPattern(labels, edges)


BIG = p(("A", "B", "C", "E"), ((0, 1), (0, 1), (1, 2), (0, 2), (2, 3), (0, 3)))


class TestKnownCases:
    @pytest.mark.parametrize("tester", TESTERS)
    def test_figure3_subgraph(self, tester):
        small = p(("A", "C", "E"), ((0, 1), (1, 2), (0, 2)))
        assert tester.contains(small, BIG)

    @pytest.mark.parametrize("tester", TESTERS)
    def test_order_violation_rejected(self, tester):
        # Edges exist but in the wrong temporal order: C->E then B->C.
        small = p(("C", "E", "A"), ((0, 1), (2, 1)))
        # In BIG, C->E is at time 5 and A->E at 6: A->E after C->E: fine;
        # instead use B->C (time 3) required after C->E (time 5): impossible.
        small = p(("C", "E", "B"), ((0, 1), (2, 0)))
        assert not tester.contains(small, BIG)

    @pytest.mark.parametrize("tester", TESTERS)
    def test_label_mismatch_rejected(self, tester):
        small = p(("A", "Z"), ((0, 1),))
        assert not tester.contains(small, BIG)

    @pytest.mark.parametrize("tester", TESTERS)
    def test_multi_edge_requirement(self, tester):
        double = p(("A", "B"), ((0, 1), (0, 1)))
        triple = p(("A", "B"), ((0, 1), (0, 1), (0, 1)))
        assert tester.contains(double, BIG)
        assert not tester.contains(triple, BIG)

    @pytest.mark.parametrize("tester", TESTERS)
    def test_size_fast_paths(self, tester):
        huge = p(tuple("AB" * 4), tuple((i, i + 1) for i in range(7)))
        assert not tester.contains(huge, p(("A", "B"), ((0, 1),)))

    @pytest.mark.parametrize("tester", TESTERS)
    def test_identity_contains_itself(self, tester):
        assert tester.contains(BIG, BIG)

    @pytest.mark.parametrize("tester", TESTERS)
    def test_injectivity_enforced(self, tester):
        # Pattern needs two distinct B nodes; big graph has only one.
        small = p(("A", "B", "B"), ((0, 1), (0, 2)))
        big = p(("A", "B"), ((0, 1), (0, 1)))
        assert not tester.contains(small, big)

    @pytest.mark.parametrize("tester", TESTERS)
    def test_mapping_is_witness(self, tester):
        small = p(("A", "C", "E"), ((0, 1), (1, 2), (0, 2)))
        mapping = tester.mapping(small, BIG)
        assert mapping is not None
        for i, node in enumerate(mapping):
            assert small.label(i) == BIG.label(node)
        assert len(set(mapping)) == len(mapping)


class TestModuleHelpers:
    def test_is_temporal_subgraph(self):
        assert is_temporal_subgraph(p(("A", "B"), ((0, 1),)), BIG)

    def test_find_mapping_none(self):
        assert find_mapping(p(("Z", "Q"), ((0, 1),)), BIG) is None


class TestAppendixJPruningToggles:
    def make(self, **kwargs):
        return SequenceSubgraphTester(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"use_label_test": False},
            {"use_local_info": False},
            {"use_prefix_pruning": False},
            {
                "use_label_test": False,
                "use_local_info": False,
                "use_prefix_pruning": False,
            },
        ],
    )
    def test_results_independent_of_pruning(self, kwargs):
        rng = random.Random(42)
        reference = SequenceSubgraphTester()
        tester = self.make(**kwargs)
        for _ in range(60):
            big_graph = random_temporal_graph(rng, n_nodes=5, n_edges=8, alphabet="AB")
            small = random_embedded_pattern(rng, big_graph, max_edges=3)
            other = random_embedded_pattern(
                rng, random_temporal_graph(rng, n_nodes=5, n_edges=8, alphabet="AB"), 3
            )
            big = None
            try:
                from repro.core.pattern import TemporalPattern as TP

                big = TP.from_graph(big_graph)
            except Exception:
                continue
            assert tester.contains(small, big) == reference.contains(small, big)
            assert tester.contains(other, big) == reference.contains(other, big)

    def test_label_rejection_counter(self):
        """A pattern label the big graph lacks yields no mapping."""
        tester = self.make()
        assert tester.mapping(p(("Z", "Z"), ((0, 1),)), BIG) is None


class TestAgainstBruteForce:
    @pytest.mark.parametrize("tester", TESTERS)
    @pytest.mark.parametrize("seed", range(8))
    def test_random_agreement(self, tester, seed):
        rng = random.Random(seed)
        for _ in range(30):
            data = random_temporal_graph(rng, n_nodes=5, n_edges=9, alphabet="AB")
            pattern = random_embedded_pattern(rng, data, max_edges=4)
            # Embedded patterns must always be found.
            big = TemporalPattern.from_graph(data) if _t_connected(data) else None
            expected = contains_pattern(pattern, data)
            assert expected, "embedded pattern must match its source graph"
            if big is not None:
                assert tester.contains(pattern, big) == contains_pattern(
                    pattern, big.as_temporal_graph()
                )

    @pytest.mark.parametrize("tester", TESTERS)
    @pytest.mark.parametrize("seed", range(8, 14))
    def test_random_cross_graph_agreement(self, tester, seed):
        rng = random.Random(seed)
        for _ in range(25):
            g1 = random_temporal_graph(rng, n_nodes=4, n_edges=7, alphabet="AB")
            g2 = random_temporal_graph(rng, n_nodes=5, n_edges=9, alphabet="AB")
            if not _t_connected(g2):
                continue
            pattern = random_embedded_pattern(rng, g1, max_edges=3)
            big = TemporalPattern.from_graph(g2)
            expected = contains_pattern(pattern, g2)
            assert tester.contains(pattern, big) == expected


def _t_connected(graph) -> bool:
    nodes: set[int] = set()
    for i, edge in enumerate(graph.edges):
        if i > 0 and edge.src not in nodes and edge.dst not in nodes:
            return False
        nodes.update(edge.endpoints())
    return True
