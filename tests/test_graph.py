"""Unit tests for :mod:`repro.core.graph`."""

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.errors import GraphError, TimestampOrderError
from repro.core.graph import TemporalEdge, TemporalGraph
from repro.core.growth import seed_patterns

from conftest import (
    build_graph,
    graph_accessor_facts,
    random_temporal_graph,
    window_by_add_edge,
)


class TestConstruction:
    def test_add_node_returns_dense_ids(self):
        g = TemporalGraph()
        assert g.add_node("A") == 0
        assert g.add_node("B") == 1
        assert g.num_nodes == 2

    def test_add_edge_auto_timestamps_are_increasing(self):
        g = TemporalGraph()
        a, b = g.add_node("A"), g.add_node("B")
        e1 = g.add_edge(a, b)
        e2 = g.add_edge(b, a)
        assert e2.time > e1.time
        g.freeze()

    def test_add_edge_unknown_node_rejected(self):
        g = TemporalGraph()
        g.add_node("A")
        with pytest.raises(GraphError):
            g.add_edge(0, 5)

    def test_negative_timestamp_rejected(self):
        g = TemporalGraph()
        a, b = g.add_node("A"), g.add_node("B")
        with pytest.raises(TimestampOrderError):
            g.add_edge(a, b, -1)

    def test_freeze_rejects_concurrent_edges(self):
        g = TemporalGraph()
        a, b = g.add_node("A"), g.add_node("B")
        g.add_edge(a, b, 3)
        g.add_edge(b, a, 3)
        with pytest.raises(TimestampOrderError):
            g.freeze()

    def test_freeze_sorts_out_of_order_edges(self):
        g = TemporalGraph()
        a, b = g.add_node("A"), g.add_node("B")
        g.add_edge(a, b, 9)
        g.add_edge(b, a, 2)
        g.freeze()
        assert [e.time for e in g.edges] == [2, 9]

    def test_freeze_is_idempotent(self):
        g = build_graph([(0, 1, 0)])
        assert g.freeze() is g

    def test_mutation_after_freeze_rejected(self):
        g = build_graph([(0, 1, 0)])
        with pytest.raises(GraphError):
            g.add_node("X")
        with pytest.raises(GraphError):
            g.add_edge(0, 1, 5)

    def test_indexed_access_requires_freeze(self):
        g = TemporalGraph()
        g.add_node("A")
        with pytest.raises(GraphError):
            g.nodes_with_label("A")


class TestAccessors:
    def test_basic_counts(self, figure3_graph):
        assert figure3_graph.num_nodes == 4
        assert figure3_graph.num_edges == 6
        assert len(figure3_graph) == 6

    def test_labels_and_label_set(self, figure3_graph):
        assert figure3_graph.label(0) == "A"
        assert figure3_graph.label_set() == {"A", "B", "C", "E"}

    def test_nodes_with_label(self, figure3_graph):
        assert list(figure3_graph.nodes_with_label("A")) == [0]
        assert list(figure3_graph.nodes_with_label("missing")) == []

    def test_degrees(self, figure3_graph):
        assert figure3_graph.out_degree(0) == 4
        assert figure3_graph.in_degree(1) == 2
        assert figure3_graph.in_degree(3) == 2

    def test_out_in_edges(self, figure3_graph):
        outs = list(figure3_graph.out_edges(0))
        assert all(e.src == 0 for e in outs)
        assert len(outs) == 4
        ins = list(figure3_graph.in_edges(2))
        assert {e.time for e in ins} == {3, 4}

    def test_edges_between_label_pair(self, figure3_graph):
        idxs = figure3_graph.edges_between("A", "B")
        assert [figure3_graph.edges[i].time for i in idxs] == [1, 2]
        assert figure3_graph.edges_between("E", "A") == ()

    def test_span(self, figure3_graph):
        assert figure3_graph.span() == (1, 6)

    def test_span_empty_graph_raises(self):
        g = TemporalGraph()
        g.add_node("A")
        g.freeze()
        with pytest.raises(GraphError):
            g.span()


class TestResidualHelpers:
    def test_edge_index_after(self, figure3_graph):
        assert figure3_graph.edge_index_after(0) == 0
        assert figure3_graph.edge_index_after(3) == 3
        assert figure3_graph.edge_index_after(99) == 6

    def test_residual_size(self, figure3_graph):
        assert figure3_graph.residual_size(0) == 6
        assert figure3_graph.residual_size(4) == 2
        assert figure3_graph.residual_size(6) == 0


class TestWindow:
    def test_window_extracts_compacted_subgraph(self, figure3_graph):
        w = figure3_graph.window(3, 5)
        assert w.num_edges == 3
        assert w.frozen
        # timestamps preserved, node ids compacted; edges at t=3,4,5 touch
        # B, C, A, E.
        assert [e.time for e in w.edges] == [3, 4, 5]
        assert w.num_nodes == 4
        assert sorted(w.labels) == ["A", "B", "C", "E"]

    def test_window_empty_range(self, figure3_graph):
        w = figure3_graph.window(100, 200)
        assert w.num_edges == 0
        assert w.num_nodes == 0


def column_born(graph):
    """``graph`` rebuilt from its edge columns."""
    _base, src, dst, time = graph.edge_arrays()
    return TemporalGraph.from_frozen_columns(graph.name, graph.labels, src, dst, time)


class TestColumnBornGraphs:
    """A graph made from columns builds its object layer on first use and
    equals the graph built with ``add_edge`` on every accessor."""

    @pytest.mark.parametrize("seed", range(6))
    def test_from_frozen_columns_equals_add_edge(self, seed):
        rng = random.Random(seed)
        graph = random_temporal_graph(rng, n_nodes=7, n_edges=25, alphabet="ABCD")
        born = column_born(graph)
        assert born._objects is None
        assert graph_accessor_facts(born) == graph_accessor_facts(graph)

    def test_self_loops_and_isolated_nodes(self):
        graph = TemporalGraph(name="loops")
        for label in ("A", "B", "A", "C"):
            graph.add_node(label)
        for src, dst, time in ((0, 0, 1), (0, 1, 2), (2, 2, 5), (1, 0, 7)):
            graph.add_edge(src, dst, time)
        graph.freeze()
        assert graph_accessor_facts(column_born(graph)) == graph_accessor_facts(graph)

    def test_empty_graph(self):
        graph = TemporalGraph(name="empty")
        graph.add_node("A")
        graph.freeze()
        born = column_born(graph)
        assert graph_accessor_facts(born) == graph_accessor_facts(graph)
        with pytest.raises(GraphError):
            born.span()

    @pytest.mark.parametrize("seed", range(4))
    def test_window_equals_add_edge_window(self, seed):
        rng = random.Random(seed)
        graph = random_temporal_graph(rng, n_nodes=8, n_edges=40, alphabet="ABCD")
        for source in (graph, column_born(graph)):
            for _ in range(20):
                start = rng.randrange(-5, 45)
                end = start + rng.randrange(-2, 20)
                window = source.window(start, end)
                assert window._objects is None
                assert graph_accessor_facts(window) == graph_accessor_facts(
                    window_by_add_edge(graph, start, end)
                )

    def test_readers_of_the_columns_build_no_object_layer(self):
        rng = random.Random(11)
        born = column_born(random_temporal_graph(rng, n_edges=30))
        assert (born.num_edges, len(born)) == (30, 30)
        assert born.span() == (0, 29)
        assert born.edge_index_after(9) == 10
        assert born.residual_size(9) == 20
        pair = next(iter(born.label_pair_index()))
        assert born.edges_between(*pair)
        born.edge_arrays()
        born.kernel()
        assert seed_patterns([born], pair)
        born.window(3, 17)
        assert born._objects is None
        assert born.out_degree(0) == len(list(born.out_edges(0)))
        assert born._objects is not None

    def test_concurrent_first_use_sees_the_whole_layer(self):
        rng = random.Random(3)
        graph = random_temporal_graph(rng, n_nodes=30, n_edges=400, alphabet="ABCDE")
        expected = graph_accessor_facts(graph, pickled=False)
        interval = sys.getswitchinterval()
        # switch threads often, so first uses interleave inside the build
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                born = column_born(graph)
                barrier = threading.Barrier(4)

                def read():
                    barrier.wait(timeout=60)
                    return graph_accessor_facts(born, pickled=False)

                with ThreadPoolExecutor(4) as pool:
                    results = list(pool.map(lambda _: read(), range(4), timeout=60))
                assert all(result == expected for result in results)
        finally:
            sys.setswitchinterval(interval)


class TestFromEvents:
    def test_from_events_builds_and_freezes(self):
        g = TemporalGraph.from_events([("a", "b", 0), ("b", "c", 1), ("a", "c", 2)])
        assert g.frozen
        assert g.num_nodes == 3
        assert g.num_edges == 3

    def test_from_events_reuses_keys(self):
        g = TemporalGraph.from_events([("a", "b", 0), ("a", "b", 1)])
        assert g.num_nodes == 2
        assert g.num_edges == 2

    def test_from_events_label_mapping(self):
        g = TemporalGraph.from_events(
            [("k1", "k2", 0)], node_keys={"k1": "proc", "k2": "file"}
        )
        assert sorted(g.labels) == ["file", "proc"]


class TestTemporalEdge:
    def test_endpoints(self):
        e = TemporalEdge(3, 5, 7)
        assert e.endpoints() == (3, 5)

    def test_frozen_dataclass(self):
        e = TemporalEdge(0, 1, 2)
        with pytest.raises(AttributeError):
            e.src = 9
