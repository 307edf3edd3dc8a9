"""Tests for the query engine and precision/recall evaluation."""

import pytest

from repro.baselines.gspan import NonTemporalPattern
from repro.baselines.nodeset import NodeSetQuery
from repro.core.errors import QueryError
from repro.core.graph import TemporalGraph
from repro.core.pattern import TemporalPattern
from repro.query.engine import QueryEngine
from repro.query.evaluation import PrecisionRecall, evaluate_spans, pool_spans
from repro.syscall.collector import GroundTruthInstance

from conftest import build_graph


@pytest.fixture
def log_graph():
    """Two occurrences of A->B->C (one stretched), plus decoys."""
    return build_graph(
        [
            (0, 1, 0),   # A->B
            (1, 2, 1),   # B->C  (occurrence 1: span 0-1)
            (3, 1, 4),   # D->B decoy
            (0, 1, 10),  # A->B
            (2, 0, 12),  # C->A decoy
            (1, 2, 30),  # B->C  (occurrence 2: span 10-30, stretched)
        ],
        labels=["A", "B", "C", "D"],
    )


PATTERN = TemporalPattern(("A", "B", "C"), ((0, 1), (1, 2)))


class TestEngineConstruction:
    def test_unfreezable_graph_raises_query_error(self):
        """Constructor failures surface as QueryError with a remedy."""
        graph = TemporalGraph(name="concurrent")
        a = graph.add_node("A")
        b = graph.add_node("B")
        graph.add_edge(a, b, time=5)
        graph.add_edge(b, a, time=5)  # concurrent edges: freeze() must fail
        with pytest.raises(QueryError, match="sequentialize"):
            QueryEngine(graph)

    def test_unfrozen_valid_graph_frozen_on_demand(self):
        graph = TemporalGraph(name="ok")
        a = graph.add_node("A")
        b = graph.add_node("B")
        graph.add_edge(a, b, time=1)
        engine = QueryEngine(graph)
        assert engine.graph.frozen


class TestTemporalSearch:
    def test_finds_all_spans(self, log_graph):
        engine = QueryEngine(log_graph)
        spans = engine.search_temporal(PATTERN, max_span=100)
        assert (0, 1) in spans
        assert (10, 30) in spans
        # cross-occurrence combination (0,30) also matches temporally
        assert (0, 30) in spans

    def test_max_span_filters(self, log_graph):
        engine = QueryEngine(log_graph)
        spans = engine.search_temporal(PATTERN, max_span=5)
        assert spans == [(0, 1)]

    def test_negative_span_rejected(self, log_graph):
        with pytest.raises(QueryError):
            QueryEngine(log_graph).search_temporal(PATTERN, max_span=-1)


class TestNonTemporalSearch:
    def test_order_free_matching(self, log_graph):
        # reversed order pattern: C after B->C... structure B->C, A->B is
        # the same edge set; non-temporal search finds it regardless.
        pattern = NonTemporalPattern(("B", "C", "A"), ((0, 1), (2, 0)))
        engine = QueryEngine(log_graph)
        spans = engine.search_nontemporal(pattern, max_span=5)
        assert (0, 1) in spans

    def test_window_cap_respected(self, log_graph):
        pattern = NonTemporalPattern(("A", "B", "C"), ((0, 1), (1, 2)))
        engine = QueryEngine(log_graph)
        spans = engine.search_nontemporal(pattern, max_span=3)
        assert all(hi - lo <= 3 for lo, hi in spans)

    def test_empty_pattern_rejected(self, log_graph):
        with pytest.raises(QueryError):
            QueryEngine(log_graph).search_nontemporal(
                NonTemporalPattern((), ()), max_span=5
            )


class TestNodeSetSearch:
    def test_minimal_windows(self, log_graph):
        engine = QueryEngine(log_graph)
        query = NodeSetQuery(labels=("A", "C"), max_span=4)
        spans = engine.search_nodeset(query)
        assert (0, 1) in spans
        assert all(hi - lo <= 4 for lo, hi in spans)

    def test_span_override(self, log_graph):
        engine = QueryEngine(log_graph)
        query = NodeSetQuery(labels=("A", "C"), max_span=0)
        assert engine.search_nodeset(query, max_span=50)

    def test_missing_label_no_matches(self, log_graph):
        engine = QueryEngine(log_graph)
        query = NodeSetQuery(labels=("A", "ZZZ"), max_span=100)
        assert engine.search_nodeset(query) == []

    def test_empty_query_rejected(self, log_graph):
        with pytest.raises(QueryError):
            QueryEngine(log_graph).search_nodeset(NodeSetQuery(labels=(), max_span=5))


class TestHelpers:
    def test_label_activity(self, log_graph):
        engine = QueryEngine(log_graph)
        assert engine.label_activity("A") == [0, 10, 12]

    def test_count_in_interval(self, log_graph):
        engine = QueryEngine(log_graph)
        times = engine.label_activity("A")
        assert engine.count_in_interval(times, 0, 10) == 2


TRUTH = [
    GroundTruthInstance("ssh-login", 0, 10),
    GroundTruthInstance("scp-download", 20, 30),
    GroundTruthInstance("ssh-login", 40, 50),
]


class TestEvaluation:
    def test_perfect_query(self):
        pr = evaluate_spans("ssh-login", [(1, 5), (42, 49)], TRUTH)
        assert pr.precision == 1.0
        assert pr.recall == 1.0

    def test_match_in_other_behavior_is_false_positive(self):
        pr = evaluate_spans("ssh-login", [(21, 29)], TRUTH)
        assert pr.correct == 0
        assert pr.precision == 0.0

    def test_match_spanning_outside_is_false_positive(self):
        pr = evaluate_spans("ssh-login", [(5, 15)], TRUTH)
        assert pr.correct == 0

    def test_match_in_gap_is_false_positive(self):
        pr = evaluate_spans("ssh-login", [(12, 18)], TRUTH)
        assert pr.correct == 0

    def test_boundary_containment_inclusive(self):
        pr = evaluate_spans("ssh-login", [(0, 10)], TRUTH)
        assert pr.correct == 1

    def test_recall_counts_instances_once(self):
        pr = evaluate_spans("ssh-login", [(1, 2), (3, 4)], TRUTH)
        assert pr.discovered == 1
        assert pr.recall == pytest.approx(0.5)

    def test_no_matches_conventions(self):
        pr = evaluate_spans("ssh-login", [], TRUTH)
        assert pr.precision == 1.0  # vacuous
        assert pr.recall == 0.0

    def test_no_instances_recall_vacuous(self):
        pr = evaluate_spans("ftp-download", [], TRUTH)
        assert pr.recall == 1.0

    def test_as_row_formatting(self):
        pr = PrecisionRecall(
            "x", identified=2, correct=1, discovered=1, total_instances=2
        )
        row = pr.as_row()
        assert "50.0%" in row

    def test_pool_spans_dedupes(self):
        pooled = pool_spans([[(0, 1), (2, 3)], [(2, 3), (4, 5)]])
        assert pooled == [(0, 1), (2, 3), (4, 5)]
