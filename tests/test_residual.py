"""Tests for residual-graph bookkeeping (paper Section 4.2/4.4, Lemma 6)."""

from repro.core.growth import Embedding
from repro.core.kernel import LabelInterner, build_kernels
from repro.core.residual import linear_scan_equal, summarize_residuals

from conftest import build_graph


GRAPHS = [
    build_graph([(0, 1, 0), (1, 2, 1), (2, 0, 2), (0, 2, 3)], labels=["A", "B", "C"]),
    build_graph([(0, 1, 0), (1, 2, 1)], labels=["A", "B", "C"]),
]
INTERNER = LabelInterner()
KERNELS = build_kernels(GRAPHS, INTERNER)


def table(**cuts):
    """Embedding table with one embedding per listed cut: ``g0=[1, 2]``."""
    return {
        int(name[1:]): {Embedding((0, i), cut) for i, cut in enumerate(points)}
        for name, points in cuts.items()
    }


class TestSummaries:
    def test_i_value_counts_residual_edges(self):
        # cut after index 1 in graph 0 leaves 2 edges; cut after index 0
        # in graph 1 leaves 1 edge.
        summary = summarize_residuals(KERNELS, table(g0=[1], g1=[0]))
        assert summary.i_value == 3

    def test_duplicate_cut_points_collapse(self):
        # three embeddings ending at the same edge share one residual graph
        same_cut = {
            0: {Embedding((0, 1), 1), Embedding((1, 2), 1), Embedding((2, 0), 1)}
        }
        a = summarize_residuals(KERNELS, same_cut)
        b = summarize_residuals(KERNELS, table(g0=[1]))
        assert a.i_value == b.i_value == 2

    def test_distinct_cuts_in_one_graph_add_up(self):
        # cuts 0 and 2 of graph 0 leave 3 + 1 edges
        assert summarize_residuals(KERNELS, table(g0=[0, 2])).i_value == 4

    def test_label_set_is_suffix_union(self):
        summary = summarize_residuals(KERNELS, table(g0=[2]))
        # residual edges of graph 0 after index 2: edge (0,2) -> labels A, C
        assert {INTERNER.label_of(lid) for lid in summary.label_set} == {"A", "C"}
        # suffix sets nest: the smallest cut's suffix holds the others'
        summary = summarize_residuals(KERNELS, table(g0=[2, 0], g1=[1]))
        assert {INTERNER.label_of(lid) for lid in summary.label_set} == {"A", "B", "C"}

    def test_label_computation_optional(self):
        summary = summarize_residuals(KERNELS, table(g0=[0]), with_labels=False)
        assert summary.label_set == frozenset()

    def test_cut_pairs_only_when_requested(self):
        without = summarize_residuals(KERNELS, table(g0=[1]))
        with_pairs = summarize_residuals(
            KERNELS, table(g1=[0], g0=[2, 1]), keep_cut_pairs=True
        )
        assert without.cut_pairs is None
        assert with_pairs.cut_pairs == ((0, 1), (0, 2), (1, 0))

    def test_empty_cut_points(self):
        summary = summarize_residuals(KERNELS, {}, keep_cut_pairs=True)
        assert summary.i_value == 0
        assert summary.cut_pairs == ()

    def test_exhausted_graph_contributes_zero(self):
        summary = summarize_residuals(KERNELS, table(g0=[3]))
        assert summary.i_value == 0


class TestLinearScan:
    def test_equal(self):
        assert linear_scan_equal(((0, 1), (1, 2)), ((0, 1), (1, 2)))

    def test_length_mismatch(self):
        assert not linear_scan_equal(((0, 1),), ((0, 1), (1, 2)))

    def test_element_mismatch(self):
        assert not linear_scan_equal(((0, 1), (1, 2)), ((0, 1), (1, 3)))

    def test_empty(self):
        assert linear_scan_equal((), ())
