"""Edge-case unit tests for the flat-column temporal join dispatcher.

``_join_arrays`` fronts two implementations (vectorized masks, scalar
buffer walk) that must behave identically in the corners: empty
candidate lists, scan windows straddling a streaming eviction boundary,
and match limits cutting a mask batch mid-iteration.  The scalar join
(``array`` backend) is the sequence reference.  The span join shares
the dead-prefix defense, and picks the pattern end it starts from.
"""

import pytest

import repro.core.graph_index as graph_index
from repro.core import buffers
from repro.core.graph import TemporalGraph
from repro.core.graph_index import find_matches, find_spans, match_span
from repro.core.pattern import TemporalPattern
from repro.serving.streaming import StreamingGraph
from repro.syscall.events import SyscallEvent

from conftest import scalar_matches

BACKENDS = [
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(
            not buffers.have_numpy(), reason="numpy not installed"
        ),
    ),
    "array",
]


@pytest.fixture(autouse=True)
def force_mask_paths(monkeypatch):
    """Run the vectorized branches even on tiny inputs, restore after."""
    monkeypatch.setattr(graph_index, "_VECTOR_MIN_CANDIDATES", 0)
    monkeypatch.setattr(graph_index, "_VECTOR_MIN_WINDOW", 0)
    yield
    buffers.force_backend(None)


def _burst_graph(edges=12):
    """Two hub nodes exchanging a dense burst (many overlapping matches)."""
    graph = TemporalGraph(name="burst")
    for label in ("A", "B", "A", "B"):
        graph.add_node(label)
    for t in range(edges):
        graph.add_edge(t % 2 * 2, (t % 2 * 2 + 1) % 4, t)
    return graph.freeze()


def _event(t, src, src_label, dst, dst_label):
    return SyscallEvent(
        time=t,
        syscall="op",
        src_key=src,
        src_label=src_label,
        dst_key=dst,
        dst_label=dst_label,
    )


class TestZeroCandidates:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_absent_label_pair_yields_nothing(self, backend):
        buffers.force_backend(backend)
        graph = _burst_graph()
        pattern = TemporalPattern(["A", "Z"], [(0, 1)])
        assert list(find_matches(pattern, graph)) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_start_index_past_all_candidates(self, backend):
        buffers.force_backend(backend)
        graph = _burst_graph(edges=6)
        pattern = TemporalPattern(["A", "B"], [(0, 1)])
        assert list(find_matches(pattern, graph, start_index=6)) == []
        # one below: exactly the last candidate survives the frontier
        tail = list(find_matches(pattern, graph, start_index=5))
        reference = scalar_matches(pattern, graph, start_index=5)
        assert tail == reference and len(tail) == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_empty_pair_among_populated_ones(self, backend):
        buffers.force_backend(backend)
        graph = _burst_graph()
        # first edge has candidates, second pattern edge's pair does not
        pattern = TemporalPattern(["A", "B", "Z"], [(0, 1), (1, 2)])
        assert list(find_matches(pattern, graph)) == []


class TestEvictionBoundary:
    def _window(self):
        """A stream whose old edges were evicted and compacted away."""
        stream = StreamingGraph(window_span=4, name="w")
        for t in range(10):
            stream.ingest([_event(t, f"p{t % 3}", "A", f"f{t % 2}", "B")])
        # jump ahead: everything before t=16 slides out of the window
        stream.ingest([_event(20, "p0", "A", "f0", "B")])
        assert stream.first_live_index > 0
        return stream

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_window_straddling_eviction_matches_rebuild(self, backend):
        buffers.force_backend(backend)
        stream = self._window()
        start = stream.first_live_index
        pattern = TemporalPattern(["A", "B"], [(0, 1)])
        batch = stream.as_temporal_graph(name="rebuild")
        base, _src, _dst, times = stream.edge_arrays()
        for max_span in (None, 2, 100):
            want = [
                tuple(batch.edges[i].time for i in m.edge_indexes)
                for m in scalar_matches(pattern, batch, max_span=max_span)
            ]
            got = [
                tuple(times[i - base] for i in m.edge_indexes)
                for m in find_matches(
                    pattern, stream, max_span=max_span, start_index=start
                )
            ]
            assert got == want

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stale_frontier_into_dead_prefix_raises(self, backend):
        """A candidate id below the compaction base must refuse loudly.

        The live stream prunes its pair lists eagerly, so this guard is
        only reachable through a stale caller; drive ``_join_arrays``
        directly with a fabricated dead prefix to pin the defense.
        """
        buffers.force_backend(backend)
        pattern = TemporalPattern(["A", "B"], [(0, 1)])
        base = 5
        src = buffers.int_column([0, 0, 0, 0, 0])
        dst = buffers.int_column([1, 1, 1, 1, 1])
        times = buffers.int_column([5, 6, 7, 8, 9])
        # candidate id 2 predates the compaction base of 5
        stale_candidates = [[2, 5, 7]]
        with pytest.raises(IndexError, match="compacted away"):
            list(
                graph_index._join_arrays(
                    pattern,
                    (base, src, dst, times),
                    stale_candidates,
                    None,
                    None,
                    0,
                    0,
                )
            )

    def test_span_join_refuses_dead_prefix(self):
        """``find_spans`` runs the same defense before joining."""

        class StaleSource:
            frozen = True
            num_edges = 5

            def edges_between(self, src_label, dst_label):
                return [2, 5, 7]  # id 2 predates the compaction base of 5

            def edge_arrays(self):
                return (
                    5,
                    buffers.int_column([0] * 5),
                    buffers.int_column([1] * 5),
                    buffers.int_column([5, 6, 7, 8, 9]),
                )

        pattern = TemporalPattern(["A", "B"], [(0, 1)])
        with pytest.raises(IndexError, match="compacted away"):
            find_spans(pattern, StaleSource())
        assert find_spans(pattern, StaleSource(), start_index=5) == {(5, 5), (7, 7)}

        # a delta search that starts at the last edge (one last-edge
        # candidate in range, three first-edge ones) checks first too,
        # and so does each forced start
        twice = TemporalPattern(["A", "B"], [(0, 1), (0, 1)])
        assert graph_index._starts_backward([[2, 5, 7], [2, 5, 7]], 0, 7)
        with pytest.raises(IndexError, match="compacted away"):
            find_spans(twice, StaleSource(), min_last_index=7)
        for backward in (False, True):
            with pytest.raises(IndexError, match="compacted away"):
                graph_index._span_join(twice, StaleSource(), None, 0, 7, backward)
        assert graph_index._starts_backward([[5, 7], [5, 7]], 5, 7)
        assert find_spans(twice, StaleSource(), start_index=5, min_last_index=7) == {
            (5, 7)
        }


class TestSpanJoinStart:
    """A delta search anchors at the pattern end with fewer candidates
    in range; ties and single-edge patterns start at the first edge.

    The pick is read off the private helper ``find_spans`` consults, on a
    live window with the service's delta-call shape; every result is
    checked against the match oracle.
    """

    PATTERN = TemporalPattern(["A", "B", "C"], [(0, 1), (1, 2)])
    MAX_SPAN = 50

    def _start(self, monkeypatch, history, delta_size):
        """``history`` ``a -> b`` events, then a delta of ``delta_size``
        ``b -> c`` events; returns the start picked and the spans."""
        stream = StreamingGraph(window_span=100, name="w")
        stream.ingest([_event(t, f"a{t}", "A", "b", "B") for t in range(history)])
        delta = stream.ingest(
            [_event(history + t, "b", "B", f"c{t}", "C") for t in range(delta_size)]
        )
        kwargs = dict(
            max_span=self.MAX_SPAN,
            start_index=max(
                stream.first_live_index,
                stream.index_after_time(delta.min_time - self.MAX_SPAN),
            ),
            min_last_index=delta.start_index,
        )
        picked = []
        choose = graph_index._starts_backward

        def spy(*args):
            picked.append(choose(*args))
            return picked[-1]

        monkeypatch.setattr(graph_index, "_starts_backward", spy)
        spans = find_spans(self.PATTERN, stream, **kwargs)
        assert spans == {
            match_span(m, stream)
            for m in find_matches(self.PATTERN, stream, **kwargs)
        }
        assert len(picked) == 1
        return picked[0], spans

    def test_fewer_last_edge_candidates_start_backward(self, monkeypatch):
        backward, spans = self._start(monkeypatch, history=6, delta_size=1)
        assert backward
        assert spans == {(t, 6) for t in range(6)}

    def test_fewer_first_edge_candidates_start_forward(self, monkeypatch):
        backward, spans = self._start(monkeypatch, history=1, delta_size=4)
        assert not backward
        assert spans == {(0, t) for t in range(1, 5)}

    def test_tie_starts_forward(self, monkeypatch):
        backward, spans = self._start(monkeypatch, history=2, delta_size=2)
        assert not backward
        assert spans == {(a, c) for a in range(2) for c in range(2, 4)}

    def test_single_edge_starts_forward(self):
        assert not graph_index._starts_backward([[1, 2, 3]], 0, 3)


class TestLimitMidBatch:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("limit", [1, 3, 7])
    def test_limit_cuts_mask_batch_identically(self, backend, limit):
        buffers.force_backend(backend)
        graph = _burst_graph(edges=14)
        # second edge re-binds both endpoints: its scan window is handled
        # as one mask batch, which the limit must interrupt mid-iteration
        pattern = TemporalPattern(["A", "B"], [(0, 1), (0, 1)])
        unlimited = scalar_matches(pattern, graph)
        assert len(unlimited) > limit
        reference = scalar_matches(pattern, graph, limit=limit)
        kernel = list(find_matches(pattern, graph, limit=limit))
        assert kernel == reference == unlimited[:limit]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_default_match_limit_truncates_identically(
        self, backend, monkeypatch
    ):
        buffers.force_backend(backend)
        graph = _burst_graph(edges=14)
        pattern = TemporalPattern(["A", "B"], [(0, 1), (0, 1), (0, 1)])
        # a cap small enough to hit mid-run
        cap = 5
        reference = scalar_matches(pattern, graph, limit=cap)
        kernel = list(find_matches(pattern, graph, limit=cap))
        assert len(reference) == cap
        assert kernel == reference
