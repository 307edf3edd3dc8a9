"""Tests for the streaming serving layer.

The load-bearing suite here is the **equivalence class**: accumulated
streaming detections must be span-identical to the batch
``QueryEngine.search_temporal`` answers on the same recorded log — for
any batch split, at the eviction boundary (window exactly equal to the
query span), and under out-of-order batch arrival absorbed by the
window.
"""

import gc
import random
from dataclasses import replace

import pytest

import repro.core.graph_index as graph_index
from repro.core.errors import DatasetError, ServingError
from repro.core.graph_index import Signature, find_spans, graph_signature
from repro.core.pattern import TemporalPattern
from repro.query.engine import QueryEngine
from repro.serving.checkpoint import _EVENT_COLUMNS, _events_from_columns
from repro.serving.registry import (
    BehaviorQuery,
    QueryRegistry,
    load_queries_jsonl,
    save_queries_jsonl,
)
from repro.serving.service import DetectionService
from repro.serving.streaming import StreamingGraph
from repro.syscall.collector import build_test_data, iter_event_batches
from repro.syscall.events import SyscallEvent, events_to_graph

from conftest import random_embedded_pattern, random_temporal_graph


def graph_to_events(graph):
    """Replay a (frozen) temporal graph as a syscall event stream."""
    return [
        SyscallEvent(
            time=edge.time,
            syscall="op",
            src_key=f"n{edge.src}",
            src_label=graph.label(edge.src),
            dst_key=f"n{edge.dst}",
            dst_label=graph.label(edge.dst),
        )
        for edge in graph.edges
    ]


def event(time, src_key, src_label, dst_key, dst_label):
    return SyscallEvent(
        time=time,
        syscall="op",
        src_key=src_key,
        src_label=src_label,
        dst_key=dst_key,
        dst_label=dst_label,
    )


def edge_time(graph, edge_id):
    """Timestamp of edge ``edge_id``, read from the graph's time column."""
    base, _src, _dst, times = graph.edge_arrays()
    return times[edge_id - base]


def streamed_spans(service, queries, batches):
    """Accumulated per-query span sets after replaying ``batches``."""
    spans = {query.name: set() for query in queries}
    for batch in batches:
        for detection in service.ingest(batch):
            spans[detection.query].add(detection.span)
    return spans


def batch_spans(graph, queries):
    """The batch engine's per-query span sets over the frozen log."""
    engine = QueryEngine(graph)
    return {
        query.name: set(engine.search_temporal(query.pattern, query.max_span))
        for query in queries
    }


# ----------------------------------------------------------------------
# StreamingGraph unit behavior
# ----------------------------------------------------------------------
class TestStreamingGraph:
    def test_incremental_index_matches_frozen_rebuild(self):
        rng = random.Random(5)
        graph = random_temporal_graph(rng, n_nodes=8, n_edges=40)
        stream = StreamingGraph()
        stream.ingest(graph_to_events(graph))
        rebuilt = stream.as_temporal_graph()
        assert rebuilt.num_edges == graph.num_edges
        for (a, b), idxs in graph.label_pair_index().items():
            assert len(stream.edges_between(a, b)) == len(idxs)

    def test_online_signature_tracks_live_window(self):
        stream = StreamingGraph(window_span=5)
        stream.ingest([event(0, "p1", "proc", "f1", "file")])
        stream.ingest([event(3, "p1", "proc", "s1", "sock")])
        sig = stream.signature()
        assert sig.node_labels == {"proc": 1, "file": 1, "sock": 1}
        # t=20 slides both earlier edges out of the window
        stream.ingest([event(20, "p2", "proc", "f2", "file")])
        sig = stream.signature()
        assert sig.node_labels == {"proc": 1, "file": 1}
        assert sig.edge_labels == {("proc", "file"): 1}
        assert stream.num_edges == 1
        assert stream.stats.evicted == 2

    def test_eviction_reclaims_nodes_and_reuses_keys(self):
        stream = StreamingGraph(window_span=2)
        stream.ingest([event(0, "p1", "proc", "f1", "file")])
        stream.ingest([event(10, "p2", "proc", "f2", "file")])
        assert stream.num_nodes == 2
        # the same entity key returns as a *new* node id after eviction
        stream.ingest([event(12, "p1", "proc", "f1", "file")])
        assert stream.num_nodes == 4

    def test_ids_stay_stable_across_eviction(self):
        stream = StreamingGraph(window_span=4)
        stream.ingest([event(t, f"p{t}", "proc", f"f{t}", "file") for t in range(10)])
        before = list(stream.edges_between("proc", "file"))
        stream.ingest([event(20, "px", "proc", "fx", "file")])
        # surviving global ids unchanged, new id appended
        after = list(stream.edges_between("proc", "file"))
        assert after[-1] == before[-1] + 1 or after == [before[-1] + 1]
        assert edge_time(stream, after[-1]) == 20

    def test_live_columns_after_compaction(self):
        stream = StreamingGraph(window_span=4)
        stream.ingest([event(t, f"p{t}", "proc", f"f{t}", "file") for t in range(10)])
        stream.ingest([event(20, "px", "proc", "fx", "file")])  # evicts + compacts
        base, _src, _dst, times = stream.edge_arrays()
        assert list(times[stream.first_live_index - base :]) == [20]
        assert stream.window_columns()["time"] == [20]

    def test_out_of_order_within_batch_is_sorted(self):
        stream = StreamingGraph()
        stream.ingest(
            [
                event(5, "a", "A", "b", "B"),
                event(1, "c", "C", "d", "D"),
                event(3, "e", "E", "f", "F"),
            ]
        )
        times = [edge_time(stream, i) for i in stream.edges_between("A", "B")]
        assert times == [5]
        assert stream.window_bounds() == (1, 5)

    def test_out_of_order_across_batches_reinserts_tail(self):
        stream = StreamingGraph()
        stream.ingest([event(1, "a", "A", "b", "B"), event(9, "c", "C", "d", "D")])
        delta = stream.ingest([event(4, "e", "E", "f", "F")])
        assert delta.reinserted == 1  # the t=9 edge was unsealed and re-sealed
        assert delta.appended == 2
        # id order equals time order again
        pairs = [("A", "B"), ("E", "F"), ("C", "D")]
        ids = [stream.edges_between(p, q)[0] for p, q in pairs]
        assert ids == sorted(ids)

    def test_late_event_beyond_window_dropped(self):
        stream = StreamingGraph(window_span=3)
        stream.ingest([event(100, "a", "A", "b", "B")])
        delta = stream.ingest([event(10, "c", "C", "d", "D")])
        assert delta.late == 1 and delta.empty
        assert stream.stats.late_dropped == 1

    def test_timestamp_collision_rejected(self):
        stream = StreamingGraph()
        stream.ingest([event(5, "a", "A", "b", "B")])
        with pytest.raises(ServingError, match="collision"):
            stream.ingest([event(5, "c", "C", "d", "D")])

    def test_within_batch_collision_rejected(self):
        stream = StreamingGraph()
        with pytest.raises(ServingError, match="within the batch"):
            stream.ingest(
                [event(5, "a", "A", "b", "B"), event(5, "c", "C", "d", "D")]
            )

    def test_rejected_ingest_leaves_window_untouched(self):
        """Validation happens before mutation: a failed batch is a no-op."""
        stream = StreamingGraph()
        stream.ingest([event(1, "a", "A", "b", "B"), event(9, "c", "C", "d", "D")])
        with pytest.raises(ServingError):
            # t=4 would trigger tail reinsertion; t=9 collides with a
            # sealed edge — nothing may change
            stream.ingest([event(4, "e", "E", "f", "F"), event(9, "g", "G", "h", "H")])
        assert stream.num_edges == 2
        assert stream.window_bounds() == (1, 9)
        assert [edge_time(stream, i) for i in stream.edges_between("C", "D")] == [9]

    def test_negative_time_rejected(self):
        with pytest.raises(ServingError):
            StreamingGraph().ingest([event(-1, "a", "A", "b", "B")])

    def test_empty_batch_is_noop(self):
        stream = StreamingGraph()
        delta = stream.ingest([])
        assert delta.empty and stream.num_edges == 0

    def test_window_columns_use_checkpoint_layout(self):
        stream = StreamingGraph()
        stream.ingest([event(3, "b", "B", "c", "C"), event(1, "a", "A", "b", "B")])
        columns = stream.window_columns()
        assert tuple(columns) == _EVENT_COLUMNS
        assert columns["time"] == [1, 3]
        assert stream.window_events() == _events_from_columns(columns)
        rebuilt = StreamingGraph()
        rebuilt.ingest(stream.window_events())
        assert rebuilt.window_columns() == columns

    def test_tables_bounded_by_window(self):
        """Over 100+ windows of fresh keys and labels, every per-stream
        table holds only entries some live edge uses."""
        span = 6
        rng = random.Random(11)
        stream = StreamingGraph(window_span=span)
        events = [
            event(t, f"s{t}", f"S{t // 3}", f"d{t % 5}x{t // 9}", f"D{t // 4}")
            for t in range(120 * span)
        ]
        peak = 0
        pos, held = 0, []
        while pos < len(events) or held:
            size = rng.randrange(1, 5)
            batch = events[pos : pos + size] + held
            pos += size
            held = [batch.pop()] if len(batch) > 1 and rng.random() < 0.2 else []
            rng.shuffle(batch)
            stream.ingest(batch)
            peak = max(peak, stream.num_edges)
            columns = stream.window_columns()
            keys = set(columns["src_key"]) | set(columns["dst_key"])
            labels = set(columns["src_label"]) | set(columns["dst_label"])
            pairs = set(zip(columns["src_label"], columns["dst_label"]))
            sig = stream.signature()
            assert set(stream._node_of_key) == keys
            assert {k for k in stream._node_key if k is not None} == keys
            assert set(stream._label_id) == set(sig.node_labels) == labels
            assert {x for x in stream._label_str if x is not None} == labels
            assert set(sig.edge_labels) == pairs
            assert set(stream._pair_key.values()) == pairs
            assert len(stream._pair_ids) == len(stream._pair_key) == len(pairs)
            assert set(stream._pair_dead) <= set(stream._pair_ids)
            # recycled slots and dead prefixes stay within the window's peak
            assert len(stream._node_key) <= 2 * peak
            assert len(stream._label_str) <= 2 * peak
            assert len(stream._times) <= 2 * peak
            for pair, count in sig.edge_labels.items():
                assert len(stream.edges_between(*pair)) <= 2 * count
        assert stream.stats.evicted > 100 * span
        assert stream.stats.reinserted


# ----------------------------------------------------------------------
# a live entity key re-sent with another label
# ----------------------------------------------------------------------
class TestRelabeledKey:
    """Edges are indexed under their nodes' labels, as in a frozen log."""

    @staticmethod
    def assert_index_matches_frozen(stream):
        frozen = stream.as_temporal_graph()
        first = stream.first_live_index
        for (a, b), idxs in frozen.label_pair_index().items():
            live = [i for i in stream.edges_between(a, b) if i >= first]
            assert [edge_time(stream, i) for i in live] == [
                frozen.edges[i].time for i in idxs
            ]
        assert stream.signature() == graph_signature(frozen)

    def test_later_ingests_succeed(self):
        stream = StreamingGraph(window_span=5)
        stream.ingest([event(0, "x", "X", "p1", "proc")])
        stream.ingest([event(1, "p1", "proc", "f", "file")])
        stream.ingest([event(2, "p1", "shell", "f", "file")])
        self.assert_index_matches_frozen(stream)
        proc_ids = stream.edges_between("proc", "file")
        assert [edge_time(stream, i) for i in proc_ids] == [1, 2]
        assert stream.edges_between("shell", "file") == ()
        # these evict the relabeled edge: its pair must be found again
        for t in range(3, 15):
            stream.ingest([event(t, f"y{t}", "Y", f"z{t}", "Z")])
            self.assert_index_matches_frozen(stream)
        assert stream.num_edges == 6

    def test_key_back_after_leaving_window_takes_new_label(self):
        stream = StreamingGraph(window_span=5)
        stream.ingest([event(0, "p1", "proc", "f", "file")])
        stream.ingest([event(10, "p1", "shell", "g", "file")])
        assert stream.num_edges == 1
        assert stream.signature().node_labels == {"shell": 1, "file": 1}
        shell_ids = stream.edges_between("shell", "file")
        assert [edge_time(stream, i) for i in shell_ids] == [10]
        self.assert_index_matches_frozen(stream)

    @pytest.mark.parametrize("batch_size", [1, 5, 13])
    def test_streamed_spans_equal_batch_while_key_live(self, batch_size):
        rng = random.Random(batch_size)
        events = []
        for t in range(80):
            if t % 2 == 0:
                # p1 stays live, first seen as proc, then re-sent as either
                label = "proc" if t == 0 else rng.choice(["proc", "shell"])
                events.append(event(t, "p1", label, f"f{rng.randrange(3)}", "file"))
            else:
                src = f"q{rng.randrange(2)}"
                events.append(event(t, src, "shell", f"f{rng.randrange(3)}", "file"))
        queries = [
            BehaviorQuery("pf", TemporalPattern(("proc", "file"), ((0, 1),)), 6),
            BehaviorQuery("sf", TemporalPattern(("shell", "file"), ((0, 1),)), 6),
            BehaviorQuery(
                "pff",
                TemporalPattern(("proc", "file", "file"), ((0, 1), (0, 2))),
                6,
            ),
            BehaviorQuery(
                "sfp",
                TemporalPattern(("shell", "file", "proc"), ((0, 1), (2, 1))),
                6,
            ),
        ]
        service = DetectionService()
        service.register_all(queries)
        spans = streamed_spans(
            service, queries, iter_event_batches(events, batch_size)
        )
        assert spans == batch_spans(events_to_graph(events), queries)
        assert spans["pf"] and spans["sfp"]


# ----------------------------------------------------------------------
# the request path leaves nothing for the cyclic collector
# ----------------------------------------------------------------------
class TestNoCyclicGarbage:
    def test_replay_and_find_spans_leave_no_garbage(self, recorded_log):
        data, queries = recorded_log
        joined = [q for q in queries if q.pattern.num_edges > 1]
        assert joined
        service = DetectionService()
        service.register_all(queries)
        batches = list(iter_event_batches(data.events, 16))
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for batch in batches:
                service.ingest(batch)
            spans = [
                find_spans(q.pattern, data.graph, max_span=q.max_span) for q in joined
            ]
            found = gc.collect()
            garbage = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert service.stats.detections and any(spans)
        assert found == 0
        assert garbage == 0

    #: category-label skeletons: on the coarsened log every label pair
    #: indexes many window edges, so delta searches start at the last edge
    SKELETONS = (
        (("proc", "proc", "file"), ((0, 1), (1, 2))),
        (("proc", "file", "file", "file"), ((0, 1), (0, 2), (0, 3))),
        (("proc", "proc"), ((0, 1), (0, 1), (0, 1))),
    )

    def test_backward_started_replay_leaves_no_garbage(
        self, recorded_log, monkeypatch
    ):
        data, _queries = recorded_log
        events = [
            replace(
                event,
                src_label=event.src_label.split(":", 1)[0],
                dst_label=event.dst_label.split(":", 1)[0],
            )
            for event in data.events
        ]
        service = DetectionService()
        for index, (labels, edges) in enumerate(self.SKELETONS):
            service.register(
                name=f"skeleton-{index}",
                pattern=TemporalPattern(labels, edges),
                max_span=100,
            )
        starts = []
        choose = graph_index._starts_backward

        def spy(*args):
            starts.append(choose(*args))
            return starts[-1]

        monkeypatch.setattr(graph_index, "_starts_backward", spy)
        batches = list(iter_event_batches(events, 8))
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for batch in batches:
                service.ingest(batch)
            found = gc.collect()
            garbage = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert service.stats.detections
        assert sum(starts) > len(starts) // 2, "most delta searches start backward"
        assert found == 0
        assert garbage == 0


# ----------------------------------------------------------------------
# QueryRegistry prefilter
# ----------------------------------------------------------------------
class TestQueryRegistry:
    PATTERN_AB = TemporalPattern(("A", "B"), ((0, 1),))
    PATTERN_ABC = TemporalPattern(("A", "B", "C"), ((0, 1), (1, 2)))
    PATTERN_XY = TemporalPattern(("X", "Y"), ((0, 1),))

    def window(self, node_labels, edge_labels):
        return Signature(node_labels, edge_labels)

    def test_one_pass_answers_all_impossible_queries(self):
        registry = QueryRegistry()
        registry.register(BehaviorQuery("ab", self.PATTERN_AB, 10))
        registry.register(BehaviorQuery("abc", self.PATTERN_ABC, 10))
        registry.register(BehaviorQuery("xy", self.PATTERN_XY, 10))
        window = self.window(
            {"A": 1, "B": 1, "C": 1},
            {("A", "B"): 2, ("B", "C"): 1},
        )
        survivors = registry.survivors(window)
        assert [query.name for _qid, query in survivors] == ["ab", "abc"]
        assert registry.stats.queries_pruned == 1

    def test_shared_prefix_checked_once(self):
        registry = QueryRegistry()
        # both queries require A/B nodes and an A->B edge — a shared
        # requirement prefix in the trie
        registry.register(BehaviorQuery("ab", self.PATTERN_AB, 10))
        registry.register(
            BehaviorQuery("ab2", TemporalPattern(("A", "B"), ((0, 1), (0, 1))), 10)
        )
        empty = self.window({}, {})
        registry.survivors(empty)
        # the first requirement ("A" node) fails once and prunes both
        assert registry.stats.requirement_checks == 1
        assert registry.stats.queries_pruned == 2

    def test_multiedge_counts_respected(self):
        registry = QueryRegistry()
        double = TemporalPattern(("A", "B"), ((0, 1), (0, 1)))
        registry.register(BehaviorQuery("double", double, 10))
        single_window = self.window({"A": 1, "B": 1}, {("A", "B"): 1})
        assert registry.survivors(single_window) == []
        double_window = self.window({"A": 1, "B": 1}, {("A", "B"): 2})
        assert len(registry.survivors(double_window)) == 1

    def test_max_span_and_lookup(self):
        registry = QueryRegistry()
        qid = registry.register(BehaviorQuery("ab", self.PATTERN_AB, 7))
        registry.register(BehaviorQuery("abc", self.PATTERN_ABC, 31))
        assert registry.max_span == 31
        assert registry.get(qid).name == "ab"
        assert len(registry) == 2

    def test_negative_span_rejected(self):
        with pytest.raises(ServingError):
            BehaviorQuery("bad", self.PATTERN_AB, -1)

    def test_queries_jsonl_roundtrip(self, tmp_path):
        queries = [
            BehaviorQuery("ab", self.PATTERN_AB, 10),
            BehaviorQuery("abc", self.PATTERN_ABC, 20),
        ]
        path = tmp_path / "queries.jsonl"
        assert save_queries_jsonl(queries, path) == 2
        assert load_queries_jsonl(path) == queries

    def test_malformed_query_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "x", "labels": ["A"], "edges": [], "max_span": 1}\n')
        with pytest.raises(DatasetError):
            load_queries_jsonl(path)


# ----------------------------------------------------------------------
# streaming vs batch equivalence
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def recorded_log():
    """A small busy-host log with behavior instances and its query slate."""
    data = build_test_data(instances=6)
    rng = random.Random(17)
    queries = []
    while len(queries) < 4:
        pattern = random_embedded_pattern(rng, data.graph, max_edges=3)
        queries.append(BehaviorQuery(f"q{len(queries)}", pattern, 40))
    # a query whose labels cannot occur: prefilter must answer it empty
    queries.append(
        BehaviorQuery(
            "impossible", TemporalPattern(("zz", "yy"), ((0, 1),)), 40
        )
    )
    return data, queries


class TestStreamingBatchEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 7, 50, 10_000])
    def test_span_identical_for_any_batch_split(self, recorded_log, batch_size):
        data, queries = recorded_log
        reference = batch_spans(data.graph, queries)
        service = DetectionService()
        for query in queries:
            service.register(query)
        spans = streamed_spans(
            service, queries, iter_event_batches(data.events, batch_size)
        )
        assert spans == reference

    def test_eviction_boundary_window_equals_span(self, recorded_log):
        """The auto window (exactly the widest query span) loses nothing."""
        data, queries = recorded_log
        service = DetectionService()
        for query in queries:
            service.register(query)
        assert service.window_span == max(q.max_span for q in queries)
        spans = streamed_spans(
            service, queries, iter_event_batches(data.events, 25)
        )
        assert spans == batch_spans(data.graph, queries)
        assert service.graph.stats.evicted > 0  # the window actually slid

    def test_out_of_order_batches_absorbed_by_window(self, recorded_log):
        """Adjacent batch swaps (bounded lateness) keep span identity."""
        data, queries = recorded_log
        batches = list(iter_event_batches(data.events, 30))
        for i in range(0, len(batches) - 1, 2):
            batches[i], batches[i + 1] = batches[i + 1], batches[i]
        # widen the window beyond the displacement the swaps introduce
        service = DetectionService(window_span=40 + 4 * 30)
        for query in queries:
            service.register(query)
        spans = streamed_spans(service, queries, batches)
        assert spans == batch_spans(data.graph, queries)
        assert service.graph.stats.reinserted > 0

    def test_prefilter_off_identical(self, recorded_log):
        """Streamed spans equal the batch span join's on the frozen log,
        which evaluates every query, while the registry prefilter skips
        some query evaluations."""
        data, queries = recorded_log
        service = DetectionService()
        service.register_all(queries)
        spans = streamed_spans(
            service, queries, iter_event_batches(data.events, 40)
        )
        assert spans == {
            query.name: find_spans(query.pattern, data.graph, max_span=query.max_span)
            for query in queries
        }
        assert service.stats.queries_prefiltered > 0

    def test_random_logs_property(self):
        """Random streams + embedded patterns: equivalence at random splits."""
        rng = random.Random(99)
        for _round in range(5):
            graph = random_temporal_graph(rng, n_nodes=7, n_edges=36)
            queries = [
                BehaviorQuery(
                    f"r{k}",
                    random_embedded_pattern(rng, graph, max_edges=3),
                    rng.randrange(8, 30),
                )
                for k in range(3)
            ]
            service = DetectionService()
            for query in queries:
                service.register(query)
            events = graph_to_events(graph)
            batch_size = rng.randrange(1, len(events) + 1)
            spans = streamed_spans(
                service, queries, iter_event_batches(events, batch_size)
            )
            assert spans == batch_spans(graph, queries)


# ----------------------------------------------------------------------
# DetectionService behavior
# ----------------------------------------------------------------------
class TestDetectionService:
    PATTERN = TemporalPattern(("proc", "file"), ((0, 1),))

    def test_detections_dedupe_and_carry_batch_index(self):
        service = DetectionService()
        service.register(name="pf", pattern=self.PATTERN, max_span=5)
        first = service.ingest([event(0, "p", "proc", "f", "file")])
        assert [d.span for d in first] == [(0, 0)]
        assert first[0].batch == 0 and first[0].query == "pf"
        # same span cannot be re-reported
        again = service.ingest([event(1, "p2", "proc", "f2", "file")])
        assert [d.span for d in again] == [(1, 1)]

    def test_incremental_delta_only(self):
        """A second batch only reports matches ending in its own delta."""
        service = DetectionService()
        service.register(
            name="chain",
            pattern=TemporalPattern(("proc", "file", "sock"), ((0, 1), (1, 2))),
            max_span=10,
        )
        assert service.ingest([event(0, "p", "proc", "f", "file")]) == []
        detections = service.ingest([event(3, "f", "file", "s", "sock")])
        assert [d.span for d in detections] == [(0, 3)]

    def test_window_narrower_than_query_rejected(self):
        service = DetectionService(window_span=3)
        with pytest.raises(ServingError, match="wider than"):
            service.register(name="pf", pattern=self.PATTERN, max_span=5)

    def test_register_needs_full_spec(self):
        with pytest.raises(ServingError):
            DetectionService().register(name="pf")

    def test_stats_track_throughput(self):
        service = DetectionService()
        service.register(name="pf", pattern=self.PATTERN, max_span=5)
        for _i, _d in service.replay(
            [event(t, f"p{t}", "proc", f"f{t}", "file") for t in range(10)], 4
        ):
            pass
        assert service.stats.batches == 3
        assert service.stats.events == 10
        assert service.stats.detections == 10
        assert service.stats.events_per_second > 0
        assert service.stats.latency.count == 3
        assert len(service.stats.latency.samples) == 3

    def test_batch_size_must_be_positive(self):
        with pytest.raises(DatasetError):
            list(iter_event_batches([], 0))
