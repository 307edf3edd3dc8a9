"""Property-based tests (hypothesis) for the core invariants:

* the three subgraph testers agree with the brute-force oracle;
* every embedded pattern is found by every tester;
* all six miner variants return identical results (Theorem 2);
* sequence encodings are consistent with Lemma 5's premises;
* the two temporal-join implementations (scalar buffers, vectorized
  masks) enumerate byte-identical match sequences on seeded adversarial
  logs, batch and streaming alike;
* the span join (``find_spans``) returns exactly the span set of the
  uncapped match enumeration, batch and streaming alike, including on a
  log with far more matches than spans.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.graph_index as graph_index
from repro.core import buffers
from repro.core.brute import contains_pattern, enumerate_matches
from repro.core.concurrent import sequentialize
from repro.core.graph import TemporalEdge, TemporalGraph
from repro.core.graph_index import (
    GraphIndexTester,
    find_matches,
    find_spans,
    match_span,
)
from repro.core.miner import MinerConfig, TGMiner, miner_variant
from repro.core.pattern import TemporalPattern
from repro.core.sequence import encode
from repro.core.subgraph import SequenceSubgraphTester
from repro.core.vf2 import VF2SubgraphTester
from repro.query.engine import QueryEngine
from repro.serving.service import DetectionService
from repro.serving.streaming import StreamingGraph
from repro.syscall.events import SyscallEvent

from conftest import random_embedded_pattern, random_temporal_graph, scalar_matches


@st.composite
def temporal_graphs(draw, max_nodes=6, max_edges=9, alphabet="AB"):
    """A random small, totally ordered temporal graph."""
    n_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    n_edges = draw(st.integers(min_value=1, max_value=max_edges))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_temporal_graph(random.Random(seed), n_nodes, n_edges, alphabet)


@st.composite
def graph_and_embedded_pattern(draw):
    graph = draw(temporal_graphs())
    seed = draw(st.integers(min_value=0, max_value=10**6))
    pattern = random_embedded_pattern(random.Random(seed), graph, max_edges=4)
    return graph, pattern


def t_connected(graph: TemporalGraph) -> bool:
    nodes: set[int] = set()
    for i, edge in enumerate(graph.edges):
        if i > 0 and edge.src not in nodes and edge.dst not in nodes:
            return False
        nodes.update(edge.endpoints())
    return True


class TestMatcherProperties:
    @given(graph_and_embedded_pattern())
    @settings(max_examples=120, deadline=None)
    def test_embedded_patterns_always_found(self, case):
        graph, pattern = case
        assert contains_pattern(pattern, graph)
        matches = list(find_matches(pattern, graph))
        assert matches, "index-join matcher must find embedded pattern"

    @given(graph_and_embedded_pattern(), temporal_graphs())
    @settings(max_examples=120, deadline=None)
    def test_testers_agree_with_oracle(self, case, other):
        _graph, pattern = case
        if not t_connected(other):
            return
        big = TemporalPattern.from_graph(other)
        expected = contains_pattern(pattern, other)
        assert SequenceSubgraphTester().contains(pattern, big) == expected
        assert VF2SubgraphTester().contains(pattern, big) == expected
        assert GraphIndexTester().contains(pattern, big) == expected

    @given(graph_and_embedded_pattern())
    @settings(max_examples=100, deadline=None)
    def test_index_join_equals_brute_matches(self, case):
        graph, pattern = case
        brute = {(m.nodes, m.edge_indexes) for m in enumerate_matches(pattern, graph)}
        joined = {(m.nodes, m.edge_indexes) for m in find_matches(pattern, graph)}
        assert brute == joined

    @given(graph_and_embedded_pattern())
    @settings(max_examples=100, deadline=None)
    def test_match_edge_indexes_strictly_increase(self, case):
        graph, pattern = case
        for match in enumerate_matches(pattern, graph):
            idxs = match.edge_indexes
            assert all(a < b for a, b in zip(idxs, idxs[1:]))
            assert len(set(match.nodes)) == len(match.nodes)


class TestSequenceProperties:
    @given(graph_and_embedded_pattern())
    @settings(max_examples=120, deadline=None)
    def test_enhseq_covers_nodeseq(self, case):
        _graph, pattern = case
        enc = encode(pattern)
        # every node occurs in the enhanced sequence
        assert set(enc.enhseq) == set(enc.nodeseq)
        # destination of every edge appears in enhseq at least once per edge
        assert len(enc.enhseq) >= pattern.num_nodes

    @given(graph_and_embedded_pattern())
    @settings(max_examples=120, deadline=None)
    def test_pattern_contains_its_prefixes(self, case):
        _graph, pattern = case
        tester = SequenceSubgraphTester()
        for k in range(1, pattern.num_edges + 1):
            assert tester.contains(pattern.prefix(k), pattern)


class TestMinerProperties:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_variants_identical_results(self, seed, max_edges):
        rng = random.Random(seed)
        pos = [random_temporal_graph(rng, 4, 6, "AB") for _ in range(3)]
        neg = [random_temporal_graph(rng, 4, 6, "AB") for _ in range(3)]
        base = MinerConfig(
            max_edges=max_edges, min_pos_support=0.5, max_best_patterns=100_000
        )
        results = {}
        for name in ("TGMiner", "SubPrune", "SupPrune", "LinearScan"):
            res = TGMiner(miner_variant(name, base)).mine(pos, neg)
            results[name] = (res.best_score, {m.pattern.key() for m in res.best})
        reference = results["TGMiner"]
        for name, got in results.items():
            assert got == reference, f"{name} diverged"

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_best_score_matches_unpruned_search(self, seed):
        rng = random.Random(seed)
        pos = [random_temporal_graph(rng, 4, 6, "AB") for _ in range(3)]
        neg = [random_temporal_graph(rng, 4, 6, "AB") for _ in range(3)]
        pruned = TGMiner(MinerConfig(max_edges=3, min_pos_support=0.5)).mine(pos, neg)
        unpruned = TGMiner(
            MinerConfig(
                max_edges=3,
                min_pos_support=0.5,
                subgraph_pruning=False,
                supergraph_pruning=False,
                upper_bound_pruning=False,
            )
        ).mine(pos, neg)
        assert pruned.best_score == unpruned.best_score


# ----------------------------------------------------------------------
# randomized byte-identity harness for the temporal-join implementations
# ----------------------------------------------------------------------


def _burst_log(rng: random.Random) -> TemporalGraph:
    """Dense bursts between few nodes: match counts saturate any limit."""
    graph = TemporalGraph(name="burst")
    for _ in range(4):
        graph.add_node(rng.choice("AB"))
    for t in range(rng.randint(12, 20)):
        u = rng.randrange(4)
        v = (u + rng.randint(1, 3)) % 4
        graph.add_edge(u, v, t)
    return graph.freeze()


def _all_one_label_log(rng: random.Random) -> TemporalGraph:
    """Every node carries the same label: one giant candidate list."""
    n = rng.randint(3, 6)
    graph = TemporalGraph(name="onelabel")
    for _ in range(n):
        graph.add_node("X")
    for t in range(rng.randint(8, 16)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        graph.add_edge(u, v, t)
    return graph.freeze()


def _sparse_gap_log(rng: random.Random) -> TemporalGraph:
    """Huge time gaps: small ``max_span`` caps leave empty scan windows."""
    n = rng.randint(4, 6)
    graph = TemporalGraph(name="gaps")
    for _ in range(n):
        graph.add_node(rng.choice("ABC"))
    t = 0
    for _ in range(rng.randint(6, 12)):
        t += rng.choice((1, 1, 2, 1000))
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        graph.add_edge(u, v, t)
    return graph.freeze()


def _concurrent_log(rng: random.Random) -> TemporalGraph:
    """Duplicate raw timestamps, sequentialized by the random policy."""
    n = rng.randint(4, 6)
    labels = [rng.choice("AB") for _ in range(n)]
    edges = []
    for i in range(rng.randint(8, 14)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        # several edges share each raw timestamp -> concurrent blocks
        edges.append(TemporalEdge(u, v, i // 3))
    return sequentialize(
        edges, labels, policy="random", seed=rng.randrange(10**6), name="conc"
    )


_ADVERSARIES = (_burst_log, _all_one_label_log, _sparse_gap_log, _concurrent_log)


def _query_for(rng: random.Random, graph: TemporalGraph) -> TemporalPattern:
    if rng.random() < 0.7:
        return random_embedded_pattern(rng, graph, max_edges=4)
    # a pattern that need not embed: relabel an extracted one
    pattern = random_embedded_pattern(rng, graph, max_edges=3)
    labels = [rng.choice("ABCX") for _ in pattern.labels]
    return TemporalPattern(labels, pattern.edges)


def _match_key(matches):
    return [(m.nodes, m.edge_indexes) for m in matches]


def _as_events(graph):
    """The graph's edges as syscall events (node ``i`` keyed ``n<i>``)."""
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


def _backends():
    return ("numpy", "array") if buffers.have_numpy() else ("array",)


@pytest.fixture
def restore_backend():
    yield
    buffers.force_backend(None)


class TestJoinByteIdentityHarness:
    """Seeded adversarial logs pin both join paths byte-identical.

    Per case the scalar column join (forced ``array`` backend) is the
    reference; the vectorized join (numpy backend, with the dispatch
    thresholds zeroed so the mask branches run even on tiny windows)
    must enumerate the same match sequence under every span cap and
    limit — including limits that cut a mask batch mid-iteration.
    """

    SEEDS = range(40)

    def _check_graph(self, graph, rng, monkeypatch):
        monkeypatch.setattr(graph_index, "_VECTOR_MIN_CANDIDATES", 0)
        monkeypatch.setattr(graph_index, "_VECTOR_MIN_WINDOW", 0)
        patterns = [_query_for(rng, graph) for _ in range(3)]
        spans = (None, 0, rng.randint(1, 5), 10**6)
        limits = (None, 1, rng.randint(2, 7))
        for pattern in patterns:
            for max_span in spans:
                for limit in limits:
                    reference = _match_key(
                        scalar_matches(
                            pattern, graph, max_span=max_span, limit=limit
                        )
                    )
                    for backend in ("numpy", "array"):
                        if backend == "numpy" and not buffers.have_numpy():
                            continue
                        buffers.force_backend(backend)
                        got = _match_key(
                            find_matches(
                                pattern, graph, max_span=max_span, limit=limit
                            )
                        )
                        assert got == reference, (
                            f"{backend} join diverged: span={max_span} "
                            f"limit={limit} pattern={pattern.key()}"
                        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_joins_identical(self, seed, monkeypatch, restore_backend):
        rng = random.Random(seed)
        adversary = _ADVERSARIES[seed % len(_ADVERSARIES)]
        self._check_graph(adversary(rng), rng, monkeypatch)

    @pytest.mark.parametrize("seed", range(12))
    def test_streaming_window_joins_identical(
        self, seed, monkeypatch, restore_backend
    ):
        """A live evicting window enumerates the same spans as its batch
        rebuild, on every backend."""
        monkeypatch.setattr(graph_index, "_VECTOR_MIN_CANDIDATES", 0)
        monkeypatch.setattr(graph_index, "_VECTOR_MIN_WINDOW", 0)
        rng = random.Random(1000 + seed)
        adversary = _ADVERSARIES[seed % len(_ADVERSARIES)]
        source = adversary(rng)
        stream = StreamingGraph(window_span=rng.randint(4, 12), name="live")
        events = _as_events(source)
        # ingest in ragged batches so eviction/compaction actually happens
        while events:
            k = rng.randint(1, 4)
            stream.ingest(events[:k])
            events = events[k:]
        batch = stream.as_temporal_graph(name="rebuild")
        start = stream.first_live_index
        pattern = _query_for(rng, batch)
        for max_span in (None, rng.randint(1, 6)):
            want = [
                tuple(batch.edges[i].time for i in m.edge_indexes)
                for m in scalar_matches(pattern, batch, max_span=max_span)
            ]
            for backend in ("numpy", "array"):
                if backend == "numpy" and not buffers.have_numpy():
                    continue
                buffers.force_backend(backend)
                got = [
                    tuple(stream.edges[i].time for i in m.edge_indexes)
                    for m in find_matches(
                        pattern, stream, max_span=max_span, start_index=start
                    )
                ]
                assert got == want, f"{backend} streaming join diverged"


# ----------------------------------------------------------------------
# span join exactness
# ----------------------------------------------------------------------


def _spans_of_matches(pattern, graph, **kwargs):
    """The oracle: distinct spans of the uncapped match enumeration."""
    return {match_span(m, graph) for m in find_matches(pattern, graph, **kwargs)}


class TestSpanJoinExactness:
    """``find_spans`` equals the oracle's span set on adversarial logs.

    Each case runs with the endpoint-index threshold at 0 (every list
    indexed) and at its default (these small logs scan directly), on
    every backend, under span caps of none, small and large, and with
    random ``start_index`` / ``min_last_index`` floors.
    """

    @pytest.mark.parametrize("seed", range(40))
    def test_batch_spans_exact(self, seed, monkeypatch, restore_backend):
        rng = random.Random(5000 + seed)
        graph = _ADVERSARIES[seed % len(_ADVERSARIES)](rng)
        n = graph.num_edges
        cases = [
            (
                _query_for(rng, graph),
                dict(
                    max_span=max_span,
                    start_index=rng.choice((0, rng.randrange(n))),
                    min_last_index=rng.choice((0, rng.randrange(n))),
                ),
            )
            for _ in range(3)
            for max_span in (None, rng.randint(0, 3), 10**6)
        ]
        default = graph_index._INDEX_MIN_CANDIDATES
        for backend in _backends():
            buffers.force_backend(backend)
            for threshold in (0, default):
                monkeypatch.setattr(graph_index, "_INDEX_MIN_CANDIDATES", threshold)
                for pattern, kwargs in cases:
                    assert find_spans(pattern, graph, **kwargs) == (
                        _spans_of_matches(pattern, graph, **kwargs)
                    ), f"{backend} index>={threshold} {pattern.key()} {kwargs}"

    @pytest.mark.parametrize("seed", range(16))
    def test_evicting_stream_delta_spans_exact(
        self, seed, monkeypatch, restore_backend
    ):
        """Per-batch delta searches over a live evicting window — the
        service's call shape — equal the oracle on the same window."""
        rng = random.Random(6000 + seed)
        source = _ADVERSARIES[seed % len(_ADVERSARIES)](rng)
        events = _as_events(source)
        pattern = _query_for(rng, source)
        max_span = rng.choice((None, rng.randint(1, 6)))
        window = rng.randint(4, 12)
        splits = []
        while sum(splits) < len(events):
            splits.append(rng.randint(1, 4))
        default = graph_index._INDEX_MIN_CANDIDATES
        for backend in _backends():
            buffers.force_backend(backend)
            for threshold in (0, default):
                monkeypatch.setattr(graph_index, "_INDEX_MIN_CANDIDATES", threshold)
                stream = StreamingGraph(window_span=window, name="live")
                offset = 0
                for size in splits:
                    delta = stream.ingest(events[offset : offset + size])
                    offset += size
                    start = stream.first_live_index
                    if max_span is not None:
                        start = max(
                            start, stream.index_after_time(delta.min_time - max_span)
                        )
                    kwargs = dict(
                        max_span=max_span,
                        start_index=start,
                        min_last_index=delta.start_index,
                    )
                    assert find_spans(pattern, stream, **kwargs) == (
                        _spans_of_matches(pattern, stream, **kwargs)
                    ), f"{backend} index>={threshold} after {offset} events"


class TestManyMatchesPerSpan:
    """120 edges between one ``A -> B`` node pair, pattern ``A -> B``
    three times: C(120, 3) = 280,840 matches, but only the 7,021 spans
    ``(t_i, t_k)`` with ``k >= i + 2``.  Batch and streaming must both
    report exactly those; any match cap below 280,840 loses spans here
    (at 200,000 the batch answer has 4,018)."""

    EDGES = 120
    PATTERN = TemporalPattern(["A", "B"], [(0, 1), (0, 1), (0, 1)])
    MAX_SPAN = 200

    @pytest.fixture(scope="class")
    def exact(self):
        spans = {
            (i, k) for i in range(self.EDGES) for k in range(i + 2, self.EDGES)
        }
        assert len(spans) == 7021
        return spans

    @pytest.fixture(scope="class")
    def events(self):
        return [
            SyscallEvent(
                time=t,
                syscall="op",
                src_key="a",
                src_label="A",
                dst_key="b",
                dst_label="B",
            )
            for t in range(self.EDGES)
        ]

    def test_batch_engine_is_exact(self, exact):
        graph = TemporalGraph(name="pair")
        a = graph.add_node("A")
        b = graph.add_node("B")
        for t in range(self.EDGES):
            graph.add_edge(a, b, t)
        spans = QueryEngine(graph).search_temporal(self.PATTERN, self.MAX_SPAN)
        assert spans == sorted(exact)

    @pytest.mark.parametrize("split", [None, 1, 3, 11])
    def test_streaming_is_exact(self, exact, events, split):
        """Whole log in one batch, one event per batch, and two ragged
        splits (seeded batch sizes of 1-17 events)."""
        if split is None:
            sizes = [self.EDGES]
        elif split == 1:
            sizes = [1] * self.EDGES
        else:
            rng = random.Random(split)
            sizes = []
            while sum(sizes) < self.EDGES:
                sizes.append(rng.randint(1, 17))
        service = DetectionService()
        service.register(name="pair", pattern=self.PATTERN, max_span=self.MAX_SPAN)
        spans = []
        offset = 0
        for size in sizes:
            detections = service.ingest(events[offset : offset + size])
            spans.extend(d.span for d in detections)
            offset += size
        assert len(spans) == len(set(spans)), "a span was reported twice"
        assert set(spans) == exact
