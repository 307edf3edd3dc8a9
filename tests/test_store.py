"""Tests for the disk-backed corpus store (:mod:`repro.datasets.store`).

The load-bearing property throughout: everything read back from disk —
graphs, windows, events, mined models, detection spans — is identical to
what the in-memory path produces.  Mined-model comparisons use content
identity (every field except the wall-clock ``elapsed_seconds`` and the
recorded worker counts), the same standard ``mining_fingerprint`` sets
for parallel mining.
"""

import random
import re
import sqlite3

import pytest

from repro.api import Workspace
from repro.core.errors import DatasetError
from repro.core.graph import TemporalGraph
from repro.core.miner import MinerConfig, TGMiner
from repro.datasets import store as store_module
from repro.datasets.store import (
    BACKGROUND_PARTITION,
    STORE_SCHEMA_VERSION,
    CorpusStore,
)
from repro.query.engine import QueryEngine
from repro.syscall import SyscallEvent

from conftest import (
    build_graph,
    graph_accessor_facts,
    random_embedded_pattern,
    random_temporal_graph,
    window_by_add_edge,
)

FAST = MinerConfig(max_edges=3, max_seconds=20)


def graph_facts(graph):
    """Everything that identifies a graph's content."""
    return (
        graph.name,
        tuple(graph.labels),
        [(e.src, e.dst, e.time) for e in graph.edges],
    )


def model_content(model):
    """A model's content minus wall-clock noise and run-shape facts."""
    records = {
        name: (
            r.behavior,
            r.span_cap,
            r.patterns,
            r.co_optimal,
            r.patterns_explored,
            r.subgraph_tests,
            r.index_prefilter_skips,
            r.timed_out,
        )
        for name, r in model.records.items()
    }
    provenance = {k: v for k, v in model.provenance.items() if k != "workers"}
    return model.labels, provenance, records


@pytest.fixture(scope="module")
def train():
    return Workspace(seed=13).generate(
        instances_per_behavior=3, background_graphs=6
    )


@pytest.fixture(scope="module")
def store(train, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "corpus.store"
    with CorpusStore.create(path) as builder:
        builder.add_training_data(train)
    opened = CorpusStore.open(path)
    yield opened
    opened.close()


class TestRoundTrip:
    def test_graph_roundtrip(self, tmp_path):
        g = build_graph(
            [(0, 1, 3), (1, 2, 7), (2, 0, 9)], labels=["A", "B", "A"], name="g1"
        )
        with CorpusStore.create(tmp_path / "s.store") as s:
            s.add_graph("p", g)
            (back,) = s.load_graphs("p")
        assert graph_facts(back) == graph_facts(g)

    @pytest.mark.parametrize("page_edges", [1, 3, 7])
    def test_multipage_roundtrip(self, tmp_path, page_edges):
        rng = random.Random(5)
        graphs = [random_temporal_graph(rng, n_edges=20) for _ in range(4)]
        path = tmp_path / "s.store"
        with CorpusStore.create(path, page_edges=page_edges) as s:
            for g in graphs:
                s.add_graph("p", g)
        with CorpusStore.open(path) as s:
            back = s.load_graphs("p")
        assert [graph_facts(g) for g in back] == [graph_facts(g) for g in graphs]

    def test_empty_graph_roundtrip(self, tmp_path):
        g = TemporalGraph(name="empty")
        g.add_node("A")
        g.freeze()
        with CorpusStore.create(tmp_path / "s.store") as s:
            s.add_graph("p", g)
            assert s.max_span("p") == 0
            (back,) = s.load_graphs("p")
        assert back.num_edges == 0 and list(back.labels) == ["A"]

    def test_load_training_data_matches_source(self, train, store):
        back = store.load_training_data()
        assert list(back.behaviors) == list(train.behaviors)
        for name in train.behaviors:
            assert [graph_facts(g) for g in back.behavior(name)] == [
                graph_facts(g) for g in train.behavior(name)
            ]
        assert [graph_facts(g) for g in back.background] == [
            graph_facts(g) for g in train.background
        ]
        assert back.config.instances_per_behavior == 3
        assert back.config.background_graphs == 6

    def test_labels_interned_once(self, tmp_path):
        g1 = build_graph([(0, 1, 0)], labels=["A", "B"], name="x")
        g2 = build_graph([(0, 1, 0)], labels=["B", "A"], name="y")
        with CorpusStore.create(tmp_path / "s.store") as s:
            s.add_graph("p", g1)
            s.add_graph("p", g2)
            assert s.info()["labels"] == 2

    def test_iter_graph_labels_skips_edge_pages(self, train, store):
        name = train.config.behaviors[0]
        assert list(store.iter_graph_labels(name)) == [
            list(g.labels) for g in train.behavior(name)
        ]

    def test_catalog_counters(self, train, store):
        assert store.behaviors() == list(train.config.behaviors)
        assert store.graph_count(BACKGROUND_PARTITION, "background") == 6
        name = train.config.behaviors[0]
        graphs = train.behavior(name)
        t_min = min(g.edges[0].time for g in graphs)
        t_max = max(g.edges[-1].time for g in graphs)
        assert store.extent(name) == (t_min, t_max)
        assert store.max_span(name) == max(
            g.edges[-1].time - g.edges[0].time for g in graphs
        )


class TestWindows:
    @pytest.mark.parametrize("page_edges", [2, 5, 4096])
    def test_window_matches_graph_window(self, tmp_path, page_edges):
        rng = random.Random(page_edges)
        g = random_temporal_graph(rng, n_nodes=8, n_edges=40, alphabet="ABCD")
        path = tmp_path / "s.store"
        with CorpusStore.create(path, page_edges=page_edges) as s:
            s.add_graph("mon", g, kind="log")
        with CorpusStore.open(path) as s:
            for _ in range(25):
                a = rng.randrange(-5, 45)
                b = a + rng.randrange(0, 20)
                assert graph_facts(s.window("mon", a, b)) == graph_facts(
                    g.window(a, b)
                )

    def test_window_requires_single_graph_partition(self, store):
        name = store.behaviors()[0]
        with pytest.raises(DatasetError, match="single-graph"):
            store.window(name, 0, 10)
        with pytest.raises(DatasetError, match="no partition"):
            store.window("nope", 0, 10)

    def test_iter_windows_sweep(self, tmp_path):
        g = build_graph(
            [(0, 1, t) for t in range(20)], labels=["A", "B"], name="mon"
        )
        with CorpusStore.create(tmp_path / "s.store") as s:
            s.add_graph("mon", g, kind="log")
            starts = []
            union = set()
            for t, window in s.iter_windows("mon", width=6, overlap=2):
                starts.append(t)
                union.update(e.time for e in window.edges)
            assert starts == [0, 4, 8, 12, 16]
            assert union == set(range(20))

    def test_iter_windows_validation(self, store):
        name = store.behaviors()[0]
        with pytest.raises(DatasetError, match="width"):
            next(store.iter_windows(name, width=0))
        with pytest.raises(DatasetError, match="overlap"):
            next(store.iter_windows(name, width=4, overlap=4))


class TestEvents:
    EVENTS = [
        SyscallEvent(0, "open", "p1", "proc", "f1", "file"),
        SyscallEvent(2, "read", "p1", "proc", "f1", "file"),
        SyscallEvent(5, "connect", "p1", "proc", "s1", "sock"),
        SyscallEvent(7, "open", "p2", "proc", "f2", "file"),
        SyscallEvent(9, "close", "p2", "proc", "f2", "file"),
    ]

    def test_event_roundtrip_and_range(self, tmp_path):
        path = tmp_path / "s.store"
        with CorpusStore.create(path, page_edges=2) as s:
            s.add_events("mon", self.EVENTS)
        with CorpusStore.open(path) as s:
            assert list(s.iter_events("mon")) == self.EVENTS
            assert list(s.iter_events("mon", start=2, end=7)) == [
                e for e in self.EVENTS if 2 <= e.time <= 7
            ]
            assert s.event_count("mon") == 5

    def test_event_batches_rechunk(self, tmp_path):
        path = tmp_path / "s.store"
        with CorpusStore.create(path, page_edges=3) as s:
            s.add_events("mon", self.EVENTS)
            batches = list(s.iter_event_batches("mon", 2))
        assert [len(b) for b in batches] == [2, 2, 1]
        assert [e for b in batches for e in b] == self.EVENTS
        with CorpusStore.open(path) as s:
            with pytest.raises(DatasetError, match="batch_size"):
                next(s.iter_event_batches("mon", 0))

    def test_append_continues_pages(self, tmp_path):
        with CorpusStore.create(tmp_path / "s.store", page_edges=2) as s:
            s.add_events("mon", self.EVENTS[:3])
            s.add_events("mon", self.EVENTS[3:])
            assert list(s.iter_events("mon")) == self.EVENTS

    def test_missing_log_raises(self, store):
        with pytest.raises(DatasetError, match="no event log"):
            next(store.iter_events("nope"))


class TestPairIndex:
    def test_pair_labels_matches_edges(self, train, store):
        name = train.config.behaviors[0]
        expected = {
            (g.label(e.src), g.label(e.dst))
            for g in train.behavior(name)
            for e in g.edges
        }
        assert store.pair_labels(name) == expected

    def test_graphs_with_pair_counts(self, train, store):
        g = train.background[0]
        edge = g.edges[0]
        pair = (g.label(edge.src), g.label(edge.dst))
        hits = store.graphs_with_pair(*pair)
        row = next(
            (p, n, c)
            for p, n, c in hits
            if p == BACKGROUND_PARTITION and n == g.name
        )
        brute = sum(
            1
            for e in g.edges
            if (g.label(e.src), g.label(e.dst)) == pair
        )
        assert row[2] == brute

    def test_absent_pair_is_empty(self, store):
        assert store.graphs_with_pair("no-such-label", "proc:sshd") == []

    def test_pair_labels_reads_labels_once(self, tmp_path):
        """One statement resolves every label of the partition, and a
        window decoded after it reads the ``labels`` table no more."""
        path = tmp_path / "s.store"
        g = build_graph(
            [(0, 1, 0), (1, 2, 4), (2, 0, 9)], labels=["A", "B", "C"], name="g"
        )
        with CorpusStore.create(path) as s:
            s.add_log("log", graph=g)
        statements = []
        with CorpusStore.open(path) as s:
            s._conn.set_trace_callback(statements.append)
            assert s.pair_labels("log") == {("A", "B"), ("B", "C"), ("C", "A")}
            assert s.window("log", 0, 9).num_edges == 3
        assert sum(bool(re.search(r"\blabels\b", sql)) for sql in statements) == 1

    def test_pair_labels_of_given_pairs(self, train, store):
        """Asked about some pairs, the store answers which of them occur:
        the full listing cut to the pairs asked, in two statements."""
        for partition in (train.config.behaviors[0], BACKGROUND_PARTITION):
            present = store.pair_labels(partition)
            labels = sorted({label for pair in present for label in pair})
            rng = random.Random(partition)
            asked = set(rng.sample(sorted(present), len(present) // 2))
            asked |= {(rng.choice(labels), rng.choice(labels)) for _ in range(40)}
            asked |= {("no-such-label", labels[0]), (labels[0], "no-such-label")}
            statements = []
            store._conn.set_trace_callback(statements.append)
            try:
                assert store.pair_labels(partition, asked) == present & asked
                assert store.pair_labels(partition, present) == present
                assert store.pair_labels(partition, []) == set()
            finally:
                store._conn.set_trace_callback(None)
            assert len(statements) == 4

    def test_pair_labels_of_given_pairs_chunks_under_the_parameter_limit(
        self, tmp_path
    ):
        n = 1500
        g = build_graph(
            [(i, i + 1, i) for i in range(n - 1)],
            labels=[f"label-{i}" for i in range(n)],
            name="wide",
        )
        path = tmp_path / "s.store"
        with CorpusStore.create(path) as s:
            s.add_graph("p", g)
        forward = {(f"label-{i}", f"label-{i + 1}") for i in range(n - 1)}
        backward = {(dst, src) for src, dst in forward}
        statements = []
        with CorpusStore.open(path) as s:
            s._conn.set_trace_callback(statements.append)
            assert s.pair_labels("p", forward | backward) == forward
        # 1,500 labels in 999-label chunks, 2,998 pairs in 499-pair chunks
        assert len(statements) == 2 + 7

    def test_pair_labels_refuses_dangling_label_id(self, tmp_path):
        path = tmp_path / "s.store"
        g = build_graph([(0, 1, 0), (1, 0, 4)], labels=["A", "B"], name="g")
        with CorpusStore.create(path) as s:
            s.add_graph("p", g)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("DELETE FROM labels WHERE label = 'B'")
        conn.close()
        with CorpusStore.open(path) as s:
            with pytest.raises(DatasetError, match="dangling label id"):
                s.pair_labels("p")


class TestColumnBornReads:
    """Graphs and windows read from a store are built from their page
    columns; they equal graphs built with ``add_edge`` on every accessor,
    and mining or querying them never builds the object layer."""

    @pytest.mark.parametrize("page_edges", [1, 2, 5, 4096])
    def test_load_graphs_equal_add_edge_graphs(self, tmp_path, page_edges):
        rng = random.Random(page_edges)
        graphs = [
            random_temporal_graph(rng, n_nodes=6, n_edges=n, alphabet="ABCD")
            for n in (1, 7, 20)
        ]
        empty = TemporalGraph(name="empty")
        empty.add_node("A")
        graphs.append(empty.freeze())
        path = tmp_path / "s.store"
        with CorpusStore.create(path, page_edges=page_edges) as s:
            s.add_graphs("p", graphs)
        with CorpusStore.open(path) as s:
            back = s.load_graphs("p")
        assert all(g._objects is None for g in back)
        assert [graph_accessor_facts(g) for g in back] == [
            graph_accessor_facts(g) for g in graphs
        ]

    def test_load_training_data_equals_add_edge_graphs(self, train, store):
        back = store.load_training_data()
        for name in train.behaviors:
            assert [graph_accessor_facts(g) for g in back.behavior(name)] == [
                graph_accessor_facts(g) for g in train.behavior(name)
            ]
        assert [graph_accessor_facts(g) for g in back.background] == [
            graph_accessor_facts(g) for g in train.background
        ]

    @pytest.mark.parametrize("page_edges", [1, 2, 5, 4096])
    def test_window_equals_add_edge_window(self, tmp_path, page_edges):
        rng = random.Random(page_edges)
        g = random_temporal_graph(rng, n_nodes=8, n_edges=40, alphabet="ABCD")
        path = tmp_path / "s.store"
        with CorpusStore.create(path, page_edges=page_edges) as s:
            s.add_graph("mon", g, kind="log")
        with CorpusStore.open(path) as s:
            for _ in range(25):
                a = rng.randrange(-5, 45)
                b = a + rng.randrange(0, 20)
                window = s.window("mon", a, b)
                assert window._objects is None
                assert graph_accessor_facts(window) == graph_accessor_facts(
                    window_by_add_edge(g, a, b)
                )

    def test_mining_and_querying_build_no_object_layer(self, store, tmp_path):
        positives = store.load_graphs("gzip-decompress", kind="behavior")
        negatives = store.load_graphs(BACKGROUND_PARTITION, kind="background")
        TGMiner(FAST).mine(positives, negatives)
        assert all(g._objects is None for g in positives + negatives)

        rng = random.Random(4)
        log = random_temporal_graph(rng, n_nodes=8, n_edges=60, alphabet="ABC")
        path = tmp_path / "s.store"
        with CorpusStore.create(path, page_edges=16) as s:
            s.add_graph("mon", log, kind="log")
        with CorpusStore.open(path) as s:
            window = s.window("mon", 5, 50)
        reference = window_by_add_edge(log, 5, 50)
        pattern = random_embedded_pattern(rng, reference, max_edges=3)
        spans = QueryEngine(window).search_temporal(pattern, max_span=50)
        assert spans == QueryEngine(reference).search_temporal(pattern, max_span=50)
        assert spans and window._objects is None


def traced_opens(monkeypatch):
    """Record every statement of every store opened from here on."""
    statements = []
    real_open = CorpusStore.open.__func__

    def traced_open(cls, *args, **kwargs):
        opened = real_open(cls, *args, **kwargs)
        opened._conn.set_trace_callback(statements.append)
        return opened

    monkeypatch.setattr(CorpusStore, "open", classmethod(traced_open))
    return statements


def reads_labels(sql):
    return bool(re.search(r"\blabels\b", sql))


class TestLabelReads:
    def test_store_mine_statements_grow_with_graphs(self, train, store, monkeypatch):
        """A store mine resolves labels in at most one statement per graph
        read or catalog pass, however many distinct label ids it meets."""
        names = ["gzip-decompress", "sshd-login"]
        statements = traced_opens(monkeypatch)
        Workspace().mine(store=store.path, behaviors=names, config=FAST, workers=1)
        graphs = sum(len(train.behavior(n)) for n in names) + len(train.background)
        passes = len(names) + 1
        label_reads = [sql for sql in statements if reads_labels(sql)]
        assert sum("FROM edge_pages" in sql for sql in statements) == graphs
        assert len(label_reads) <= graphs + passes
        # one graph list and one catalog pass per partition read, then
        # max_span per behavior and graph_count per partition
        assert len(statements) == graphs + len(label_reads) + 4 * len(names) + 3
        # the bound is well under one statement per label id
        assert store.info()["labels"] > 4 * (graphs + passes)

    @pytest.mark.parametrize("read", ["graph", "window", "catalog", "events"])
    def test_dangling_label_id_raises_on_every_batched_path(self, tmp_path, read):
        path = tmp_path / "s.store"
        g = build_graph([(0, 1, 0), (1, 2, 4)], labels=["A", "B", "C"], name="g")
        with CorpusStore.create(path) as s:
            s.add_graph("p", g)
            s.add_log("log", graph=g, events=TestEvents.EVENTS)
        conn = sqlite3.connect(path)
        with conn:
            gone = "open" if read == "events" else "B"
            conn.execute("DELETE FROM labels WHERE label = ?", (gone,))
        conn.close()
        reads = {
            "graph": lambda s: s.load_graphs("p"),
            "window": lambda s: s.window("log", 0, 9),
            "catalog": lambda s: list(s.iter_graph_labels("p")),
            "events": lambda s: list(s.iter_events("log")),
        }
        with CorpusStore.open(path) as s:
            with pytest.raises(DatasetError, match="dangling label id"):
                reads[read](s)

    def test_label_reads_chunk_under_the_parameter_limit(self, tmp_path):
        n = 1500
        g = build_graph(
            [(i, i + 1, i) for i in range(n - 1)],
            labels=[f"label-{i}" for i in range(n)],
            name="wide",
        )
        path = tmp_path / "s.store"
        with CorpusStore.create(path) as s:
            s.add_graph("p", g)
        statements = []
        with CorpusStore.open(path) as s:
            s._conn.set_trace_callback(statements.append)
            (back,) = s.load_graphs("p")
        assert list(back.labels) == list(g.labels)
        assert sum(reads_labels(sql) for sql in statements) == 2

    def test_events_survive_cache_eviction_between_reads(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "_LABEL_CACHE_CAP", 3)
        path = tmp_path / "s.store"
        with CorpusStore.create(path) as s:
            s.add_events("mon", TestEvents.EVENTS)
        with CorpusStore.open(path) as s:
            first, second = s.iter_events("mon"), s.iter_events("mon")
            interleaved = [(next(first), next(second)) for _ in TestEvents.EVENTS]
            assert [a for a, _ in interleaved] == TestEvents.EVENTS
            assert [b for _, b in interleaved] == TestEvents.EVENTS
            assert len(s._id_labels) <= 3


class TestMiningIdentity:
    BEHAVIOR = "gzip-decompress"

    @pytest.fixture(scope="class")
    def reference(self, store):
        ws = Workspace()
        train = store.load_training_data([self.BEHAVIOR])
        return ws.mine(train, behaviors=[self.BEHAVIOR], config=FAST, top_k=3)

    def test_store_mining_matches_in_memory(self, store, reference):
        mined = Workspace().mine(
            store=store, behaviors=[self.BEHAVIOR], config=FAST, top_k=3
        )
        assert model_content(mined) == model_content(reference)

    def test_store_mining_by_path(self, store, reference):
        mined = Workspace().mine(
            store=str(store.path),
            behaviors=[self.BEHAVIOR],
            config=FAST,
            top_k=3,
            memory_budget_mb=64,
        )
        assert model_content(mined) == model_content(reference)

    def test_store_mining_worker_counts(self, store):
        # every fan-out worker runs the serial miner, so the model,
        # counters included, is the in-memory serial run's at any worker
        # count; two behaviors, so that two workers start a pool
        behaviors = [self.BEHAVIOR, "ftp-download"]
        train = store.load_training_data(behaviors)
        serial = Workspace().mine(train, behaviors=behaviors, config=FAST, top_k=3)
        fanned = Workspace().mine(
            store=store, behaviors=behaviors, config=FAST, top_k=3, workers=2
        )
        assert model_content(fanned) == model_content(serial)

    def test_mine_needs_exactly_one_source(self, store):
        ws = Workspace()
        with pytest.raises(DatasetError, match="exactly one"):
            ws.mine()
        with pytest.raises(DatasetError, match="exactly one"):
            ws.mine(store.load_training_data([self.BEHAVIOR]), store=store)

    def test_missing_behavior_partition(self, store):
        with pytest.raises(DatasetError, match="missing"):
            store.load_training_data(["nope"])


class TestQueryIdentity:
    @pytest.fixture(scope="class")
    def setup(self, store, tmp_path_factory):
        ws = Workspace()
        model = ws.mine(
            store=store, behaviors=["sshd-login"], config=FAST, top_k=2
        )
        test = ws.generate_test(instances=12, seed=3)
        path = tmp_path_factory.mktemp("qstore") / "mon.store"
        with CorpusStore.create(path, page_edges=64) as builder:
            builder.add_log("monitor", graph=test.graph, events=test.events)
        return ws, model, test, path

    def test_store_query_matches_batch(self, setup):
        ws, model, test, path = setup
        batch = ws.query(model, test.graph)
        stored = ws.query(model, store=path, log="monitor")
        for name in batch.behaviors:
            assert stored.behaviors[name].spans == batch.behaviors[name].spans

    def test_queries_with_an_absent_pair_decode_no_page(self, setup, tmp_path):
        ws, model, _test, _path = setup
        path = tmp_path / "other.store"
        g = build_graph([(0, 1, 0), (1, 2, 4)], labels=["A", "B", "C"], name="o")
        with CorpusStore.create(path) as s:
            s.add_log("monitor", graph=g)
        statements = []
        with CorpusStore.open(path) as s:
            s._conn.set_trace_callback(statements.append)
            report = ws.query(model, store=s, log="monitor")
        assert all(not ev.spans for ev in report.behaviors.values())
        assert not any("edge_pages" in sql for sql in statements)

    def test_narrow_scan_width_rejected(self, setup):
        ws, model, _test, path = setup
        cap = max(q.max_span for q in model.queries(["sshd-login"]))
        with pytest.raises(DatasetError, match="scan_width"):
            ws.query(model, store=path, log="monitor", scan_width=cap)

    def test_query_needs_exactly_one_source(self, setup):
        ws, model, test, path = setup
        with pytest.raises(DatasetError, match="exactly one"):
            ws.query(model)
        with pytest.raises(DatasetError, match="exactly one"):
            ws.query(model, test.graph, store=path, log="monitor")
        with pytest.raises(DatasetError, match="log="):
            ws.query(model, store=path)


class TestIntegrity:
    def test_verify_clean_store(self, store):
        counts = store.verify()
        assert counts["graphs"] == store.info()["graphs"]

    def test_verify_detects_flipped_page(self, tmp_path):
        path = tmp_path / "s.store"
        g = build_graph([(0, 1, 0), (1, 0, 4)], labels=["A", "B"], name="g")
        with CorpusStore.create(path) as s:
            s.add_graph("p", g)
        conn = sqlite3.connect(path)
        blob = conn.execute("SELECT src FROM edge_pages").fetchone()[0]
        tampered = bytes([blob[0] ^ 1]) + blob[1:]
        with conn:
            conn.execute("UPDATE edge_pages SET src = ?", (tampered,))
        conn.close()
        with CorpusStore.open(path) as s:
            with pytest.raises(DatasetError, match="checksum"):
                s.verify()

    def test_verify_detects_tampered_events(self, tmp_path):
        path = tmp_path / "s.store"
        with CorpusStore.create(path) as s:
            s.add_events("mon", TestEvents.EVENTS)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE event_pages SET checksum = 'bogus'")
        conn.close()
        with CorpusStore.open(path) as s:
            with pytest.raises(DatasetError, match="checksum"):
                s.verify()


class TestErrors:
    def test_open_missing(self, tmp_path):
        with pytest.raises(DatasetError, match="missing"):
            CorpusStore.open(tmp_path / "nope.store")

    def test_open_not_a_store(self, tmp_path):
        path = tmp_path / "junk.store"
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("CREATE TABLE t (x)")
        conn.close()
        with pytest.raises(DatasetError):
            CorpusStore.open(path)
        path2 = tmp_path / "text.store"
        path2.write_text("not sqlite at all")
        with pytest.raises(DatasetError):
            CorpusStore.open(path2)

    def test_future_schema_rejected(self, tmp_path):
        path = tmp_path / "s.store"
        CorpusStore.create(path).close()
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(STORE_SCHEMA_VERSION + 1),),
            )
        conn.close()
        with pytest.raises(DatasetError, match="newer than"):
            CorpusStore.open(path)

    def test_create_refuses_existing(self, tmp_path):
        path = tmp_path / "s.store"
        CorpusStore.create(path).close()
        with pytest.raises(DatasetError, match="already exists"):
            CorpusStore.create(path)
        CorpusStore.create(path, overwrite=True).close()

    def test_create_validates_page_edges(self, tmp_path):
        with pytest.raises(DatasetError, match="page_edges"):
            CorpusStore.create(tmp_path / "s.store", page_edges=0)

    def test_read_only_rejects_writes(self, store):
        g = build_graph([(0, 1, 0)], labels=["A", "B"])
        with pytest.raises(DatasetError, match="read-only"):
            store.add_graph("p", g)
        with pytest.raises(DatasetError, match="read-only"):
            store.add_events("mon", TestEvents.EVENTS)

    def test_reserved_partition_name(self, tmp_path):
        g = build_graph([(0, 1, 0)], labels=["A", "B"])
        with CorpusStore.create(tmp_path / "s.store") as s:
            with pytest.raises(DatasetError, match="reserved"):
                s.add_graph(BACKGROUND_PARTITION, g, kind="behavior")
            with pytest.raises(DatasetError, match="kind"):
                s.add_graph("p", g, kind="mystery")

    def test_missing_partition_probes(self, store):
        with pytest.raises(DatasetError, match="no partition"):
            store.max_span("nope")
        with pytest.raises(DatasetError):
            store.extent("nope")
