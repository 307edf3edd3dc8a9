"""Oracle tests for the interned-label CSR kernel data path.

The kernel layer (:mod:`repro.core.kernel`) is the only implementation
of seeding, embedding extension, residual summaries and the temporal
index join.  These tests pin each against exhaustive enumeration
(:mod:`repro.core.brute`) or a direct computation over the edge list,
on random temporal graphs, so any divergence fails loudly.
"""

import itertools
import pickle
import random
import sys
import threading
import time
from collections import Counter

import pytest

import repro.core.graph_index as graph_index
from repro.core.brute import enumerate_matches
from repro.core.errors import GraphError
from repro.core.graph import TemporalGraph
from repro.core.graph_index import (
    CandidateFilter,
    find_matches,
    match_span,
    pattern_signature,
    signature_contains,
)
from repro.core.growth import (
    Embedding,
    child_pattern,
    extend_embeddings,
    seed_patterns,
)
from repro.core.kernel import (
    PROCESS_INTERNER,
    GraphKernel,
    LabelInterner,
    build_kernels,
)
from repro.core.miner import MinerConfig, TGMiner, _MiningRun
from repro.core.pattern import TemporalPattern
from repro.core.residual import summarize_residuals
from repro.core.sequence import encode
from repro.serving.streaming import StreamingGraph
from repro.syscall.events import SyscallEvent

from conftest import random_embedded_pattern, random_temporal_graph


#: Hand-built pretest cases: repeated node labels, parallel edges
#: (repeated label pairs) and labels only some patterns have.
MASK_CASES = [
    TemporalPattern(("A", "B"), ((0, 1),)),
    TemporalPattern(("A", "B"), ((0, 1), (0, 1))),
    TemporalPattern(("A", "B"), ((0, 1), (0, 1), (0, 1))),
    TemporalPattern(("A", "B", "A"), ((0, 1), (1, 2))),
    TemporalPattern(("A", "B", "A", "B"), ((0, 1), (1, 2), (2, 3), (0, 1))),
    TemporalPattern(("A", "A", "B"), ((0, 1), (1, 2), (0, 2))),
    TemporalPattern(("A", "X"), ((0, 1),)),
    TemporalPattern(("X", "A", "A", "A"), ((0, 1), (0, 2), (0, 3))),
    TemporalPattern(("X", "A", "A"), ((0, 1), (0, 2), (0, 1))),
]


def random_corpus(rng, count=6, n_nodes=8, n_edges=18, alphabet="ABCD"):
    return [
        random_temporal_graph(
            rng, n_nodes=n_nodes, n_edges=n_edges, alphabet=alphabet
        )
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# interner / kernel basics
# ----------------------------------------------------------------------
class TestLabelInterner:
    def test_round_trip_and_determinism(self):
        interner = LabelInterner()
        ids = [interner.intern(label) for label in ("b", "a", "b", "c")]
        assert ids == [0, 1, 0, 2]
        assert interner.label_of(2) == "c"
        assert interner.id_of("a") == 1
        assert interner.id_of("missing") is None
        assert "a" in interner and "missing" not in interner
        assert len(interner) == 3

    def test_separate_interners_assign_independently(self):
        left, right = LabelInterner(), LabelInterner()
        left.intern("x")
        assert right.id_of("x") is None


class TestGraphKernel:
    def test_arrays_mirror_edges(self):
        rng = random.Random(7)
        graph = random_temporal_graph(rng, n_nodes=10, n_edges=25)
        kernel = graph.kernel()
        base, srcs, dsts, times = graph.edge_arrays()
        assert base == 0
        for idx, edge in enumerate(graph.edges):
            assert (srcs[idx], dsts[idx], times[idx]) == (
                edge.src,
                edge.dst,
                edge.time,
            )
        # CSR rows reproduce the per-node adjacency in ascending order
        for node in range(graph.num_nodes):
            out_row = kernel.out_indices[
                kernel.out_indptr[node] : kernel.out_indptr[node + 1]
            ]
            assert out_row == [
                i for i, e in enumerate(graph.edges) if e.src == node
            ]
            in_row = kernel.in_indices[
                kernel.in_indptr[node] : kernel.in_indptr[node + 1]
            ]
            assert in_row == [
                i for i, e in enumerate(graph.edges) if e.dst == node
            ]

    def test_suffix_label_ids_match_string_sets(self):
        rng = random.Random(13)
        graph = random_temporal_graph(rng)
        kernel = graph.kernel()
        for i in range(graph.num_edges + 1):
            as_strings = {
                PROCESS_INTERNER.label_of(lid) for lid in kernel.suffix_label_ids[i]
            }
            assert as_strings == {
                graph.label(node)
                for edge in graph.edges[i:]
                for node in edge.endpoints()
            }
        # suffixes with equal label sets share one frozenset
        labels = {
            graph.label(node) for edge in graph.edges for node in edge.endpoints()
        }
        sets = {id(label_ids) for label_ids in kernel.suffix_label_ids}
        assert len(sets) <= len(labels) + 1

    def test_kernel_built_once_over_the_process_interner(self):
        rng = random.Random(17)
        graph = random_temporal_graph(rng)
        first = graph.kernel()
        assert graph.kernel() is first
        assert build_kernels([graph, graph]) == [first, first]
        labels = [PROCESS_INTERNER.label_of(lid) for lid in first.node_label_ids]
        assert labels == list(graph.labels)

    def test_kernel_requires_frozen_graph(self):
        graph = TemporalGraph()
        graph.add_node("A")
        graph.add_node("B")
        graph.add_edge(0, 1)
        with pytest.raises(GraphError):
            graph.kernel()
        with pytest.raises(GraphError):
            graph.edge_arrays()

    def test_pickle_drops_kernel_and_array_caches(self):
        rng = random.Random(19)
        graph = random_temporal_graph(rng)
        graph.kernel()
        graph.edge_arrays()
        clone = pickle.loads(pickle.dumps(graph))
        assert clone._kernel is None and clone._col_src is None
        # the rebuilt kernel is equivalent
        rebuilt = clone.kernel()
        assert rebuilt.edge_src == graph.kernel().edge_src
        assert rebuilt.node_label_ids == graph.kernel().node_label_ids


# ----------------------------------------------------------------------
# growth and matching: the kernel path == the brute-force oracle
# ----------------------------------------------------------------------
def oracle_table(pattern, corpus):
    """Footprints of every match of ``pattern``, per graph, by brute force."""
    table = {}
    for gid, graph in enumerate(corpus):
        rows = {
            Embedding(m.nodes, m.edge_indexes[-1])
            for m in enumerate_matches(pattern, graph)
        }
        if rows:
            table[gid] = rows
    return table


def seed_tables(corpus):
    """Every one-edge seed's non-empty table over ``corpus``, by label pair."""
    keys = sorted({key for graph in corpus for key in graph.label_pair_index()})
    tables = {key: seed_patterns(corpus, key) for key in keys}
    return {key: table for key, table in tables.items() if table}


def extend_one_at_a_time(corpus, table):
    """The union of every embedding's children, each extended on its own."""
    union = {}
    for gid, rows in table.items():
        for row in rows:
            for key, child in extend_embeddings(corpus, {gid: {row}}).items():
                union.setdefault(key, {}).setdefault(gid, set()).update(child[gid])
    return union


def extension_keys(pattern, alphabet):
    """Every forward / backward / inward key a pattern could grow by."""
    n = pattern.num_nodes
    keys = [("f", u, label) for u in range(n) for label in alphabet]
    keys += [("b", label, v) for label in alphabet for v in range(n)]
    keys += [("i", u, v) for u in range(n) for v in range(n) if u != v]
    return keys


def hub_graph():
    """A hub-heavy graph: repeated label pairs, parallel edges, self-loops."""
    graph = TemporalGraph()
    hub = graph.add_node("H")
    others = [graph.add_node(label) for label in "AABBC"]
    rng = random.Random(5)
    for t in range(30):
        other = rng.choice(others)
        if t % 7 == 6:
            # self-loops: no pattern edge may match one
            node = hub if t % 14 == 6 else other
            graph.add_edge(node, node, t)
        elif rng.random() < 0.5:
            graph.add_edge(hub, other, t)
        else:
            graph.add_edge(other, hub, t)
    return graph.freeze()


def oracle_matches(pattern, graph, max_span=None, start_index=0, min_last_index=0):
    """The brute-force match sequence under the join's constraints."""
    times = [edge.time for edge in graph.edges]
    return [
        m
        for m in enumerate_matches(pattern, graph)
        if m.edge_indexes[0] >= start_index
        and m.edge_indexes[-1] >= min_last_index
        and (
            max_span is None
            or times[m.edge_indexes[-1]] - times[m.edge_indexes[0]] <= max_span
        )
    ]


class TestExtendEmbeddingsEquivalence:
    """Seeds and every child table equal the oracle's match footprints."""

    def grow_levels(self, corpus, kernels, levels=3, seed_cap=12, fan=6):
        """Walk several growth generations checking every key each step."""
        alphabet = sorted({label for graph in corpus for label in graph.labels})
        for pair in itertools.product(alphabet, repeat=2):
            pattern = TemporalPattern.single_edge(*pair)
            assert seed_patterns(corpus, pair) == oracle_table(pattern, corpus), pair
        seeds = seed_tables(corpus)
        frontier = [
            (TemporalPattern.single_edge(*pair), seeds[pair])
            for pair in sorted(seeds)[:seed_cap]
        ]
        for _ in range(levels):
            nxt = []
            for pattern, table in frontier:
                grown = extend_embeddings(corpus, table, kernels)
                assert extend_embeddings(corpus, table) == grown  # cached kernels
                keys = extension_keys(pattern, alphabet)
                assert set(grown) <= set(keys)
                for key in keys:
                    child = child_pattern(pattern, key)
                    assert grown.get(key, {}) == oracle_table(child, corpus), key
                for key in sorted(grown)[:fan]:
                    nxt.append((child_pattern(pattern, key), grown[key]))
            if not nxt:
                break
            frontier = nxt[:fan]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_corpora(self, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng)
        kernels = build_kernels(corpus)
        self.grow_levels(corpus, kernels)

    def test_multi_edges_and_hubs(self):
        corpus = [hub_graph()]
        kernels = build_kernels(corpus)
        self.grow_levels(corpus, kernels)

    def test_node_tuple_at_several_cuts(self):
        """Embeddings sharing their node images are walked once, from the
        earliest cut; the children equal each embedding's on its own."""
        graph = TemporalGraph()
        a, b, c = (graph.add_node(label) for label in "ABC")
        steps = [(a, b), (a, b), (b, c), (a, b), (c, a), (b, a), (a, b), (c, b)]
        for t, (src, dst) in enumerate(steps):
            graph.add_edge(src, dst, t)
        corpus = [graph.freeze()]
        alphabet = sorted(set(graph.labels))
        parent = TemporalPattern.single_edge("A", "B")
        table = seed_patterns(corpus, ("A", "B"))
        assert {row.last_index for row in table[0]} == {0, 1, 3, 6}
        assert {row.nodes for row in table[0]} == {(a, b)}
        grown = extend_embeddings(corpus, table)
        assert grown == extend_one_at_a_time(corpus, table)
        for key in extension_keys(parent, alphabet):
            child = child_pattern(parent, key)
            assert grown.get(key, {}) == oracle_table(child, corpus), key
        # inward children keep the node tuple: the next level shares it too
        inward = grown[("i", 0, 1)]
        assert len(inward[0]) > 1 and {row.nodes for row in inward[0]} == {(a, b)}
        assert extend_embeddings(corpus, inward) == extend_one_at_a_time(corpus, inward)

    def test_rows_equal_across_paths_and_fields_accessible(self):
        rng = random.Random(23)
        corpus = random_corpus(rng, count=2)
        seeds = seed_tables(corpus)
        key = sorted(seeds)[0]
        cached = extend_embeddings(corpus, seeds[key])
        explicit = extend_embeddings(
            corpus, seeds[key], build_kernels(corpus)
        )
        assert cached == explicit
        for table in cached.values():
            for rows in table.values():
                for row in rows:
                    # kernel rows stay Embedding instances (built through
                    # tuple.__new__) — named access keeps working
                    assert type(row) is Embedding
                    assert row.nodes == row[0]
                    assert row.last_index == row[1]


class TestFindMatchesEquivalence:
    """The join enumerates the oracle's match sequence, in order."""

    @pytest.fixture(autouse=True)
    def vectorize_tiny_inputs(self, monkeypatch):
        # on the numpy backend, run the mask branches even on tiny inputs
        monkeypatch.setattr(graph_index, "_VECTOR_MIN_CANDIDATES", 0)
        monkeypatch.setattr(graph_index, "_VECTOR_MIN_WINDOW", 0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_random_graphs_exact_sequence(self, seed):
        rng = random.Random(seed)
        graph = random_temporal_graph(rng, n_nodes=8, n_edges=24, alphabet="ABC")
        for _ in range(6):
            pattern = random_embedded_pattern(rng, graph)
            for max_span in (None, 3, 8):
                expected = oracle_matches(pattern, graph, max_span=max_span)
                if max_span is None:
                    # the pattern was extracted from the graph, so the
                    # uncapped search must find it
                    assert expected, "workload degenerate: no matches"
                for limit in (None, 2):
                    got = list(
                        find_matches(pattern, graph, max_span=max_span, limit=limit)
                    )
                    assert got == expected[:limit]  # same matches, same order

    def test_hub_graph_exact_sequence(self):
        """Every one- and two-edge pattern over the hub graph's labels,
        including label pairs only self-loops carry."""
        graph = hub_graph()
        alphabet = sorted(set(graph.labels))
        patterns = [
            TemporalPattern.single_edge(*pair)
            for pair in itertools.product(alphabet, repeat=2)
        ]
        patterns += [
            child_pattern(parent, key)
            for parent in patterns
            for key in extension_keys(parent, alphabet)
        ]
        for pattern in patterns:
            for max_span in (None, 4):
                got = list(find_matches(pattern, graph, max_span=max_span))
                assert got == oracle_matches(pattern, graph, max_span=max_span)

    def test_start_and_min_last_index(self):
        rng = random.Random(31)
        graph = random_temporal_graph(rng, n_nodes=8, n_edges=24)
        pattern = random_embedded_pattern(rng, graph, max_edges=2)
        for start in (0, 5, 12):
            for floor in (0, 8, 20):
                got = list(
                    find_matches(
                        pattern, graph, start_index=start, min_last_index=floor
                    )
                )
                assert got == oracle_matches(
                    pattern, graph, start_index=start, min_last_index=floor
                )


# ----------------------------------------------------------------------
# streaming: incrementally maintained kernel columns
# ----------------------------------------------------------------------
class TestStreamingKernel:
    @staticmethod
    def event(time, src_key, src_label, dst_key, dst_label):
        return SyscallEvent(
            time=time,
            syscall="op",
            src_key=src_key,
            src_label=src_label,
            dst_key=dst_key,
            dst_label=dst_label,
        )

    def random_stream(self, rng, count=120):
        keys = [(f"k{i}", rng.choice("ABCD")) for i in range(10)]
        events = []
        for t in range(count):
            (sk, sl), (dk, dl) = rng.sample(keys, 2)
            events.append(self.event(t, sk, sl, dk, dl))
        return events

    @staticmethod
    def advance_model(window, batch, span):
        """The plain-list window after ``batch``: late drop, merge, evict."""
        kept = sorted(batch)
        if window:
            kept = [row for row in kept if row[0] >= window[-1][0] - span]
        if not kept:
            return window
        floor = kept[0][0] - span
        return [row for row in sorted(window + kept) if row[0] >= floor]

    @staticmethod
    def assert_matches_model(graph, window):
        """Columns, pair index and signature equal the model's window."""
        base, srcs, dsts, times = graph.edge_arrays()
        first = graph.first_live_index
        assert graph.num_edges == len(window) == graph.next_index - first
        assert len(srcs) == len(dsts) == len(times) == graph.next_index - base
        lo = first - base
        assert list(times[lo:]) == [row[0] for row in window]
        # node ids and entity keys correspond one to one (each key of the
        # stream keeps one label)
        label_of_key = {row[1]: row[2] for row in window}
        label_of_key.update((row[3], row[4]) for row in window)
        key_of: dict[int, str] = {}
        for src, dst, row in zip(srcs[lo:], dsts[lo:], window):
            assert key_of.setdefault(src, row[1]) == row[1]
            assert key_of.setdefault(dst, row[3]) == row[3]
        assert len(set(key_of.values())) == len(key_of) == graph.num_nodes
        for node, key in key_of.items():
            assert graph.label(node) == label_of_key[key]
        # the one-edge index lists each pair's live ids, ascending
        model_pairs: dict[tuple[str, str], list[int]] = {}
        for offset, row in enumerate(window):
            model_pairs.setdefault((row[2], row[4]), []).append(first + offset)
        for (a, b), ids in model_pairs.items():
            listed = list(graph.edges_between(a, b))
            assert listed == sorted(listed)
            assert [i for i in listed if i >= first] == ids
        sig = graph.signature()
        assert sig.node_labels == dict(Counter(label_of_key.values()))
        assert sig.edge_labels == {pair: len(ids) for pair, ids in model_pairs.items()}
        assert graph.window_columns() == {
            "time": [row[0] for row in window],
            "syscall": ["window-replay"] * len(window),
            "src_key": [row[1] for row in window],
            "src_label": [row[2] for row in window],
            "dst_key": [row[3] for row in window],
            "dst_label": [row[4] for row in window],
        }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_columns_survive_ingest_evict_and_ooo(self, seed):
        rng = random.Random(seed)
        events = self.random_stream(rng)
        span = 30
        graph = StreamingGraph(window_span=span)
        window: list[tuple] = []
        # shuffle batch boundaries and hold some events back a batch, so
        # arrivals regress across batches (tail reinsertion, late drops)
        pos, held = 0, []
        while pos < len(events) or held:
            size = rng.randrange(1, 20)
            batch = events[pos : pos + size]
            pos += size
            late = [e for e in batch if rng.random() < 0.15]
            batch = [e for e in batch if e not in late] + held
            held = late
            rng.shuffle(batch)
            graph.ingest(batch)
            rows = [
                (e.time, e.src_key, e.src_label, e.dst_key, e.dst_label)
                for e in batch
            ]
            window = self.advance_model(window, rows, span)
            self.assert_matches_model(graph, window)
        assert graph.stats.reinserted and graph.stats.evicted

    def test_streaming_join_uses_columns(self):
        rng = random.Random(9)
        events = self.random_stream(rng)
        graph = StreamingGraph(window_span=1000)
        graph.ingest(events)
        batch = graph.as_temporal_graph()
        pattern = random_embedded_pattern(rng, batch)
        live = find_matches(pattern, graph, max_span=50)
        frozen = find_matches(pattern, batch, max_span=50)
        assert {match_span(m, graph) for m in live} == {
            match_span(m, batch) for m in frozen
        }


# ----------------------------------------------------------------------
# residual summaries and signatures over interned ids
# ----------------------------------------------------------------------
class TestResidualAndSignatureEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_summaries_match_residual_edges(self, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng)
        kernels = build_kernels(corpus)
        seeds = seed_tables(corpus)
        for key in sorted(seeds)[:10]:
            # the seed's table and its children's: several cuts per graph
            children = extend_embeddings(corpus, seeds[key], kernels)
            for table in (seeds[key], *children.values()):
                cuts = sorted(
                    {(gid, e.last_index) for gid, embs in table.items() for e in embs}
                )
                residuals = [corpus[gid].edges[cut + 1 :] for gid, cut in cuts]
                labels = {
                    PROCESS_INTERNER.id_of(corpus[gid].label(node))
                    for (gid, _cut), edges in zip(cuts, residuals)
                    for edge in edges
                    for node in edge.endpoints()
                }
                for keep in (False, True):
                    summary = summarize_residuals(kernels, table, keep_cut_pairs=keep)
                    assert summary.i_value == sum(len(edges) for edges in residuals)
                    assert summary.cut_pairs == (tuple(cuts) if keep else None)
                    assert summary.label_set == labels
                unlabeled = summarize_residuals(kernels, table, with_labels=False)
                assert unlabeled.label_set == frozenset()
        # one cut at a time: the union above hides a set that is too big
        # whenever an earlier cut's residual already covers its labels
        for gid, graph in enumerate(corpus):
            for cut in range(-1, graph.num_edges):
                summary = summarize_residuals(kernels, {gid: {Embedding((0, 1), cut)}})
                assert summary.label_set == {
                    PROCESS_INTERNER.id_of(graph.label(node))
                    for edge in graph.edges[cut + 1 :]
                    for node in edge.endpoints()
                }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_filter_pretests_match_string_signatures(self, seed):
        rng = random.Random(seed)
        graphs = random_corpus(rng, count=3)
        patterns = [
            random_embedded_pattern(rng, graph)
            for graph in graphs
            for _ in range(4)
        ] + MASK_CASES
        rng.shuffle(patterns)
        # bit positions are assigned on first sight: `filt` sees the
        # patterns in list order, `reverse` in the opposite order
        filt, reverse = CandidateFilter(), CandidateFilter()
        for pattern in reversed(patterns):
            reverse.pattern_mask(pattern)
        for small in patterns:
            for big in patterns:
                expected = signature_contains(
                    pattern_signature(big), pattern_signature(small)
                )
                for masks in (filt, reverse):
                    nests = masks.pattern_mask(small) & ~masks.pattern_mask(big) == 0
                    assert nests is expected

    def test_sequence_encoding_id_projections(self):
        rng = random.Random(41)
        graph = random_temporal_graph(rng)
        pattern = random_embedded_pattern(rng, graph)
        enc = encode(pattern)
        assert len(enc.node_label_ids) == len(enc.node_labels)
        assert len(enc.enh_label_ids) == len(enc.enh_labels)
        # id equality must mirror string equality position by position
        for seq_ids, seq_labels in (
            (enc.node_label_ids, enc.node_labels),
            (enc.enh_label_ids, enc.enh_labels),
            (enc.edge_label_pair_ids, enc.edge_label_pairs),
        ):
            for i in range(len(seq_ids)):
                for j in range(len(seq_ids)):
                    assert (seq_ids[i] == seq_ids[j]) == (
                        seq_labels[i] == seq_labels[j]
                    )


# ----------------------------------------------------------------------
# miner end-to-end sanity: one kernel per graph, one id space per process
# ----------------------------------------------------------------------
class TestMinerSharesKernels:
    def test_mining_runs_read_the_cached_kernels(self):
        rng = random.Random(3)
        positives = random_corpus(rng, count=3)
        negatives = random_corpus(rng, count=3)
        run = _MiningRun(MinerConfig(max_edges=3), positives, negatives)
        assert run.pos_kernels == [graph.kernel() for graph in positives]
        assert run.neg_kernels == [graph.kernel() for graph in negatives]
        # equal labels get equal ids across graphs, distinct labels not
        ids = {}
        for graph in positives + negatives:
            for label, lid in zip(graph.labels, graph.kernel().node_label_ids):
                assert ids.setdefault(label, lid) == lid
        assert len(set(ids.values())) == len(ids)
        for label, lid in ids.items():
            assert PROCESS_INTERNER.label_of(lid) == label

    def test_background_flattened_once_across_runs(self, monkeypatch):
        rng = random.Random(5)
        first, second = random_corpus(rng, count=2), random_corpus(rng, count=2)
        background = random_corpus(rng, count=3)
        built = []
        real = GraphKernel.from_graph

        def counting(graph):
            built.append(graph)
            return real(graph)

        monkeypatch.setattr(GraphKernel, "from_graph", counting)
        miner = TGMiner(MinerConfig(max_edges=3, min_pos_support=0.5))
        miner.mine(first, background)
        kernels = [graph.kernel() for graph in background]
        miner.mine(second, background)
        assert [graph.kernel() for graph in background] == kernels
        # each graph was flattened once: the background in the first run
        assert built == first + background + second


class _YieldingLabel(str):
    """A label whose hashing lets other threads run, so every dictionary
    probe of :meth:`LabelInterner.intern` is a possible thread switch."""

    def __hash__(self):
        time.sleep(0)
        return str.__hash__(self)


class TestInternerThreads:
    def test_concurrent_interning_stays_a_bijection(self):
        # more threads than cores, all interning the same new labels: a
        # miss assigned outside the lock gives one label two ids or two
        # labels one id
        interner = LabelInterner()
        labels = [_YieldingLabel(f"label-{i}") for i in range(400)]
        barrier = threading.Barrier(4)
        seen = []

        def work():
            barrier.wait()
            seen.append({label: interner.intern(label) for label in labels})

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 4
        assert all(ids == seen[0] for ids in seen)
        assert len(interner) == len(labels)
        assert sorted(seen[0].values()) == list(range(len(labels)))
        assert all(interner.label_of(lid) == label for label, lid in seen[0].items())
