"""Shared fixtures and graph-building helpers for the test suite."""

from __future__ import annotations

import random
from typing import Sequence

import pytest

from repro.core import buffers
from repro.core.graph import TemporalGraph
from repro.core.graph_index import find_matches
from repro.core.pattern import TemporalPattern


def build_graph(edges, labels=None, name="g"):
    """Build a frozen graph from ``(src, dst, time)`` triples.

    ``labels`` maps node id -> label; defaults to ``"L{id}"``.
    Node ids are taken from the edge list.
    """
    n = max(max(u, v) for u, v, _t in edges) + 1
    graph = TemporalGraph(name=name)
    for i in range(n):
        label = labels[i] if labels else f"L{i}"
        graph.add_node(label)
    for u, v, t in edges:
        graph.add_edge(u, v, t)
    return graph.freeze()


def random_temporal_graph(rng: random.Random, n_nodes=6, n_edges=10, alphabet="ABC"):
    """A random totally-ordered temporal graph for property tests."""
    graph = TemporalGraph(name="rand")
    for _ in range(n_nodes):
        graph.add_node(rng.choice(alphabet))
    for t in range(n_edges):
        u = rng.randrange(n_nodes)
        v = rng.randrange(n_nodes)
        while v == u:
            v = rng.randrange(n_nodes)
        graph.add_edge(u, v, t)
    return graph.freeze()


def window_by_add_edge(graph: TemporalGraph, start: int, end: int, name: str = ""):
    """``graph.window(start, end)`` built edge by edge with ``add_edge``.

    The reference the column-built windows are held to: first-encounter
    node remap (each edge's source before its destination), then
    :meth:`TemporalGraph.freeze`.
    """
    sub = TemporalGraph(name=name or f"{graph.name}[{start},{end}]")
    remap: dict[int, int] = {}
    for edge in graph.edges:
        if not start <= edge.time <= end:
            continue
        for node in (edge.src, edge.dst):
            if node not in remap:
                remap[node] = sub.add_node(graph.label(node))
        sub.add_edge(remap[edge.src], remap[edge.dst], edge.time)
    return sub.freeze()


#: The fields of a :class:`~repro.core.kernel.GraphKernel`.
KERNEL_FIELDS = (
    "num_nodes",
    "num_edges",
    "edge_src",
    "edge_dst",
    "edge_time",
    "node_labels",
    "node_label_ids",
    "out_indptr",
    "out_indices",
    "out_dsts",
    "in_indptr",
    "in_indices",
    "in_srcs",
    "suffix_label_ids",
)


def graph_accessor_facts(graph: TemporalGraph, pickled: bool = True) -> dict:
    """What every read accessor of a frozen graph returns, as plain values.

    Two graphs with equal facts are indistinguishable to every reader:
    the object layer (edges, adjacency, degrees, label -> nodes), the
    one-edge index, the edge columns, the kernel and, with ``pickled``,
    the same facts of a pickle round trip.
    """
    import pickle

    def edge_facts(edges):
        return [(e.src, e.dst, e.time) for e in edges]

    nodes = range(graph.num_nodes)
    labels = sorted(set(graph.labels)) + ["<absent>"]
    last = graph.span()[1] if graph.num_edges else 0
    kernel = graph.kernel()
    facts = {
        "name": graph.name,
        "labels": list(graph.labels),
        "num_edges": (graph.num_edges, len(graph)),
        "span": graph.span() if graph.num_edges else None,
        "edges": edge_facts(graph.edges),
        "out_edges": [edge_facts(graph.out_edges(n)) for n in nodes],
        "in_edges": [edge_facts(graph.in_edges(n)) for n in nodes],
        "degrees": [(graph.out_degree(n), graph.in_degree(n)) for n in nodes],
        "nodes_with_label": {lab: list(graph.nodes_with_label(lab)) for lab in labels},
        "label_pair_index": {
            pair: list(idxs) for pair, idxs in graph.label_pair_index().items()
        },
        "edges_between": [
            list(graph.edges_between(a, b)) for a in labels for b in labels
        ],
        "edge_arrays": [
            value if isinstance(value, int) else list(value)
            for value in graph.edge_arrays()
        ],
        "edge_index_after": [graph.edge_index_after(t) for t in range(-1, last + 2)],
        "kernel": {
            field: list(value) if isinstance(value, Sequence) else value
            for field in KERNEL_FIELDS
            for value in [getattr(kernel, field)]
        },
    }
    if pickled:
        facts["pickled"] = graph_accessor_facts(
            pickle.loads(pickle.dumps(graph)), pickled=False
        )
    return facts


def random_embedded_pattern(rng: random.Random, graph: TemporalGraph, max_edges=4):
    """Extract a random T-connected sub-pattern that surely embeds in ``graph``.

    Picks a random increasing, connected edge-index sequence and
    normalizes it into a pattern.
    """
    edges = graph.edges
    start = rng.randrange(len(edges))
    chosen = [start]
    nodes = set(edges[start].endpoints())
    for idx in range(start + 1, len(edges)):
        if len(chosen) >= max_edges:
            break
        edge = edges[idx]
        touches = edge.src in nodes or edge.dst in nodes
        if touches and rng.random() < 0.6:
            chosen.append(idx)
            nodes.update(edge.endpoints())
    sub = TemporalGraph(name="sub")
    remap = {}
    for pos, idx in enumerate(chosen):
        edge = edges[idx]
        for node in edge.endpoints():
            if node not in remap:
                remap[node] = sub.add_node(graph.label(node))
        sub.add_edge(remap[edge.src], remap[edge.dst], pos)
    return TemporalPattern.from_graph(sub.freeze())


def scalar_matches(pattern, graph, **kwargs):
    """The match sequence of the scalar column join (the ``array`` backend).

    The sequence reference for the vectorized join: the active backend
    override is restored afterwards.
    """
    previous = buffers._FORCED
    buffers.force_backend("array")
    try:
        return list(find_matches(pattern, graph, **kwargs))
    finally:
        buffers.force_backend(previous)


def make_behavior_model(behavior="chain-abc", labels=("A", "B", "C"), span_cap=10):
    """A tiny hand-built :class:`BehaviorModel`: one path query over ``labels``.

    Mining-free model construction for the registry / HTTP / hot-reload
    tests: the single query is the label path ``labels[0] -> labels[1]
    -> ...`` capped at ``span_cap``.  Bundles save/load deterministically
    like mined ones, so varying ``behavior``/``labels``/``span_cap``
    yields registry versions with distinct content digests.
    """
    from repro.api.model import BehaviorModel, BehaviorRecord
    from repro.core.miner import MinedPattern, MinerConfig

    pattern = TemporalPattern(
        tuple(labels), tuple((i, i + 1) for i in range(len(labels) - 1))
    )
    record = BehaviorRecord(
        behavior=behavior,
        span_cap=span_cap,
        patterns=(
            MinedPattern(pattern=pattern, score=1.0, pos_freq=1.0, neg_freq=0.0),
        ),
        co_optimal=1,
        patterns_explored=1,
        subgraph_tests=0,
        index_prefilter_skips=0,
        elapsed_seconds=0.0,
        timed_out=False,
    )
    return BehaviorModel(
        config=MinerConfig(),
        records={behavior: record},
        labels=tuple(dict.fromkeys(labels)),
        provenance={"seed": None, "handmade": True},
    )


@pytest.fixture
def figure3_graph():
    """The paper's Figure 3 G1: multi-edges and T-connected structure."""
    return build_graph(
        [(0, 1, 1), (0, 1, 2), (1, 2, 3), (0, 2, 4), (2, 3, 5), (0, 3, 6)],
        labels=["A", "B", "C", "E"],
        name="G1",
    )


@pytest.fixture
def figure3_subpattern():
    """The paper's Figure 3 G2 (as a pattern): subgraph of G1."""
    return TemporalPattern(("A", "C", "E"), ((0, 1), (1, 2), (0, 2)))
