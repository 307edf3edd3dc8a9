"""Shared fixtures and graph-building helpers for the test suite."""

from __future__ import annotations

import random

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
