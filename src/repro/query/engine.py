"""Behavior-query search over monitoring graphs (paper Section 6.1).

The paper treats query processing as an existing capability ([38]) — the
contribution is *formulating* the queries.  This engine provides the
three match semantics the experiments need, each returning the distinct
time spans of identified instances:

* **temporal** — a temporal-pattern match (order-preserving, Section 2)
  whose span does not exceed the behavior's lifetime cap;
* **non-temporal** — an ``Ntemp`` query: the pattern's structure matched
  with edge order ignored, inside a bounded window around an anchor
  occurrence;
* **node-set** — a ``NodeSet`` keyword query: all ``k`` labels active
  within a window no longer than the lifetime cap.

Identified instances are deduplicated by their time span: the evaluation
semantics of Section 6.2 judge an identified instance by the interval
during which the match happened, so span-identical matches are one
instance.

Temporal and non-temporal searches go straight to the graph's one-edge
index: a query with an edge label pair that never occurs in the log
finds an empty candidate list and returns at once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

from repro.baselines.gspan import (
    NonTemporalPattern,
    enumerate_nontemporal_matches,
)
from repro.baselines.nodeset import NodeSetQuery
from repro.core.errors import GraphError, QueryError
from repro.core.graph import TemporalGraph
from repro.core.graph_index import Span, find_spans
from repro.core.pattern import TemporalPattern

__all__ = ["QueryEngine"]


class QueryEngine:
    """Searches one (large) monitoring temporal graph.

    The engine is built once per test graph; the graph's one-edge index
    (built at freeze time) is shared across all queries.
    """

    def __init__(self, graph: TemporalGraph) -> None:
        if not graph.frozen:
            try:
                graph.freeze()
            except GraphError as exc:
                raise QueryError(
                    f"cannot build a query engine over graph "
                    f"{graph.name or '<unnamed>'!s}: freezing failed ({exc}); "
                    "sequentialize concurrent edges first (see "
                    "repro.core.concurrent) or pass an already-frozen graph"
                ) from exc
        self.graph = graph
        # warm the graph's flat edge columns so the span join (and the
        # scans below) never pay a lazy build inside a timed query
        graph.edge_arrays()

    # ------------------------------------------------------------------
    # temporal behavior queries (TGMiner)
    # ------------------------------------------------------------------
    def search_temporal(self, pattern: TemporalPattern, max_span: int) -> list[Span]:
        """Distinct spans of the temporal matches within the span cap.

        Exact however many matches share a span: :func:`find_spans`
        never enumerates them.
        """
        if max_span < 0:
            raise QueryError("max_span must be non-negative")
        return sorted(find_spans(pattern, self.graph, max_span=max_span))

    def search_query(self, query) -> list[Span]:
        """Spans for one registered-style behavior query.

        Accepts anything exposing ``pattern`` and ``max_span`` —
        :class:`~repro.serving.registry.BehaviorQuery` in practice — so
        the batch engine answers exactly what the streaming service
        registers (the mine → save → load → query SDK path).
        """
        return self.search_temporal(query.pattern, query.max_span)

    # ------------------------------------------------------------------
    # non-temporal behavior queries (Ntemp)
    # ------------------------------------------------------------------
    def search_nontemporal(
        self,
        pattern: NonTemporalPattern,
        max_span: int,
        per_window_limit: int = 64,
    ) -> list[Span]:
        """Distinct spans of order-free structure matches.

        The search anchors on the pattern's rarest label pair: every
        occurrence of that pair defines a candidate window of width
        ``2 * max_span`` in which the full structure is matched without
        order constraints (a label pair absent from the log leaves no
        window to search).  A match's span is the tightest interval
        covering one occurrence of every pattern edge (each taken nearest
        to the anchor).
        """
        if pattern.num_edges == 0:
            raise QueryError("empty non-temporal pattern")
        anchor_pair = min(
            (
                (pattern.label(u), pattern.label(v))
                for u, v in pattern.edges
            ),
            key=lambda pair: len(self.graph.edges_between(*pair)),
        )
        anchor_edges = self.graph.edges_between(*anchor_pair)
        spans: set[Span] = set()
        seen_windows: set[Span] = set()
        for idx in anchor_edges:
            t = self.graph.edges[idx].time
            lo, hi = max(0, t - max_span), t + max_span
            if (lo, hi) in seen_windows:
                continue
            seen_windows.add((lo, hi))
            window = self.graph.window(lo, hi)
            spans |= self._match_window(pattern, window, t, max_span, per_window_limit)
        return sorted(spans)

    def _match_window(
        self,
        pattern: NonTemporalPattern,
        window: TemporalGraph,
        anchor_time: int,
        max_span: int,
        limit: int,
    ) -> set[Span]:
        adjacency: set[tuple[int, int]] = set()
        pair_times: dict[tuple[int, int], list[int]] = {}
        nodes_by_label: dict[str, list[int]] = {}
        for node in range(window.num_nodes):
            nodes_by_label.setdefault(window.label(node), []).append(node)
        for edge in window.edges:
            adjacency.add((edge.src, edge.dst))
            pair_times.setdefault((edge.src, edge.dst), []).append(edge.time)
        spans: set[Span] = set()
        for assignment in enumerate_nontemporal_matches(
            pattern, window.labels, adjacency, nodes_by_label, limit=limit
        ):
            times: list[int] = []
            for u, v in pattern.edges:
                options = pair_times[(assignment[u], assignment[v])]
                nearest = min(options, key=lambda t: abs(t - anchor_time))
                times.append(nearest)
            lo, hi = min(times), max(times)
            if hi - lo <= max_span:
                spans.add((lo, hi))
        return spans

    # ------------------------------------------------------------------
    # node-set keyword queries (NodeSet)
    # ------------------------------------------------------------------
    def search_nodeset(
        self,
        query: NodeSetQuery,
        max_span: int | None = None,
    ) -> list[Span]:
        """Minimal windows where all query labels have active nodes.

        Sweeps the label-activity event stream with two pointers and
        records every *minimal* window covering all ``k`` labels whose
        length respects the cap — each such window is one identified
        instance.
        """
        cap = query.max_span if max_span is None else max_span
        wanted = set(query.labels)
        if not wanted:
            raise QueryError("empty node-set query")
        _base, srcs, dsts, times = self.graph.edge_arrays()
        labels = self.graph.labels
        events: list[tuple[int, str]] = []
        for i in range(self.graph.num_edges):
            src_label = labels[srcs[i]]
            dst_label = labels[dsts[i]]
            if src_label in wanted:
                events.append((times[i], src_label))
            if dst_label in wanted:
                events.append((times[i], dst_label))
        events.sort()
        spans: set[Span] = set()
        counts: dict[str, int] = {}
        covered = 0
        left = 0
        for right, (t_right, label_right) in enumerate(events):
            counts[label_right] = counts.get(label_right, 0) + 1
            if counts[label_right] == 1:
                covered += 1
            while covered == len(wanted):
                t_left, label_left = events[left]
                if t_right - t_left <= cap:
                    spans.add((t_left, t_right))
                counts[label_left] -= 1
                if counts[label_left] == 0:
                    covered -= 1
                left += 1
        return sorted(spans)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def label_activity(self, label: str) -> list[int]:
        """Times at which a node with ``label`` touches an edge (sorted)."""
        _base, srcs, dsts, edge_times = self.graph.edge_arrays()
        labels = self.graph.labels
        times: list[int] = []
        for i in range(self.graph.num_edges):
            if labels[srcs[i]] == label or labels[dsts[i]] == label:
                times.append(edge_times[i])
        return times

    def count_in_interval(self, times: Sequence[int], start: int, end: int) -> int:
        """Number of ``times`` within ``[start, end]`` (times sorted)."""
        return bisect_right(times, end) - bisect_left(times, start)
