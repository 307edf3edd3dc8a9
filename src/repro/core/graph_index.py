"""Graph-index based temporal matcher (the ``PruneGI`` baseline and the
query-engine core).

The matcher indexes *one-edge substructures* of the data graph — for every
ordered label pair the time-sorted list of data edges carrying those
endpoint labels — and joins partial matches edge by edge in temporal
order, exactly the strategy of the paper's ``PruneGI`` baseline (which
adapts the subgraph-matching engine of [38] to temporal constraints).

Joining in temporal order makes the total-order constraint free: pattern
edge ``k+1`` may only join data edges whose index is strictly larger than
the index matched for edge ``k``, so each partial match carries a frontier
index and candidate lists are consumed via binary search.  Both joins
(:func:`find_matches`, :func:`find_spans`) read the source's flat edge
columns (``edge_arrays()``, see :mod:`repro.core.kernel`); the match
join has a vectorized and a scalar form, one per
:mod:`repro.core.buffers` backend, enumerating identical sequences.

Two client roles:

* ``PruneGI`` miner variant: pattern-vs-pattern tests materialize the
  larger pattern as a temporal graph and (re)build its index per test —
  deliberately keeping the per-test index-construction overhead the paper
  identifies as the baseline's weakness.
* :mod:`repro.query.engine` and the streaming service: pattern-vs-log
  span search (:func:`find_spans`) over large graphs, where the index is
  built once and reused, with an optional time-window cap (``max_span``)
  reflecting bounded behavior durations.

The span join may start at either end of the pattern.  Per call it
counts, with two bisects, the first-edge candidates at or past
``start_index`` and the last-edge candidates at or past
``max(start_index, min_last_index)``, and starts at the last edge when
that count is smaller (patterns of two or more edges only), otherwise
at the first.  A streaming delta search pins the last edge into the new
batch, so it mostly starts there and matches the earlier edges at
falling ids.  The backward walk mirrors the forward one: its frontier
only falls and its recorded set of first-edge witnesses only grows, so
the same witness argument keeps it exact.

Besides the matcher, this module hosts the **candidate-pruning
prefilter** pieces: :class:`Signature` summarizes a pattern or graph as
its node-label multiset plus edge-label-pair multiset, and containment
of those multisets (:func:`signature_contains`) is a sound necessary
condition for any injective label-preserving mapping.  The serving
registry checks query signatures against the live window's.  The miner
owns a :class:`CandidateFilter`, which encodes each pattern's signature
as an exact bitmask (:meth:`CandidateFilter.pattern_mask`): the miner
stores each pattern's mask on its pruning history and tests it inline
before every subgraph-isomorphism test, and the VF2 matcher seeds its
per-node candidate lists from the filter's label index.  A pattern
label pair absent from the log makes the pattern-vs-log join return
before it reads any edge.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Protocol, Sequence, runtime_checkable

from repro.core.brute import Match
from repro.core.buffers import active_numpy, as_ndarray
from repro.core.graph import TemporalGraph
from repro.core.kernel import EdgeArrays
from repro.core.pattern import TemporalPattern

__all__ = [
    "EdgeIndexedSource",
    "find_matches",
    "find_spans",
    "GraphIndexTester",
    "match_span",
    "Span",
    "Signature",
    "CandidateFilter",
    "pattern_signature",
    "graph_signature",
    "signature_contains",
]

#: ``(first_time, last_time)`` of a match: the unit an identified
#: behavior instance is judged by (span-identical matches are one).
Span = tuple[int, int]


@runtime_checkable
class EdgeIndexedSource(Protocol):
    """What :func:`find_matches` and :func:`find_spans` need from a graph.

    A frozen :class:`TemporalGraph` satisfies this, and so does the live
    :class:`~repro.serving.streaming.StreamingGraph`, whose edge ids are
    global ingest positions that stay valid for any live edge even after
    older edges were evicted.  ``edges_between`` lists must be sorted
    ascending and id order must equal time order — the temporal join
    relies on it for the frontier bisects and the span-cap break.
    ``edge_arrays()`` returns the flat ``(base, src, dst, time)`` columns
    the joins read, where position ``id - base`` describes edge ``id``:
    frozen graphs build them once, ``StreamingGraph`` maintains them
    across ingest and eviction.  The columns are the only per-edge
    access: a source need not keep edge objects.
    """

    @property
    def num_edges(self) -> int: ...

    def edges_between(self, src_label: str, dst_label: str) -> Sequence[int]: ...

    def edge_arrays(self) -> EdgeArrays: ...


def find_matches(
    pattern: TemporalPattern,
    graph: "TemporalGraph | EdgeIndexedSource",
    max_span: int | None = None,
    limit: int | None = None,
    start_index: int = 0,
    min_last_index: int = 0,
) -> Iterator[Match]:
    """Yield matches of ``pattern`` in ``graph`` via index joins.

    The match-enumeration API: the ``PruneGI`` tester, the benchmarks'
    exact reference and the test oracle for :func:`find_spans`, which
    runs the same join for the span consumers (the batch
    :class:`~repro.query.engine.QueryEngine` and the streaming
    :class:`~repro.serving.service.DetectionService`).  Any
    :class:`EdgeIndexedSource` works; the join reads its flat edge
    columns (``edge_arrays()``) in place.

    Parameters
    ----------
    pattern:
        The temporal pattern (behavior query skeleton) to search for.
    graph:
        A frozen temporal graph (frozen on demand) or any other
        edge-indexed source such as a live :class:`StreamingGraph`.
    max_span:
        When given, a match's time span (last matched timestamp minus
        first matched timestamp) may not exceed this value.  Behavior
        instances execute within a bounded wall-clock window, so the query
        engine passes the longest observed behavior duration here.
    limit:
        Stop after this many matches.
    start_index:
        Only consider data edges with id ``>= start_index``.  Streaming
        sources pass their window start (evicted ids below it must never
        be touched) tightened to the earliest edge that could still start
        an in-cap match ending in the new delta.
    min_last_index:
        Require the match's *last* edge to have id ``>= min_last_index``.
        Incremental evaluation passes the first newly-ingested id: every
        match whose last edge predates the delta was already reported by
        an earlier batch, so only genuinely new matches are enumerated.
    """
    if not getattr(graph, "frozen", True):
        graph.freeze()
    m = pattern.num_edges
    if m > graph.num_edges:
        return
    p_edges = pattern.edges
    p_labels = pattern.labels
    candidate_lists = []
    for u, v in p_edges:
        lst = graph.edges_between(p_labels[u], p_labels[v])
        if not lst:
            return
        candidate_lists.append(lst)
    yield from _join_arrays(
        pattern, graph.edge_arrays(), candidate_lists,
        max_span, limit, start_index, min_last_index,
    )


def _join_arrays(
    pattern: TemporalPattern,
    arrays: tuple[int, Sequence[int], Sequence[int], Sequence[int]],
    candidate_lists: list[Sequence[int]],
    max_span: int | None,
    limit: int | None,
    start_index: int,
    min_last_index: int,
) -> Iterator[Match]:
    """Temporal index join over flat ``(base, src, dst, time)`` columns.

    Dispatches on the active buffer backend: with numpy available (and a
    candidate set big enough to amortize the batch gather) the
    :func:`_join_vectorized` candidate join runs; otherwise the scalar
    :func:`_join_buffers` loop walks the same buffers.  Both enumerate
    the same match sequence, byte for byte — the randomized harness in
    ``tests/test_properties.py`` pins the vectorized join against the
    scalar one, and ``tests/test_kernel.py`` the scalar one against the
    brute-force oracle.
    """
    np = active_numpy()
    if np is not None and (
        sum(len(lst) for lst in candidate_lists) >= _VECTOR_MIN_CANDIDATES
    ):
        yield from _join_vectorized(
            np, pattern, arrays, candidate_lists,
            max_span, limit, start_index, min_last_index,
        )
    else:
        yield from _join_buffers(
            pattern, arrays, candidate_lists,
            max_span, limit, start_index, min_last_index,
        )


#: Below this many total candidate edges the batch gather of
#: :func:`_join_vectorized` costs more than it saves and the scalar
#: buffer join runs instead (tiny pattern-vs-pattern containment tests
#: stay on the cheap path).  Byte identity is unaffected — only speed.
_VECTOR_MIN_CANDIDATES = 64

#: Scan windows shorter than this are walked scalar even inside the
#: vectorized join: a boolean mask + ``flatnonzero`` carries a fixed
#: numpy dispatch cost that only pays off once enough candidates are
#: rejected per C-speed pass.
_VECTOR_MIN_WINDOW = 24


def _join_vectorized(
    np,
    pattern: TemporalPattern,
    arrays: tuple[int, Sequence[int], Sequence[int], Sequence[int]],
    candidate_lists: list[Sequence[int]],
    max_span: int | None,
    limit: int | None,
    start_index: int,
    min_last_index: int,
) -> Iterator[Match]:
    """Batched temporal index join over gathered candidate columns.

    Per pattern edge the candidate ids are gathered *once* into dense
    ``(id, src, dst, time)`` columns by fancy-indexing the zero-copy
    numpy views of the edge buffers — the join then never touches the
    full columns again.  Each gathered column is kept in two forms:

    * an int64 ndarray, so a recursion level with a bound endpoint can
      reject a large scan window with one boolean mask +
      ``flatnonzero`` instead of a per-candidate Python loop;
    * a plain-list twin (one ``.tolist()`` at gather time), so frontier
      and span-cap resolution stay cheap ``bisect`` calls, small
      windows are walked scalar without numpy dispatch overhead, and
      every value entering ``assignment``/:class:`Match` is already a
      Python int (no numpy scalars leak out).

    Candidates are always visited in ascending id order, so the
    enumeration — and hence byte identity with :func:`_join_buffers` —
    is preserved; only the rejection mechanics differ.
    """
    base, e_src, e_dst, e_time = arrays
    src_col = as_ndarray(e_src)
    dst_col = as_ndarray(e_dst)
    time_col = as_ndarray(e_time)
    p_edges = pattern.edges
    m = pattern.num_edges
    last_pos = m - 1
    last_floor = min_last_index - 1
    flatnonzero = np.flatnonzero

    # Gather each pattern edge's candidate columns once.  Candidate ids
    # below ``base`` were compacted away by a streaming source — they
    # are kept as a count so a frontier landing in the dead prefix
    # raises exactly like the scalar paths, but never gathered.
    dead_counts: list[int] = []
    src_np: list = []
    dst_np: list = []
    id_lists: list[list[int]] = []
    src_lists: list[list[int]] = []
    dst_lists: list[list[int]] = []
    time_lists: list[list[int]] = []
    for lst in candidate_lists:
        ids = np.asarray(lst, dtype=np.int64)
        dead = int(np.searchsorted(ids, base, side="left")) if base else 0
        live = ids[dead:]
        offsets = live - base
        srcs = src_col[offsets]
        dsts = dst_col[offsets]
        times = time_col[offsets]
        dead_counts.append(dead)
        src_np.append(srcs)
        dst_np.append(dsts)
        id_lists.append(live.tolist())
        src_lists.append(srcs.tolist())
        dst_lists.append(dsts.tolist())
        time_lists.append(times.tolist())

    assignment: dict[int, int] = {}
    used: set[int] = set()
    chosen: list[int] = []
    emitted = 0

    def join(edge_pos: int, frontier: int, start_time: int) -> Iterator[Match]:
        nonlocal emitted
        if edge_pos == m:
            nodes = tuple(assignment[i] for i in range(pattern.num_nodes))
            yield Match(nodes, tuple(chosen))
            emitted += 1
            return
        pu, pv = p_edges[edge_pos]
        cands = candidate_lists[edge_pos]
        if edge_pos == last_pos and frontier < last_floor:
            frontier = last_floor
        lo_full = bisect_right(cands, frontier)
        dead = dead_counts[edge_pos]
        if lo_full < dead:
            # mirrors the streaming edge view's defense: a candidate
            # below the compaction base means the caller's frontier
            # was wrong, never silently read a recycled slot
            raise IndexError(f"edge {cands[lo_full]} was compacted away")
        lo = lo_full - dead
        times = time_lists[edge_pos]
        n = len(times)
        if lo >= n:
            return
        if max_span is not None and edge_pos > 0:
            hi = bisect_right(times, start_time + max_span, lo)
            if hi <= lo:
                return
        else:
            hi = n
        ids_l = id_lists[edge_pos]
        srcs_l = src_lists[edge_pos]
        dsts_l = dst_lists[edge_pos]
        bind_u = pu not in assignment
        bind_v = pv not in assignment
        if (bind_u and bind_v) or hi - lo < _VECTOR_MIN_WINDOW:
            # Scalar walk of the gathered lists: every candidate of a
            # doubly-unbound edge recurses anyway (nothing to mask),
            # and short windows don't amortize a mask.  Twin of the
            # :func:`_join_buffers` loop body.
            for pos in range(lo, hi):
                du = srcs_l[pos]
                dv = dsts_l[pos]
                if not bind_u and assignment[pu] != du:
                    continue
                if not bind_v and assignment[pv] != dv:
                    continue
                if bind_u and du in used:
                    continue
                if bind_v and (dv in used or (bind_u and du == dv)):
                    continue
                if bind_u:
                    assignment[pu] = du
                    used.add(du)
                if bind_v:
                    assignment[pv] = dv
                    used.add(dv)
                idx = ids_l[pos]
                chosen.append(idx)
                first_time = times[pos] if edge_pos == 0 else start_time
                yield from join(edge_pos + 1, idx, first_time)
                chosen.pop()
                if bind_u:
                    del assignment[pu]
                    used.discard(du)
                if bind_v:
                    del assignment[pv]
                    used.discard(dv)
                if limit is not None and emitted >= limit:
                    return
        elif not bind_u and not bind_v:
            srcs = src_np[edge_pos]
            dsts = dst_np[edge_pos]
            mask = (srcs[lo:hi] == assignment[pu]) & (dsts[lo:hi] == assignment[pv])
            for k in flatnonzero(mask).tolist():
                pos = lo + k
                idx = ids_l[pos]
                chosen.append(idx)
                first_time = times[pos] if edge_pos == 0 else start_time
                yield from join(edge_pos + 1, idx, first_time)
                chosen.pop()
                if limit is not None and emitted >= limit:
                    return
        elif not bind_u:
            mask = src_np[edge_pos][lo:hi] == assignment[pu]
            for k in flatnonzero(mask).tolist():
                pos = lo + k
                dv = dsts_l[pos]
                if dv in used:
                    continue
                assignment[pv] = dv
                used.add(dv)
                idx = ids_l[pos]
                chosen.append(idx)
                first_time = times[pos] if edge_pos == 0 else start_time
                yield from join(edge_pos + 1, idx, first_time)
                chosen.pop()
                del assignment[pv]
                used.discard(dv)
                if limit is not None and emitted >= limit:
                    return
        else:
            mask = dst_np[edge_pos][lo:hi] == assignment[pv]
            for k in flatnonzero(mask).tolist():
                pos = lo + k
                du = srcs_l[pos]
                if du in used:
                    continue
                assignment[pu] = du
                used.add(du)
                idx = ids_l[pos]
                chosen.append(idx)
                first_time = times[pos] if edge_pos == 0 else start_time
                yield from join(edge_pos + 1, idx, first_time)
                chosen.pop()
                del assignment[pu]
                used.discard(du)
                if limit is not None and emitted >= limit:
                    return

    try:
        yield from join(0, start_index - 1, 0)
    finally:
        # join reaches itself through its closure cell: unbind it when the
        # generator finishes or is closed early (``limit``, ``next()``)
        del join


def _join_buffers(
    pattern: TemporalPattern,
    arrays: tuple[int, Sequence[int], Sequence[int], Sequence[int]],
    candidate_lists: list[Sequence[int]],
    max_span: int | None,
    limit: int | None,
    start_index: int,
    min_last_index: int,
) -> Iterator[Match]:
    """Scalar temporal index join over the flat columns (stdlib fallback).

    Each level bisects its candidate list to the frontier and walks it in
    ascending id order, reading three buffer slots per candidate — the
    same order :func:`repro.core.brute.enumerate_matches` visits edges in,
    so the two enumerate identical match sequences.
    """
    base, e_src, e_dst, e_time = arrays
    p_edges = pattern.edges
    m = pattern.num_edges
    last_pos = m - 1
    last_floor = min_last_index - 1

    assignment: dict[int, int] = {}
    used: set[int] = set()
    chosen: list[int] = []
    emitted = 0

    def join(edge_pos: int, frontier: int, start_time: int) -> Iterator[Match]:
        nonlocal emitted
        if edge_pos == m:
            nodes = tuple(assignment[i] for i in range(pattern.num_nodes))
            yield Match(nodes, tuple(chosen))
            emitted += 1
            return
        pu, pv = p_edges[edge_pos]
        cands = candidate_lists[edge_pos]
        if edge_pos == last_pos and frontier < last_floor:
            frontier = last_floor
        lo = bisect_right(cands, frontier)
        for pos in range(lo, len(cands)):
            idx = cands[pos]
            offset = idx - base
            if offset < 0:
                # mirrors the streaming edge view's defense: a candidate
                # below the compaction base means the caller's frontier
                # was wrong, never silently read a recycled slot
                raise IndexError(f"edge {idx} was compacted away")
            t = e_time[offset]
            if max_span is not None and edge_pos > 0:
                if t - start_time > max_span:
                    break
            du = e_src[offset]
            dv = e_dst[offset]
            bind_u = pu not in assignment
            bind_v = pv not in assignment
            if not bind_u and assignment[pu] != du:
                continue
            if not bind_v and assignment[pv] != dv:
                continue
            if bind_u and du in used:
                continue
            if bind_v and (dv in used or (bind_u and du == dv)):
                continue
            if bind_u:
                assignment[pu] = du
                used.add(du)
            if bind_v:
                assignment[pv] = dv
                used.add(dv)
            chosen.append(idx)
            first_time = t if edge_pos == 0 else start_time
            yield from join(edge_pos + 1, idx, first_time)
            chosen.pop()
            if bind_u:
                del assignment[pu]
                used.discard(du)
            if bind_v:
                del assignment[pv]
                used.discard(dv)
            if limit is not None and emitted >= limit:
                return

    try:
        yield from join(0, start_index - 1, 0)
    finally:
        # join reaches itself through its closure cell: unbind it when the
        # generator finishes or is closed early (``limit``, ``next()``)
        del join


#: Candidate lists at least this long are read through a per-call
#: endpoint index (data node -> its candidate ids) at join levels with a
#: bound endpoint; shorter lists are scanned directly.  Only speed
#: depends on it.
_INDEX_MIN_CANDIDATES = 48


def find_spans(
    pattern: TemporalPattern,
    graph: "TemporalGraph | EdgeIndexedSource",
    max_span: int | None = None,
    start_index: int = 0,
    min_last_index: int = 0,
) -> set[Span]:
    """Distinct spans of the matches of ``pattern``, without enumerating them.

    Returns exactly ``{match_span(m, graph) for m in find_matches(pattern,
    graph, max_span, start_index=start_index,
    min_last_index=min_last_index)}``.  The paper judges an identified
    instance by its time span (Section 6.2), and a dense log holds many
    matches per span, so every span consumer calls this instead.

    It walks :func:`find_matches`' join — same candidate lists, span cap,
    injectivity, ``start_index`` and ``min_last_index`` rules — from one
    end of the pattern, the *anchor*, and records, per anchor, only which
    candidates of the other end (the *witness* edge) a full match
    reaches.  Before a level recurses on a candidate it looks for a
    witness the rest of the level could still reach: one beyond the
    candidate in walk order, inside the span cap and the id floors,
    agreeing with the bound nodes, none of its unbound endpoints already
    used, and not recorded yet.  With no witness the level stops: every
    span it could add is known.  A level with no witness beyond its
    frontier returns before scanning.

    **Which end anchors.**  Forward, the anchor is the first edge and
    levels ``1 … m-1`` match at strictly rising ids.  Backward, the
    anchor is the last edge (id ``>= max(start_index, min_last_index)``),
    every id must lie at or above a floor (the first id whose time is
    ``>= t_last - max_span``, and ``>= start_index``), and levels
    ``m-2 … 0`` match at strictly falling ids, each scanned downward.
    Per call the start is chosen from two bisects
    (:func:`_starts_backward`): a pattern of two or more edges starts
    backward when fewer last-edge candidates lie in range than first-edge
    ones, otherwise — ties and single edges included — forward.  A
    streaming delta search pins the last edge into a small batch, so it
    mostly starts backward; a batch search over a whole log starts at
    the end whose label pair is rarer.

    **Exactness.**  The witness check is a necessary condition for the
    recursion to add a span, and it is monotone within a level: the
    bound nodes and the used set are fixed there, the level's candidate
    ids only move toward the witness end (they rise forward and fall
    backward, so the range of reachable witnesses only shrinks), and
    the recorded set only grows.  A witness that fails once fails for
    every later candidate of the level, so the witness pointer never
    moves back and stopping at the first candidate without one loses
    nothing.  No result of one partial match is reused for another.

    Long candidate lists are read through an endpoint index, built
    lazily, at most once per list and endpoint per call, over ids
    ``>= start_index`` only, so per-call set-up scales with what the join
    visits, not with the window.  ``graph`` must offer ``edge_arrays()``;
    the columns are read in place.
    """
    return _span_join(pattern, graph, max_span, start_index, min_last_index, None)


def _starts_backward(
    candidate_lists: list[Sequence[int]], start_index: int, min_last_index: int
) -> bool:
    """Whether the span join anchors at the pattern's last edge.

    True when the pattern has two or more edges and fewer last-edge
    candidates have id ``>= max(start_index, min_last_index)`` than
    first-edge candidates have id ``>= start_index``.
    """
    if len(candidate_lists) < 2:
        return False
    first = candidate_lists[0]
    last = candidate_lists[-1]
    n_first = len(first) - bisect_left(first, start_index)
    n_last = len(last) - bisect_left(last, max(start_index, min_last_index))
    return n_last < n_first


def _span_join(
    pattern: TemporalPattern,
    graph: "TemporalGraph | EdgeIndexedSource",
    max_span: int | None,
    start_index: int,
    min_last_index: int,
    backward: bool | None,
) -> set[Span]:
    """:func:`find_spans` anchored forward (``backward=False``), backward
    (``True``) or at the end :func:`_starts_backward` picks (``None``).

    Both directions share the set-up (candidate lists, the compaction
    check, endpoint-index routing, the level table) and the teardown;
    only the recursive walk and its anchor loop are written per
    direction.
    """
    if not getattr(graph, "frozen", True):
        graph.freeze()
    spans: set[Span] = set()
    m = pattern.num_edges
    if m > graph.num_edges:
        return spans
    p_edges = pattern.edges
    p_labels = pattern.labels
    candidate_lists = []
    for u, v in p_edges:
        lst = graph.edges_between(p_labels[u], p_labels[v])
        if not lst or lst[-1] < start_index:
            return spans
        candidate_lists.append(lst)
    if candidate_lists[-1][-1] < min_last_index:
        return spans
    base, e_src, e_dst, e_time = graph.edge_arrays()
    if start_index < base:
        for lst in candidate_lists:
            lo = bisect_left(lst, start_index)
            if lo < len(lst) and lst[lo] < base:
                # a candidate below the compaction base means the caller's
                # start was wrong: never silently read a recycled slot
                raise IndexError(f"edge {lst[lo]} was compacted away")
    if backward is None:
        backward = _starts_backward(candidate_lists, start_index, min_last_index)

    last = m - 1
    # the walk ends at the witness edge: the first one going backward
    order = range(last, -1, -1) if backward else range(m)
    w_pos = 0 if backward else last
    wu, wv = p_edges[w_pos]
    w_list = candidate_lists[w_pos]

    # Long lists are read through an endpoint index at levels that have
    # a bound endpoint: one lazily built index per (list, keying column).
    indexes: dict[tuple[int, bool], dict[int, list[int]]] = {}

    def route(lst: Sequence[int], u: int, v: int, u_bound: bool, v_bound: bool):
        """``(lst, index key, keying pattern node)``; key ``None`` scans ``lst``."""
        if len(lst) < _INDEX_MIN_CANDIDATES or not (u_bound or v_bound):
            return lst, None, -1
        return lst, (id(lst), u_bound), u if u_bound else v

    def candidates(lst: Sequence[int], key, node: int) -> Sequence[int]:
        if key is None:
            return lst
        index = indexes.get(key)
        if index is None:
            index = indexes[key] = {}
            column = e_src if key[1] else e_dst
            for idx in islice(lst, bisect_left(lst, start_index), None):
                node_id = column[idx - base]
                bucket = index.get(node_id)
                if bucket is None:
                    index[node_id] = [idx]
                else:
                    bucket.append(idx)
        return index.get(assignment[node], ())

    # Which pattern nodes a level finds bound does not depend on the data:
    # exactly the nodes of the edges the walk matched before it.
    levels: list = [None] * m
    nodes: set[int] = set()
    for k in order:
        u, v = p_edges[k]
        u_bound, v_bound = u in nodes, v in nodes
        wu_bound, wv_bound = wu in nodes, wv in nodes
        scan = route(candidate_lists[k], u, v, u_bound, v_bound)
        witness = route(w_list, wu, wv, wu_bound, wv_bound)
        levels[k] = (u, v, u_bound, v_bound, scan, wu_bound, wv_bound, witness)
        nodes.update((u, v))

    assignment = [0] * pattern.num_nodes
    used: set[int] = set()
    recorded: set[int] = set()

    if backward:
        # anchored at the last edge: levels m-2 … 0 at falling ids in
        # [floor, frontier); the first-edge witnesses fix each span's start.
        # Without a span cap the floor stays at start_index.
        t_end = 0
        floor = start_index

        def join(k: int, frontier: int) -> None:
            pu, pv, u_bound, v_bound, scan, wu_bound, wv_bound, witness = levels[k]
            if k:
                witnesses = candidates(*witness)
                w_lo = bisect_left(witnesses, floor)
                w = bisect_left(witnesses, frontier, w_lo)
                if w <= w_lo:
                    return
            au = assignment[pu]
            av = assignment[pv]
            cands = candidates(*scan)
            lo = bisect_left(cands, floor)
            hi = bisect_left(cands, frontier, lo)
            if not k:
                for pos in range(lo, hi):
                    idx = cands[pos]
                    if idx in recorded:
                        continue
                    off = idx - base
                    du = e_src[off]
                    dv = e_dst[off]
                    if du != au if u_bound else du in used:
                        continue
                    if dv != av if v_bound else dv in used or du == dv:
                        continue
                    recorded.add(idx)
                    spans.add((e_time[off], t_end))
                return
            for pos in range(hi - 1, lo - 1, -1):
                idx = cands[pos]
                off = idx - base
                du = e_src[off]
                dv = e_dst[off]
                if du != au if u_bound else du in used:
                    continue
                if dv != av if v_bound else dv in used or du == dv:
                    continue
                # stop the level unless a witness is left below this candidate
                w = bisect_left(witnesses, idx, w_lo, w)
                while w > w_lo:
                    x = witnesses[w - 1]
                    if x not in recorded:
                        x_off = x - base
                        xs = e_src[x_off]
                        xd = e_dst[x_off]
                        if (xs == assignment[wu] if wu_bound else xs not in used) and (
                            xd == assignment[wv]
                            if wv_bound
                            else xd not in used and xs != xd
                        ):
                            break
                    w -= 1
                else:
                    return
                if not u_bound:
                    assignment[pu] = du
                    used.add(du)
                if not v_bound:
                    assignment[pv] = dv
                    used.add(dv)
                join(k - 1, idx)
                if not u_bound:
                    used.discard(du)
                if not v_bound:
                    used.discard(dv)

        anchors = candidate_lists[last]
        pu0, pv0 = p_edges[last]
        # ids below max(start_index, base) are never read; the floor's
        # time bisect starts there
        t_lo = max(start_index - base, 0)
        for idx in islice(
            anchors, bisect_left(anchors, max(start_index, min_last_index)), None
        ):
            off = idx - base
            du = e_src[off]
            dv = e_dst[off]
            if du == dv:
                continue
            t_end = e_time[off]
            if m == 1:
                spans.add((t_end, t_end))
                continue
            if max_span is not None:
                floor = base + bisect_left(e_time, t_end - max_span, t_lo, off)
            assignment[pu0] = du
            assignment[pv0] = dv
            used = {du, dv}
            if recorded:
                recorded = set()
            join(last - 1, idx)
    else:
        # anchored at the first edge: levels 1 … m-1 at rising ids in
        # (frontier, cap]; the last-edge witnesses fix each span's end
        last_floor = min_last_index - 1
        t0 = cap = 0

        def join(k: int, frontier: int) -> None:
            pu, pv, u_bound, v_bound, scan, wu_bound, wv_bound, witness = levels[k]
            if k < last:
                witnesses = candidates(*witness)
                w_end = bisect_right(witnesses, cap)
                w = bisect_right(witnesses, max(frontier, last_floor))
                if w >= w_end:
                    return
            else:
                frontier = max(frontier, last_floor)
            au = assignment[pu]
            av = assignment[pv]
            cands = candidates(*scan)
            lo = bisect_right(cands, frontier)
            hi = bisect_right(cands, cap, lo)
            if k == last:
                for pos in range(lo, hi):
                    idx = cands[pos]
                    if idx in recorded:
                        continue
                    off = idx - base
                    du = e_src[off]
                    dv = e_dst[off]
                    if du != au if u_bound else du in used:
                        continue
                    if dv != av if v_bound else dv in used or du == dv:
                        continue
                    recorded.add(idx)
                    spans.add((t0, e_time[off]))
                return
            for pos in range(lo, hi):
                idx = cands[pos]
                off = idx - base
                du = e_src[off]
                dv = e_dst[off]
                if du != au if u_bound else du in used:
                    continue
                if dv != av if v_bound else dv in used or du == dv:
                    continue
                # stop the level unless a witness is left past this candidate
                w = bisect_right(witnesses, max(idx, last_floor), w)
                while w < w_end:
                    x = witnesses[w]
                    if x not in recorded:
                        x_off = x - base
                        xs = e_src[x_off]
                        xd = e_dst[x_off]
                        if (xs == assignment[wu] if wu_bound else xs not in used) and (
                            xd == assignment[wv]
                            if wv_bound
                            else xd not in used and xs != xd
                        ):
                            break
                    w += 1
                else:
                    return
                if not u_bound:
                    assignment[pu] = du
                    used.add(du)
                if not v_bound:
                    assignment[pv] = dv
                    used.add(dv)
                join(k + 1, idx)
                if not u_bound:
                    used.discard(du)
                if not v_bound:
                    used.discard(dv)

        anchors = candidate_lists[0]
        pu0, pv0 = p_edges[0]
        anchor_floor = start_index - 1 if m > 1 else max(start_index - 1, last_floor)
        end_cap = base + len(e_time) - 1
        for idx in islice(anchors, bisect_right(anchors, anchor_floor), None):
            off = idx - base
            du = e_src[off]
            dv = e_dst[off]
            if du == dv:
                continue
            t0 = e_time[off]
            if m == 1:
                spans.add((t0, t0))
                continue
            if max_span is not None:
                cap = base + bisect_right(e_time, t0 + max_span, off) - 1
                if cap < min_last_index:
                    continue
            else:
                cap = end_cap
            assignment[pu0] = du
            assignment[pv0] = dv
            used = {du, dv}
            if recorded:
                recorded = set()
            join(1, idx)
    # join reaches itself through its closure cell; unbinding it breaks
    # the only reference cycle here, so the closures, their cells and the
    # sets they hold are freed on return instead of by the cyclic collector
    del join
    return spans


def match_span(match: Match, graph: "TemporalGraph | EdgeIndexedSource") -> Span:
    """Return ``(start_time, end_time)`` of a match in ``graph``.

    Reads the time column of ``graph.edge_arrays()``, so it works for
    frozen graphs and live windows alike.
    """
    base, _src, _dst, times = graph.edge_arrays()
    return (times[match.edge_indexes[0] - base], times[match.edge_indexes[-1] - base])


class GraphIndexTester:
    """Pattern-vs-pattern tester used by the ``PruneGI`` miner variant.

    Every test materializes the *big* pattern as a temporal graph and
    freezes it, which (re)builds its one-edge index — reproducing the
    per-discovered-pattern index-construction overhead the paper blames
    for ``PruneGI``'s slowdown.
    """

    def contains(self, small: TemporalPattern, big: TemporalPattern) -> bool:
        """Return whether ``small ⊆t big``."""
        return self.mapping(small, big) is not None

    def mapping(
        self, small: TemporalPattern, big: TemporalPattern
    ) -> tuple[int, ...] | None:
        """Return a witness node mapping for ``small ⊆t big`` or ``None``."""
        if small.num_edges > big.num_edges or small.num_nodes > big.num_nodes:
            return None
        big_graph = big.as_temporal_graph()
        match = next(find_matches(small, big_graph, limit=1), None)
        if match is None:
            return None
        return match.nodes


# ----------------------------------------------------------------------
# candidate-pruning prefilter
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Signature:
    """Label summary of a pattern or graph used for containment pretests.

    ``node_labels`` counts nodes per label; ``edge_labels`` counts edges
    per ``(src_label, dst_label)`` pair.  Both are plain dicts — the
    signature is built once per object and only read afterwards.  The
    serving registry checks query signatures against the live window's
    (:meth:`~repro.serving.streaming.StreamingGraph.signature`); the
    miner compares patterns as exact bitmasks instead
    (:meth:`CandidateFilter.pattern_mask`).
    """

    node_labels: dict[str, int]
    edge_labels: dict[tuple[str, str], int]


def pattern_signature(pattern: TemporalPattern) -> Signature:
    """Compute the label signature of a pattern."""
    labels = pattern.labels
    edge_pairs = Counter((labels[u], labels[v]) for u, v in pattern.edges)
    return Signature(dict(Counter(labels)), dict(edge_pairs))


def graph_signature(graph: TemporalGraph) -> Signature:
    """Compute the label signature of a (frozen) temporal graph.

    Reads the per-label-pair edge index built at freeze time, so the cost
    is proportional to the number of distinct labels and label pairs, not
    the number of edges.  The test oracle for the live window's online
    signature.
    """
    if not graph.frozen:
        graph.freeze()
    node_labels = dict(Counter(graph.labels))
    edge_labels = {
        pair: len(idxs) for pair, idxs in graph.label_pair_index().items()
    }
    return Signature(node_labels, edge_labels)


def signature_contains(big: Signature, small: Signature) -> bool:
    """Whether ``big``'s signature can cover ``small``'s (multiset-wise).

    A necessary condition for ``small ⊆t big`` (and for any injective
    label-preserving node mapping): each node label and each edge label
    pair must occur in ``big`` at least as often as in ``small``.  The
    test oracle for :meth:`CandidateFilter.pattern_mask`.
    """
    big_nodes = big.node_labels
    for label, need in small.node_labels.items():
        if big_nodes.get(label, 0) < need:
            return False
    big_edges = big.edge_labels
    for pair, need in small.edge_labels.items():
        if big_edges.get(pair, 0) < need:
            return False
    return True


class CandidateFilter:
    """The miner's per-run mask bit positions and label indexes.

    One filter lives per mining run (``MinerConfig.index_prefilter``);
    it owns the bit positions of pattern masks plus cached per-pattern
    label→nodes indexes used to seed VF2 candidate lists.  Masks
    themselves are not cached: the miner asks for each reached
    pattern's mask once and keeps it on the pattern's history entry.

    **Pattern masks.**  :meth:`pattern_mask` encodes a pattern's
    signature as one int: bit ``(label, k)`` is set for every ``k`` up
    to the label's node count, bit ``(pair, k)`` likewise for every edge
    label pair.  Each ``(key, k)`` gets its own bit position, assigned
    on first sight, so ``small``'s multisets fit in ``big``'s exactly
    when ``small_mask & ~big_mask == 0`` — the verdict of
    :func:`signature_contains`, not an approximation (Python ints are
    unbounded) and independent of the order bits were assigned in.  The
    miner runs that test inline on the masks it keeps in its pruning
    history.
    """

    def __init__(self) -> None:
        self._label_nodes: dict[TemporalPattern, dict[str, list[int]]] = {}
        # (label or label pair, k) -> its bit; positions in first-sight order
        self._bits: dict[tuple[object, int], int] = {}

    def label_nodes(self, pattern: TemporalPattern) -> dict[str, list[int]]:
        """Cached label → node-id index of a pattern (VF2 candidate seed)."""
        index = self._label_nodes.get(pattern)
        if index is None:
            index = {}
            for node, label in enumerate(pattern.labels):
                index.setdefault(label, []).append(node)
            self._label_nodes[pattern] = index
        return index

    def pattern_mask(self, pattern: TemporalPattern) -> int:
        """Exact bitmask of a pattern's label signature."""
        labels = pattern.labels
        bits = self._bits
        seen: dict[object, int] = {}
        mask = 0
        for key in (*labels, *[(labels[u], labels[v]) for u, v in pattern.edges]):
            k = seen[key] = seen.get(key, 0) + 1
            bit = bits.get((key, k))
            if bit is None:
                bit = bits[(key, k)] = 1 << len(bits)
            mask |= bit
        return mask
