"""Match-join micro-ablation: vectorized numpy join vs scalar column join.

The temporal index join (:func:`repro.core.graph_index.find_matches`)
has two forms over the same flat edge columns, one per buffer backend
(:mod:`repro.core.buffers`): the vectorized join (numpy backend) rejects
candidate windows with batched equality masks, the scalar join
(``array`` backend, the stdlib fallback) walks them one candidate at a
time.  This benchmark claims two things:

1. **byte-identity** — both forms enumerate exactly the same match
   sequence on this workload (``identical``);
2. **speed** — on the numpy backend the vectorized join beats the
   scalar one by at least ``BENCH_MIN_MATCH_SPEEDUP`` (default 1.5x,
   ``match_speedup``).

The workload is a busy-host test log (the regime the query engine and
the streaming service operate in): a match sweep runs ``find_matches``
for a battery of behavior-query skeletons over the log's coarse-label
query view (see ``_QUERY_BATTERY``), best-of-``BENCH_KERNEL_REPEATS``
per form.  The ratio lands in ``BENCH_kernel.json`` and is trend-gated
by ``check_regression.py``.

The micro-ablation needs a log large enough for the mask savings to be
the signal rather than noise, so the log size has a floor of
``KERNEL_MIN_INSTANCES`` behavior instances even at smoke scale.
"""

import os
import time
from contextlib import contextmanager

from repro.core import buffers
from repro.core.buffers import backend_name
from repro.core.graph import TemporalGraph
from repro.core.graph_index import find_matches
from repro.core.pattern import TemporalPattern
from repro.syscall import build_test_data

from benchmarks.bench_common import TEST_INSTANCES, emit, once, write_json

#: Best-of-N timing repeats per join form.
REPEATS = int(os.environ.get("BENCH_KERNEL_REPEATS", 3))
#: Match-sweep floor for the vectorized join (0 disables).  Only
#: enforced on the numpy backend — without numpy both forms are the
#: scalar join, pinned by identity alone.
MIN_MATCH_SPEEDUP = float(os.environ.get("BENCH_MIN_MATCH_SPEEDUP", 1.5))
#: Smallest meaningful ablation input (see module docstring).
KERNEL_MIN_INSTANCES = int(os.environ.get("BENCH_KERNEL_MIN_INSTANCES", 12))

MATCH_SPAN = 480
#: Per-search match cap of the sweep (the enumeration stays bounded on
#: the densest skeletons; both forms stop at the same match).
MATCH_LIMIT = 200_000

#: Behavior-query skeletons for the match sweep, written over the coarse
#: entity categories of the syscall log (``proc``/``file``/``sock``).
#: Generic-category queries are the regime the vectorized join targets:
#: each label pair indexes hundreds of candidate edges spread over many
#: distinct node pairs, so a bound endpoint rejects most of a scan
#: window — exactly what the batched equality masks buy over a scalar
#: walk.  On the fine-labeled log a label like ``proc:rsyslog`` names
#: a single node and masks reject nothing.
_QUERY_BATTERY = [
    # proc spawns proc which touches a file (dropper chain)
    TemporalPattern(["proc", "proc", "file"], [(0, 1), (1, 2)]),
    # inbound socket drives a proc writing two files
    TemporalPattern(["sock", "proc", "file", "file"], [(0, 1), (1, 2), (1, 3)]),
    # one proc fans out over three files
    TemporalPattern(["proc", "file", "file", "file"], [(0, 1), (0, 2), (0, 3)]),
    # proc pair converging on one file (inward close)
    TemporalPattern(["proc", "proc", "file"], [(0, 1), (0, 2), (1, 2)]),
    # socket -> proc -> proc -> file exfil chain
    TemporalPattern(["sock", "proc", "proc", "file"], [(0, 1), (1, 2), (2, 3)]),
    # repeated proc-to-proc interaction
    TemporalPattern(["proc", "proc"], [(0, 1)] * 3),
    # two procs writing the same file (backward bind)
    TemporalPattern(["proc", "file", "proc"], [(0, 1), (2, 1)]),
]


def _coarse_view(graph):
    """The query view of a test log: node labels cut to entity category.

    Mirrors how behavior queries are phrased — over generic entity
    classes, not the instance-specific labels mining runs on.
    """
    view = TemporalGraph(name=f"{graph.name}:coarse")
    for node in range(graph.num_nodes):
        view.add_node(graph.label(node).split(":", 1)[0])
    for edge in graph.edges:
        view.add_edge(edge.src, edge.dst, edge.time)
    view.freeze()
    return view


@contextmanager
def _backend(name):
    """Run the block on buffer backend ``name``, then restore the override."""
    previous = buffers._FORCED
    buffers.force_backend(name)
    try:
        yield
    finally:
        buffers.force_backend(previous)


def _matches(patterns, graph, backend):
    """Every capped match sequence of the sweep, joined on ``backend``."""
    with _backend(backend):
        return [
            list(find_matches(pattern, graph, max_span=MATCH_SPAN, limit=MATCH_LIMIT))
            for pattern in patterns
        ]


def _match_sweep(patterns, graph, backend):
    """Capped searches for every pattern on ``backend``; the match count."""
    total = 0
    with _backend(backend):
        for pattern in patterns:
            for _ in find_matches(
                pattern, graph, max_span=MATCH_SPAN, limit=MATCH_LIMIT
            ):
                total += 1
    return total


def _timed_sweeps(patterns, graph, backends):
    """Best-of-``REPEATS`` sweep time and match count per backend.

    The backends alternate within each repeat, so a host whose speed
    drifts during the run skews both timings alike.
    """
    best = [float("inf")] * len(backends)
    counts = [0] * len(backends)
    for _ in range(max(1, REPEATS)):
        for i, backend in enumerate(backends):
            started = time.perf_counter()
            counts[i] = _match_sweep(patterns, graph, backend)
            best[i] = min(best[i], time.perf_counter() - started)
    return best, counts


def test_vectorized_join_ablation(benchmark):
    instances = max(TEST_INSTANCES, KERNEL_MIN_INSTANCES)
    test = build_test_data(instances=instances)
    graph = test.graph
    graph.freeze()
    query_view = _coarse_view(graph)
    patterns = _QUERY_BATTERY
    # the auto backend: numpy when installed, else the scalar join again
    vector = backend_name()

    def run():
        # identity first: both join forms must enumerate the same match
        # sequences on this exact workload
        identical = _matches(patterns, query_view, "array") == _matches(
            patterns, query_view, vector
        )
        (match_scalar, match_vector), (count_scalar, count_vector) = _timed_sweeps(
            patterns, query_view, ("array", vector)
        )
        return {
            "identical": identical and count_scalar == count_vector,
            "match_scalar": match_scalar,
            "match_vector": match_vector,
            "matches": count_vector,
        }

    rows = once(benchmark, run)
    match_speedup = rows["match_scalar"] / max(rows["match_vector"], 1e-9)

    emit("\n=== Match-join micro-ablation: scalar column join vs vectorized ===")
    emit(
        f"workload: {graph.num_edges} edges, {len(patterns)} query skeletons "
        f"(span cap {MATCH_SPAN}, coarse query view), {rows['matches']} "
        f"matches, best of {REPEATS}"
    )
    emit(f"{'stage':8s} {'scalar':>9s} {'vector':>9s} {'speedup':>8s}")
    emit(
        f"{'match':8s} {rows['match_scalar']:8.3f}s {rows['match_vector']:8.3f}s "
        f"{match_speedup:7.2f}x"
    )
    emit(f"vector backend: {vector}")

    # the match ratio is only a vectorization claim when numpy is the
    # active backend; the regression gate reads this guard (same pattern
    # as BENCH_parallel's speedup_enforced on core-starved hosts)
    match_enforced = vector == "numpy" and MIN_MATCH_SPEEDUP > 0
    write_json(
        "BENCH_kernel.json",
        {
            "edges": graph.num_edges,
            "instances": instances,
            "repeats": REPEATS,
            "matches": rows["matches"],
            "match_scalar_seconds": rows["match_scalar"],
            "match_vector_seconds": rows["match_vector"],
            "match_speedup": match_speedup,
            "identical": rows["identical"],
            "vector_backend": vector,
            "match_speedup_enforced": match_enforced,
            "min_match_speedup_required": MIN_MATCH_SPEEDUP,
        },
    )
    assert rows["identical"], "vectorized join diverged from the scalar join"
    if match_enforced:
        assert match_speedup >= MIN_MATCH_SPEEDUP, (
            f"vectorized match join only {match_speedup:.2f}x over the scalar "
            f"join (floor {MIN_MATCH_SPEEDUP}x, backend {vector})"
        )
