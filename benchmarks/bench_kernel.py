"""Kernel micro-ablation: legacy object path vs interned-label CSR kernel.

The data-plane refactor (:mod:`repro.core.kernel`) claims two things:

1. **byte-identity** — embedding extension and the temporal index join
   produce exactly the same tables / match sequences on both paths;
2. **speed** — on data-scale graphs the kernel path wins by at least
   ``BENCH_MIN_KERNEL_SPEEDUP`` (default 2x): extension walks only the
   CSR runs incident to an embedding instead of scanning every residual
   edge, and the join reads flat int columns instead of edge objects.

The workload is a busy-host test log (the regime the query engine and
the streaming service actually operate in): a growth sweep extends every
seed pattern's embedding table for ``DEPTH`` generations following the
first ``FAN`` children, and a match sweep runs ``find_matches`` for a
battery of behavior-query skeletons over the log's coarse-label query
view (see ``_QUERY_BATTERY`` — the selective-mask regime the vectorized
join targets, reported separately as ``match_speedup``).  Both modes run
the identical workload best-of-``BENCH_KERNEL_REPEATS``; the combined
ratio lands in ``BENCH_kernel.json`` and is trend-gated by
``check_regression.py``.

The micro-ablation needs a graph large enough for the scan/incident gap
to be the signal rather than noise, so the log size has a floor of
``KERNEL_MIN_INSTANCES`` behavior instances even at smoke scale.
"""

import os
import time

from repro.core.buffers import backend_name
from repro.core.graph import TemporalGraph
from repro.core.graph_index import find_matches
from repro.core.growth import extend_embeddings, seed_patterns
from repro.core.kernel import LabelInterner, build_kernels
from repro.core.pattern import TemporalPattern
from repro.syscall import build_test_data

from benchmarks.bench_common import TEST_INSTANCES, emit, once, write_json

#: Growth-sweep shape: generations per seed / children followed per level.
DEPTH = int(os.environ.get("BENCH_KERNEL_DEPTH", 2))
FAN = int(os.environ.get("BENCH_KERNEL_FAN", 3))
#: Best-of-N timing repeats per mode.
REPEATS = int(os.environ.get("BENCH_KERNEL_REPEATS", 3))
#: Combined-speedup floor the kernel path must clear (0 disables).
MIN_KERNEL_SPEEDUP = float(os.environ.get("BENCH_MIN_KERNEL_SPEEDUP", 2.0))
#: Match-sweep floor for the vectorized join (0 disables).  Only
#: enforced on the numpy backend — the stdlib ``array`` fallback trades
#: match speed for zero dependencies and is pinned by identity alone.
MIN_MATCH_SPEEDUP = float(os.environ.get("BENCH_MIN_MATCH_SPEEDUP", 1.5))
#: Smallest meaningful ablation input (see module docstring).
KERNEL_MIN_INSTANCES = int(os.environ.get("BENCH_KERNEL_MIN_INSTANCES", 12))

MATCH_SPAN = 480
#: Per-search match cap of the sweep (the enumeration stays bounded on
#: the densest skeletons; both modes stop at the same match).
MATCH_LIMIT = 200_000

#: Behavior-query skeletons for the match sweep, written over the coarse
#: entity categories of the syscall log (``proc``/``file``/``sock``).
#: Generic-category queries are the regime the vectorized join targets:
#: each label pair indexes hundreds of candidate edges spread over many
#: distinct node pairs, so a bound endpoint rejects most of a scan
#: window — exactly what the batched equality masks buy over a scalar
#: walk.  The fine-labeled log (where a label like ``proc:rsyslog``
#: names a single node and masks reject nothing) stays the *growth*
#: workload above.
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


def _growth_sweep(corpus, seeds, kernels, use_kernel):
    """Extend every seed table for DEPTH generations; returns a checksum."""
    total = 0
    for key in sorted(seeds):
        frontier = [seeds[key]]
        for _ in range(DEPTH):
            nxt = []
            for table in frontier:
                ext = extend_embeddings(
                    corpus, table, kernels, use_kernel=use_kernel
                )
                total += len(ext)
                for child_key in sorted(ext)[:FAN]:
                    nxt.append(ext[child_key])
            frontier = nxt[:FAN]
    return total


def _match_sweep(patterns, graph, use_kernel):
    """Capped searches for every pattern; returns the match count."""
    total = 0
    for pattern in patterns:
        for _ in find_matches(
            pattern,
            graph,
            max_span=MATCH_SPAN,
            limit=MATCH_LIMIT,
            use_kernel=use_kernel,
        ):
            total += 1
    return total


def _best_of(fn, *args):
    best = float("inf")
    result = None
    for _ in range(max(1, REPEATS)):
        started = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - started)
    return best, result


def test_kernel_vs_legacy_ablation(benchmark):
    instances = max(TEST_INSTANCES, KERNEL_MIN_INSTANCES)
    test = build_test_data(instances=instances)
    graph = test.graph
    graph.freeze()
    corpus = [graph]
    kernels = build_kernels(corpus, LabelInterner())
    seeds = seed_patterns(corpus, use_index=True)
    query_view = _coarse_view(graph)
    patterns = _QUERY_BATTERY

    def run():
        # identity first: the kernel path must reproduce the legacy
        # tables and match sequences exactly on this exact workload
        identical = True
        for key in sorted(seeds)[:40]:
            legacy_ext = extend_embeddings(corpus, seeds[key], use_kernel=False)
            kernel_ext = extend_embeddings(corpus, seeds[key], kernels)
            identical = identical and legacy_ext == kernel_ext
        for pattern in patterns:
            legacy_matches = list(
                find_matches(
                    pattern,
                    query_view,
                    max_span=MATCH_SPAN,
                    limit=MATCH_LIMIT,
                    use_kernel=False,
                )
            )
            kernel_matches = list(
                find_matches(
                    pattern,
                    query_view,
                    max_span=MATCH_SPAN,
                    limit=MATCH_LIMIT,
                )
            )
            identical = identical and legacy_matches == kernel_matches

        growth_legacy, checksum_legacy = _best_of(
            _growth_sweep, corpus, seeds, None, False
        )
        growth_kernel, checksum_kernel = _best_of(
            _growth_sweep, corpus, seeds, kernels, True
        )
        identical = identical and checksum_legacy == checksum_kernel
        match_legacy, count_legacy = _best_of(
            _match_sweep, patterns, query_view, False
        )
        match_kernel, count_kernel = _best_of(
            _match_sweep, patterns, query_view, True
        )
        identical = identical and count_legacy == count_kernel
        return {
            "identical": identical,
            "growth_legacy": growth_legacy,
            "growth_kernel": growth_kernel,
            "match_legacy": match_legacy,
            "match_kernel": match_kernel,
            "matches": count_kernel,
        }

    rows = once(benchmark, run)
    growth_speedup = rows["growth_legacy"] / max(rows["growth_kernel"], 1e-9)
    match_speedup = rows["match_legacy"] / max(rows["match_kernel"], 1e-9)
    legacy_total = rows["growth_legacy"] + rows["match_legacy"]
    kernel_total = rows["growth_kernel"] + rows["match_kernel"]
    speedup = legacy_total / max(kernel_total, 1e-9)

    emit("\n=== Kernel micro-ablation: legacy object path vs CSR kernel ===")
    emit(
        f"workload: {graph.num_edges} edges, {len(seeds)} seeds, "
        f"depth {DEPTH} fan {FAN}, {len(patterns)} query skeletons "
        f"(span cap {MATCH_SPAN}, coarse query view), best of {REPEATS}"
    )
    emit(f"{'stage':8s} {'legacy':>9s} {'kernel':>9s} {'speedup':>8s}")
    emit(
        f"{'growth':8s} {rows['growth_legacy']:8.3f}s {rows['growth_kernel']:8.3f}s "
        f"{growth_speedup:7.2f}x"
    )
    emit(
        f"{'match':8s} {rows['match_legacy']:8.3f}s {rows['match_kernel']:8.3f}s "
        f"{match_speedup:7.2f}x"
    )
    emit(f"{'total':8s} {legacy_total:8.3f}s {kernel_total:8.3f}s {speedup:7.2f}x")
    emit(f"vector backend: {backend_name()}")

    # the match ratio is only a vectorization claim when numpy is the
    # active backend; the regression gate reads this guard (same pattern
    # as BENCH_parallel's speedup_enforced on core-starved hosts)
    match_enforced = backend_name() == "numpy" and MIN_MATCH_SPEEDUP > 0
    write_json(
        "BENCH_kernel.json",
        {
            "edges": graph.num_edges,
            "instances": instances,
            "depth": DEPTH,
            "fan": FAN,
            "repeats": REPEATS,
            "matches": rows["matches"],
            "growth_legacy_seconds": rows["growth_legacy"],
            "growth_kernel_seconds": rows["growth_kernel"],
            "match_legacy_seconds": rows["match_legacy"],
            "match_kernel_seconds": rows["match_kernel"],
            "growth_speedup": growth_speedup,
            "match_speedup": match_speedup,
            "speedup": speedup,
            "identical": rows["identical"],
            "vector_backend": backend_name(),
            "match_speedup_enforced": match_enforced,
            "min_speedup_required": MIN_KERNEL_SPEEDUP,
            "min_match_speedup_required": MIN_MATCH_SPEEDUP,
        },
    )
    assert rows["identical"], "kernel path diverged from the legacy path"
    if MIN_KERNEL_SPEEDUP > 0:
        assert speedup >= MIN_KERNEL_SPEEDUP, (
            f"kernel path only {speedup:.2f}x over legacy "
            f"(floor {MIN_KERNEL_SPEEDUP}x)"
        )
    if match_enforced:
        assert match_speedup >= MIN_MATCH_SPEEDUP, (
            f"vectorized match join only {match_speedup:.2f}x over legacy "
            f"(floor {MIN_MATCH_SPEEDUP}x, backend {backend_name()})"
        )
