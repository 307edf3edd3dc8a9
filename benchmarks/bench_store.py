"""Corpus-store ablation: larger-than-RAM mining and query from disk.

The disk-backed :class:`~repro.datasets.store.CorpusStore` claims three
things, and this benchmark measures all three against the in-memory path
on the same corpus:

* **identity** — mining from the store and windowed query over a stored
  log produce exactly the patterns and spans the in-memory path does
  (content identity: pattern keys, scores, frequencies, span caps —
  everything but wall-clock);
* **residency** — the streaming pipeline peaks well below what the
  in-memory pipeline keeps resident.  The corpus is shaped like a real
  larger-than-RAM deployment: the behavior partitions are replicated
  ``STORE_REPLICAS`` times over one shared background set, and the
  monitor log holds ``STORE_DAYS`` days of the test stream.  The
  in-memory pipeline materializes the full training corpus to mine and
  the whole multi-day log graph to batch-query (a frozen graph's
  per-edge suffix indexes make the latter the dominant term); the
  streaming pipeline holds the shared background plus one behavior
  partition while mining and one scan window while querying.  Each
  pipeline runs end to end in a fresh *spawned* subprocess with the
  kernel's peak-RSS counter reset first (``/proc/self/clear_refs``),
  so each ``VmHWM`` delta is that pipeline's true peak — not the
  interpreter's import-time high-water mark.  The budget is
  self-calibrating — a quarter of the measured in-memory peak — so
  the assertion is exactly the ISSUE's "corpus at least 4x larger than
  the memory budget" at whatever scale the run uses;
* **throughput** — build rate (edges/s into the store), the
  store-vs-memory mining efficiency ratio (within-run, transfers
  across runner hardware), and the windowed-scan vs
  materialize-and-batch-query ratio over the stored log.

The two pipelines run ``STORE_REPEATS`` times each, alternating which
goes first, and the gated ``store_efficiency`` is the median of the
per-repeat in-memory/store mining-time ratios: one pair of ~5 s runs
read anywhere in 0.66–1.30 on a shared 2-vCPU host with the code
unchanged.  Identity and the residency bound must hold on every repeat.

Results land in ``BENCH_store.json`` for the CI perf-trend gate
(``benchmarks/check_regression.py``).
"""

import multiprocessing
import resource
import statistics
import time
from dataclasses import replace

from repro.api.workspace import Workspace
from repro.core.miner import MinerConfig
from repro.datasets.store import CorpusStore
from repro.datasets.synthetic import replicate_graphs
from repro.syscall import build_training_data, events_to_graph
from repro.syscall.collector import TrainingData

from benchmarks.bench_common import (
    BACKGROUND_GRAPHS,
    EXHAUSTIVE_CAP,
    MINING_SECONDS,
    STORE_DAYS,
    STORE_EFFICIENCY_FLOOR,
    STORE_MAX_EDGES,
    STORE_PAGE_EDGES,
    STORE_REPLICAS,
    STORE_RSS_FLOOR_MB,
    TEST_INSTANCES,
    TRAIN_INSTANCES,
    emit,
    once,
    write_json,
)

#: The exhaustive search: the gate compares store and in-memory mining
#: time, which a stop at the final answer would cut below the floor that
#: enforces it.
CONFIG = MinerConfig(
    max_edges=STORE_MAX_EDGES,
    max_best_patterns=EXHAUSTIVE_CAP,
    max_seconds=MINING_SECONDS,
)

#: Runs of each pipeline per benchmark; the gate reads the median of the
#: per-repeat mining-time ratios.  Odd, so the median is one repeat's.
STORE_REPEATS = 5


def _rss_mb() -> float:
    """Current peak RSS of this process in MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _status_mb(field: str) -> float | None:
    """Read one KB-valued field (``VmRSS``, ``VmHWM``) from /proc, in MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def _rss_window_open() -> tuple[bool, float]:
    """Start a peak-RSS measurement window; return ``(windowed, baseline)``.

    Writing ``5`` to ``/proc/self/clear_refs`` resets the kernel's
    ``VmHWM`` high-water mark to the current ``VmRSS``, so the peak read
    at window close covers only the work done inside the window — the
    interpreter's import-time spike (which can dwarf a few-MB corpus)
    is excluded.  Where /proc is unavailable the rusage peak is the
    fallback and the window is marked unmeasured.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False, _rss_mb()
    baseline = _status_mb("VmRSS")
    if baseline is None:
        return False, _rss_mb()
    return True, baseline


def _rss_window_close(windowed: bool, baseline: float) -> tuple[float, bool]:
    """End a window; return ``(delta_mb, measured)``."""
    if windowed:
        peak = _status_mb("VmHWM")
        if peak is not None:
            return max(0.0, peak - baseline), True
    return max(0.0, _rss_mb() - baseline), False


def _model_fingerprint(model) -> tuple:
    """Content identity of a mined model: everything but wall-clock."""
    return (
        model.labels,
        tuple(
            (
                name,
                record.span_cap,
                tuple(
                    (p.pattern.key(), p.score, p.pos_freq, p.neg_freq)
                    for p in record.patterns
                ),
            )
            for name, record in sorted(model.records.items())
        ),
    )


def _span_map(result) -> dict:
    """Detection spans per behavior — the query-identity payload."""
    return {
        name: tuple(report.spans) for name, report in result.behaviors.items()
    }


def _inmem_pipeline(store_path, queue):
    """Subprocess: the baseline the store competes with, end to end.

    One peak-RSS window covers the whole pipeline: materialize the
    training corpus, mine it, then materialize the full multi-day log
    graph and batch-query it.  Mining runs *before* the log graph is
    built, so its timing is clean of the GC pressure a gigabyte of
    frozen-graph indexes would add; the window still captures the
    pipeline's true peak (the resident log graph dominates it).  The
    query timing includes materializing the log graph — that build is
    the price of batch-querying a stored log, exactly what the
    windowed scan amortizes away.
    """
    windowed, baseline_mb = _rss_window_open()
    with CorpusStore.open(store_path) as store:
        train = store.load_training_data()
        ws = Workspace()
        started = time.perf_counter()
        model = ws.mine(train, config=CONFIG)
        mine_seconds = time.perf_counter() - started
        started = time.perf_counter()
        log_graph = store.window("monitor", *store.extent("monitor"))
        batch = ws.query(model, log_graph)
        batch_seconds = time.perf_counter() - started
    delta_mb, measured = _rss_window_close(windowed, baseline_mb)
    queue.put(
        {
            "rss_delta_mb": delta_mb,
            "rss_measured": measured,
            "mine_seconds": mine_seconds,
            "query_seconds": batch_seconds,
            "fingerprint": _model_fingerprint(model),
            "spans": _span_map(batch),
        }
    )


def _store_pipeline(store_path, budget_mb, queue):
    """Subprocess: the same pipeline streaming from the store.

    One peak-RSS window covers mining from the store (shared
    background resident, one behavior partition decoded at a time)
    and the windowed scan query over the stored multi-day log (one
    scan window resident at a time).  The delta is the streaming
    pipeline's true end-to-end peak, asserted against the
    self-calibrated budget.  Spans are comparable across children
    because the identity assertion separately requires the two mined
    models to be content-identical.
    """
    windowed, baseline_mb = _rss_window_open()
    ws = Workspace()
    started = time.perf_counter()
    model = ws.mine(store=store_path, config=CONFIG, memory_budget_mb=budget_mb)
    mine_seconds = time.perf_counter() - started
    started = time.perf_counter()
    scan = ws.query(
        model, store=store_path, log="monitor", memory_budget_mb=budget_mb
    )
    scan_seconds = time.perf_counter() - started
    delta_mb, measured = _rss_window_close(windowed, baseline_mb)
    queue.put(
        {
            "rss_delta_mb": delta_mb,
            "rss_measured": measured,
            "mine_seconds": mine_seconds,
            "query_seconds": scan_seconds,
            "fingerprint": _model_fingerprint(model),
            "spans": _span_map(scan),
        }
    )


def _run_child(target, *args):
    """Run one pipeline in a fresh spawned process; return its dict.

    ``spawn`` (not fork) so the child's peak-RSS accounting starts from
    a clean interpreter, not from whatever the parent had resident.
    """
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    proc = ctx.Process(target=target, args=(*args, queue))
    proc.start()
    result = queue.get()
    proc.join()
    return result


def _multi_day_events(day_events) -> list:
    """Replay the one-day test stream at daily offsets, back to back."""
    day_len = day_events[-1].time - day_events[0].time + 1
    return [
        replace(event, time=event.time + day * day_len)
        for day in range(STORE_DAYS)
        for event in day_events
    ]


def test_store_mining_and_query(benchmark, test_data, tmp_path):
    base = build_training_data(
        instances_per_behavior=TRAIN_INSTANCES,
        background_graphs=BACKGROUND_GRAPHS,
    )
    # replicate only the behavior partitions: the streaming reader's
    # working set (background + one partition) then stays a small,
    # replica-independent fraction of the corpus — the shape the
    # larger-than-RAM claim is about
    train = TrainingData(
        config=base.config,
        behaviors={
            name: replicate_graphs(graphs, STORE_REPLICAS)
            for name, graphs in base.behaviors.items()
        },
        background=base.background,
    )
    events = _multi_day_events(test_data.events)
    store_path = str(tmp_path / "corpus.store")

    def run():
        # --- build: stream the corpus into the single-file store
        log_graph = events_to_graph(events, name="monitor")
        started = time.perf_counter()
        with CorpusStore.create(store_path, page_edges=STORE_PAGE_EDGES) as s:
            graphs = s.add_training_data(train)
            s.add_log("monitor", graph=log_graph, events=events)
            info = s.info()
        build_seconds = time.perf_counter() - started
        del log_graph

        # --- residency + identity: each pipeline in a spawned process,
        # alternating which runs first so a host-speed drift slows both
        # sides of a pair; the first in-memory peak sets the budget
        pairs = []
        budget_mb = None
        for repeat in range(STORE_REPEATS):
            if repeat % 2 == 0:
                inmem = _run_child(_inmem_pipeline, store_path)
                if budget_mb is None:
                    budget_mb = max(1.0, inmem["rss_delta_mb"] / 4)
                stored = _run_child(_store_pipeline, store_path, budget_mb)
            else:
                stored = _run_child(_store_pipeline, store_path, budget_mb)
                inmem = _run_child(_inmem_pipeline, store_path)
            pairs.append((inmem, stored))
        return graphs, info, build_seconds, pairs, budget_mb

    graphs, info, build_seconds, pairs, budget_mb = once(benchmark, run)

    def median_of(side: int, key: str) -> float:
        return statistics.median(pair[side][key] for pair in pairs)

    identical = all(
        stored["spans"] == inmem["spans"]
        and stored["fingerprint"] == inmem["fingerprint"]
        for inmem, stored in pairs
    )
    rss_measured = all(
        inmem["rss_measured"] and stored["rss_measured"] for inmem, stored in pairs
    )
    # the bound is checked per repeat, wherever that repeat's in-memory
    # peak reached the floor; the worst streaming peak is the one reported
    rss_checked = [
        STORE_RSS_FLOOR_MB > 0
        and inmem["rss_measured"]
        and stored["rss_measured"]
        and inmem["rss_delta_mb"] >= STORE_RSS_FLOOR_MB
        for inmem, stored in pairs
    ]
    rss_enforced = any(rss_checked)
    rss_bounded = all(
        not checked or stored["rss_delta_mb"] <= budget_mb
        for checked, (_inmem, stored) in zip(rss_checked, pairs)
    )
    inmem_rss_mb = median_of(0, "rss_delta_mb")
    store_rss_mb = max(stored["rss_delta_mb"] for _inmem, stored in pairs)
    # a streaming peak below a quarter MB is allocator noise — floor the
    # denominator so the reported ratio stays meaningful
    rss_ratio = inmem_rss_mb / max(median_of(1, "rss_delta_mb"), 0.25)
    inmem_mine_seconds = median_of(0, "mine_seconds")
    store_mine_seconds = median_of(1, "mine_seconds")
    efficiency_enforced = inmem_mine_seconds >= STORE_EFFICIENCY_FLOOR
    efficiency_ratios = [
        inmem["mine_seconds"] / max(stored["mine_seconds"], 1e-9)
        for inmem, stored in pairs
    ]
    store_efficiency = statistics.median(efficiency_ratios)
    batch_seconds = median_of(0, "query_seconds")
    scan_seconds = median_of(1, "query_seconds")
    build_edges_per_second = info["edges"] / max(build_seconds, 1e-9)
    scan_ratio = batch_seconds / max(scan_seconds, 1e-9)

    emit("\n=== Corpus store: larger-than-RAM mining and query ===")
    events_stored = sum(info["logs"].values())
    emit(
        f"{graphs} graphs / {info['edges']} edges / "
        f"{events_stored} events -> {info['file_bytes'] / 1e6:.1f} MB "
        f"store in {build_seconds:.2f}s ({build_edges_per_second:,.0f} edges/s, "
        f"{STORE_PAGE_EDGES} edges/page, x{STORE_REPLICAS} replicas, "
        f"{STORE_DAYS}-day log)"
    )
    emit(
        f"{'pipeline':22s} {'corpus RSS':>10s} {'mining':>9s} {'query':>9s}"
        f"   (medians of {STORE_REPEATS} repeats; store RSS is the worst)"
    )
    emit(
        f"{'in-memory (full load)':22s} {inmem_rss_mb:8.1f}MB "
        f"{inmem_mine_seconds:8.2f}s {batch_seconds:8.2f}s"
    )
    emit(
        f"{'store (streaming)':22s} {store_rss_mb:8.1f}MB "
        f"{store_mine_seconds:8.2f}s {scan_seconds:8.2f}s"
    )
    if rss_enforced:
        rss_status = "enforced"
    elif not rss_measured:
        rss_status = "informational: no /proc peak-RSS window on this host"
    else:
        rss_status = (
            f"informational: in-memory peak {inmem_rss_mb:.1f}MB < "
            f"{STORE_RSS_FLOOR_MB:.0f}MB floor"
        )
    per_repeat = ", ".join(f"{ratio:.2f}" for ratio in efficiency_ratios)
    emit(
        f"budget {budget_mb:.1f}MB (in-memory/4, {rss_status}); "
        f"residency ratio {rss_ratio:.1f}x; mining efficiency "
        f"{store_efficiency:.2f}x (median of {per_repeat}); windowed scan "
        f"{scan_seconds:.2f}s vs materialize+batch {batch_seconds:.2f}s "
        f"(ratio {scan_ratio:.2f}); identical={identical}"
    )

    write_json(
        "BENCH_store.json",
        {
            "graphs": graphs,
            "edges": info["edges"],
            "events": events_stored,
            "file_mb": info["file_bytes"] / 1e6,
            "page_edges": STORE_PAGE_EDGES,
            "replicas": STORE_REPLICAS,
            "days": STORE_DAYS,
            "test_instances": TEST_INSTANCES,
            "build_seconds": build_seconds,
            "build_edges_per_second": build_edges_per_second,
            "repeats": STORE_REPEATS,
            "inmem_rss_mb": inmem_rss_mb,
            "store_rss_mb": store_rss_mb,
            "budget_mb": budget_mb,
            "rss_ratio": rss_ratio,
            "rss_measured": rss_measured,
            "rss_enforced": rss_enforced,
            "rss_bounded": rss_bounded,
            "inmem_mine_seconds": inmem_mine_seconds,
            "store_mine_seconds": store_mine_seconds,
            "efficiency_ratios": efficiency_ratios,
            "store_efficiency": store_efficiency,
            "efficiency_enforced": efficiency_enforced,
            "batch_query_seconds": batch_seconds,
            "scan_query_seconds": scan_seconds,
            "scan_ratio": scan_ratio,
            "identical": identical,
        },
    )
    assert identical, (
        "store-backed mining or query diverged from the in-memory path"
    )
    if rss_enforced:
        assert rss_bounded, (
            f"streaming pipeline peaked at {store_rss_mb:.1f}MB, "
            f"over the {budget_mb:.1f}MB budget (in-memory peak "
            f"{inmem_rss_mb:.1f}MB)"
        )
