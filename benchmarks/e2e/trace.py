"""Timing wrappers for the traced benchmark run (``--trace 1``).

:func:`install` patches the public functions and methods that mark the
repository's layer boundaries, *where the caller looks them up* (for
example ``repro.core.miner.extend_embeddings``, not the defining module),
with wrappers that report to one :class:`Tracer` per process.  Nothing in
``src/`` is modified on disk and the untraced runs never import this
module, so end-to-end metrics are always measured without wrappers.

Three wrapper shapes:

* **span** — a call is a span: name, start, end, parent span, pid.
  Self time is the span minus the spans of its direct children.
* **leaf** — a hot call with no traced call inside (the HTTP event
  decoder, subgraph tests, residual summaries: hundreds of thousands per
  run): timed and counted into the aggregates and subtracted from the
  parent's self time, but not written out as individual spans.
* **generator** — ``find_matches`` and the store's event reader yield
  lazily, so the call itself returns at once.  Every resumption is
  timed as a leaf, which charges the layer for its whole iteration and
  the consumer (the caller's span) for the work between items.

Every process that does layer work traces: wrappers installed before a
``fork`` pool starts are inherited by its workers (the tracer resets its
buffers in the child), and the server launcher installs them in the
server child.  Each process appends its spans and aggregate deltas to
``<dir>/<pid>.jsonl`` whenever its outermost span closes (pool workers,
which may be terminated right after their last task, every time; other
processes at most every quarter second, and at :meth:`Tracer.flush`).
:func:`chrome_trace`, :func:`totals` and :func:`layer_metrics` turn the
directory into a Chrome trace-event file and the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import threading
import time
from pathlib import Path

#: Spans shorter than this are aggregated but not written as trace
#: events (keeps a traced mining run's trace file in the megabytes).
MIN_RECORD_S = 50e-6
#: Span events kept per process; beyond it only aggregates are kept.
MAX_RECORDS = 200_000
_FLUSH_EVERY_S = 0.25

#: The benchmark's own root span around every timed unit.  Its self time
#: is the part of the timed wall time no named layer accounts for.
UNIT = "bench.unit"


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    """Per-process span stack, aggregates and counters."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._origin_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        # forked pool workers may be terminated right after their last
        # task, so they flush at every outermost span
        self._eager = self.pid != self._origin_pid
        self._local = threading.local()
        self._lock = threading.Lock()
        self._records: list[list] = []
        self._dropped = 0
        self._agg: dict[str, list[float]] = {}
        self._counters: dict[str, float] = {}
        self._maxima: dict[str, float] = {}
        self._last_flush = time.perf_counter()

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans ----------------------------------------------------------
    def open(self, name: str) -> _Frame:
        frame = _Frame(name, time.perf_counter())
        self._stack().append(frame)
        return frame

    def close(self, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = self._stack()
        # a generator abandoned mid-iteration can close out of order
        if stack and stack[-1] is frame:
            stack.pop()
        elif frame in stack:
            stack.remove(frame)
        duration = end - frame.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += duration
        with self._lock:
            self._add(frame.name, duration, duration - frame.child)
            if duration >= MIN_RECORD_S or frame.name == UNIT:
                if len(self._records) < MAX_RECORDS:
                    self._records.append(
                        [
                            frame.name,
                            frame.start,
                            end,
                            parent.name if parent is not None else None,
                            threading.get_ident(),
                        ]
                    )
                else:
                    self._dropped += 1
        if not stack and (
            self._eager
            or duration >= _FLUSH_EVERY_S
            or end - self._last_flush >= _FLUSH_EVERY_S
        ):
            self.flush()

    def leaf(self, name: str, duration: float) -> None:
        """Account a short call without a span record."""
        stack = self._stack()
        if stack:
            stack[-1].child += duration
        with self._lock:
            self._add(name, duration, duration)

    def _add(self, name: str, duration: float, self_time: float) -> None:
        entry = self._agg.get(name)
        if entry is None:
            self._agg[name] = [1, duration, self_time]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_time

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            if value > self._maxima.get(key, float("-inf")):
                self._maxima[key] = value

    def flush(self) -> None:
        """Append everything gathered since the last flush to this
        process's file."""
        with self._lock:
            payload = {
                "pid": self.pid,
                "spans": self._records,
                "agg": self._agg,
                "counters": self._counters,
                "maxima": self._maxima,
                "dropped": self._dropped,
            }
            self._records = []
            self._agg = {}
            self._counters = {}
            self._maxima = {}
            self._dropped = 0
            self._last_flush = time.perf_counter()
        if not (payload["spans"] or payload["agg"] or payload["counters"]):
            return
        with open(self.directory / f"{self.pid}.jsonl", "a") as fh:
            fh.write(json.dumps(payload) + "\n")


class Span:
    """``with Span(tracer, name):`` — a no-op when ``tracer`` is None.

    How the benchmark marks its own spans (timed units, client requests).
    """

    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: Tracer | None, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.frame = None

    def __enter__(self) -> "Span":
        if self.tracer is not None:
            self.frame = self.tracer.open(self.name)
        return self

    def __exit__(self, *_exc) -> None:
        if self.frame is not None:
            self.tracer.close(self.frame)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _span_wrapper(tracer: Tracer, name, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        frame = tracer.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if hook is not None:
            hook(tracer, args, kwargs, result, frame)
        return result

    return wrapper


def _leaf_wrapper(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leaf(name, time.perf_counter() - started)
        if hook is not None:
            hook(tracer, args, kwargs, result, None)
        return result

    return wrapper


def _generator_wrapper(tracer: Tracer, name: str, fn, hook):
    """Time every resumption of a generator as a leaf of the consumer.

    ``hook``, when given, is a factory ``hook(args, kwargs)`` returning a
    per-call observer with ``item(value)`` and ``done(tracer)``.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        observer = hook(args, kwargs) if hook is not None else None
        clock = time.perf_counter
        try:
            while True:
                started = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.leaf(name, clock() - started)
                if observer is not None:
                    observer.item(item)
                yield item
        finally:
            inner.close()
            tracer.count(f"{name}.calls")
            if observer is not None:
                observer.done(tracer)

    return wrapper


# -- result hooks -------------------------------------------------------
def _count_len(key):
    def hook(tracer, _args, _kwargs, result, _frame):
        tracer.count(key, len(result))

    return hook


def _arg_len(key):
    def hook(tracer, args, _kwargs, _result, _frame):
        tracer.count(key, len(args[0]))

    return hook


def _mapping_hook(tracer, _args, _kwargs, result, _frame):
    if result is not None:
        tracer.count("subgraph.hits")


def _miner_hook(tracer, _args, _kwargs, result, _frame):
    stats = result.stats
    tracer.count("miner.patterns", stats.patterns_explored)
    tracer.count("miner.prefilter_skips", stats.index_prefilter_skips)
    tracer.count(
        "miner.prunes",
        stats.subgraph_pruning_triggers
        + stats.supergraph_pruning_triggers
        + stats.upper_bound_prunes,
    )


def _effective_workers(args, kwargs) -> int:
    tasks = args[0] if args else kwargs.get("tasks", ())
    workers = args[2] if len(args) > 2 else kwargs.get("workers", 1)
    return max(1, min(int(workers or 1), len(tasks)))


def _pool_name(args, kwargs) -> str:
    return "parallel.pool" if _effective_workers(args, kwargs) > 1 else "parallel.inline"


def _pool_hook(tracer, args, kwargs, _result, frame):
    workers = _effective_workers(args, kwargs)
    if workers > 1:
        wall = time.perf_counter() - frame.start
        tracer.count("parallel.capacity_s", workers * wall)


class _JoinObserver:
    """Matches, distinct (first edge, last edge) spans and cap hits of
    one ``find_matches`` call."""

    __slots__ = ("limit", "matches", "ends")

    def __init__(self, args, kwargs) -> None:
        self.limit = kwargs.get("limit", args[3] if len(args) > 3 else None)
        self.matches = 0
        self.ends = set()

    def item(self, match) -> None:
        self.matches += 1
        ids = match.edge_indexes
        self.ends.add((ids[0], ids[-1]))

    def done(self, tracer: Tracer) -> None:
        tracer.count("join.matches", self.matches)
        tracer.count("join.spans", len(self.ends))
        if self.limit is not None and self.matches == self.limit:
            tracer.count("join.cap_hits")


def _search_hook(tracer, _args, _kwargs, result, _frame):
    tracer.count("engine.spans", len(result))


def _streaming_hook(tracer, args, _kwargs, delta, _frame):
    tracer.count("streaming.evicted", delta.evicted)
    tracer.maximum("streaming.window_edges", args[0].num_edges)


def _survivors_hook(tracer, args, _kwargs, result, _frame):
    tracer.count("registry.queries", len(args[0]))
    tracer.count("registry.survivors", len(result))


def _window_hook(tracer, _args, _kwargs, _result, _frame):
    tracer.count("store.windows")


#: (module, attribute path, layer name, wrapper kind, result hook).  A
#: target missing from the code under test is skipped and listed in the
#: layer report, so the traced run survives refactors of the layers.
TARGETS = (
    ("repro.core.miner", "build_kernels", "kernel.build", "span", _arg_len("kernel.graphs")),
    ("repro.core.miner", "seed_patterns", "growth.seed", "span", _count_len("growth.seeds")),
    ("repro.core.miner", "extend_embeddings", "growth.extend", "span", _count_len("growth.children")),
    ("repro.core.miner", "summarize_residuals", "residual", "leaf", None),
    ("repro.core.miner", "TGMiner.mine", "miner", "span", _miner_hook),
    ("repro.core.subgraph", "SequenceSubgraphTester.mapping", "subgraph.test", "leaf", _mapping_hook),
    ("repro.api.workspace", "rank_patterns", "ranking", "span", None),
    ("repro.core.ranking", "InterestModel.fit", "ranking", "span", None),
    ("repro.core.ranking", "InterestModel.fit_label_sets", "ranking", "span", None),
    ("repro.experiments.harness", "run_sharded", _pool_name, "span", _pool_hook),
    ("repro.datasets.store", "CorpusStore.add_training_data", "store.build", "span", None),
    ("repro.datasets.store", "CorpusStore.add_log", "store.build", "span", None),
    ("repro.datasets.store", "CorpusStore.load_graphs", "store.decode", "span", None),
    ("repro.datasets.store", "CorpusStore.iter_event_batches", "store.decode", "generator", None),
    ("repro.datasets.store", "CorpusStore.window", "store.window", "span", _window_hook),
    ("repro.datasets.store", "CorpusStore.pair_labels", "store.index", "span", None),
    ("repro.query.engine", "QueryEngine.__init__", "engine.build", "span", None),
    ("repro.query.engine", "QueryEngine.search_temporal", "engine.search", "span", _search_hook),
    ("repro.query.engine", "find_matches", "join", "generator", _JoinObserver),
    ("repro.serving.service", "find_matches", "join", "generator", _JoinObserver),
    ("repro.serving.streaming", "StreamingGraph.ingest", "streaming", "span", _streaming_hook),
    ("repro.serving.registry", "QueryRegistry.survivors", "registry.survivors", "span", _survivors_hook),
    ("repro.serving.service", "DetectionService.ingest", "service", "span", None),
    ("repro.serving.checkpoint", "CheckpointStore.append", "checkpoint.wal", "span", None),
    ("repro.serving.checkpoint", "CheckpointStore.snapshot", "checkpoint.snapshot", "span", None),
    ("repro.serving.http", "DetectionServer.handle_ingest", "http.ingest", "span", None),
    ("repro.serving.http", "_RequestHandler.do_POST", "http.handler", "span", None),
    ("repro.serving.http", "_RequestHandler.do_GET", "http.handler", "span", None),
    ("repro.serving.http", "event_from_dict", "http.decode", "leaf", None),
)

_WRAPPERS = {
    "span": _span_wrapper,
    "leaf": _leaf_wrapper,
    "generator": _generator_wrapper,
}


def install(tracer: Tracer) -> list[str]:
    """Patch every target; returns the ``module:attr`` targets not found."""
    missing = []
    for module_name, path, name, kind, hook in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}:{path}")
            continue
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in owner_path.split(".") if owner_path else ():
            owner = getattr(owner, part, None)
        raw = (
            owner.__dict__.get(attr)
            if isinstance(owner, type)
            else getattr(owner, attr, None)
        )
        if raw is None:
            missing.append(f"{module_name}:{path}")
            continue
        descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if descriptor else raw
        if getattr(fn, "__e2e_traced__", False):
            continue
        if kind == "generator" and not inspect.isgeneratorfunction(fn):
            missing.append(f"{module_name}:{path} (no longer a generator)")
            continue
        wrapped = _WRAPPERS[kind](tracer, name, fn, hook)
        wrapped.__e2e_traced__ = True
        setattr(owner, attr, descriptor(wrapped) if descriptor else wrapped)
    return missing


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------
def read_parts(directory: str | Path) -> list[dict]:
    """Every flushed payload under ``directory``, in file order."""
    parts = []
    for path in sorted(Path(directory).glob("*.jsonl")):
        with open(path) as fh:
            parts.extend(json.loads(line) for line in fh if line.strip())
    return parts


def chrome_trace(parts: list[dict]) -> dict:
    """The span records as a Chrome trace-event document (Perfetto)."""
    starts = [record[1] for part in parts for record in part["spans"]]
    origin = min(starts) if starts else 0.0
    events = []
    for part in parts:
        for name, start, end, parent, tid in part["spans"]:
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": part["pid"],
                    "tid": tid,
                    "args": {"parent": parent},
                }
            )
    events.sort(key=lambda event: (event["pid"], event["ts"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def totals(parts: list[dict], main_pid: int) -> dict:
    """Sum the aggregate deltas of every process.

    Returns ``{"agg": {name: [count, total_s, self_s]}, "counters",
    "maxima", "worker_busy_s", "dropped"}``; ``worker_busy_s`` is the
    time pool workers (children of ``main_pid`` doing mining tasks) spent
    inside their outermost spans.
    """
    agg: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    maxima: dict[str, float] = {}
    worker_busy = 0.0
    dropped = 0
    for part in parts:
        for name, (count, total, self_time) in part["agg"].items():
            entry = agg.setdefault(name, [0, 0.0, 0.0])
            entry[0] += count
            entry[1] += total
            entry[2] += self_time
        for key, value in part["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, value in part["maxima"].items():
            maxima[key] = max(maxima.get(key, value), value)
        dropped += part.get("dropped", 0)
    for part in parts:
        if part["pid"] == main_pid:
            continue
        for name, start, end, parent, _tid in part["spans"]:
            if parent is None and name in ("miner", "store.decode"):
                worker_busy += end - start
    return {
        "agg": agg,
        "counters": counters,
        "maxima": maxima,
        "worker_busy_s": worker_busy,
        "dropped": dropped,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict, base_job_s, traced) -> dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json`` from merged totals.

    ``traced`` is the traced run's outcome; ``base_job_s`` the ``job_s``
    of an untraced run of the same workload and seed (the tracing
    overhead's baseline; ``None`` when that run failed).
    A ``*_s`` metric is the layer's total time, except the ``self_s``
    ones and ``engine.search_s`` (search minus its join, which is
    ``join.s``).
    """
    agg, counters = summary["agg"], summary["counters"]

    def total(name: str) -> float:
        return agg.get(name, (0, 0.0, 0.0))[1]

    def self_time(name: str) -> float:
        return agg.get(name, (0, 0.0, 0.0))[2]

    def calls(name: str) -> int:
        return int(agg.get(name, (0, 0.0, 0.0))[0])

    def counter(name: str) -> float:
        return counters.get(name, 0)

    unit_wall = total(UNIT)
    unattributed = self_time(UNIT)
    return {
        "kernel.build_s": total("kernel.build"),
        "kernel.graphs": counter("kernel.graphs"),
        "growth.seed_s": total("growth.seed"),
        "growth.seeds": counter("growth.seeds"),
        "growth.extend_s": total("growth.extend"),
        "growth.extend_calls": calls("growth.extend"),
        "growth.children": counter("growth.children"),
        "residual.s": total("residual"),
        "residual.calls": calls("residual"),
        "subgraph.test_s": total("subgraph.test"),
        "subgraph.tests": calls("subgraph.test"),
        "subgraph.hit_ratio": _ratio(counter("subgraph.hits"), calls("subgraph.test")),
        "miner.self_s": self_time("miner"),
        "miner.patterns": counter("miner.patterns"),
        "miner.prefilter_skips": counter("miner.prefilter_skips"),
        "miner.prune_ratio": _ratio(counter("miner.prunes"), counter("miner.patterns")),
        "ranking.s": total("ranking"),
        "parallel.pool_s": total("parallel.pool"),
        "parallel.busy_ratio": _ratio(
            summary["worker_busy_s"], counter("parallel.capacity_s")
        ),
        "store.build_s": total("store.build"),
        "store.decode_s": total("store.decode"),
        "store.window_s": total("store.window"),
        "store.windows": counter("store.windows"),
        "store.index_s": total("store.index"),
        "engine.build_s": total("engine.build"),
        "engine.search_s": self_time("engine.search"),
        "engine.spans": counter("engine.spans"),
        "join.s": total("join"),
        "join.calls": counter("join.calls"),
        "join.matches": counter("join.matches"),
        "join.spans": counter("join.spans"),
        "join.matches_per_span": _ratio(counter("join.matches"), counter("join.spans")),
        "join.cap_hits": counter("join.cap_hits"),
        "streaming.s": total("streaming"),
        "streaming.window_edges": summary["maxima"].get("streaming.window_edges", 0),
        "streaming.evicted": counter("streaming.evicted"),
        "registry.survivors_s": total("registry.survivors"),
        "registry.prefilter_ratio": 1.0
        - _ratio(counter("registry.survivors"), counter("registry.queries"))
        if counter("registry.queries")
        else 0.0,
        "service.ingest_s": total("service"),
        "service.self_s": self_time("service"),
        "checkpoint.wal_s": total("checkpoint.wal"),
        "checkpoint.wal_appends": calls("checkpoint.wal"),
        "checkpoint.snapshot_s": total("checkpoint.snapshot"),
        "checkpoint.snapshots": calls("checkpoint.snapshot"),
        "http.handler_s": total("http.handler"),
        "http.decode_s": total("http.decode"),
        "http.self_s": self_time("http.handler") + self_time("http.ingest"),
        "http.transport_s": max(
            0.0, total("client.request") - total("http.handler")
        )
        if calls("client.request")
        else 0.0,
        "client.lag_p99_ms": traced.client.get("lag_p99_ms", 0.0),
        "client.requests": traced.client.get("requests", 0),
        "unattributed_s": unattributed,
        "coverage_pct": 100.0 * (1.0 - _ratio(unattributed, unit_wall)),
        "trace_overhead_pct": 100.0
        * (_ratio(traced.metrics["job_s"], base_job_s or 0.0) - 1.0),
    }
