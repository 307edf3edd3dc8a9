"""The ``mine-mem`` and ``mine-store`` workloads.

Timed phase, in order:

* **job** — passes over a fixed set of ``corpora`` training corpora.  A
  pass mines every corpus with ``Workspace.mine`` (``top_k`` queries per
  behavior) and batch-queries the held-out log with each mined model.
  ``job_s`` is the median pass time.  mine-mem mines in memory with one
  process and queries with an in-memory ``QueryEngine``; mine-store
  reads each corpus from its ``CorpusStore`` with ``workers`` behavior
  fan-out and queries the stored log with the windowed store scan.
  Every pass mines freshly generated corpus objects (mine-mem) or
  re-reads the store (mine-store), so no pass reuses cached kernels.
* **requests** — the first corpus's model is deployed in-process: a
  fresh ``DetectionService`` ingests a held-out log in batches, one
  ``ingest`` per request, one request at a time (mine-store reads every
  batch from the store's event pages as part of the request).  Each of
  ``contents`` logs, cut into batches of each of ``batch_sizes``, is
  replayed ``replays`` times; a request's latency is its fastest replay.
  ``lat_p50_ms``/``lat_p99_ms`` are percentiles over the distinct
  requests.  Best-of-replays because a sub-millisecond request is at the
  mercy of the host: replaying one log 40 times on the development host,
  26% of requests ran over 1.4x their own fastest time, so the p99 of
  single replays measured how often the host stalled (spread 13-16%
  over ten seeds) while the fastest replays' p99 follows the content.

Several small corpora per pass, rather than one large one, keep the
job's cost close to the same for every seed: the work a corpus needs
varies with its random instantiation by ~10%, the sum over four corpora
by about half that.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.api import Workspace
from repro.core.miner import MinerConfig
from repro.datasets.store import CorpusStore
from repro.serving.service import DetectionService
from repro.syscall.collector import iter_event_batches

from benchmarks.e2e.common import (
    SETUP_REPS,
    Outcome,
    children_peak_rss_mb,
    digest,
    held_out_log,
    median,
    model_fingerprint,
    peak_rss_mb,
    percentile,
    pooled_accuracy,
    reset_peak_rss,
    span_map,
    timed_setups,
    training_corpus,
)
from benchmarks.e2e.hostspeed import STREAMING_SENSITIVITY, HostSpeed, allowed_cpus, pin
from benchmarks.e2e.trace import UNIT, Span

LOG = "monitor"


def replay_log(content: int) -> str:
    """Store log name of the ``content``-th replayed held-out log."""
    return f"{LOG}-{content}" if content else LOG


@dataclass(frozen=True)
class MineParams:
    """Sizes of a mining workload (fixed; never derived from a timing)."""

    workers: int
    corpora: int = 4
    instances: int = 4
    background: int = 8
    max_edges: int = 3
    top_k: int = 3
    test_instances: int = 48
    #: held-out logs replayed as requests, each cut into batches of every
    #: size: 3 x 4 distinct sequences of ~100 requests, so p99 has more
    #: than ten requests beyond it
    contents: int = 3
    batch_sizes: tuple[int, ...] = (48, 56, 64, 72)
    #: a request's latency is the fastest of this many replays
    replays: int = 4
    #: share of ``--seconds`` given to the job passes (the requests are a
    #: fixed amount of work, ~3.5 s)
    job_share: float = 0.75
    min_passes: int = 3
    #: requests between two host-speed probes
    chunk: int = 32

    def smoke(self) -> "MineParams":
        """The smoke-test size: every code path, a few seconds."""
        return replace(
            self,
            corpora=1,
            instances=2,
            background=3,
            max_edges=2,
            test_instances=6,
            batch_sizes=(32, 64),
            replays=2,
            min_passes=1,
            chunk=8,
        )


class _Corpora:
    """A run's inputs: training corpora, the held-out logs, and stores."""

    def __init__(self, params: MineParams, seed: int, root: Path | None) -> None:
        self.params = params
        self.seed = seed
        self.test = held_out_log(seed, params.test_instances)
        # the batch query runs on log 0 only; the others are replayed
        self.replay = [self.test.events] + [
            held_out_log(seed, params.test_instances, index).events
            for index in range(1, params.contents)
        ]
        self.train = self.generate()
        self.stores: list[Path] = []
        if root is not None:
            root.mkdir(parents=True, exist_ok=True)
            for index, train in enumerate(self.train):
                path = root / f"corpus-{index}.store"
                with CorpusStore.create(path, overwrite=True) as store:
                    store.add_training_data(train)
                    store.add_log(LOG, graph=self.test.graph, events=self.test.events)
                    if index == 0:
                        for content, events in enumerate(self.replay[1:], 1):
                            store.add_log(replay_log(content), events=events)
                self.stores.append(path)
        self.root = root

    def generate(self) -> list:
        params = self.params
        return [
            training_corpus(self.seed, index, params.instances, params.background)
            for index in range(params.corpora)
        ]

    def discard(self) -> None:
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)


def run(
    name: str,
    params: MineParams,
    seed: int,
    seconds: float,
    workdir: Path,
    tracer=None,
) -> Outcome:
    """Set up, run the timed phase, and check the outputs.

    With a ``tracer`` the run is the traced rerun: one set-up and
    exactly ``min_passes`` passes, so its layer counts repeat from run
    to run.
    """
    store_backed = name == "mine-store"
    fixed_work = tracer is not None
    # the process runs pinned to one CPU, so a probe measures the CPU the
    # work runs on; a fan-out job gets every CPU (pool workers inherit
    # the affinity at fork) and its probes cover each of them
    cpus = allowed_cpus()
    single = HostSpeed(cpus[:1])
    job_cpus = cpus if params.workers > 1 else cpus[:1]
    speed = HostSpeed(job_cpus)
    request_speed = HostSpeed(cpus[:1], STREAMING_SENSITIVITY)
    pin(cpus[:1])
    config = MinerConfig(max_edges=params.max_edges)
    workspace = Workspace()
    reps = 1 if fixed_work else SETUP_REPS

    state, setup_scaled, setup_raw = timed_setups(
        single,
        reps,
        lambda rep: _Corpora(
            params, seed, workdir / f"stores-{rep}" if store_backed else None
        ),
        _Corpora.discard,
    )
    out = Outcome()

    def mine(index, train):
        if store_backed:
            return workspace.mine(
                store=state.stores[index],
                config=config,
                workers=params.workers,
                top_k=params.top_k,
            )
        return workspace.mine(
            train, config=config, workers=params.workers, top_k=params.top_k
        )

    def query(index, model):
        if store_backed:
            return workspace.query(model, store=state.stores[index], log=LOG)
        return workspace.query(model, state.test.graph)

    def request_batches(source_store, content, size):
        """The requests of one replay; a stored log is read as they run."""
        if store_backed:
            return source_store.iter_event_batches(replay_log(content), size)
        return iter(list(iter_event_batches(state.replay[content], size)))

    def unit(fn, *args):
        """One timed unit between two probes: (result, raw s, reference s).

        Like a set-up, every unit starts from an empty collector state.
        """
        gc.collect()
        with Span(tracer, UNIT):
            started = time.perf_counter()
            result = fn(*args)
            ended = time.perf_counter()
        speed.mark()
        out.attempted += 1
        return result, ended - started, (ended - started) * speed.scale(started, ended)

    # ---------------------------------------------------------------- job
    # freeze the set-up's objects out of the collector, so a full
    # collection, here or in a forked pool worker, skips the input heap
    # (~180 ms to traverse) and the collection before every unit is
    # cheap; without both, whether one landed in a unit was chance (a
    # windowed store query took 0.16 s or 0.30 s)
    gc.collect()
    gc.freeze()
    reset_peak_rss()
    pin(job_cpus)
    speed.mark()
    job_deadline = time.perf_counter() + params.job_share * seconds
    passes, raw_passes, mine_passes, query_passes = [], [], [], []
    fingerprints: list[list] = []
    spans: list[dict] = []
    while True:
        pass_started = time.perf_counter()
        corpora = state.train if not passes or store_backed else state.generate()
        mine_s = query_s = raw = 0.0
        pass_fingerprints, pass_spans = [], []
        for index, train in enumerate(corpora):
            model, mine_raw, mine_ref = unit(mine, index, train)
            report, query_raw, query_ref = unit(query, index, model)
            raw += mine_raw + query_raw
            mine_s += mine_ref
            query_s += query_ref
            pass_fingerprints.append(model_fingerprint(model))
            pass_spans.append(span_map(report))
            if index == 0:
                served_model, served_spans = model, pass_spans[0]
        passes.append(mine_s + query_s)
        mine_passes.append(mine_s)
        query_passes.append(query_s)
        raw_passes.append(raw)
        fingerprints.append(pass_fingerprints)
        spans.append(pass_spans)
        # stop before a further pass would run past the deadline
        now = time.perf_counter()
        if len(passes) >= params.min_passes and (
            fixed_work or now + (now - pass_started) > job_deadline
        ):
            break

    # ----------------------------------------------------------- requests
    pin(cpus[:1])
    queries = served_model.queries()
    latencies, raw_latencies = [], []
    streamed: list[dict] = []
    source_store = CorpusStore.open(state.stores[0]) if store_backed else None
    request_speed.mark()
    try:
        for content in range(params.contents):
            for size in params.batch_sizes:
                replays = [
                    _replay(
                        request_speed,
                        tracer,
                        queries,
                        request_batches(source_store, content, size),
                        params.chunk,
                    )
                    for _ in range(params.replays)
                ]
                out.attempted += sum(len(times) for times, _ in replays)
                for timings in zip(*(times for times, _ in replays)):
                    latencies.append(min(scaled for scaled, _ in timings))
                    raw_latencies.append(min(raw for _, raw in timings))
                if content == 0:
                    streamed.extend(found for _, found in replays)
    finally:
        if source_store is not None:
            source_store.close()
    rss = peak_rss_mb()
    if store_backed:
        rss += children_peak_rss_mb()
    gc.unfreeze()

    out.metrics = {
        "setup_s": median(setup_scaled),
        "job_s": median(passes),
        "lat_p50_ms": percentile(latencies, 0.5) * 1000,
        "lat_p99_ms": percentile(latencies, 0.99) * 1000,
        "peak_rss_mb": rss,
    }
    out.client = {"requests": len(latencies) * params.replays, "lag_p99_ms": 0.0}

    # ------------------------------------------------------------- checks
    batch_spans = {
        name: [tuple(span) for span in spans_]
        for name, spans_ in served_spans.items()
        if spans_
    }
    out.checks["passes_identical"] = all(
        f == fingerprints[0] for f in fingerprints
    ) and all(s == spans[0] for s in spans)
    out.checks["streaming_equals_batch"] = all(
        found == batch_spans for found in streamed
    )
    outputs = {"models": fingerprints[0], "spans": spans[0]}
    if store_backed:
        reference = _in_memory_reference(state, params, config, workspace)
        out.checks["store_equals_memory"] = reference == outputs
    precision, recall = pooled_accuracy(
        (
            (name, spans_)
            for per_model in spans[0]
            for name, spans_ in per_model.items()
        ),
        state.test.instances,
    )
    out.raw = {
        "setup_s": setup_raw,
        "job_passes_s": raw_passes,
        "job_passes_ref_s": passes,
        "mine_s": median(mine_passes),
        "query_s": median(query_passes),
        "requests": len(latencies),
        "lat_p50_raw_ms": percentile(raw_latencies, 0.5) * 1000,
        "lat_p99_raw_ms": percentile(raw_latencies, 0.99) * 1000,
        "precision": precision,
        "recall": recall,
        "probe_ms": speed.median_probe * 1000,
        "output_digest": digest(outputs),
    }
    state.discard()
    return out


def _replay(speed: HostSpeed, tracer, queries, batches, chunk: int):
    """Ingest ``batches`` into a fresh service, one request at a time.

    Returns ``([(reference s, raw s)] per request, detection spans per
    behavior)``.  A probe mark follows every ``chunk`` requests; each
    chunk's times are scaled by the marks around it.
    """
    service = DetectionService()
    service.register_all(queries)
    times: list[tuple[float, float]] = []
    found: dict[str, set] = {}
    pending: list[tuple[float, float]] = []

    def close() -> None:
        speed.mark()
        factor = speed.scale(pending[0][0], pending[-1][1])
        times.extend(((end - start) * factor, end - start) for start, end in pending)
        pending.clear()

    while True:
        with Span(tracer, UNIT):
            started = time.perf_counter()
            batch = next(batches, None)
            if batch is not None:
                detections = service.ingest(batch)
            ended = time.perf_counter()
        if batch is None:
            break
        pending.append((started, ended))
        for detection in detections:
            behavior = detection.query.split("#", 1)[0]
            found.setdefault(behavior, set()).add(detection.span)
        if len(pending) >= chunk:
            close()
    if pending:
        close()
    return times, {name: sorted(spans) for name, spans in found.items()}


def _in_memory_reference(state: _Corpora, params, config, workspace) -> dict:
    """The same corpora mined and queried in memory (the store's oracle)."""
    models, spans = [], []
    for train in state.generate():
        model = workspace.mine(train, config=config, workers=1, top_k=params.top_k)
        models.append(model_fingerprint(model))
        spans.append(span_map(workspace.query(model, state.test.graph)))
    return {"models": models, "spans": spans}
