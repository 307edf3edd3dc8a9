"""The :class:`Workspace` facade — one stable entry point for the pipeline.

The paper's deployment story is *train offline, serve online*:
formulate behavior queries from closed-environment training runs, then
run them continuously against monitoring data.  :class:`Workspace` is
the SDK surface for that whole loop — the CLI, the examples, and the
tests all go through it::

    from repro.api import Workspace

    ws = Workspace(seed=7)
    train = ws.generate(instances_per_behavior=10, background_graphs=30)
    model = ws.mine(train, behaviors=["sshd-login"], top_k=3)
    model.save("sshd.tgm")                       # one deployable artifact

    # ... later, in a different process ...
    model = BehaviorModel.load("sshd.tgm")
    report = ws.query(model, ws.generate_test(instances=24))   # batch
    service = ws.serve(model)                                  # streaming
    detections = service.ingest(event_batch)

Batch and streaming share one matching core, so ``query`` over a frozen
log and ``serve`` over the same log replayed as a stream report
span-identical detections (asserted by ``tests/test_api.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.api.model import BehaviorModel, BehaviorRecord
from repro.core.errors import DatasetError
from repro.core.graph import TemporalGraph
from repro.core.kernel import LabelInterner
from repro.core.miner import MinerConfig
from repro.core.ranking import InterestModel, rank_patterns
from repro.datasets.io import load_corpus, save_corpus
from repro.datasets.store import BACKGROUND_PARTITION, CorpusStore
from repro.experiments.harness import (
    DEFAULT_SPAN_SLACK,
    mine_all_behaviors,
    mine_all_behaviors_from_store,
    span_cap,
)
from repro.query.engine import QueryEngine
from repro.query.evaluation import PrecisionRecall, evaluate_spans, pool_spans
from repro.serving import DetectionFleet, Ingestor, ServingHandle
from repro.serving.checkpoint import DEFAULT_CHECKPOINT_EVERY, CheckpointedService
from repro.serving.http import HttpServingHandle, serve_http
from repro.serving.model_registry import ModelRegistry, RegistryEntry
from repro.serving.service import DetectionService
from repro.syscall.collector import (
    TestData,
    TrainingData,
    build_test_data,
    build_training_data,
)
from repro.syscall.events import SyscallEvent

__all__ = ["Workspace", "EvaluationReport", "BehaviorEvaluation"]

Span = tuple[int, int]

#: Windowed-scan width as a multiple of the model's largest span cap
#: (the overlap between consecutive windows is one cap, so a width of
#: N caps re-scans 1/N of every window — 8 keeps that tax near 12%).
DEFAULT_SCAN_WIDTH_CAPS = 8


def _edge_label_pairs(pattern) -> set[tuple[str, str]]:
    """The ``(src_label, dst_label)`` pairs of a pattern's edges."""
    return {(pattern.label(u), pattern.label(v)) for u, v in pattern.edges}


@dataclass(frozen=True)
class BehaviorEvaluation:
    """One behavior's batch-query outcome: pooled spans (+ accuracy)."""

    behavior: str
    spans: tuple[Span, ...]
    accuracy: PrecisionRecall | None

    def as_dict(self) -> dict:
        """JSON-compatible form."""
        return {
            "behavior": self.behavior,
            "spans": [list(span) for span in self.spans],
            "accuracy": self.accuracy.as_dict() if self.accuracy else None,
        }


@dataclass(frozen=True)
class EvaluationReport:
    """Outcome of :meth:`Workspace.query` over every requested behavior."""

    behaviors: dict[str, BehaviorEvaluation]

    @property
    def identified(self) -> int:
        """Total identified instances (distinct spans) across behaviors."""
        return sum(len(ev.spans) for ev in self.behaviors.values())

    def describe(self) -> str:
        """Human-readable per-behavior table."""
        lines = []
        for ev in self.behaviors.values():
            if ev.accuracy is not None:
                lines.append(ev.accuracy.as_row())
            else:
                lines.append(f"{ev.behavior:20s} identified={len(ev.spans)}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-compatible form."""
        return {name: ev.as_dict() for name, ev in self.behaviors.items()}


class Workspace:
    """Facade over generate → mine → query → serve (see module doc).

    Parameters
    ----------
    seed:
        Default RNG seed for :meth:`generate` / :meth:`generate_test`.
    """

    def __init__(self, seed: int = 7) -> None:
        self.seed = seed

    # ------------------------------------------------------------------
    # data
    # ------------------------------------------------------------------
    def generate(
        self,
        instances_per_behavior: int = 10,
        background_graphs: int = 30,
        behaviors: Sequence[str] | None = None,
        seed: int | None = None,
    ) -> TrainingData:
        """Build a closed-environment training corpus (paper Section 6.1)."""
        overrides: dict = {
            "instances_per_behavior": instances_per_behavior,
            "background_graphs": background_graphs,
            "seed": self.seed if seed is None else seed,
        }
        if behaviors is not None:
            overrides["behaviors"] = tuple(behaviors)
        return build_training_data(**overrides)

    def generate_test(
        self,
        instances: int = 24,
        behaviors: Sequence[str] | None = None,
        seed: int | None = None,
    ) -> TestData:
        """Build a busy-host test log with ground-truth intervals."""
        overrides: dict = {
            "instances": instances,
            "seed": self.seed if seed is None else seed,
        }
        if behaviors is not None:
            overrides["behaviors"] = tuple(behaviors)
        return build_test_data(**overrides)

    def save_corpus(self, train: TrainingData, root: str | Path) -> int:
        """Persist a corpus as a jsonl directory; returns graphs written."""
        return save_corpus(train, root)

    def load_corpus(
        self, root: str | Path, behaviors: Sequence[str] | None = None
    ) -> TrainingData:
        """Load a corpus directory (optionally one behavior subset)."""
        return load_corpus(root, behaviors)

    # ------------------------------------------------------------------
    # offline: mining a model
    # ------------------------------------------------------------------
    def mine(
        self,
        train: TrainingData | None = None,
        behaviors: Sequence[str] | None = None,
        config: MinerConfig | None = None,
        workers: int = 1,
        top_k: int = 5,
        slack: float = DEFAULT_SPAN_SLACK,
        store: CorpusStore | str | Path | None = None,
        memory_budget_mb: float | None = None,
    ) -> BehaviorModel:
        """Mine behavior queries into one versioned :class:`BehaviorModel`.

        Delegates to
        :func:`~repro.experiments.harness.mine_all_behaviors`:
        ``workers`` fans whole behaviors out across processes, each
        running the serial miner (``0`` = one per usable CPU), so every
        behavior's result is the serial loop's.  Each behavior's
        co-optimal patterns are ranked by the Appendix-M interest model
        and the top ``top_k`` become the behavior's queries, capped at
        the behavior's observed lifetime dilated by ``slack``.

        With ``store=`` (a :class:`~repro.datasets.store.CorpusStore` or
        a path to one) instead of ``train=``, the corpus streams from
        disk: one behavior partition is decoded at a time (pool workers
        attach to the store read-only), the interest model and label
        interner fit from the graph catalog without touching edge pages,
        and peak memory stays bounded by the largest partition plus
        ``memory_budget_mb`` — the resulting model is byte-identical to
        mining ``store.load_training_data(behaviors)`` in memory.
        """
        if (train is None) == (store is None):
            raise DatasetError("mine() needs exactly one of train= or store=")
        if store is not None:
            return self._mine_from_store(
                store,
                behaviors=behaviors,
                config=config,
                workers=workers,
                top_k=top_k,
                slack=slack,
                memory_budget_mb=memory_budget_mb,
            )
        names = (
            list(behaviors) if behaviors is not None else list(train.config.behaviors)
        )
        config = config or MinerConfig()
        results = mine_all_behaviors(train, names, config, workers=workers)
        interest = InterestModel.fit(train.all_graphs())
        records: dict[str, BehaviorRecord] = {}
        for name, result in results.items():
            ranked = rank_patterns(result.best, interest)[:top_k]
            records[name] = BehaviorRecord(
                behavior=name,
                span_cap=span_cap(train, name, slack),
                patterns=tuple(ranked),
                co_optimal=len(result.best),
                patterns_explored=result.stats.patterns_explored,
                subgraph_tests=result.stats.subgraph_tests,
                index_prefilter_skips=result.stats.index_prefilter_skips,
                elapsed_seconds=result.stats.elapsed_seconds,
                timed_out=result.stats.timed_out,
            )
        interner = LabelInterner()
        for graph in train.all_graphs():
            for label in graph.labels:
                interner.intern(label)
        return BehaviorModel(
            config=config,
            records=records,
            labels=interner.snapshot(),
            provenance={
                # corpora loaded from disk carry seed=-1 (unknown)
                "seed": train.config.seed if train.config.seed >= 0 else None,
                "instances_per_behavior": train.config.instances_per_behavior,
                "background_graphs": train.config.background_graphs,
                "workers": workers,
                "top_k": top_k,
                "slack": slack,
            },
        )

    def _mine_from_store(
        self,
        store: CorpusStore | str | Path,
        *,
        behaviors: Sequence[str] | None,
        config: MinerConfig | None,
        workers: int,
        top_k: int,
        slack: float,
        memory_budget_mb: float | None,
    ) -> BehaviorModel:
        """:meth:`mine` streaming from a disk-backed corpus store."""
        opened_here = not isinstance(store, CorpusStore)
        if opened_here:
            store = CorpusStore.open(store, memory_budget_mb=memory_budget_mb)
        try:
            names = list(behaviors) if behaviors is not None else store.behaviors()
            if not names:
                raise DatasetError(
                    f"no behavior partitions in store {store.path}"
                )
            config = config or MinerConfig()
            results = mine_all_behaviors_from_store(
                store,
                names,
                config,
                workers=workers,
                memory_budget_mb=memory_budget_mb,
            )
            # one streaming pass over the node-label catalog, in the
            # exact all_graphs() order (selected behaviors, then
            # background), feeding the interner and the interest model
            # together without decoding any edge pages
            interner = LabelInterner()

            def label_sets():
                for name in names:
                    yield from store.iter_graph_labels(name, kind="behavior")
                yield from store.iter_graph_labels(
                    BACKGROUND_PARTITION, kind="background"
                )

            def intern_and_collect():
                for labels in label_sets():
                    for label in labels:
                        interner.intern(label)
                    yield frozenset(labels)

            interest = InterestModel.fit_label_sets(intern_and_collect())
            records: dict[str, BehaviorRecord] = {}
            for name, result in results.items():
                ranked = rank_patterns(result.best, interest)[:top_k]
                records[name] = BehaviorRecord(
                    behavior=name,
                    span_cap=int(store.max_span(name) * slack),
                    patterns=tuple(ranked),
                    co_optimal=len(result.best),
                    patterns_explored=result.stats.patterns_explored,
                    subgraph_tests=result.stats.subgraph_tests,
                    index_prefilter_skips=result.stats.index_prefilter_skips,
                    elapsed_seconds=result.stats.elapsed_seconds,
                    timed_out=result.stats.timed_out,
                )
            return BehaviorModel(
                config=config,
                records=records,
                labels=interner.snapshot(),
                provenance={
                    # a store, like a corpus directory, does not record
                    # its generation seed
                    "seed": None,
                    "instances_per_behavior": max(
                        1,
                        min(
                            store.graph_count(name, kind="behavior")
                            for name in names
                        ),
                    ),
                    "background_graphs": store.graph_count(
                        BACKGROUND_PARTITION, kind="background"
                    ),
                    "workers": workers,
                    "top_k": top_k,
                    "slack": slack,
                },
            )
        finally:
            if opened_here:
                store.close()

    # ------------------------------------------------------------------
    # online: batch query + streaming serve
    # ------------------------------------------------------------------
    def query(
        self,
        model: BehaviorModel,
        test: TestData | TemporalGraph | None = None,
        behaviors: Sequence[str] | None = None,
        store: CorpusStore | str | Path | None = None,
        log: str | None = None,
        scan_width: int | None = None,
        memory_budget_mb: float | None = None,
    ) -> EvaluationReport:
        """Run a model's queries against a monitoring graph (batch).

        ``test`` may be a bare :class:`TemporalGraph` (spans only) or a
        :class:`TestData` with ground truth, in which case each
        behavior's pooled spans are also scored for precision/recall
        (paper Section 6.2 semantics).

        With ``store=`` and ``log=`` instead of ``test=``, the
        monitoring graph replays from a disk-backed corpus store as a
        sweep of overlapping time windows (each an indexed range scan;
        ``scan_width`` overrides the window width).  Queries whose
        pattern contains a label pair absent from the log's stored
        one-edge index are skipped without decoding a page, and window
        overlap equals the model's largest span cap, so pooled spans are
        identical to querying the materialized graph.
        """
        if (test is None) == (store is None):
            raise DatasetError("query() needs exactly one of test= or store=")
        if store is not None:
            if log is None:
                raise DatasetError("query(store=...) needs log= (the log name)")
            return self._query_from_store(
                model,
                store,
                log,
                behaviors=behaviors,
                scan_width=scan_width,
                memory_budget_mb=memory_budget_mb,
            )
        if isinstance(test, TestData):
            graph, truth = test.graph, test.instances
        else:
            graph, truth = test, None
        engine = QueryEngine(graph)
        names = list(behaviors) if behaviors is not None else list(model.behaviors)
        evaluations: dict[str, BehaviorEvaluation] = {}
        for name in names:
            spans = pool_spans(
                engine.search_query(query) for query in model.record(name).queries()
            )
            evaluations[name] = BehaviorEvaluation(
                behavior=name,
                spans=tuple(spans),
                accuracy=(
                    evaluate_spans(name, spans, truth) if truth is not None else None
                ),
            )
        return EvaluationReport(behaviors=evaluations)

    def _query_from_store(
        self,
        model: BehaviorModel,
        store: CorpusStore | str | Path,
        log: str,
        *,
        behaviors: Sequence[str] | None,
        scan_width: int | None,
        memory_budget_mb: float | None,
    ) -> EvaluationReport:
        """:meth:`query` as a windowed sweep over a stored log graph."""
        opened_here = not isinstance(store, CorpusStore)
        if opened_here:
            store = CorpusStore.open(store, memory_budget_mb=memory_budget_mb)
        try:
            names = (
                list(behaviors) if behaviors is not None else list(model.behaviors)
            )
            # sound prefilter via the stored one-edge index: a pattern
            # edge whose label pair never occurs in the log cannot match
            # anywhere, so the whole query is skipped unscanned
            candidates = [
                (name, query, _edge_label_pairs(query.pattern))
                for name in names
                for query in model.record(name).queries()
            ]
            present = store.pair_labels(
                log, set().union(*(pairs for _name, _query, pairs in candidates))
            )
            active: dict[str, list] = {name: [] for name in names}
            for name, query, pairs in candidates:
                if pairs <= present:
                    active[name].append(query)
            cap = max(
                (query.max_span for queries in active.values() for query in queries),
                default=0,
            )
            width = scan_width or max(DEFAULT_SCAN_WIDTH_CAPS * cap, cap + 1)
            if width <= cap:
                raise DatasetError(
                    f"scan_width {width} must exceed the largest span cap {cap}"
                )
            spans_by_behavior: dict[str, set[Span]] = {name: set() for name in names}
            if any(active.values()):
                # overlap >= cap: every match (span <= its query's cap)
                # falls entirely inside at least one window, and the
                # span set dedupes matches seen in two windows
                for _start, window in store.iter_windows(log, width, overlap=cap):
                    if not window.num_edges:
                        continue
                    engine = QueryEngine(window)
                    for name in names:
                        for query in active[name]:
                            spans_by_behavior[name].update(
                                engine.search_query(query)
                            )
            return EvaluationReport(
                behaviors={
                    name: BehaviorEvaluation(
                        behavior=name,
                        spans=tuple(sorted(spans_by_behavior[name])),
                        accuracy=None,
                    )
                    for name in names
                }
            )
        finally:
            if opened_here:
                store.close()

    def serve(
        self,
        model: BehaviorModel,
        window_span: int | None = None,
        behaviors: Sequence[str] | None = None,
        shards: int | None = None,
        registry: ModelRegistry | str | Path | None = None,
        version: int | None = None,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int | None = None,
        **fleet_options,
    ) -> ServingHandle:
        """Build a streaming deployment with the model's queries registered.

        With ``shards`` unset the deployment is a single-window
        :class:`DetectionService`; with ``shards`` set, a sharded
        multi-tenant :class:`~repro.serving.DetectionFleet` (events route
        by tenant key — ``src_key`` prefix before ``"|"`` by default —
        and extra keyword options like ``runner``, ``queue_depth``,
        ``tenant_key``, ``assign`` forward to the fleet constructor).
        Either way the returned
        :class:`~repro.serving.ServingHandle` satisfies the
        :class:`~repro.serving.Ingestor` protocol by delegation — ready
        to ``ingest``/``replay`` — and adds the deployment lifecycle:
        ``reload`` (hot-swap a new model without dropping the window),
        ``close()``, context-manager use, and the :class:`ModelRegistry`
        it serves from when ``registry`` is given.

        With ``checkpoint_dir`` set the deployment is durable: every
        batch is WAL-logged before it is applied and a snapshot is cut
        every ``checkpoint_every`` batches (see
        :mod:`repro.serving.checkpoint`).  Pointing a fresh ``serve()``
        at a directory holding state from an earlier run **resumes** it —
        the retained window, seen-span dedup, and stats are restored and
        detections continue span-identically to a process that never
        died.  The model's slate is hot-reloaded over the recovered one
        if it differs.

        A model mined (or loaded) in this process serves exactly the
        queries the bundle describes, so detections in a fresh serving
        process are span-identical to the mining process's batch
        :meth:`query` over the same log.
        """
        every = (
            DEFAULT_CHECKPOINT_EVERY if checkpoint_every is None
            else checkpoint_every
        )
        ingestor: Ingestor
        if shards is not None:
            ingestor = DetectionFleet(
                shards=shards,
                window_span=window_span,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=every,
                **fleet_options,
            )
        else:
            if fleet_options:
                unexpected = ", ".join(sorted(fleet_options))
                raise TypeError(
                    f"serve() options only valid with shards=: {unexpected}"
                )
            if checkpoint_dir is not None:
                ingestor = self._serve_durable(
                    model, checkpoint_dir, every,
                    window_span=window_span,
                    behaviors=behaviors,
                )
                if registry is not None and not isinstance(registry, ModelRegistry):
                    registry = ModelRegistry(registry)
                return ServingHandle(
                    ingestor, model=model, registry=registry, version=version
                )
            ingestor = DetectionService(window_span=window_span)
        ingestor.register_all(model.queries(behaviors))
        if registry is not None and not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        return ServingHandle(ingestor, model=model, registry=registry, version=version)

    @staticmethod
    def _serve_durable(
        model: BehaviorModel,
        checkpoint_dir: str | Path,
        checkpoint_every: int,
        *,
        window_span: int | None,
        behaviors: Sequence[str] | None,
    ) -> CheckpointedService:
        """Build (or resume) a durable single-service deployment."""
        from repro.serving.checkpoint import CheckpointStore
        from repro.serving.registry import query_to_dict

        slate = model.queries(behaviors)
        probe = CheckpointStore(checkpoint_dir)
        if probe.fresh:
            service = DetectionService(window_span=window_span)
            service.register_all(slate)
            return CheckpointedService(
                service, checkpoint_dir,
                checkpoint_every=checkpoint_every, store=probe,
            )
        probe.close()
        wrapper, _ = CheckpointedService.recover(
            checkpoint_dir,
            window_span=window_span,
            checkpoint_every=checkpoint_every,
        )
        # resume serves the *given* model: hot-reload over the recovered
        # slate when they differ (window retention keeps detections
        # span-identical to a deployment that reloaded while alive)
        recovered_slate = [
            query_to_dict(q) for _, q in wrapper.service.registry
        ]
        if [query_to_dict(q) for q in slate] != recovered_slate:
            wrapper.reload(slate)
        return wrapper

    def serve_http(
        self,
        model: BehaviorModel,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: ModelRegistry | str | Path | None = None,
        window_span: int | None = None,
        behaviors: Sequence[str] | None = None,
        version: int | None = None,
        canary_batches: int | None = None,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int | None = None,
    ) -> HttpServingHandle:
        """Put a model behind the HTTP serving tier (see ``serving/http.py``).

        Builds the same single-service deployment as :meth:`serve` and
        binds it to ``host:port`` (``port=0`` picks an ephemeral port).
        With ``registry`` given, the ``/v1/models`` endpoints manage
        versioned bundles, run canaries, and promote — promotion
        hot-reloads the live deployment without dropping its window.
        With ``checkpoint_dir`` the deployment is durable and resumes
        from the directory on restart (see :meth:`serve`); a graceful
        HTTP shutdown drains in-flight batches and cuts a final
        snapshot.  The returned handle is not serving until
        ``start_background()``/``serve_forever()``.
        """
        handle = self.serve(
            model,
            window_span=window_span,
            behaviors=behaviors,
            registry=registry,
            version=version,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
        )
        options = {} if canary_batches is None else {"canary_batches": canary_batches}
        return serve_http(
            handle, host=host, port=port, registry=handle.registry, **options
        )

    # ------------------------------------------------------------------
    # model registry accessors
    # ------------------------------------------------------------------
    @staticmethod
    def open_registry(root: str | Path) -> ModelRegistry:
        """Open (creating if absent) a model registry directory."""
        return ModelRegistry(root)

    @staticmethod
    def publish_model(
        registry: ModelRegistry | str | Path,
        model: BehaviorModel | str | Path,
    ) -> RegistryEntry:
        """Publish a model (object or bundle path) into a registry."""
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        return registry.publish(model)

    # ------------------------------------------------------------------
    # convenience passthroughs
    # ------------------------------------------------------------------
    @staticmethod
    def load_model(path: str | Path) -> BehaviorModel:
        """Shorthand for :meth:`BehaviorModel.load`."""
        return BehaviorModel.load(path)

    @staticmethod
    def replay(
        service: Ingestor,
        events: Sequence[SyscallEvent],
        batch_size: int = 256,
    ) -> list:
        """Drain a whole event log through any :class:`Ingestor`.

        Returns the accumulated detections —
        :class:`~repro.serving.Detection` from a service,
        :class:`~repro.serving.FleetDetection` from a fleet.
        """
        detections = []
        for _batch, found in service.replay(list(events), batch_size):
            detections.extend(found)
        return detections
