"""End-to-end pipeline pieces for the paper's experiments (Section 6).

This module wires the full behavior-query formulation pipeline of
Figure 2 — mine discriminative patterns on the training corpus, rank them
with domain knowledge, search the test log, score precision/recall — so
the per-table benchmark files stay short and declarative.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Sequence

from repro.baselines.nodeset import NodeSetQuery, mine_nodeset_query
from repro.baselines.ntemp import NtempQuery, mine_ntemp_queries
from repro.core.graph import TemporalGraph
from repro.core.miner import MinerConfig, MiningResult, TGMiner
from repro.core.parallel import default_workers, run_sharded
from repro.core.pattern import TemporalPattern
from repro.core.ranking import InterestModel, rank_patterns
from repro.query.engine import QueryEngine
from repro.query.evaluation import PrecisionRecall, evaluate_spans, pool_spans
from repro.syscall.collector import TestData, TrainingData

__all__ = [
    "DEFAULT_SPAN_SLACK",
    "interest_model",
    "span_cap",
    "span_cap_for_graphs",
    "mine_behavior",
    "mine_all_behaviors",
    "mine_all_behaviors_from_store",
    "formulate_tgminer_queries",
    "formulate_ntemp_queries",
    "formulate_nodeset_query",
    "formulate_behavior_queries",
    "BehaviorAccuracy",
    "accuracy_for_behavior",
]

#: Span slack converting closed-environment lifetimes to busy-host
#: lifetimes.  Training logs contain only the behavior, while the test
#: host interleaves `background_mix` extra events into every instance
#: window, dilating spans measured on the event-index clock.
DEFAULT_SPAN_SLACK = 2.5


def span_cap(
    train: TrainingData,
    behavior: str,
    slack: float = DEFAULT_SPAN_SLACK,
) -> int:
    """Match-window cap: longest observed lifetime with interleave slack."""
    return span_cap_for_graphs(train.behavior(behavior), slack)


def span_cap_for_graphs(
    graphs: Sequence[TemporalGraph], slack: float = DEFAULT_SPAN_SLACK
) -> int:
    """:func:`span_cap` for a bare positive-graph list (the CLI path).

    The single lifetime-with-slack implementation; :func:`span_cap`
    delegates here.
    """
    spans = [
        graph.span()[1] - graph.span()[0] for graph in graphs if graph.num_edges
    ]
    return int(max(spans, default=0) * slack)


def interest_model(train: TrainingData) -> InterestModel:
    """Fit the Appendix-M interest model over the whole training corpus."""
    return InterestModel.fit(train.all_graphs())


def mine_behavior(
    train: TrainingData,
    behavior: str,
    config: MinerConfig | None = None,
) -> MiningResult:
    """Run TGMiner for one behavior (positives) vs. background (negatives)."""
    miner = TGMiner(config or MinerConfig())
    return miner.mine(train.behavior(behavior), train.background)


# ----------------------------------------------------------------------
# behavior-level fan-out
# ----------------------------------------------------------------------

_FANOUT_STATE: tuple[MinerConfig, list[TemporalGraph]] | None = None


def _init_behavior_worker(
    config: MinerConfig,
    background: list[TemporalGraph],
) -> None:
    # the shared negative set rides in the one-time initializer; each
    # task carries only its own behavior's positive graphs, so a worker
    # never unpickles behaviors it does not mine
    global _FANOUT_STATE
    _FANOUT_STATE = (config, background)


def _mine_behavior_task(
    item: tuple[str, list[TemporalGraph]],
) -> tuple[str, MiningResult]:
    assert _FANOUT_STATE is not None
    name, positives = item
    config, background = _FANOUT_STATE
    return name, TGMiner(config).mine(positives, background)


def _clear_fanout_state() -> None:
    # an inline (workers=1) run sets the module global in this process;
    # drop it so the corpus can be garbage-collected in library use
    global _FANOUT_STATE
    _FANOUT_STATE = None


def mine_all_behaviors(
    train: TrainingData,
    behaviors: Sequence[str] | None = None,
    config: MinerConfig | None = None,
    workers: int | None = 1,
) -> dict[str, MiningResult]:
    """Mine every behavior of a corpus, fanning runs out across workers.

    The paper mines each behavior independently against the shared
    background set — an embarrassingly parallel outer loop, and the one
    parallel mining path.  With ``workers > 1`` each behavior's full
    mining run executes in its own pool process (serial :class:`TGMiner`
    inside, so per-behavior results, counters included, are the serial
    loop's); ``workers=None`` or ``0`` means one worker per usable CPU
    (:func:`~repro.core.parallel.default_workers`), matching the CLI's
    ``-j 0``.

    Returns an ordered mapping ``behavior name -> MiningResult`` in the
    requested (or corpus) behavior order.
    """
    names = list(behaviors) if behaviors is not None else list(train.config.behaviors)
    behavior_map = {name: train.behavior(name) for name in names}
    config = config or MinerConfig()
    config.validate()
    workers = default_workers() if workers in (None, 0) else int(workers)
    try:
        results = run_sharded(
            [(name, behavior_map[name]) for name in names],
            _mine_behavior_task,
            workers=workers,
            initializer=_init_behavior_worker,
            initargs=(config, train.background),
        )
    finally:
        _clear_fanout_state()
    return dict(results)


# ----------------------------------------------------------------------
# behavior-level fan-out from a disk-backed corpus store
# ----------------------------------------------------------------------

_STORE_STATE: tuple[MinerConfig, object, list[TemporalGraph]] | None = None


def _init_store_worker(
    config: MinerConfig, store_path: str, memory_budget_mb: float | None
) -> None:
    # unlike the in-memory fan-out, nothing graph-shaped crosses the
    # process boundary: each worker opens the store file read-only and
    # decodes the shared negative set once
    global _STORE_STATE
    from repro.datasets.store import BACKGROUND_PARTITION, CorpusStore

    store = CorpusStore.open(store_path, memory_budget_mb=memory_budget_mb)
    background = store.load_graphs(BACKGROUND_PARTITION, kind="background")
    _STORE_STATE = (config, store, background)


def _mine_store_task(name: str) -> tuple[str, MiningResult]:
    assert _STORE_STATE is not None
    config, store, background = _STORE_STATE
    positives = store.load_graphs(name, kind="behavior")
    return name, TGMiner(config).mine(positives, background)


def _clear_store_state() -> None:
    global _STORE_STATE
    if _STORE_STATE is not None:
        _STORE_STATE[1].close()
    _STORE_STATE = None


def mine_all_behaviors_from_store(
    store,
    behaviors: Sequence[str] | None = None,
    config: MinerConfig | None = None,
    workers: int | None = 1,
    memory_budget_mb: float | None = None,
) -> dict[str, MiningResult]:
    """:func:`mine_all_behaviors` streaming from a :class:`CorpusStore`.

    ``store`` is a :class:`~repro.datasets.store.CorpusStore` or a path
    to one.  Only one behavior's positive graphs are decoded at a time
    (plus the shared background set), so peak memory is bounded by the
    largest single partition, not the corpus.  With ``workers > 1``
    tasks carry only behavior *names* — each pool worker attaches to the
    store file read-only and reads its own graphs.  Results are
    byte-identical to :func:`mine_all_behaviors` over the materialized
    corpus.
    """
    from repro.datasets.store import CorpusStore

    opened_here = not isinstance(store, CorpusStore)
    if opened_here:
        store = CorpusStore.open(store, memory_budget_mb=memory_budget_mb)
    try:
        names = list(behaviors) if behaviors is not None else store.behaviors()
        config = config or MinerConfig()
        config.validate()
        workers = default_workers() if workers in (None, 0) else int(workers)
        try:
            results = run_sharded(
                names,
                _mine_store_task,
                workers=workers,
                initializer=_init_store_worker,
                initargs=(config, str(store.path), memory_budget_mb),
            )
        finally:
            _clear_store_state()
        return dict(results)
    finally:
        if opened_here:
            store.close()


def formulate_tgminer_queries(
    train: TrainingData,
    behavior: str,
    max_edges: int = 6,
    top_k: int = 5,
    min_pos_support: float = 0.7,
    max_seconds: float | None = None,
    model: InterestModel | None = None,
) -> list[TemporalPattern]:
    """Full TGMiner query formulation: mine, rank, take top-k."""
    result = mine_behavior(
        train,
        behavior,
        MinerConfig(
            max_edges=max_edges,
            min_pos_support=min_pos_support,
            max_seconds=max_seconds,
        ),
    )
    model = model or interest_model(train)
    ranked = rank_patterns(result.best, model)
    return [m.pattern for m in ranked[:top_k]]


def formulate_ntemp_queries(
    train: TrainingData,
    behavior: str,
    max_edges: int = 6,
    top_k: int = 5,
    min_pos_support: float = 0.7,
    max_seconds: float | None = None,
    model: InterestModel | None = None,
) -> list[NtempQuery]:
    """Ntemp query formulation (non-temporal miner + same ranking)."""
    model = model or interest_model(train)
    return mine_ntemp_queries(
        train.behavior(behavior),
        train.background,
        interest=model,
        max_edges=max_edges,
        top_k=top_k,
        min_pos_support=min_pos_support,
        max_seconds=max_seconds,
    )


def formulate_nodeset_query(
    train: TrainingData, behavior: str, k: int = 6
) -> NodeSetQuery:
    """NodeSet query formulation (top-k discriminative labels)."""
    return mine_nodeset_query(train.behavior(behavior), train.background, k=k)


def formulate_behavior_queries(
    train: TrainingData,
    behavior: str,
    max_edges: int = 6,
    top_k: int = 5,
    min_pos_support: float = 0.7,
    max_seconds: float | None = None,
    model: InterestModel | None = None,
    slack: float = DEFAULT_SPAN_SLACK,
) -> list["BehaviorQuery"]:
    """Mine one behavior's top-k patterns as registrable serving queries.

    This is the bridge from the paper's offline formulation pipeline to
    the streaming side: each ranked pattern is wrapped with the
    behavior's span cap into a
    :class:`~repro.serving.registry.BehaviorQuery` ready for
    ``DetectionService.register``.
    """
    from repro.serving.registry import BehaviorQuery

    patterns = formulate_tgminer_queries(
        train,
        behavior,
        max_edges=max_edges,
        top_k=top_k,
        min_pos_support=min_pos_support,
        max_seconds=max_seconds,
        model=model,
    )
    cap = span_cap(train, behavior, slack)
    return [
        BehaviorQuery(name=f"{behavior}#{rank}", pattern=pattern, max_span=cap)
        for rank, pattern in enumerate(patterns, start=1)
    ]


@dataclass
class BehaviorAccuracy:
    """Table 2 row: per-method precision/recall for one behavior."""

    behavior: str
    tgminer: PrecisionRecall | None = None
    ntemp: PrecisionRecall | None = None
    nodeset: PrecisionRecall | None = None


def accuracy_for_behavior(
    train: TrainingData,
    test: TestData,
    behavior: str,
    engine: QueryEngine | None = None,
    methods: tuple[str, ...] = ("tgminer", "ntemp", "nodeset"),
    query_size: int = 6,
    top_k: int = 5,
    mining_seconds: float | None = 60.0,
    model: InterestModel | None = None,
) -> BehaviorAccuracy:
    """Evaluate one behavior's queries under the requested methods."""
    engine = engine or QueryEngine(test.graph)
    cap = span_cap(train, behavior)
    row = BehaviorAccuracy(behavior=behavior)
    model = model or interest_model(train)

    if "tgminer" in methods:
        queries = formulate_tgminer_queries(
            train,
            behavior,
            max_edges=query_size,
            top_k=top_k,
            max_seconds=mining_seconds,
            model=model,
        )
        spans = pool_spans(engine.search_temporal(q, cap) for q in queries)
        row.tgminer = evaluate_spans(behavior, spans, test.instances)

    if "ntemp" in methods:
        nqueries = formulate_ntemp_queries(
            train,
            behavior,
            max_edges=query_size,
            top_k=top_k,
            max_seconds=mining_seconds,
            model=model,
        )
        spans = pool_spans(
            engine.search_nontemporal(q.pattern, cap) for q in nqueries
        )
        row.ntemp = evaluate_spans(behavior, spans, test.instances)

    if "nodeset" in methods:
        nodeset = formulate_nodeset_query(train, behavior, k=query_size)
        spans = engine.search_nodeset(nodeset, max_span=cap)
        row.nodeset = evaluate_spans(behavior, spans, test.instances)

    return row
