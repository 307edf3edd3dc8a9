"""Parallel sharded mining: seed-partitioned DFS across a process pool.

The serial :class:`~repro.core.miner.TGMiner` explores one-edge seed
patterns in sorted order, sharing three pieces of state across seed
subtrees: the incumbent best score (upper-bound pruning) and the
subgraph/supergraph pruning-history indexes.  That sharing is an
*optimization*, not a correctness requirement — every pruning rule is
sound, i.e. it only ever cuts branches that provably cannot contain a
pattern tying the run's final best score.  :class:`ParallelMiner`
exploits this to shard the search:

* the seed table is enumerated once in the parent process and
  partitioned into per-seed tasks (a seed = one ``(src label, dst
  label)`` pair passing the positive-support floor, in sorted order);
* each pool worker owns a single :class:`~repro.core.miner._MiningRun`
  built once from the training graphs and the task seeds' embedding
  tables (inherited under ``fork``, unpickled from one shared blob
  otherwise, see :func:`run_sharded`): its
  :class:`~repro.core.graph_index.CandidateFilter` caches (mask bit
  positions, label indexes) persist across all the seeds that worker
  mines, and so do its interned-label CSR kernels
  (:mod:`repro.core.kernel`), which the run constructor builds in the
  worker process (:class:`~repro.core.graph.TemporalGraph` drops its
  kernel cache on pickling, so kernels are never shipped) — and every
  task seed is explored with a *fresh* pruning history
  (:meth:`~repro.core.miner._MiningRun.reset`);
* the parent merges per-seed results deterministically in sorted seed
  order (:func:`merge_seed_results`), re-applying the serial miner's
  co-optimal cap and final ranking.

Because every seed subtree is searched in isolation, the mined outcome
is invariant to worker count and task scheduling.  Byte-identity with
the serial miner holds for the mined pattern set itself — ``best_score``
and the ``best`` list with per-pattern scores and frequencies
(:func:`mining_fingerprint`): no sound pruning can remove a branch
containing a final-best-tying pattern, child extensions are always
enumerated in sorted key order, and therefore co-optimal patterns are
discovered in the same depth-first order in both regimes.  Exploration
*counters* (:class:`~repro.core.miner.MiningStats`) and the per-size
incumbents (``best_by_size``) legitimately differ from the serial run,
which explores strictly fewer patterns thanks to its cross-seed history;
both are still deterministic for any worker count.

``config.max_seconds`` applies per seed subtree here (each worker task
arms its own deadline) rather than to the whole search as in the serial
miner, so timed-out runs — like the serial miner's — carry no
byte-identity claim.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import time
from dataclasses import dataclass, fields as dataclass_fields
from typing import Callable, Sequence, TypeVar

from repro.core.errors import MiningError
from repro.core.graph import TemporalGraph
from repro.core.growth import EmbeddingTable, seed_patterns
from repro.core.miner import (
    NEG_INF,
    MinedPattern,
    MinerConfig,
    MiningResult,
    MiningStats,
    _MiningRun,
)
from repro.core.shm import BlobDescriptor, publish_blob, read_blob

__all__ = [
    "SeedResult",
    "ParallelMiner",
    "merge_seed_results",
    "mining_fingerprint",
    "default_workers",
    "resolve_start_method",
    "run_sharded",
]

#: A seed task: the (src label, dst label) pair of a one-edge pattern.
SeedKey = tuple[str, str]

_T = TypeVar("_T")
_R = TypeVar("_R")


def default_workers() -> int:
    """Worker count used when none is requested: one per CPU."""
    return max(1, os.cpu_count() or 1)


def resolve_start_method() -> str:
    """The platform's multiprocessing start method for worker pools.

    ``fork`` on Linux: workers inherit their start-up state copy-on-write
    instead of unpickling a private copy.  Everywhere else ``spawn`` —
    macOS offers fork but CPython made spawn its default there because
    forking after system frameworks load is unsafe.
    """
    if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


def run_sharded(
    tasks: Sequence[_T],
    task_fn: Callable[[_T], _R],
    workers: int,
    initializer: Callable[..., None],
    initargs: tuple,
    deadline_seconds: float | None = None,
) -> list[_R]:
    """Map ``tasks`` through a worker pool, inline when one worker suffices.

    The inline path calls ``initializer``/``task_fn`` in-process, so a
    ``workers=1`` run exercises exactly the code a pool worker runs (and
    keeps results trivially identical to any other worker count).  Module
    globals set by ``initializer`` are left in place after an inline run;
    every call re-initializes, so stale state cannot leak between runs.

    This is the one place that decides how pool workers get their
    start-up state.  Under ``fork`` they inherit ``initargs``.  Under any
    other start method ``(initializer, initargs)`` is pickled once into
    one shared-memory blob (:func:`repro.core.shm.publish_blob`), the
    pool receives only its descriptor, and every worker unpickles the
    state itself: a spawned worker's arguments travel through its
    start-up pipe in one blocking write, so large ones would start the
    workers one at a time.  The blob is unlinked when the pool is done,
    also when a task raised.

    ``deadline_seconds`` is a soft budget for the whole map: once it is
    exceeded, remaining tasks are abandoned (the pool is terminated) and
    the partial result list is returned — callers detect the truncation
    by comparing lengths.
    """
    if not tasks:
        return []
    deadline = (
        time.perf_counter() + deadline_seconds
        if deadline_seconds is not None
        else None
    )
    workers = min(workers, len(tasks))
    if workers <= 1:
        initializer(*initargs)
        results: list[_R] = []
        for task in tasks:
            results.append(task_fn(task))
            if deadline is not None and time.perf_counter() > deadline:
                break
        return results
    method = resolve_start_method()
    handle = None
    if method != "fork":
        blob = pickle.dumps((initializer, initargs), pickle.HIGHEST_PROTOCOL)
        descriptor, handle = publish_blob(blob)
        initializer, initargs = _init_from_blob, (descriptor,)
    try:
        with multiprocessing.get_context(method).Pool(
            processes=workers, initializer=initializer, initargs=initargs
        ) as pool:
            if deadline is None:
                return pool.map(task_fn, tasks, chunksize=1)
            results = []
            for result in pool.imap(task_fn, tasks, chunksize=1):
                results.append(result)
                if time.perf_counter() > deadline:
                    break
            return results
    finally:
        if handle is not None:
            handle.unlink()


def _init_from_blob(descriptor: BlobDescriptor) -> None:
    """Pool initializer of a non-fork pool: run the published initializer."""
    initializer, initargs = pickle.loads(read_blob(descriptor))
    initializer(*initargs)


# ----------------------------------------------------------------------
# per-worker mining state
# ----------------------------------------------------------------------

_STATE: "_WorkerState | None" = None


class _WorkerState:
    """One pool worker's mining state, built once per process.

    Owns a :class:`_MiningRun` (hence one CandidateFilter + tester whose
    caches serve every seed this worker mines) and the embedding tables
    of the task seeds, which the parent already enumerated to build the
    task list.  Tasks themselves stay label-pair-sized.
    """

    def __init__(
        self,
        config: MinerConfig,
        positives: Sequence[TemporalGraph],
        negatives: Sequence[TemporalGraph],
        seeds: dict[SeedKey, EmbeddingTable],
    ) -> None:
        self.run = _MiningRun(config, positives, negatives)
        self.seeds = seeds

    def mine_seed(self, seed: SeedKey) -> "SeedResult":
        run = self.run
        run.reset()
        started = time.perf_counter()
        run.run_seed(seed[0], seed[1], self.seeds[seed])
        run.stats.elapsed_seconds = time.perf_counter() - started
        return SeedResult(
            seed=seed,
            best_score=run.best_score,
            best=tuple(run.best),
            best_by_size=dict(run.best_by_size),
            stats=run.stats,
        )


def _init_worker(
    config: MinerConfig,
    positives: Sequence[TemporalGraph],
    negatives: Sequence[TemporalGraph],
    seeds: dict[SeedKey, EmbeddingTable],
) -> None:
    global _STATE
    _STATE = _WorkerState(config, positives, negatives, seeds)


def _mine_seed_task(seed: SeedKey) -> "SeedResult":
    if _STATE is None:  # pragma: no cover - defensive; pool always inits
        raise MiningError("mining worker used before initialization")
    return _STATE.mine_seed(seed)


def _clear_worker_state() -> None:
    # an inline (workers=1) run sets the module global in this process;
    # drop it so the corpus, seed tables, and filter caches can be
    # garbage-collected in library use
    global _STATE
    _STATE = None


# ----------------------------------------------------------------------
# results and merging
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SeedResult:
    """Outcome of mining one seed subtree in isolation.

    ``best`` is kept in depth-first discovery order (the serial miner's
    pre-ranking order) so the merge can re-apply the global co-optimal
    cap exactly as the serial run would have.
    """

    seed: SeedKey
    best_score: float
    best: tuple[MinedPattern, ...]
    best_by_size: dict[int, MinedPattern]
    stats: MiningStats


def merge_seed_results(
    results: Sequence[SeedResult], config: MinerConfig
) -> MiningResult:
    """Deterministically reconcile per-seed results into one MiningResult.

    Seeds are processed in sorted key order — the serial miner's seed
    order — so the concatenation of per-seed co-optimal lists *is* the
    global discovery order.  A seed whose local best trails the global
    best contributes nothing; a seed that ties contributes its co-optimal
    list (already capped per shard, which can only drop patterns that
    the global cap would drop too, since a dropped pattern has
    ``max_best_patterns`` earlier co-optimals within its own seed).  The
    merged list is then capped and ranked exactly like the serial run's.

    ``best_by_size`` keeps, per size, the highest score seen in any seed;
    ties resolve to the earliest seed in sorted order.  Stats counters
    are summed; ``elapsed_seconds`` is left for the caller to stamp with
    the parent's wall clock.
    """
    ordered = sorted(results, key=lambda r: r.seed)
    best_score = NEG_INF
    for result in ordered:
        if result.best_score > best_score:
            best_score = result.best_score

    best: list[MinedPattern] = []
    for result in ordered:
        if result.best_score != best_score:
            continue
        for mined in result.best:
            if len(best) >= config.max_best_patterns:
                break
            best.append(mined)
    best.sort(key=lambda m: (m.pattern.num_edges, str(m.pattern.key())))

    best_by_size: dict[int, MinedPattern] = {}
    stats = MiningStats()
    for result in ordered:
        for size, mined in result.best_by_size.items():
            incumbent = best_by_size.get(size)
            if incumbent is None or mined.score > incumbent.score:
                best_by_size[size] = mined
        seed_stats = result.stats
        # every counter sums across shards; the two non-counter fields
        # (parent wall clock, any-shard timeout flag) are special-cased
        # so counters added to MiningStats later merge automatically
        for stat_field in dataclass_fields(MiningStats):
            if stat_field.name in ("elapsed_seconds", "timed_out"):
                continue
            setattr(
                stats,
                stat_field.name,
                getattr(stats, stat_field.name)
                + getattr(seed_stats, stat_field.name),
            )
        stats.timed_out = stats.timed_out or seed_stats.timed_out

    return MiningResult(
        best_score=best_score,
        best=best,
        best_by_size=best_by_size,
        stats=stats,
    )


def mining_fingerprint(result: MiningResult) -> tuple:
    """Canonical identity of a mined pattern set.

    Two results with equal fingerprints found the same best score and the
    same ranked co-optimal pattern list, with bit-equal scores and
    frequencies — the byte-identity contract between serial and parallel
    mining (and between PR 1's index-on/off ablation runs).
    """
    return (
        result.best_score,
        tuple(
            (m.pattern.key(), m.score, m.pos_freq, m.neg_freq)
            for m in result.best
        ),
    )


# ----------------------------------------------------------------------
# the miner
# ----------------------------------------------------------------------


class ParallelMiner:
    """Work-sharded TGMiner producing identical mined pattern sets.

    Typical use::

        result = ParallelMiner(MinerConfig(max_edges=6), workers=4).mine(
            positives, negatives
        )

    ``workers`` defaults to the CPU count; ``workers=1`` runs the same
    seed-isolated search inline (no pool), which guarantees results are
    invariant to the worker count.  Pools start on the platform's start
    method, and :func:`run_sharded` decides how the workers receive the
    training graphs and seed tables; the mined result is byte-identical
    either way.
    """

    def __init__(
        self,
        config: MinerConfig | None = None,
        workers: int | None = None,
    ) -> None:
        self.config = config or MinerConfig()
        self.config.validate()
        self.workers = default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise MiningError("workers must be >= 1")

    # ------------------------------------------------------------------
    def mine(
        self,
        positives: Sequence[TemporalGraph],
        negatives: Sequence[TemporalGraph],
    ) -> MiningResult:
        """Mine the most discriminative patterns with sharded workers."""
        self.config.validate()
        if not positives:
            raise MiningError("positive graph set must not be empty")
        positives = list(positives)
        negatives = list(negatives)
        for graph in positives + negatives:
            if not graph.frozen:
                graph.freeze()
        started = time.perf_counter()
        seeds = seed_patterns(positives + negatives)
        tasks = self._filter_tasks(seeds, len(positives))
        # only seeds passing the support floor are ever mined; don't
        # ship (or retain) the embedding tables of the filtered-out rest
        task_seeds = {key: seeds[key] for key in tasks}
        # ``max_seconds`` stays a soft budget for the whole search, as in
        # the serial miner: each seed subtree additionally arms its own
        # deadline (workers cannot see each other's clocks), and the
        # parent stops dispatching once the budget is spent, so the
        # wall-clock overshoot is bounded by the in-flight subtrees.
        try:
            results = run_sharded(
                tasks,
                _mine_seed_task,
                workers=self.workers,
                initializer=_init_worker,
                initargs=(self.config, positives, negatives, task_seeds),
                deadline_seconds=self.config.max_seconds,
            )
        finally:
            _clear_worker_state()
        merged = merge_seed_results(results, self.config)
        if len(results) < len(tasks):
            merged.stats.timed_out = True
        merged.stats.elapsed_seconds = time.perf_counter() - started
        return merged

    def _filter_tasks(
        self, seeds: dict[SeedKey, EmbeddingTable], n_pos: int
    ) -> list[SeedKey]:
        min_count = self.config.min_pos_support * n_pos
        tasks: list[SeedKey] = []
        for key in sorted(seeds):
            pos_graphs = sum(1 for gid in seeds[key] if gid < n_pos)
            if pos_graphs < min_count:
                continue
            tasks.append(key)
        return tasks
