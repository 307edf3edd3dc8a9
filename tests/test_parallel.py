"""Determinism suite for the parallel sharded mining engine.

The contract under test: :class:`ParallelMiner` produces byte-identical
mined pattern sets (best score + ranked co-optimal list with bit-equal
scores and frequencies) to the serial :class:`TGMiner`, for every worker
count, on every bundled workload — including graphs whose concurrent
edges were sequentialized with the ``random`` policy under a fixed seed.
"""

import multiprocessing
import os
import pickle
import sys
import time

import pytest

import repro.core.parallel as parallel
from repro.core.concurrent import sequentialize
from repro.core.errors import MiningError
from repro.core.graph import TemporalEdge
from repro.core.miner import MinedPattern, MinerConfig, MiningStats, TGMiner
from repro.core.parallel import (
    ParallelMiner,
    SeedResult,
    merge_seed_results,
    mining_fingerprint,
    resolve_start_method,
    run_sharded,
)
from repro.core.pattern import TemporalPattern
from repro.core.shm import publish_blob, read_blob
from repro.datasets.store import CorpusStore
from repro.experiments.harness import (
    mine_all_behaviors,
    mine_all_behaviors_from_store,
)
from repro.syscall import build_training_data

WORKER_COUNTS = (1, 2, 3, 4)


@pytest.fixture(scope="module")
def train():
    return build_training_data(instances_per_behavior=5, background_graphs=10)


def fingerprints_for(positives, negatives, config):
    serial = TGMiner(config).mine(positives, negatives)
    parallel = {
        workers: ParallelMiner(config, workers=workers).mine(positives, negatives)
        for workers in WORKER_COUNTS
    }
    return serial, parallel


class TestByteIdentity:
    @pytest.mark.parametrize(
        "behavior", ["gzip-decompress", "ftp-download", "scp-download"]
    )
    def test_identical_to_serial_across_behaviors(self, train, behavior):
        config = MinerConfig(max_edges=4, min_pos_support=0.7)
        serial, parallel = fingerprints_for(
            train.behavior(behavior), train.background, config
        )
        expected = mining_fingerprint(serial)
        for workers, result in parallel.items():
            assert mining_fingerprint(result) == expected, f"workers={workers}"

    def test_identical_under_linear_residuals(self, train):
        config = MinerConfig(
            max_edges=3, min_pos_support=0.7, residual_equivalence="linear"
        )
        serial, parallel = fingerprints_for(
            train.behavior("bzip2-decompress"), train.background, config
        )
        expected = mining_fingerprint(serial)
        for result in parallel.values():
            assert mining_fingerprint(result) == expected

    def test_identical_without_index_prefilter(self, train):
        config = MinerConfig(max_edges=3, min_pos_support=0.7, index_prefilter=False)
        serial, parallel = fingerprints_for(
            train.behavior("gzip-decompress"), train.background, config
        )
        expected = mining_fingerprint(serial)
        for result in parallel.values():
            assert mining_fingerprint(result) == expected

    def test_worker_results_invariant_to_worker_count(self, train):
        # Stronger than the pattern-set contract: the full merged result
        # (including per-size incumbents and summed counters) may not
        # depend on how many processes mined the seeds.  ftp-download's
        # history lookups never reach a subgraph test; apt-get-update's
        # do, so its prefilter and pruning counters are pinned too.
        config = MinerConfig(max_edges=4, min_pos_support=0.7)
        for behavior in ("ftp-download", "apt-get-update"):
            results = {
                workers: ParallelMiner(config, workers=workers).mine(
                    train.behavior(behavior), train.background
                )
                for workers in WORKER_COUNTS
            }
            reference = results[1]
            ref_sizes = {
                s: (m.pattern.key(), m.score)
                for s, m in reference.best_by_size.items()
            }
            for workers, result in results.items():
                assert mining_fingerprint(result) == mining_fingerprint(reference)
                assert {
                    s: (m.pattern.key(), m.score)
                    for s, m in result.best_by_size.items()
                } == ref_sizes
                for counter in (
                    "patterns_explored",
                    "subgraph_tests",
                    "index_prefilter_checks",
                    "index_prefilter_skips",
                    "subgraph_pruning_triggers",
                    "supergraph_pruning_triggers",
                ):
                    assert getattr(result.stats, counter) == getattr(
                        reference.stats, counter
                    ), f"{behavior} workers={workers} {counter}"
        assert reference.stats.index_prefilter_skips > 0
        assert reference.stats.supergraph_pruning_triggers > 0


def _concurrent_workload(seed: int, graphs: int, flip: bool):
    """Graphs with concurrent edges, sequentialized by the random policy.

    ``flip`` varies edge insertion order between positive and negative
    sets so the two classes end up with genuinely different graphs.
    """
    out = []
    for g in range(graphs):
        labels = ["A", "B", "C", "D"]
        edges = []
        raw = [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (3, 0)]
        if flip:
            raw = raw[::-1] + [(0, 3)]
        for i, (u, v) in enumerate(raw):
            # two edges per timestamp -> every timestamp is a concurrent block
            edges.append(TemporalEdge(u, v, i // 2))
        out.append(
            sequentialize(
                edges, labels, policy="random", seed=seed + g, name=f"conc{g}"
            )
        )
    return out


class TestRandomSequentializationWorkload:
    def test_identical_on_random_policy_graphs(self):
        positives = _concurrent_workload(seed=101, graphs=6, flip=False)
        negatives = _concurrent_workload(seed=202, graphs=6, flip=True)
        config = MinerConfig(max_edges=4, min_pos_support=0.5)
        serial = TGMiner(config).mine(positives, negatives)
        expected = mining_fingerprint(serial)
        assert serial.stats.patterns_explored > 0
        for workers in WORKER_COUNTS:
            result = ParallelMiner(config, workers=workers).mine(positives, negatives)
            assert mining_fingerprint(result) == expected, f"workers={workers}"

    def test_random_policy_is_seed_deterministic(self):
        # the sequentialized inputs themselves must be reproducible, or
        # the byte-identity claim above would be vacuous
        first = _concurrent_workload(seed=7, graphs=2, flip=False)
        second = _concurrent_workload(seed=7, graphs=2, flip=False)
        for a, b in zip(first, second):
            assert [e.endpoints() for e in a.edges] == [
                e.endpoints() for e in b.edges
            ]


class TestMergeSeedResults:
    def _mined(self, src, dst, score, edges=1):
        pattern = TemporalPattern.single_edge(src, dst)
        for _ in range(edges - 1):
            pattern = pattern.grow_inward(0, 1)
        return MinedPattern(pattern, score, 1.0, 0.0)

    def _seed_result(self, seed, best, best_by_size=None):
        score = best[0].score if best else float("-inf")
        return SeedResult(
            seed=seed,
            best_score=score,
            best=tuple(best),
            best_by_size=best_by_size or {},
            stats=MiningStats(patterns_explored=len(best)),
        )

    def test_empty_results(self):
        merged = merge_seed_results([], MinerConfig())
        assert merged.best == [] and merged.best_score == float("-inf")

    def test_losing_seeds_contribute_nothing(self):
        winner = self._seed_result(("A", "B"), [self._mined("A", "B", 5.0)])
        loser = self._seed_result(("A", "C"), [self._mined("A", "C", 1.0)])
        merged = merge_seed_results([loser, winner], MinerConfig())
        assert merged.best_score == 5.0
        assert [m.score for m in merged.best] == [5.0]

    def test_cap_applies_in_seed_order(self):
        config = MinerConfig(max_best_patterns=3)
        first = self._seed_result(
            ("A", "A"), [self._mined("A", "A", 2.0) for _ in range(2)]
        )
        second = self._seed_result(
            ("B", "B"), [self._mined("B", "B", 2.0) for _ in range(2)]
        )
        # passed out of order: the merge must re-sort by seed key
        merged = merge_seed_results([second, first], config)
        assert len(merged.best) == 3
        labels = [m.pattern.label(0) for m in merged.best]
        assert labels.count("A") == 2 and labels.count("B") == 1

    def test_best_by_size_prefers_higher_score_then_earlier_seed(self):
        low = self._mined("A", "B", 1.0)
        high = self._mined("C", "D", 3.0)
        tie_early = self._mined("A", "E", 3.0)
        first = self._seed_result(("A", "B"), [low], {1: low})
        second = self._seed_result(("A", "E"), [tie_early], {1: tie_early})
        third = self._seed_result(("C", "D"), [high], {1: high})
        merged = merge_seed_results([third, first, second], MinerConfig())
        # 3.0 beats 1.0; among the 3.0 ties the earlier seed ("A","E") wins
        assert merged.best_by_size[1].pattern.key() == tie_early.pattern.key()

    def test_stats_are_summed(self):
        first = self._seed_result(("A", "B"), [self._mined("A", "B", 1.0)])
        second = self._seed_result(("B", "C"), [self._mined("B", "C", 2.0)])
        merged = merge_seed_results([first, second], MinerConfig())
        assert merged.stats.patterns_explored == 2


class TestParallelMinerApi:
    def test_rejects_empty_positives(self):
        with pytest.raises(MiningError):
            ParallelMiner(MinerConfig()).mine([], [])

    def test_rejects_bad_worker_count(self):
        with pytest.raises(MiningError):
            ParallelMiner(MinerConfig(), workers=0)

    def test_invalid_config_raises_at_construction(self):
        with pytest.raises(MiningError):
            ParallelMiner(MinerConfig(max_edges=0))

    def test_invalid_config_raises_at_mine(self, train):
        miner = ParallelMiner(MinerConfig(max_edges=2))
        miner.config = MinerConfig(min_pos_support=2.0)
        with pytest.raises(MiningError):
            miner.mine(train.behavior("gzip-decompress"), train.background)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_max_seconds_budget_bounds_wall_clock(self, train, workers):
        # max_seconds is a soft budget for the whole sharded search, not
        # a per-seed allowance: the parent stops dispatching once spent
        config = MinerConfig(max_edges=6, min_pos_support=0.5, max_seconds=0.05)
        started = time.perf_counter()
        result = ParallelMiner(config, workers=workers).mine(
            train.behavior("sshd-login"), train.background
        )
        elapsed = time.perf_counter() - started
        assert result.stats.timed_out
        # generous ceiling: budget + in-flight subtrees + pool startup,
        # nowhere near the tasks x budget a per-seed deadline would allow
        assert elapsed < 10.0

    def test_default_start_method_resolution(self):
        # no knob: pools start on the platform's method
        platform = (
            "fork"
            if sys.platform == "linux"
            and "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        assert resolve_start_method() == platform


def _shm_entries():
    """Names of live ``SharedMemory`` segments (Linux).

    Only ``psm_*`` entries: a terminated pool's semaphores may outlive
    it for a moment, a published segment may not.
    """
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def _count_publishes(monkeypatch):
    """Record the payload size of every blob ``run_sharded`` publishes."""
    published = []
    real_publish = parallel.publish_blob

    def counting_publish(payload):
        published.append(len(payload))
        return real_publish(payload)

    monkeypatch.setattr(parallel, "publish_blob", counting_publish)
    return published


def _assert_serial_fingerprints(results, behaviors, train, config):
    assert list(results) == behaviors
    for name in behaviors:
        serial = TGMiner(config).mine(train.behavior(name), train.background)
        assert mining_fingerprint(results[name]) == mining_fingerprint(serial), name


@pytest.fixture
def spawn(monkeypatch):
    """Start pools with ``spawn``, patched in this process only."""
    monkeypatch.setattr(parallel, "resolve_start_method", lambda: "spawn")


class TestSharedMemoryCorpus:
    """Spawned pools get their corpus from one shared-memory blob.

    Under ``spawn`` :func:`run_sharded` pickles a pool's start-up state
    (the corpus and seed tables, for the seed-sharded miner) once into
    one segment and ships the workers its descriptor; ``fork`` and
    inline runs publish nothing.  Every pooled caller must still give
    the serial result, and no run may leave a segment behind.
    """

    def _corpus(self):
        positives = _concurrent_workload(seed=11, graphs=3, flip=False)
        negatives = _concurrent_workload(seed=22, graphs=3, flip=True)
        return positives, negatives

    def test_unlink_is_idempotent_and_cleans_dev_shm(self):
        before = _shm_entries()
        descriptor, handle = publish_blob(b"payload")
        assert descriptor.shm_name.lstrip("/") in _shm_entries()
        assert read_blob(descriptor) == b"payload"
        handle.unlink()
        handle.unlink()  # second call must be a no-op
        assert _shm_entries() <= before

    def test_shared_mining_identical_to_serial(self, monkeypatch, spawn):
        positives, negatives = self._corpus()
        config = MinerConfig(max_edges=3, min_pos_support=0.5)
        expected = mining_fingerprint(TGMiner(config).mine(positives, negatives))
        published = _count_publishes(monkeypatch)
        before = _shm_entries()
        for workers in (1, 2, 4):
            result = ParallelMiner(config, workers=workers).mine(
                positives, negatives
            )
            assert mining_fingerprint(result) == expected, f"workers={workers}"
        # the two pooled runs mined from a blob; the inline one not
        assert len(published) == 2
        assert _shm_entries() <= before, "leaked shared-memory segments"

    def test_behavior_fanout_identical_to_serial(self, train, monkeypatch, spawn):
        config = MinerConfig(max_edges=3, min_pos_support=0.7)
        behaviors = ["gzip-decompress", "ftp-download"]
        published = _count_publishes(monkeypatch)
        results = mine_all_behaviors(
            train, behaviors=behaviors, config=config, workers=2
        )
        _assert_serial_fingerprints(results, behaviors, train, config)
        assert len(published) == 1

    def test_store_fanout_identical_to_serial(
        self, train, tmp_path, monkeypatch, spawn
    ):
        config = MinerConfig(max_edges=3, min_pos_support=0.7)
        behaviors = ["gzip-decompress", "ftp-download"]
        path = tmp_path / "corpus.store"
        with CorpusStore.create(path) as builder:
            builder.add_training_data(train)
        published = _count_publishes(monkeypatch)
        results = mine_all_behaviors_from_store(
            path, behaviors=behaviors, config=config, workers=2
        )
        _assert_serial_fingerprints(results, behaviors, train, config)
        assert len(published) == 1

    def test_large_initargs_ship_as_one_small_descriptor(self, monkeypatch, spawn):
        # a spawned worker's arguments go down its start-up pipe in one
        # blocking write; past the 64 KiB pipe buffer that serializes
        # pool start-up, so the pool may only see the blob's descriptor
        pool_initargs = []
        real_pool = multiprocessing.context.BaseContext.Pool

        def recording_pool(ctx, processes=None, initializer=None, initargs=()):
            pool_initargs.append(pickle.dumps((initializer, initargs)))
            return real_pool(ctx, processes, initializer, initargs)

        monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", recording_pool)
        published = _count_publishes(monkeypatch)
        before = _shm_entries()
        payload = bytes(100_000)
        assert len(pickle.dumps((len, (payload,)))) > 64 * 1024
        assert run_sharded([-1, 2, -3], abs, 2, len, (payload,)) == [1, 2, 3]
        assert len(published) == 1 and published[0] > 64 * 1024
        assert len(pool_initargs) == 1 and len(pool_initargs[0]) < 1024
        assert _shm_entries() <= before

    def test_auto_policy_publishes_only_for_pooled_spawn(self, monkeypatch):
        positives, negatives = self._corpus()
        config = MinerConfig(max_edges=2, min_pos_support=0.5)
        published = _count_publishes(monkeypatch)
        # fork: copy-on-write inheritance, a blob would only add copies
        monkeypatch.setattr(parallel, "resolve_start_method", lambda: "fork")
        ParallelMiner(config, workers=2).mine(positives, negatives)
        assert run_sharded([1, 2], _square, 2, _noop_init, ()) == [1, 4]
        assert not published
        monkeypatch.setattr(parallel, "resolve_start_method", lambda: "spawn")
        # single worker: inline run, nothing to ship
        ParallelMiner(config, workers=1).mine(positives, negatives)
        assert run_sharded([1, 2], _square, 1, _noop_init, ()) == [1, 4]
        assert not published
        # pooled spawn: the case the blob exists for
        ParallelMiner(config, workers=2).mine(positives, negatives)
        assert len(published) == 1

    def test_segment_unlinked_after_worker_crash(self, monkeypatch, spawn):
        # the second task raises in a spawned worker, mid-map
        published = _count_publishes(monkeypatch)
        before = _shm_entries()
        with pytest.raises(ValueError):
            run_sharded(["1", "x", "3"], int, 2, len, (b"state",))
        assert len(published) == 1
        assert _shm_entries() <= before, "crash leaked a segment"


class TestRunSharded:
    def test_empty_tasks(self):
        assert run_sharded([], _square, 4, _noop_init, ()) == []

    def test_inline_matches_pool(self):
        inline = run_sharded([1, 2, 3], _square, 1, _noop_init, ())
        pooled = run_sharded([1, 2, 3], _square, 2, _noop_init, ())
        assert inline == pooled == [1, 4, 9]

    def test_preserves_task_order(self):
        tasks = list(range(12))
        assert run_sharded(tasks, _square, 3, _noop_init, ()) == [
            t * t for t in tasks
        ]


def _noop_init():
    pass


def _square(x):
    return x * x
