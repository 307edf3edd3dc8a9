"""Determinism suite for the parallel sharded mining engine.

The contract under test: :class:`ParallelMiner` produces byte-identical
mined pattern sets (best score + ranked co-optimal list with bit-equal
scores and frequencies) to the serial :class:`TGMiner`, for every worker
count, on every bundled workload — including graphs whose concurrent
edges were sequentialized with the ``random`` policy under a fixed seed.
"""

import os
import time

import pytest

import repro.core.parallel as parallel
from repro.core.concurrent import sequentialize
from repro.core.errors import MiningError
from repro.core.graph import TemporalEdge
from repro.core.growth import seed_patterns
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
from repro.core.shm import attach_corpus, publish_corpus
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
        # depend on how many processes mined the seeds.
        config = MinerConfig(max_edges=4, min_pos_support=0.7)
        results = {
            workers: ParallelMiner(config, workers=workers).mine(
                train.behavior("ftp-download"), train.background
            )
            for workers in WORKER_COUNTS
        }
        reference = results[1]
        ref_sizes = {
            s: (m.pattern.key(), m.score) for s, m in reference.best_by_size.items()
        }
        for workers, result in results.items():
            assert mining_fingerprint(result) == mining_fingerprint(reference)
            assert {
                s: (m.pattern.key(), m.score) for s, m in result.best_by_size.items()
            } == ref_sizes
            assert (
                result.stats.patterns_explored == reference.stats.patterns_explored
            ), f"workers={workers}"


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

    def test_seed_tasks_match_serial_support_filter(self, train):
        config = MinerConfig(max_edges=2, min_pos_support=0.7)
        miner = ParallelMiner(config, workers=1)
        positives = train.behavior("gzip-decompress")
        tasks = miner.seed_tasks(positives, train.background)
        assert tasks == sorted(tasks)
        assert len(tasks) == len(set(tasks)) > 0

    def test_default_start_method_resolution(self):
        assert resolve_start_method("spawn") == "spawn"
        assert resolve_start_method() in ("fork", "spawn")


def _shm_entries():
    """Names of live POSIX shared-memory segments (Linux)."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


class TestSharedMemoryCorpus:
    """Lifecycle and identity contract of the zero-copy corpus segment."""

    def _corpus(self):
        positives = _concurrent_workload(seed=11, graphs=3, flip=False)
        negatives = _concurrent_workload(seed=22, graphs=3, flip=True)
        return positives, negatives

    def test_attach_rebuilds_identical_corpus(self):
        positives, negatives = self._corpus()
        seeds = seed_patterns(positives + negatives)
        descriptor, handle = publish_corpus(positives, negatives, seeds=seeds)
        try:
            corpus = attach_corpus(descriptor)
            assert len(corpus.positives) == len(positives)
            assert len(corpus.negatives) == len(negatives)
            for original, rebuilt in zip(
                positives + negatives, corpus.positives + corpus.negatives
            ):
                assert rebuilt.name == original.name
                assert rebuilt.labels == original.labels
                assert list(rebuilt.edge_arrays()[3]) == [
                    e.time for e in original.edges
                ]
                assert [e.endpoints() for e in rebuilt.edges] == [
                    e.endpoints() for e in original.edges
                ]
            # the lazy seed table materializes the exact embedding sets
            assert set(corpus.seeds) == set(seeds)
            for key in seeds:
                assert corpus.seeds[key] == seeds[key], key
        finally:
            handle.unlink()

    def test_attached_columns_are_read_only(self):
        positives, negatives = self._corpus()
        descriptor, handle = publish_corpus(positives, negatives)
        try:
            corpus = attach_corpus(descriptor)
            _base, src, _dst, _time = corpus.positives[0].edge_arrays()
            with pytest.raises(TypeError):
                src[0] = 99
            with pytest.raises(TypeError):
                corpus._words[0] = 99
        finally:
            handle.unlink()

    def test_unlink_is_idempotent_and_cleans_dev_shm(self):
        before = _shm_entries()
        positives, negatives = self._corpus()
        descriptor, handle = publish_corpus(positives, negatives)
        assert descriptor.shm_name.lstrip("/") in _shm_entries()
        handle.unlink()
        handle.unlink()  # second call must be a no-op
        assert _shm_entries() <= before

    @pytest.mark.parametrize("start_method", ["spawn", "fork"])
    def test_shared_mining_identical_to_serial(self, start_method):
        positives, negatives = self._corpus()
        config = MinerConfig(max_edges=3, min_pos_support=0.5)
        expected = mining_fingerprint(TGMiner(config).mine(positives, negatives))
        before = _shm_entries()
        for workers in (1, 2, 4):
            result = ParallelMiner(
                config,
                workers=workers,
                start_method=start_method,
                share_memory=True,
            ).mine(positives, negatives)
            assert mining_fingerprint(result) == expected, (
                f"workers={workers} method={start_method}"
            )
        assert _shm_entries() <= before, "leaked shared-memory segments"

    def test_segment_unlinked_after_worker_crash(self, monkeypatch):
        # fork inherits the monkeypatched worker state, so the crash
        # happens inside a real pool worker mid-map
        positives, negatives = self._corpus()
        config = MinerConfig(max_edges=3, min_pos_support=0.5)
        before = _shm_entries()

        def explode(self, seed):
            raise RuntimeError("worker crashed mid-seed")

        monkeypatch.setattr(parallel._WorkerState, "mine_seed", explode)
        miner = ParallelMiner(config, workers=2, start_method="fork", share_memory=True)
        with pytest.raises(RuntimeError, match="worker crashed"):
            miner.mine(positives, negatives)
        assert _shm_entries() <= before, "crash leaked a segment"

    def test_auto_policy_publishes_only_for_pooled_spawn(self, monkeypatch):
        positives, negatives = self._corpus()
        config = MinerConfig(max_edges=2, min_pos_support=0.5)
        published = []
        real_publish = parallel.publish_corpus

        def counting_publish(*args, **kwargs):
            published.append(True)
            return real_publish(*args, **kwargs)

        monkeypatch.setattr(parallel, "publish_corpus", counting_publish)
        # fork: copy-on-write inheritance, a segment would only add copies
        ParallelMiner(config, workers=2, start_method="fork").mine(positives, negatives)
        assert not published
        # single worker: inline run, nothing to share
        ParallelMiner(config, workers=1, start_method="spawn").mine(
            positives, negatives
        )
        assert not published
        # pooled spawn: the case shared memory exists for
        ParallelMiner(config, workers=2, start_method="spawn").mine(
            positives, negatives
        )
        assert published == [True]


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
