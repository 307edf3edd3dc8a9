"""Determinism suite for parallel mining and its worker pools.

The contract under test: behavior fan-out (``mine_all_behaviors`` and
``mine_all_behaviors_from_store``) runs the serial :class:`TGMiner` in
every worker, so each behavior's result is the serial miner's — the
mined pattern set byte-identical (best score + ranked co-optimal list
with bit-equal scores and frequencies), per-size incumbents and counters
equal — for every worker count and start method.  And
:func:`run_sharded` ships a non-fork pool's start-up state as one
shared-memory blob, raises a pool initializer's exception, and leaves no
segment behind.
"""

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import repro.core.parallel as parallel
from repro.core.miner import MinerConfig, MiningStats, TGMiner
from repro.core.parallel import (
    default_workers,
    mining_fingerprint,
    resolve_start_method,
    run_sharded,
)
from repro.core.shm import publish_blob, read_blob
from repro.datasets.store import CorpusStore
from repro.experiments.harness import (
    mine_all_behaviors,
    mine_all_behaviors_from_store,
)
from repro.syscall import build_training_data

WORKER_COUNTS = (1, 2, 3, 4)
BEHAVIORS = ["gzip-decompress", "ftp-download", "scp-download"]
CONFIG = MinerConfig(max_edges=4, min_pos_support=0.7)
SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def train():
    return build_training_data(instances_per_behavior=5, background_graphs=10)


def serial_results(train, behaviors, config):
    return {
        name: TGMiner(config).mine(train.behavior(name), train.background)
        for name in behaviors
    }


def fanned_out(train, behaviors, config, worker_counts=WORKER_COUNTS):
    return {
        workers: mine_all_behaviors(
            train, behaviors=behaviors, config=config, workers=workers
        )
        for workers in worker_counts
    }


def _assert_serial_fingerprints(results, behaviors, train, config):
    assert list(results) == behaviors
    serial = serial_results(train, behaviors, config)
    for name in behaviors:
        got = mining_fingerprint(results[name])
        assert got == mining_fingerprint(serial[name]), name


class TestByteIdentity:
    @pytest.fixture(scope="class")
    def fanned(self, train):
        return fanned_out(train, BEHAVIORS, CONFIG)

    @pytest.mark.parametrize("behavior", BEHAVIORS)
    def test_identical_to_serial_across_behaviors(self, train, fanned, behavior):
        expected = mining_fingerprint(
            TGMiner(CONFIG).mine(train.behavior(behavior), train.background)
        )
        for workers, results in fanned.items():
            got = mining_fingerprint(results[behavior])
            assert got == expected, f"workers={workers}"

    def test_identical_under_linear_residuals(self, train):
        config = MinerConfig(
            max_edges=3, min_pos_support=0.7, residual_equivalence="linear"
        )
        behaviors = ["bzip2-decompress", "gzip-decompress"]
        for results in fanned_out(train, behaviors, config, (1, 2)).values():
            _assert_serial_fingerprints(results, behaviors, train, config)

    def test_identical_without_index_prefilter(self, train):
        config = MinerConfig(max_edges=3, min_pos_support=0.7, index_prefilter=False)
        behaviors = ["gzip-decompress", "ftp-download"]
        for results in fanned_out(train, behaviors, config, (1, 2)).values():
            _assert_serial_fingerprints(results, behaviors, train, config)

    def test_worker_results_invariant_to_worker_count(self, train):
        # Stronger than the pattern-set contract: every worker runs the
        # serial miner, so per-size incumbents and every counter equal
        # the serial run's too.  ftp-download's history lookups never
        # reach a subgraph test; apt-get-update's do, so its prefilter
        # and pruning counters are pinned too.
        behaviors = ["ftp-download", "apt-get-update"]
        serial = serial_results(train, behaviors, CONFIG)
        for workers, results in fanned_out(train, behaviors, CONFIG).items():
            for name in behaviors:
                result, reference = results[name], serial[name]
                assert mining_fingerprint(result) == mining_fingerprint(reference)
                assert result.best_by_size == reference.best_by_size
                for stat in fields(MiningStats):
                    if stat.name == "elapsed_seconds":
                        continue
                    assert getattr(result.stats, stat.name) == getattr(
                        reference.stats, stat.name
                    ), f"{name} workers={workers} {stat.name}"
        assert serial["apt-get-update"].stats.index_prefilter_skips > 0
        assert serial["apt-get-update"].stats.supergraph_pruning_triggers > 0


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


@pytest.fixture
def spawn(monkeypatch):
    """Start pools with ``spawn``, patched in this process only."""
    monkeypatch.setattr(parallel, "resolve_start_method", lambda: "spawn")


class TestSharedMemoryCorpus:
    """Spawned pools get their corpus from one shared-memory blob.

    Under ``spawn`` :func:`run_sharded` pickles a pool's start-up state
    (the config and the background graphs, for the in-memory fan-out)
    once into one segment and ships the workers its descriptor; ``fork``
    and inline runs publish nothing.  Every pooled caller must still
    give the serial result, and no run may leave a segment behind.
    """

    def test_unlink_is_idempotent_and_cleans_dev_shm(self):
        before = _shm_entries()
        descriptor, handle = publish_blob(b"payload")
        assert descriptor.shm_name.lstrip("/") in _shm_entries()
        assert read_blob(descriptor) == b"payload"
        handle.unlink()
        handle.unlink()  # second call must be a no-op
        assert _shm_entries() <= before

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

    def test_auto_policy_publishes_only_for_pooled_spawn(self, train, monkeypatch):
        config = MinerConfig(max_edges=2, min_pos_support=0.7)
        behaviors = ["gzip-decompress", "ftp-download"]
        published = _count_publishes(monkeypatch)
        # fork: copy-on-write inheritance, a blob would only add copies
        monkeypatch.setattr(parallel, "resolve_start_method", lambda: "fork")
        mine_all_behaviors(train, behaviors=behaviors, config=config, workers=2)
        assert run_sharded([1, 2], _square, 2, _noop_init, ()) == [1, 4]
        assert not published
        monkeypatch.setattr(parallel, "resolve_start_method", lambda: "spawn")
        # single worker: inline run, nothing to ship
        mine_all_behaviors(train, behaviors=behaviors, config=config, workers=1)
        assert run_sharded([1, 2], _square, 1, _noop_init, ()) == [1, 4]
        assert not published
        # pooled spawn: the case the blob exists for
        mine_all_behaviors(train, behaviors=behaviors, config=config, workers=2)
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
    def test_default_start_method_resolution(self):
        # no knob: pools start on the platform's method
        platform = (
            "fork"
            if sys.platform == "linux"
            and "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        assert resolve_start_method() == platform

    def test_default_workers_counts_usable_cpus(self, monkeypatch):
        # pinned to one CPU of many: one worker, not one per core
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert default_workers() == 1
        # no affinity API (macOS, Windows): one per CPU
        monkeypatch.delattr(os, "sched_getaffinity")
        assert default_workers() == 8

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

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_initializer_exception_raised_from_pool(self, method):
        # multiprocessing.Pool replaces a worker that dies in its
        # initializer and waits forever, so the call runs in a child
        # process: a hang fails the test at the timeout
        script = (
            "import json, sys, time\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "import repro.core.parallel as parallel\n"
            f"parallel.resolve_start_method = lambda: {method!r}\n"
            "started = time.perf_counter()\n"
            "try:\n"
            "    parallel.run_sharded([1, 2], abs, 2, int, ('x',))\n"
            "    raised = None\n"
            "except ValueError as exc:\n"
            "    raised = str(exc)\n"
            "print(json.dumps([raised, time.perf_counter() - started]))\n"
        )
        before = _shm_entries()
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        raised, seconds = json.loads(out.stdout)
        assert raised == "invalid literal for int() with base 10: 'x'"
        assert seconds < 10
        assert _shm_entries() <= before, "leaked shared-memory segments"


def _noop_init():
    pass


def _square(x):
    return x * x
