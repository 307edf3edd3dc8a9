"""Tests for TGMiner: planted patterns, pruning variants, stats, config,
that no variant leaves cyclic garbage, that the pruning history's
saturated-entry rule and the stop at a final answer change no mined
pattern, that mining restores the collector's state, and one digest
pinning every mined answer and counter on a fixed corpus."""

import gc
import hashlib
import random
import sys
from dataclasses import fields

import pytest

from repro.core.errors import MiningError
from repro.core.graph import TemporalGraph
from repro.core.miner import (
    MinerConfig,
    MiningStats,
    TGMiner,
    VARIANT_NAMES,
    _HistoryEntry,
    _MiningRun,
    miner_variant,
)
from repro.core.parallel import mining_fingerprint
from repro.core.subgraph import SequenceSubgraphTester
from repro.experiments.harness import mine_all_behaviors
from repro.syscall.collector import build_training_data

from conftest import build_graph, random_temporal_graph


def planted_dataset(seed=0, n_pos=8, n_neg=8, noise=6):
    """Positive graphs embed P->F->S in order; negatives never do."""
    rng = random.Random(seed)
    labels = ["P", "F", "S", "Q", "R"]

    def make(planted):
        g = TemporalGraph()
        ids = [g.add_node(l) for l in labels]
        t = 0
        if planted:
            g.add_edge(ids[0], ids[1], t)
            t += 1
            g.add_edge(ids[1], ids[2], t)
            t += 1
        for _ in range(noise):
            u, v = rng.sample(range(3, 5), 2)
            g.add_edge(ids[u], ids[v], t)
            t += 1
        return g.freeze()

    return [make(True) for _ in range(n_pos)], [make(False) for _ in range(n_neg)]


class TestPlantedPattern:
    def test_finds_planted_core(self):
        pos, neg = planted_dataset()
        result = TGMiner(MinerConfig(max_edges=2, min_pos_support=0.9)).mine(pos, neg)
        best_keys = {m.pattern.key() for m in result.best}
        planted = (("P", "F", "S"), ((0, 1), (1, 2)))
        assert planted in best_keys
        assert result.best_score > 0

    def test_best_by_size_tracks_each_depth(self):
        pos, neg = planted_dataset()
        result = TGMiner(MinerConfig(max_edges=2, min_pos_support=0.9)).mine(pos, neg)
        assert 1 in result.best_by_size
        assert 2 in result.best_by_size
        assert result.best_by_size[2].score >= result.best_by_size[1].score

    def test_frequencies_reported(self):
        pos, neg = planted_dataset()
        result = TGMiner(MinerConfig(max_edges=2, min_pos_support=0.9)).mine(pos, neg)
        top = [m for m in result.best if m.pattern.num_edges == 2][0]
        assert top.pos_freq == 1.0
        assert top.neg_freq == 0.0

    def test_min_support_filters_rare_patterns(self):
        pos, neg = planted_dataset()
        # Demand support above 100%: nothing can be mined.
        result = TGMiner(MinerConfig(min_pos_support=1.0, max_edges=2)).mine(
            pos[:4] + neg[:4], neg
        )
        # planted edge occurs in only half the "positives" here
        keys = {m.pattern.key() for m in result.best}
        assert (("P", "F"), ((0, 1),)) not in keys


class TestVariants:
    def test_variant_names_resolve(self):
        for name in VARIANT_NAMES:
            config = miner_variant(name)
            config.validate()

    def test_variant_flags(self):
        assert miner_variant("SubPrune").supergraph_pruning is False
        assert miner_variant("SupPrune").subgraph_pruning is False
        assert miner_variant("PruneGI").subgraph_test == "gi"
        assert miner_variant("PruneVF2").subgraph_test == "vf2"
        assert miner_variant("LinearScan").residual_equivalence == "linear"

    def test_unknown_variant_raises(self):
        with pytest.raises(MiningError):
            miner_variant("TurboMiner")

    @pytest.mark.parametrize("name", VARIANT_NAMES)
    def test_all_variants_agree_on_planted_dataset(self, name):
        pos, neg = planted_dataset()
        base = MinerConfig(max_edges=3, min_pos_support=0.9)
        reference = TGMiner(base).mine(pos, neg)
        result = TGMiner(miner_variant(name, base)).mine(pos, neg)
        assert result.best_score == pytest.approx(reference.best_score)
        assert {m.pattern.key() for m in result.best} == {
            m.pattern.key() for m in reference.best
        }

    @pytest.mark.parametrize("name", VARIANT_NAMES)
    @pytest.mark.parametrize("seed", range(4))
    def test_all_variants_agree_on_random_data(self, name, seed):
        rng = random.Random(seed)
        pos = [random_temporal_graph(rng, 4, 7, "ABC") for _ in range(4)]
        neg = [random_temporal_graph(rng, 4, 7, "ABC") for _ in range(4)]
        base = MinerConfig(max_edges=3, min_pos_support=0.5, max_best_patterns=10_000)
        reference = TGMiner(
            MinerConfig(
                max_edges=3,
                min_pos_support=0.5,
                max_best_patterns=10_000,
                subgraph_pruning=False,
                supergraph_pruning=False,
                upper_bound_pruning=False,
            )
        ).mine(pos, neg)
        result = TGMiner(miner_variant(name, base)).mine(pos, neg)
        assert result.best_score == pytest.approx(reference.best_score)
        assert {m.pattern.key() for m in result.best} == {
            m.pattern.key() for m in reference.best
        }

    def test_pruning_reduces_exploration(self):
        pos, neg = planted_dataset(noise=8)
        full = TGMiner(
            MinerConfig(
                max_edges=4,
                min_pos_support=0.4,
                subgraph_pruning=False,
                supergraph_pruning=False,
                upper_bound_pruning=False,
            )
        ).mine(pos, neg)
        pruned = TGMiner(MinerConfig(max_edges=4, min_pos_support=0.4)).mine(pos, neg)
        assert pruned.stats.patterns_explored <= full.stats.patterns_explored


@pytest.fixture(scope="module")
def small_corpus():
    """Two instances per behavior, three background graphs: every
    variant's subgraph tester recurses while mining one behavior."""
    return build_training_data(instances_per_behavior=2, background_graphs=3, seed=7)


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("name", VARIANT_NAMES)
    def test_mining_leaves_no_cyclic_garbage(self, small_corpus, name):
        """The recursive tester closures (sequence, VF2, the PruneGI
        join) are unbound before they return, so a mining run leaves
        nothing for the cyclic collector."""
        positives = small_corpus.behavior("bzip2-decompress")
        config = miner_variant(name, MinerConfig(max_edges=3))
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            result = TGMiner(config).mine(positives, small_corpus.background)
            found = gc.collect()
            garbage = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert result.stats.subgraph_tests > 0
        assert found == 0
        assert garbage == 0


class _IndexEveryEntryRun(_MiningRun):
    """A run whose pruning history indexes every explored pattern, as it
    did before saturated entries were left out (counted all the same)."""

    def _remember(self, pattern, mask, pos_res, neg_res, branch_ub):
        if branch_ub >= self.saturated:
            self.stats.saturated_entries += 1
        entry = _HistoryEntry(
            pattern=pattern,
            mask=mask,
            num_nodes=pattern.num_nodes,
            num_edges=pattern.num_edges,
            pos_residuals=pos_res,
            neg_residuals=neg_res,
            branch_upper_bound=branch_ub,
        )
        if self.config.subgraph_pruning:
            self.sub_index.setdefault(self._sub_key(pos_res), []).append(entry)
        if self.config.supergraph_pruning:
            key = self._super_key(pos_res, neg_res, pattern.num_nodes)
            self.super_index.setdefault(key, []).append(entry)


def random_mining_sets(seed):
    """The corpora of ``test_all_variants_agree_on_random_data``."""
    rng = random.Random(seed)
    pos = [random_temporal_graph(rng, 4, 7, "ABC") for _ in range(4)]
    neg = [random_temporal_graph(rng, 4, 7, "ABC") for _ in range(4)]
    return pos, neg


def assert_history_exact(config, pos, neg):
    """The product run equals the index-everything run in every output
    and counter, and indexes no saturated entry."""
    reference = _IndexEveryEntryRun(config, pos, neg).execute()
    result = TGMiner(config).mine(pos, neg)
    assert result.best_score == reference.best_score
    assert result.best == reference.best
    assert result.best_by_size == reference.best_by_size
    for stat in fields(MiningStats):
        if stat.name != "elapsed_seconds":
            assert getattr(result.stats, stat.name) == getattr(
                reference.stats, stat.name
            ), stat.name
    run = _MiningRun(config, pos, neg)
    run.execute()
    ceiling = run.score_fn.upper_bound(1.0)
    for index in (run.sub_index, run.super_index):
        for entries in index.values():
            assert all(e.branch_upper_bound < ceiling for e in entries)
    return result.stats


class TestSaturatedHistoryEntries:
    @pytest.mark.parametrize("name", VARIANT_NAMES)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_data(self, name, seed):
        pos, neg = random_mining_sets(seed)
        base = MinerConfig(max_edges=3, min_pos_support=0.5, max_best_patterns=10_000)
        assert_history_exact(miner_variant(name, base), pos, neg)

    @pytest.mark.parametrize("name", VARIANT_NAMES)
    def test_small_corpus(self, small_corpus, name):
        config = miner_variant(name, MinerConfig(max_edges=3))
        stats = assert_history_exact(
            config, small_corpus.behavior("bzip2-decompress"), small_corpus.background
        )
        # the behavior reaches the maximum score: some entries saturate
        assert stats.saturated_entries > 0
        assert stats.subgraph_tests > 0


def mine_exhaustively(miner, positives, negatives):
    """The stop's oracle: the same run with the finality check off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_MiningRun, "_final", lambda self: False)
        return miner.mine(positives, negatives)


class TestFinalAnswerStop:
    """A run stops once its best score is F(1, 0) and its co-optimal list
    is full; the answer is the exhaustive search's."""

    @pytest.fixture
    def corpus(self, small_corpus):
        # saturates: best score F(1, 0) and a full list long before the end
        return small_corpus.behavior("bzip2-decompress"), small_corpus.background

    @pytest.mark.parametrize("name", VARIANT_NAMES)
    def test_stop_keeps_the_exhaustive_answer(self, corpus, name):
        miner = TGMiner(miner_variant(name, MinerConfig(max_edges=3)))
        result = miner.mine(*corpus)
        oracle = mine_exhaustively(miner, *corpus)
        assert mining_fingerprint(result) == mining_fingerprint(oracle)
        assert len(result.best) == miner.config.max_best_patterns
        assert result.stats.stopped_final == 1
        assert oracle.stats.stopped_final == 0
        assert not result.stats.timed_out
        assert result.stats.patterns_explored < oracle.stats.patterns_explored

    @pytest.mark.parametrize("name", VARIANT_NAMES)
    def test_cap_above_co_optimal_count_searches_exhaustively(self, corpus, name):
        config = MinerConfig(max_edges=3, max_best_patterns=sys.maxsize)
        miner = TGMiner(miner_variant(name, config))
        result = miner.mine(*corpus)
        oracle = mine_exhaustively(miner, *corpus)
        assert mining_fingerprint(result) == mining_fingerprint(oracle)
        assert result.best_by_size == oracle.best_by_size
        for stat in fields(MiningStats):
            if stat.name != "elapsed_seconds":
                assert getattr(result.stats, stat.name) == getattr(
                    oracle.stats, stat.name
                ), stat.name
        assert result.stats.stopped_final == 0

    def test_timeout_still_flags_timed_out(self, corpus):
        result = TGMiner(MinerConfig(max_edges=3, max_seconds=0.0)).mine(*corpus)
        assert result.stats.timed_out
        assert result.stats.stopped_final == 0


class _SeedRecordingRun(_MiningRun):
    """A run that lists the one-edge seeds its search explores."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.seeds: list[tuple] = []

    def _dfs(self, pattern, pos_embs, neg_embs):
        if pattern.num_edges == 1:
            self.seeds.append(pattern.labels)
        return super()._dfs(pattern, pos_embs, neg_embs)


class TestOnDemandSeeds:
    """Seed tables are built per label pair as the search reaches them;
    the seeds explored are the ones the whole-corpus table gave."""

    @staticmethod
    def explored_seeds(support, positives, negatives):
        config = MinerConfig(
            max_edges=1, min_pos_support=support, max_best_patterns=sys.maxsize
        )
        run = _SeedRecordingRun(config, positives, negatives)
        run.execute()
        return run.seeds

    def corpus(self):
        # (P, Q) only in a positive; (N, M) only in a negative; (S, S)
        # only on self-loops; (C, C) a self-loop in the positive but a
        # real edge between two C nodes in the negative
        positive = build_graph(
            [(0, 1, 0), (2, 2, 1), (3, 3, 2)], labels=["P", "Q", "S", "C"]
        )
        negative = build_graph(
            [(0, 1, 0), (2, 2, 1), (3, 4, 2)], labels=["N", "M", "S", "C", "C"]
        )
        return [positive], [negative]

    def test_zero_support_explores_negative_only_pairs(self):
        seeds = self.explored_seeds(0.0, *self.corpus())
        assert seeds == [("C", "C"), ("N", "M"), ("P", "Q")]

    def test_positive_support_explores_positive_pairs_only(self):
        for support in (0.5, 1.0):
            assert self.explored_seeds(support, *self.corpus()) == [("P", "Q")]

    @pytest.mark.parametrize("support", [0.0, 0.5])
    @pytest.mark.parametrize("seed", range(3))
    def test_seeds_match_the_whole_corpus_table(self, support, seed):
        pos, neg = random_mining_sets(seed)
        n_pos = len(pos)
        counts = {}  # label pair -> graphs with a non-self-loop edge, by side
        for side, graphs in enumerate((pos, neg)):
            for graph in graphs:
                pairs = {
                    (graph.label(e.src), graph.label(e.dst))
                    for e in graph.edges
                    if e.src != e.dst
                }
                for pair in pairs:
                    counts.setdefault(pair, [0, 0])[side] += 1
        expected = [
            pair for pair in sorted(counts) if counts[pair][0] >= support * n_pos
        ]
        assert self.explored_seeds(support, pos, neg) == expected


#: sha256 of :func:`counter_digest` over ``small_corpus``.  A change that
#: leaves every mined pattern and counter alone keeps it; one that moves
#: any of them (a counter's meaning, a pruning rule, the generator) must
#: say why and record the new value.
COUNTER_DIGEST = "b1ef12d523e2c028d5ce95a586d9f33dfc144e6c5f3bf22ad00829a8f000c2a3"


def counter_digest(corpus) -> str:
    """One hash over every run's answer and counters.

    Each behavior is mined by the six variants at ``max_edges=3`` and
    ``min_pos_support`` 0, 0.5 and 1; each run adds its
    :func:`mining_fingerprint`, its ``best_by_size`` and every
    :class:`MiningStats` field but ``elapsed_seconds``.
    """
    digest = hashlib.sha256()
    for behavior in sorted(corpus.behaviors):
        positives = corpus.behavior(behavior)
        for support in (0.0, 0.5, 1.0):
            for name in VARIANT_NAMES:
                base = MinerConfig(max_edges=3, min_pos_support=support)
                result = TGMiner(miner_variant(name, base)).mine(
                    positives, corpus.background
                )
                by_size = [
                    (size, m.pattern.key(), m.score, m.pos_freq, m.neg_freq)
                    for size, m in sorted(result.best_by_size.items())
                ]
                counters = [
                    (stat.name, getattr(result.stats, stat.name))
                    for stat in fields(MiningStats)
                    if stat.name != "elapsed_seconds"
                ]
                run = (behavior, support, name, mining_fingerprint(result))
                digest.update(repr((*run, by_size, counters)).encode())
    return digest.hexdigest()


class TestCounterPin:
    def test_answers_and_counters_unchanged(self, small_corpus):
        assert counter_digest(small_corpus) == COUNTER_DIGEST


class TestCollectorState:
    """Mining pauses the cyclic collector and restores the caller's state."""

    @pytest.fixture
    def corpus(self, small_corpus):
        return small_corpus.behavior("bzip2-decompress"), small_corpus.background

    def test_enabled_after_mine(self, corpus):
        assert gc.isenabled()
        TGMiner(MinerConfig(max_edges=3)).mine(*corpus)
        assert gc.isenabled()

    def test_enabled_after_tester_raises(self, corpus, monkeypatch):
        seen = []

        def failing(self, small, big):
            seen.append(gc.isenabled())
            raise RuntimeError("tester failed")

        monkeypatch.setattr(SequenceSubgraphTester, "mapping", failing)
        with pytest.raises(RuntimeError, match="tester failed"):
            TGMiner(MinerConfig(max_edges=3)).mine(*corpus)
        assert seen == [False]
        assert gc.isenabled()

    def test_enabled_after_one_worker_parallel_mine(self, small_corpus):
        # a one-worker fan-out mines inline, in this process
        mine_all_behaviors(
            small_corpus, ["bzip2-decompress"], MinerConfig(max_edges=3), workers=1
        )
        assert gc.isenabled()

    @pytest.mark.parametrize("one_worker", [False, True], ids=["serial", "one-worker"])
    def test_disabled_collector_stays_disabled(self, small_corpus, corpus, one_worker):
        config = MinerConfig(max_edges=3)
        gc.disable()
        try:
            if one_worker:
                mine_all_behaviors(
                    small_corpus, ["bzip2-decompress"], config, workers=1
                )
            else:
                TGMiner(config).mine(*corpus)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestStats:
    def test_counters_populated(self):
        pos, neg = planted_dataset(noise=8)
        result = TGMiner(MinerConfig(max_edges=4, min_pos_support=0.4)).mine(pos, neg)
        stats = result.stats
        assert stats.patterns_explored > 0
        assert stats.elapsed_seconds > 0
        assert 0.0 <= stats.subgraph_trigger_rate() <= 1.0
        assert 0.0 <= stats.supergraph_trigger_rate() <= 1.0

    def test_trigger_rates_zero_on_empty(self):
        from repro.core.miner import MiningStats

        stats = MiningStats()
        assert stats.subgraph_trigger_rate() == 0.0
        assert stats.supergraph_trigger_rate() == 0.0


class TestConfig:
    def test_invalid_max_edges(self):
        with pytest.raises(MiningError):
            MinerConfig(max_edges=0).validate()

    def test_invalid_support(self):
        with pytest.raises(MiningError):
            MinerConfig(min_pos_support=1.5).validate()

    def test_invalid_subgraph_test(self):
        with pytest.raises(MiningError):
            MinerConfig(subgraph_test="magic").validate()

    def test_invalid_residual_mode(self):
        with pytest.raises(MiningError):
            MinerConfig(residual_equivalence="hash").validate()

    def test_empty_positive_set_rejected(self):
        with pytest.raises(MiningError):
            TGMiner().mine([], [])

    def test_miner_validates_on_construction(self):
        with pytest.raises(MiningError):
            TGMiner(MinerConfig(max_edges=-1))

    def test_mine_validates_config(self):
        # construction-time validation can be sidestepped by swapping the
        # config afterwards; mine() must re-validate at entry instead of
        # mining garbage
        pos, neg = planted_dataset()
        miner = TGMiner()
        miner.config = MinerConfig(min_pos_support=-0.5)
        with pytest.raises(MiningError):
            miner.mine(pos, neg)


class TestLimits:
    def test_max_edges_respected(self):
        pos, neg = planted_dataset()
        result = TGMiner(MinerConfig(max_edges=2, min_pos_support=0.5)).mine(pos, neg)
        assert all(m.pattern.num_edges <= 2 for m in result.best)
        assert max(result.best_by_size) <= 2

    def test_timeout_flags_result(self):
        pos, neg = planted_dataset(noise=10)
        result = TGMiner(
            MinerConfig(max_edges=8, min_pos_support=0.1, max_seconds=0.0)
        ).mine(pos, neg)
        assert result.stats.timed_out

    def test_tie_cap_respected(self):
        pos, neg = planted_dataset()
        result = TGMiner(
            MinerConfig(max_edges=3, min_pos_support=0.5, max_best_patterns=2)
        ).mine(pos, neg)
        assert len(result.best) <= 2

    def test_unfrozen_graphs_accepted(self):
        g = TemporalGraph()
        a, b = g.add_node("A"), g.add_node("B")
        g.add_edge(a, b, 0)
        result = TGMiner(MinerConfig(max_edges=1)).mine([g], [])
        assert result.best_score > 0

    def test_top_helper(self):
        pos, neg = planted_dataset()
        result = TGMiner(MinerConfig(max_edges=2, min_pos_support=0.9)).mine(pos, neg)
        assert len(result.top(1)) == 1
