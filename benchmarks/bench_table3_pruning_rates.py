"""Table 3: empirical probabilities that the pruning conditions trigger.

Expected shape (paper): subgraph pruning triggers on a large fraction of
processed patterns (60-70%+) across all size classes, supergraph pruning
on a small fraction (1-10%).

``saturated`` counts the explored patterns whose branch bound reached
the maximum score F(1, 0).  Every class reaches that score, so no such
pattern can prune another (a pruning needs a bound below the best
score) and the pruning history does not index them.

The rates are those of the exhaustive search (``EXHAUSTIVE_CAP``), as
in the paper.  At the default co-optimal cap the miner stops once its
answer is final; the patterns it explores and its seconds to the answer
are printed beside the exhaustive ones and assert nothing.
"""

import time
from dataclasses import replace

from repro.core.miner import MinerConfig
from repro.experiments.harness import mine_behavior

from benchmarks.bench_common import (
    EXHAUSTIVE_CAP,
    MINING_SECONDS,
    emit,
    once,
    scale_guard,
    warm_kernels,
)

BEHAVIORS = {"small": "ftp-download", "medium": "ftpd-login", "large": "sshd-login"}


def test_table3_pruning_trigger_rates(benchmark, train):
    def run():
        warm_kernels(train)
        default = MinerConfig(
            max_edges=4, min_pos_support=0.7, max_seconds=MINING_SECONDS
        )
        rates = {}
        for cls, behavior in BEHAVIORS.items():
            runs = []
            for config in (replace(default, max_best_patterns=EXHAUSTIVE_CAP), default):
                started = time.perf_counter()
                result = mine_behavior(train, behavior, config)
                runs.append((time.perf_counter() - started, result.stats))
            (seconds, stats), (stop_seconds, stop_stats) = runs
            rates[cls] = (
                stats.subgraph_trigger_rate(),
                stats.supergraph_trigger_rate(),
                stats.patterns_explored,
                stats.saturated_entries,
                seconds,
                stop_stats.patterns_explored,
                stop_seconds,
            )
        return rates

    rates = once(benchmark, run)
    emit("\n=== Table 3: pruning-condition trigger probabilities ===")
    emit(
        f"{'class':8s} {'subgraph':>9s} {'supergraph':>11s} {'#patterns':>10s}"
        f" {'saturated':>10s} {'seconds':>8s} {'stopped #pat.':>14s}"
        f" {'stopped s':>10s}"
    )
    for cls, row in rates.items():
        sub, sup, explored, saturated, seconds, stop_explored, stop_seconds = row
        emit(
            f"{cls:8s} {sub * 100:8.1f}% {sup * 100:10.1f}% {explored:10d}"
            f" {saturated:10d} {seconds:8.3f} {stop_explored:14d}"
            f" {stop_seconds:10.3f}"
        )
    # shape: subgraph pruning dominates supergraph pruning everywhere
    for cls, (sub, sup, *_rest) in rates.items():
        assert sub >= sup, f"supergraph pruning unexpectedly dominant on {cls}"
    if scale_guard(
        "subgraph pruning triggers > 20%", train_instances=8, background_graphs=24
    ):
        # residual-set collisions (what both prunings key on) need the
        # full corpus size to occur at the paper's rates
        assert any(sub > 0.2 for sub, *_rest in rates.values())
