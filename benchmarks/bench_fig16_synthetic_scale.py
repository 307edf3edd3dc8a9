"""Figure 16 (Appendix N): scalability on replicated synthetic datasets.

SYN-k replicates every training graph k times; pattern frequencies are
invariant, so response time should scale roughly linearly in k.
"""

import time

from repro.core.miner import MinerConfig
from repro.datasets.synthetic import replicate_training_data
from repro.experiments.harness import mine_behavior

from benchmarks.bench_common import EXHAUSTIVE_CAP, MINING_SECONDS, emit, once

FACTORS = (1, 2, 4)
BEHAVIOR = "ftp-download"


def test_fig16_synthetic_scalability(benchmark, train):
    def run():
        table = {}
        for factor in FACTORS:
            syn = replicate_training_data(train, factor)
            started = time.perf_counter()
            result = mine_behavior(
                syn,
                BEHAVIOR,
                MinerConfig(
                    max_edges=4,
                    min_pos_support=0.7,
                    max_best_patterns=EXHAUSTIVE_CAP,
                    max_seconds=MINING_SECONDS,
                ),
            )
            table[factor] = (time.perf_counter() - started, result.best_score)
        return table

    table = once(benchmark, run)
    emit("\n=== Figure 16: response time on SYN-k replicated datasets ===")
    emit(f"{'factor':>6s} {'seconds':>9s} {'sec/factor':>11s}")
    for factor in FACTORS:
        seconds, _score = table[factor]
        emit(f"{factor:6d} {seconds:9.3f} {seconds / factor:11.3f}")
    # replication must not change the mining result...
    scores = {round(score, 9) for _seconds, score in table.values()}
    assert len(scores) == 1
    # ...and cost grows with the data volume
    assert table[FACTORS[-1]][0] >= table[1][0]
