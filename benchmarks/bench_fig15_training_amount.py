"""Figure 15: mining response time vs. amount of used training data.

Expected shape (paper): response time grows roughly linearly with the
fraction of training data used.
"""

import gc
import time

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

FRACTIONS = (0.25, 0.5, 0.75, 1.0)
BEHAVIOR = "ftpd-login"


def test_fig15_response_time_vs_training_amount(benchmark, train):
    def run():
        # the subsets share their graphs: the quarter would otherwise pay
        # for flattening the graphs every later fraction reuses
        warm_kernels(train)
        table = {}
        for fraction in FRACTIONS:
            subset = train.subset(fraction)
            # start every timed run from an empty collector state: a full
            # collection of garbage left by earlier benchmarks in the same
            # pytest run (~85 ms over their fixtures) otherwise lands in
            # whichever fraction happens to trigger it
            gc.collect()
            started = time.perf_counter()
            mine_behavior(
                subset,
                BEHAVIOR,
                MinerConfig(
                    max_edges=4,
                    min_pos_support=0.7,
                    max_best_patterns=EXHAUSTIVE_CAP,
                    max_seconds=MINING_SECONDS,
                ),
            )
            table[fraction] = time.perf_counter() - started
        return table

    table = once(benchmark, run)
    emit("\n=== Figure 15: response time vs amount of used training data ===")
    emit(f"{'fraction':>8s} {'seconds':>9s}")
    for fraction in FRACTIONS:
        emit(f"{fraction:8.2f} {table[fraction]:9.3f}")
    # shape: more data never cheaper by much; full data costs more than a
    # quarter — at smoke scale every run is millisecond noise, so the
    # timing shape only means something at full scale
    if scale_guard("full-data run costs more than quarter-data run"):
        assert table[1.0] >= table[0.25] * 0.8
