"""Figure 14: response time vs. the largest pattern size explored.

Expected shape (paper): response time grows with the size cap, with the
small size class finishing fastest at every cap.
"""

import time

from repro.core.miner import MinerConfig
from repro.experiments.harness import mine_behavior

from benchmarks.bench_common import (
    EXHAUSTIVE_CAP,
    MINING_SECONDS,
    emit,
    once,
    warm_kernels,
)

SIZES = (2, 3, 4, 5)
BEHAVIORS = {"small": "gzip-decompress", "medium": "ftpd-login", "large": "sshd-login"}


def test_fig14_response_time_vs_max_size(benchmark, train):
    def run():
        warm_kernels(train)
        table = {}
        for size in SIZES:
            row = {}
            for cls, behavior in BEHAVIORS.items():
                started = time.perf_counter()
                mine_behavior(
                    train,
                    behavior,
                    MinerConfig(
                        max_edges=size,
                        min_pos_support=0.7,
                        max_best_patterns=EXHAUSTIVE_CAP,
                        max_seconds=MINING_SECONDS,
                    ),
                )
                row[cls] = time.perf_counter() - started
            table[size] = row
        return table

    table = once(benchmark, run)
    emit("\n=== Figure 14: response time vs largest allowed pattern size ===")
    emit(f"{'max size':>8s} {'small':>9s} {'medium':>9s} {'large':>9s}  (seconds)")
    for size in SIZES:
        row = table[size]
        emit(f"{size:8d} {row['small']:9.3f} {row['medium']:9.3f} {row['large']:9.3f}")
    # shape: larger caps never get cheaper by much, classes order correctly
    assert table[SIZES[-1]]["large"] >= table[SIZES[0]]["large"] * 0.8
    assert table[SIZES[-1]]["small"] <= table[SIZES[-1]]["large"]
