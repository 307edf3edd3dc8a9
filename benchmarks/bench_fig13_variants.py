"""Figure 13 (a/b/c): mining response time of TGMiner vs. the five
baseline variants on small/medium/large behaviors.

Expected shape (paper): TGMiner fastest everywhere; SubPrune and
SupPrune lose most (supergraph-only pruning far weaker than
subgraph-only); PruneVF2 / PruneGI / LinearScan pay for slower subgraph
tests / residual comparisons.  Runs hitting the wall-clock cap are
reported as ">= cap" (the paper's SupPrune similarly "cannot finish
within 2 days" on bigger classes).

The compared runs search exhaustively (``EXHAUSTIVE_CAP``), as the
paper's do.  Each variant is also run at the default co-optimal cap,
where the miner stops once its answer is final; those patterns and
seconds are printed beside the exhaustive ones and assert nothing.
"""

import time
from dataclasses import replace

import pytest

from repro.core.miner import MinerConfig, miner_variant
from repro.experiments.harness import mine_behavior

from benchmarks.bench_common import (
    EXHAUSTIVE_CAP,
    MINING_SECONDS,
    emit,
    once,
    scale_guard,
    warm_kernels,
)

#: one representative behavior per size class (with a per-class search
#: depth), to bound total benchmark time
REPRESENTATIVES = {
    "small": ("ftp-download", 6),
    "medium": ("ftpd-login", 6),
    "large": ("sshd-login", 5),
}
VARIANTS = ("TGMiner", "SubPrune", "SupPrune", "PruneGI", "PruneVF2", "LinearScan")
#: variants whose slowdown comes from per-test overhead (slower subgraph
#: tests / residual comparisons); their ordering vs TGMiner reproduces at
#: laptop scale.  SubPrune/SupPrune differ through *branch cutting*, which
#: needs the paper's full-scale tie-free score landscape to bite — see
#: the divergence note in docs/ARCHITECTURE.md, section 3.
OVERHEAD_VARIANTS = ("PruneGI", "PruneVF2", "LinearScan")


@pytest.mark.parametrize("size_class", ("small", "medium", "large"))
def test_fig13_variant_response_time(benchmark, train, size_class):
    behavior, max_edges = REPRESENTATIVES[size_class]

    def run():
        warm_kernels(train)
        default = MinerConfig(
            max_edges=max_edges, min_pos_support=0.6, max_seconds=MINING_SECONDS
        )
        timings, stopped = {}, {}
        for variant in VARIANTS:
            config = miner_variant(
                variant, replace(default, max_best_patterns=EXHAUSTIVE_CAP)
            )
            started = time.perf_counter()
            result = mine_behavior(train, behavior, config)
            elapsed = time.perf_counter() - started
            timings[variant] = (
                elapsed,
                result.stats.timed_out,
                result.best_score,
                result.stats.patterns_explored,
            )
        # after the compared runs, so their sequence stays as it was
        for variant in VARIANTS:
            started = time.perf_counter()
            result = mine_behavior(train, behavior, miner_variant(variant, default))
            stopped[variant] = (
                time.perf_counter() - started,
                result.stats.patterns_explored,
            )
        return timings, stopped

    timings, stopped = once(benchmark, run)
    emit(f"\n=== Figure 13 ({size_class}: {behavior}): response time by variant ===")
    emit(
        f"{'variant':12s} {'seconds':>9s} {'rel. to TGMiner':>16s} "
        f"{'patterns':>9s} {'stopped s':>10s} {'stopped pat.':>13s}"
    )
    base = timings["TGMiner"][0]
    for variant in VARIANTS:
        elapsed, timed_out, _score, explored = timings[variant]
        stop_seconds, stop_explored = stopped[variant]
        marker = " (hit cap)" if timed_out else ""
        emit(
            f"{variant:12s} {elapsed:9.2f} {elapsed / base:15.1f}x "
            f"{explored:9d} {stop_seconds:10.3f} {stop_explored:13d}{marker}"
        )
    # shape: TGMiner beats every overhead-based baseline — at smoke scale
    # the per-test overheads being measured are microseconds and the
    # ordering is noise, so only assert it at full scale
    if scale_guard("TGMiner beats overhead baselines"):
        for variant in OVERHEAD_VARIANTS:
            assert timings[variant][0] >= base, f"{variant} unexpectedly faster"
    # all variants that finished must agree on the best score
    finished = [v for v in VARIANTS if not timings[v][1]]
    scores = {round(timings[v][2], 9) for v in finished}
    assert len(scores) == 1
