"""Inputs, statistics and measurement helpers shared by the workloads.

This package deliberately does not import the older ``benchmarks/bench_*``
modules: a change that claims a gain may not edit the benchmark, so the
benchmark must not move when those files are re-based later.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.api import Workspace
from repro.query.evaluation import evaluate_spans

#: How many times every run repeats its set-up; ``setup_s`` is the median.
SETUP_REPS = 3


# ----------------------------------------------------------------------
# generated inputs (the seed is the only source of randomness)
# ----------------------------------------------------------------------
def corpus_seed(seed: int, index: int) -> int:
    """Generator seed of the ``index``-th training corpus of a run."""
    return seed * 100 + index


def log_seed(seed: int, index: int = 0) -> int:
    """Generator seed of a run's ``index``-th held-out test log."""
    return seed * 100 + 99 - index


def training_corpus(seed: int, index: int, instances: int, background: int):
    """One closed-environment training corpus (12 behaviors)."""
    return Workspace(seed=corpus_seed(seed, index)).generate(
        instances_per_behavior=instances, background_graphs=background
    )


def held_out_log(seed: int, instances: int, index: int = 0):
    """A held-out busy-host test log, with ground truth."""
    return Workspace(seed=log_seed(seed, index)).generate_test(instances=instances)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, quantile: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    index = min(len(ordered) - 1, max(0, math.ceil(quantile * len(ordered)) - 1))
    return ordered[index]


def median(values) -> float:
    return percentile(values, 0.5)


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def status_mb(field_name: str) -> float | None:
    """One kB-valued ``/proc/self/status`` field, in MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1]) / 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def reset_peak_rss() -> None:
    """Reset this process's ``VmHWM`` to its current RSS (Linux).

    Where ``/proc/self/clear_refs`` is unavailable the peak falls back to
    the process-lifetime ``ru_maxrss`` (see :func:`peak_rss_mb`).
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak RSS since the last :func:`reset_peak_rss`, in MB."""
    peak = status_mb("VmHWM")
    if peak is None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return peak


def children_peak_rss_mb() -> float:
    """Largest peak RSS of any waited-for child process, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# ----------------------------------------------------------------------
# output identity
# ----------------------------------------------------------------------
def digest(payload) -> str:
    """sha256 of the canonical JSON form of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def model_fingerprint(model) -> list:
    """Content identity of a mined model: everything but wall-clock."""
    return [
        list(model.labels),
        [
            [
                name,
                record.span_cap,
                [
                    [p.pattern.key(), p.score, p.pos_freq, p.neg_freq]
                    for p in record.patterns
                ],
            ]
            for name, record in sorted(model.records.items())
        ],
    ]


def span_map(report) -> dict[str, list]:
    """Detection spans per behavior of an ``EvaluationReport``."""
    return {
        name: [list(span) for span in evaluation.spans]
        for name, evaluation in sorted(report.behaviors.items())
    }


def pooled_accuracy(behavior_spans, truth) -> tuple[float, float]:
    """Precision and recall pooled over ``(behavior, spans)`` pairs
    (Section 6.2 semantics, summed over every behavior and model)."""
    identified = correct = discovered = instances = 0
    for name, spans in behavior_spans:
        score = evaluate_spans(name, [tuple(s) for s in spans], truth)
        identified += score.identified
        correct += score.correct
        discovered += score.discovered
        instances += score.total_instances
    precision = correct / identified if identified else 1.0
    recall = discovered / instances if instances else 1.0
    return precision, recall


# ----------------------------------------------------------------------
# what a workload hands back to the runner
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """One workload run: metrics, raw numbers, checks and counts."""

    metrics: dict[str, float] = field(default_factory=dict)
    raw: dict = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    client: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values()) and not self.failed


def timed_setups(
    speed, reps: int, build: Callable[[int], object], discard: Callable[[object], None]
):
    """Run ``build(rep)`` ``reps`` times; keep the last, discard the rest.

    Every build starts from an empty collector state, so a full
    collection over the previous build's garbage never lands in one rep
    and not in another.  Returns ``(state, reference_seconds_per_rep,
    raw_seconds_per_rep)``.
    """
    scaled, raw = [], []
    state = None
    for rep in range(reps):
        if state is not None:
            discard(state)
            state = None
        gc.collect()
        speed.mark()
        started = time.perf_counter()
        state = build(rep)
        ended = time.perf_counter()
        speed.mark()
        raw.append(ended - started)
        scaled.append((ended - started) * speed.scale(started, ended))
    return state, scaled, raw
