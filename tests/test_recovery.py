"""Crash-recovery and fault-injection tests for the serving tier.

The load-bearing property everywhere: a deployment that crashes and
recovers from its checkpoint directory (snapshot + WAL tail) produces
the **same detection set, batch indexes included**, as one that never
died.  The suite drives that property through randomized stream shapes
(batch splits, out-of-order tails, eviction boundaries), through every
deterministic fault site (:mod:`repro.core.faults`), and through the
process-fleet supervisor (hard worker kills mid-stream, queue stalls,
poisoned batches, restart budgets).
"""

import json
import os
import pickle
import random
import signal
import threading
import time

import pytest
from conftest import make_behavior_model

from repro.core.errors import (
    CheckpointError,
    HttpError,
    ServingError,
    ShardTimeoutError,
)
from repro.core.faults import FaultInjected, FaultPlan, FaultSpec
from repro.core.pattern import TemporalPattern
from repro.serving.checkpoint import (
    CheckpointedService,
    CheckpointStore,
    _frame,
    recover_service,
)
from repro.serving.fleet import DetectionFleet
from repro.serving.registry import BehaviorQuery
from repro.serving.service import DetectionService
from repro.syscall.events import SyscallEvent

PATTERN_PF = TemporalPattern(("proc", "file"), ((0, 1),))
PATTERN_PFS = TemporalPattern(("proc", "file", "sock"), ((0, 1), (1, 2)))


def make_queries():
    return [
        BehaviorQuery("pf", PATTERN_PF, 6),
        BehaviorQuery("pfs", PATTERN_PFS, 12),
    ]


def tenant_events(n, seed, tenants=("acme", "globex", "initech"), ooo=False):
    """A mixed multi-tenant stream over a tiny shared vocabulary.

    Per-tenant clocks are strictly increasing (the window rejects
    collisions); ``ooo`` shuffles small blocks so times regress across
    batch boundaries while staying collision-free per tenant.
    """
    rng = random.Random(seed)
    clocks = {t: 0 for t in tenants}
    events = []
    for _ in range(n):
        tenant = rng.choice(tenants)
        clocks[tenant] += rng.randint(1, 3)
        t = clocks[tenant]
        if rng.random() < 0.6:
            events.append(SyscallEvent(
                time=t, syscall="op",
                src_key=f"{tenant}|p{rng.randrange(3)}", src_label="proc",
                dst_key=f"{tenant}|f{rng.randrange(3)}", dst_label="file"))
        else:
            events.append(SyscallEvent(
                time=t, syscall="op",
                src_key=f"{tenant}|f{rng.randrange(3)}", src_label="file",
                dst_key=f"{tenant}|s0", dst_label="sock"))
    if ooo:
        for start in range(0, n, 6):
            block = events[start:start + 6]
            rng.shuffle(block)
            events[start:start + 6] = block
    return events


def single_tenant_events(n, seed, ooo=False):
    return tenant_events(n, seed, tenants=("acme",), ooo=ooo)


def det_key(d):
    return (d.query_id, d.start, d.end, d.batch)


def fleet_det_key(d):
    return (d.tenant, d.query_id, d.start, d.end, d.batch)


def serve_batches(ingestor, events, batch_size):
    out = []
    for i in range(0, len(events), batch_size):
        out.extend(ingestor.ingest(events[i:i + batch_size]))
    return out


# ---------------------------------------------------------------------------
# FaultPlan mechanics
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec("no.such.site")

    def test_ordinals_are_one_based(self):
        with pytest.raises(ValueError):
            FaultSpec("worker.kill", at=0)

    def test_fire_is_deterministic_by_ordinal(self):
        plan = FaultPlan([FaultSpec("service.poison", at=3)])
        hits = [plan.fire("service.poison") is not None for _ in range(5)]
        assert hits == [False, False, True, False, False]

    def test_scope_counters_are_independent(self):
        plan = FaultPlan([FaultSpec("worker.kill", at=2, shard=1)])
        # shard 0 traffic never advances shard 1's counter
        for _ in range(10):
            assert plan.fire("worker.kill", shard=0) is None
        assert plan.fire("worker.kill", shard=1) is None
        assert plan.fire("worker.kill", shard=1) is not None

    def test_pickle_resets_counters(self):
        plan = FaultPlan([FaultSpec("service.poison", at=1)])
        assert plan.fire("service.poison") is not None
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.specs == plan.specs
        # the clone counts from scratch, like a respawned worker
        assert clone.fire("service.poison") is not None

    def test_scoped_drops_other_incarnations_worker_rules(self):
        plan = FaultPlan([
            FaultSpec("worker.kill", at=1, incarnation=0),
            FaultSpec("wal.torn", at=1, incarnation=0),
            FaultSpec("service.poison", at=1, incarnation=1),
        ])
        # a respawned worker (incarnation 1) only keeps its own rules —
        # restart-incarnation counters reset, so unfiltered kill/torn
        # rules would re-fire every restart and exhaust the budget
        respawned = plan.scoped(incarnation=1)
        assert [s.site for s in respawned.specs] == ["service.poison"]
        assert plan.scoped(incarnation=0).specs == plan.specs[:2]

    def test_maybe_raise(self):
        plan = FaultPlan([FaultSpec("wal.torn", at=1)])
        with pytest.raises(FaultInjected, match="wal.torn"):
            plan.maybe_raise("wal.torn", "boom")


# ---------------------------------------------------------------------------
# Checkpoint + WAL recovery of a single service
# ---------------------------------------------------------------------------
class TestCheckpointRecovery:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    @pytest.mark.parametrize("ooo", [False, True])
    def test_recover_equals_uninterrupted(self, tmp_path, seed, ooo):
        """Crash at every batch boundary; recovery is span-identical."""
        rng = random.Random(seed)
        events = single_tenant_events(240, seed, ooo=ooo)
        batch_size = rng.choice([7, 16, 33])
        every = rng.choice([1, 2, 5, 100])

        reference = DetectionService()
        reference.register_all(make_queries())
        ref = serve_batches(reference, events, batch_size)

        batches = [events[i:i + batch_size]
                   for i in range(0, len(events), batch_size)]
        crash_at = rng.randrange(1, len(batches))

        directory = tmp_path / "ckpt"
        service = DetectionService()
        service.register_all(make_queries())
        durable = CheckpointedService(service, directory, checkpoint_every=every)
        got = []
        for batch in batches[:crash_at]:
            got.extend(durable.ingest(batch))
        # crash: no close(), no final snapshot — the WAL tail is all we get
        del durable

        resumed, report = CheckpointedService.recover(directory,
                                                      checkpoint_every=every)
        assert report.rejected_records == 0
        for batch in batches[crash_at:]:
            got.extend(resumed.ingest(batch))
        resumed.close()

        assert {det_key(d) for d in got} == {det_key(d) for d in ref}
        assert resumed.stats.as_dict()["batches"] == len(batches)

    def test_fresh_directory_guard(self, tmp_path):
        service = DetectionService()
        service.register_all(make_queries())
        durable = CheckpointedService(service, tmp_path / "d")
        durable.ingest(single_tenant_events(20, 1)[:10])
        durable.close()
        other = DetectionService()
        with pytest.raises(ServingError, match="already holds state"):
            CheckpointedService(other, tmp_path / "d")

    def test_torn_wal_tail_is_truncated(self, tmp_path):
        events = single_tenant_events(120, 5)
        directory = tmp_path / "ckpt"
        plan = FaultPlan([FaultSpec("wal.torn", at=4)])
        service = DetectionService()
        service.register_all(make_queries())
        durable = CheckpointedService(
            service, directory, checkpoint_every=100,
            store=CheckpointStore(directory, faults=plan),
        )
        batches = [events[i:i + 20] for i in range(0, len(events), 20)]
        got = []
        crashed_batch = None
        for index, batch in enumerate(batches):
            try:
                got.extend(durable.ingest(batch))
            except CheckpointError:
                crashed_batch = index
                break
        assert crashed_batch is not None

        resumed, report = CheckpointedService.recover(directory)
        assert report.truncated_records == 1
        # the torn batch never acked: the client resubmits it, then the
        # rest of the stream — identical to the uninterrupted reference
        for batch in batches[crashed_batch:]:
            got.extend(resumed.ingest(batch))
        resumed.close()

        reference = DetectionService()
        reference.register_all(make_queries())
        ref = serve_batches(reference, events, 20)
        assert {det_key(d) for d in got} == {det_key(d) for d in ref}

    def test_corrupt_snapshot_falls_back_a_generation(self, tmp_path):
        events = single_tenant_events(160, 9)
        directory = tmp_path / "ckpt"
        # cuts: ctor slate snapshot, then one per 2 batches; 6 batches
        # before the crash -> ordinal 4 is the newest on-disk snapshot
        plan = FaultPlan([FaultSpec("snapshot.corrupt", at=4)])
        service = DetectionService()
        service.register_all(make_queries())
        durable = CheckpointedService(
            service, directory, checkpoint_every=2,
            store=CheckpointStore(directory, faults=plan),
        )
        batches = [events[i:i + 16] for i in range(0, len(events), 16)]
        split = 6
        got = []
        for batch in batches[:split]:
            got.extend(durable.ingest(batch))
        del durable  # crash with the newest snapshot corrupt on disk

        resumed, report = CheckpointedService.recover(directory,
                                                      checkpoint_every=2)
        assert report.corrupt_snapshots == 1
        for batch in batches[split:]:
            got.extend(resumed.ingest(batch))
        resumed.close()

        reference = DetectionService()
        reference.register_all(make_queries())
        ref = serve_batches(reference, events, 16)
        assert {det_key(d) for d in got} == {det_key(d) for d in ref}

    def test_rejected_batch_never_replays(self, tmp_path):
        directory = tmp_path / "ckpt"
        service = DetectionService()
        service.register_all(make_queries())
        durable = CheckpointedService(service, directory, checkpoint_every=100)
        events = single_tenant_events(40, 13)
        durable.ingest(events[:20])
        bad = [SyscallEvent(time=events[19].time, syscall="op",
                            src_key="acme|p0", src_label="proc",
                            dst_key="acme|f0", dst_label="file")]
        with pytest.raises(ServingError):
            durable.ingest(bad)  # in-window timestamp collision
        durable.ingest(events[20:])
        del durable

        _, report = CheckpointedService.recover(directory)
        assert report.rejected_records == 0  # scrubbed, not skipped-at-replay

    def test_prune_keeps_a_fallback_generation(self, tmp_path):
        directory = tmp_path / "ckpt"
        service = DetectionService()
        service.register_all(make_queries())
        durable = CheckpointedService(service, directory, checkpoint_every=1)
        events = single_tenant_events(120, 21)
        for i in range(0, len(events), 12):
            durable.ingest(events[i:i + 12])
        gens = durable.store.snapshot_generations()
        assert len(gens) == 2  # newest + one fallback, older pruned
        durable.close()

    def test_service_recover_classmethod(self, tmp_path):
        directory = tmp_path / "ckpt"
        service = DetectionService()
        service.register_all(make_queries())
        durable = CheckpointedService(service, directory, checkpoint_every=3)
        events = single_tenant_events(60, 17)
        expected = durable.ingest(events)
        durable.close()

        restored = DetectionService.recover(directory)
        assert restored.stats.as_dict()["events"] == len(events)
        assert {(q_id, s) for q_id, spans in restored._seen.items()
                for s in spans} == {(q_id, s) for q_id, spans
                                    in service._seen.items() for s in spans}
        assert expected is not None


def write_framed(path, payloads):
    """Write ``payloads`` as checksum-valid frames (the on-disk format)."""
    path.write_bytes(
        b"".join(_frame(json.dumps(p).encode("utf-8")) for p in payloads)
    )


class TestCheckpointDecodeErrors:
    """Checksum-valid files without a valid event batch raise typed errors."""

    def test_snapshot_without_window_columns(self, tmp_path):
        directory = tmp_path / "ckpt"
        service = DetectionService()
        service.register_all(make_queries())
        durable = CheckpointedService(service, directory)
        durable.ingest(single_tenant_events(30, 3))
        durable.close()
        store = CheckpointStore(directory)
        path = store.snapshot_path(store.latest_snapshot_generation())
        payload = store.load_snapshot(store.latest_snapshot_generation())
        del payload["window_columns"]
        write_framed(path, [payload])
        with pytest.raises(CheckpointError, match=path.name):
            recover_service(directory)

    @pytest.mark.parametrize(
        "record",
        [[0, "", {}], {"seq": 0, "epoch": ""}],
        ids=["json-list", "no-columns"],
    )
    def test_wal_record_without_columns(self, tmp_path, record):
        directory = tmp_path / "ckpt"
        path = CheckpointStore(directory).wal_path(0)
        write_framed(path, [record])
        with pytest.raises(CheckpointError, match=path.name):
            recover_service(directory, queries=make_queries())


# ---------------------------------------------------------------------------
# Fleet supervision under injected faults (process runner)
# ---------------------------------------------------------------------------
def run_fleet(events, tmp_dir, faults=None, *, batch_size=16, shards=2,
              timeout=30.0, budget=3, checkpoint_every=4):
    fleet = DetectionFleet(
        shards=shards, runner="process",
        checkpoint_dir=tmp_dir, checkpoint_every=checkpoint_every,
        faults=faults, result_timeout=timeout, restart_budget=budget,
        restart_backoff=0.01,
    )
    fleet.register_all(make_queries())
    detections = []
    try:
        for _, batch in fleet.replay(events, batch_size):
            detections.extend(batch)
        stats = fleet.stats
        health = fleet.health()
    finally:
        fleet.close()
    return detections, stats, health


class TestFleetSupervision:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        events = tenant_events(400, seed=7)
        ref, stats, health = run_fleet(
            events, str(tmp_path_factory.mktemp("ref"))
        )
        assert health["status"] == "ok"
        assert stats.restarts == 0
        return events, {fleet_det_key(d) for d in ref}

    @pytest.mark.parametrize("kill_at", [1, 4, 9])
    def test_worker_kill_recovers_span_identical(self, tmp_path, reference,
                                                 kill_at):
        events, ref = reference
        plan = FaultPlan([FaultSpec("worker.kill", at=kill_at, shard=0)])
        got, stats, health = run_fleet(events, str(tmp_path), faults=plan)
        assert {fleet_det_key(d) for d in got} == ref
        assert stats.restarts == 1
        assert stats.recovered_events > 0
        assert health["status"] == "degraded"
        assert health["shards"][0]["restarts"] == 1

    @pytest.mark.parametrize("kill_at", [2, 3])
    def test_kill_on_snapshot_boundary_batch_stays_replayable(
            self, tmp_path, kill_at):
        """The ack-loss window around the batch that triggers a cut.

        Snapshots used to be cut *after* the triggering batch, absorbing
        it and rotating its WAL record out of the replay range; a kill
        between that ingest and its ack left the supervisor unable to
        settle the batch, and resubmitting it collided with the restored
        window (the tenant got quarantined for a fault of ours, not
        its).  Cuts now happen before the triggering batch, so an
        unacked batch is always replayable — on either side of the
        boundary (kill_at=2 is the last batch of a checkpoint interval,
        kill_at=3 the first of the next).
        """
        events = single_tenant_events(160, 13)
        ref, _, _ = run_fleet(events, str(tmp_path / "ref"), shards=1,
                              checkpoint_every=2)
        plan = FaultPlan([FaultSpec("worker.kill", at=kill_at)])
        got, stats, health = run_fleet(events, str(tmp_path / "chaos"),
                                       faults=plan, shards=1,
                                       checkpoint_every=2)
        assert health["quarantined"] == []
        assert stats.restarts == 1
        assert ({fleet_det_key(d) for d in got}
                == {fleet_det_key(d) for d in ref})

    def test_torn_wal_write_kills_and_recovers(self, tmp_path, reference):
        events, ref = reference
        plan = FaultPlan([FaultSpec("wal.torn", at=6, shard=0)])
        got, stats, _ = run_fleet(events, str(tmp_path), faults=plan)
        assert {fleet_det_key(d) for d in got} == ref
        assert stats.restarts == 1

    def test_queue_stall_is_killed_and_restarted(self, tmp_path, reference):
        events, ref = reference
        plan = FaultPlan([FaultSpec("worker.stall", at=3, shard=0,
                                    delay=30.0)])
        start = time.perf_counter()
        got, stats, _ = run_fleet(events, str(tmp_path), faults=plan,
                                  timeout=2.0)
        assert time.perf_counter() - start < 20  # did not wait out the stall
        assert {fleet_det_key(d) for d in got} == ref
        assert stats.restarts == 1
        assert stats.force_killed == 1

    def test_poisoned_batch_quarantines_tenant_not_shard(self, tmp_path,
                                                         reference):
        events, ref = reference
        plan = FaultPlan([FaultSpec("service.poison", at=2, tenant="acme")])
        got, stats, health = run_fleet(events, str(tmp_path), faults=plan)
        assert stats.quarantined == ("acme",)
        assert stats.quarantine_dropped > 0
        assert health["quarantined"] == ["acme"]
        got_keys = {fleet_det_key(d) for d in got}
        # every other tenant is untouched by acme's poison
        assert ({k for k in got_keys if k[0] != "acme"}
                == {k for k in ref if k[0] != "acme"})
        assert stats.restarts == 0

    def test_restart_budget_zero_raises_on_death(self, tmp_path):
        events = tenant_events(200, seed=7)
        plan = FaultPlan([FaultSpec("worker.kill", at=2, shard=0)])
        with pytest.raises(ServingError, match="restart budget"):
            run_fleet(events, str(tmp_path), faults=plan, budget=0)

    def test_restart_budget_exhaustion_raises(self, tmp_path):
        events = tenant_events(200, seed=7)
        plan = FaultPlan([
            FaultSpec("worker.kill", at=1, shard=0, incarnation=i)
            for i in range(6)
        ])
        with pytest.raises(ServingError, match="restart budget"):
            run_fleet(events, str(tmp_path), faults=plan, budget=2)

    def test_stall_without_budget_raises_typed_timeout(self, tmp_path):
        events = tenant_events(200, seed=7)
        plan = FaultPlan([FaultSpec("worker.stall", at=1, delay=30.0)])
        with pytest.raises(ShardTimeoutError) as excinfo:
            run_fleet(events, str(tmp_path), faults=plan, timeout=1.0,
                      budget=0)
        assert excinfo.value.shard is not None
        assert excinfo.value.last_acked_seq is not None

    def test_external_sigkill_mid_stream(self, tmp_path):
        """A real kill -9 from outside, not an injected exit."""
        events = tenant_events(300, seed=7)
        ref, _, _ = run_fleet(events, str(tmp_path / "ref"))
        fleet = DetectionFleet(
            shards=1, runner="process",
            checkpoint_dir=str(tmp_path / "chaos"), checkpoint_every=2,
            restart_budget=3, restart_backoff=0.01, result_timeout=30.0,
        )
        fleet.register_all(make_queries())
        got = []
        killed = False
        try:
            for index, batch in fleet.replay(events, 16):
                got.extend(batch)
                if index == 3 and not killed:
                    killed = True
                    os.kill(fleet._procs[0].pid, signal.SIGKILL)
            stats = fleet.stats
        finally:
            fleet.close()
        assert killed
        assert stats.restarts == 1
        assert ({fleet_det_key(d) for d in got}
                == {fleet_det_key(d) for d in ref})

    def test_fresh_fleet_resumes_checkpoint_dir(self, tmp_path):
        """A brand-new fleet over the same directory resumes all windows."""
        events = tenant_events(300, seed=19)
        split = 150
        ref, _, _ = run_fleet(events, str(tmp_path / "ref"))
        directory = str(tmp_path / "resume")
        first, _, _ = run_fleet(events[:split], directory)
        second, _, _ = run_fleet(events[split:], directory)
        # batch indexes restart per fleet lifetime; compare spans only
        span = lambda d: (d.tenant, d.query_id, d.start, d.end)  # noqa: E731
        assert ({span(d) for d in first} | {span(d) for d in second}
                == {span(d) for d in ref})


# ---------------------------------------------------------------------------
# Workspace + HTTP durability surface
# ---------------------------------------------------------------------------
@pytest.fixture
def behavior_model():
    return make_behavior_model()


class TestDurableServing:
    def test_workspace_serve_resumes_directory(self, tmp_path,
                                               behavior_model):
        from repro.api import Workspace
        from repro.syscall.events import SyscallEvent as E

        ws = Workspace()
        events = [
            E(time=t, syscall="op", src_key=f"n{i}", src_label=label,
              dst_key=f"n{i + 1}", dst_label=next_label)
            for t, (i, (label, next_label)) in enumerate(
                [(0, ("A", "B")), (1, ("B", "C"))], start=1)
        ]
        handle = ws.serve(behavior_model, checkpoint_dir=tmp_path / "ckpt")
        try:
            assert handle.health()["status"] == "ok"
            first = handle.ingest(events)
        finally:
            handle.close()
        # a fresh serve() over the same directory resumes the window:
        # re-ingesting the same spans is deduped, not re-detected
        resumed = ws.serve(behavior_model, checkpoint_dir=tmp_path / "ckpt")
        try:
            assert resumed.health()["kind"] == "checkpointed-service"
            assert resumed.stats.as_dict()["events"] == len(events)
            assert first is not None
        finally:
            resumed.close()

    def test_http_429_sheds_with_retry_after(self, behavior_model):
        from repro.api import Workspace
        from repro.serving.http import DetectionServer
        from repro.serving.contracts import ServingHandle

        ws = Workspace()
        handle = ws.serve(behavior_model)
        plan = FaultPlan([FaultSpec("service.slow_batch", at=1, delay=0.6)])
        handle.ingestor.faults = plan
        app = DetectionServer(handle, max_inflight=1, retry_after=2.5)
        errors = []

        def slow_ingest():
            app.handle_ingest({"events": []})

        worker = threading.Thread(target=slow_ingest)
        worker.start()
        time.sleep(0.2)  # let the slow ingest take the only slot
        with pytest.raises(HttpError) as excinfo:
            app.handle_ingest({"events": []})
        worker.join()
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == 2.5
        health = app.handle_healthz()
        assert health["shed"] == 1
        app.close()

    def test_http_close_drains_and_checkpoints(self, tmp_path,
                                               behavior_model):
        from repro.api import Workspace
        from repro.serving.http import DetectionServer

        ws = Workspace()
        directory = tmp_path / "ckpt"
        handle = ws.serve(behavior_model, checkpoint_dir=directory,
                          checkpoint_every=10_000)
        app = DetectionServer(handle)
        app.close()
        # the final cut means a clean shutdown leaves a snapshot, not
        # just WAL records
        store = CheckpointStore(directory)
        assert store.snapshot_generations()
        store.close()
        with pytest.raises(HttpError) as excinfo:
            app.handle_ingest({"events": []})
        assert excinfo.value.status == 503

    def test_http_healthz_reports_deployment_health(self, behavior_model):
        from repro.api import Workspace
        from repro.serving.http import DetectionServer

        ws = Workspace()
        handle = ws.serve(behavior_model, shards=2, runner="inline")
        app = DetectionServer(handle)
        try:
            health = app.handle_healthz()
            assert "deployment" in health
            assert health["deployment"]["status"] in ("ok", "degraded")
            assert len(health["deployment"]["shards"]) == 2
        finally:
            app.close()
