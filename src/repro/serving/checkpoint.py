"""Durability for the streaming detection tier: snapshots + event WAL.

A :class:`~repro.serving.service.DetectionService` is pure in-memory
state — a crash loses the sliding window and with it every detection
straddling the restart.  This module makes a service recoverable with
two on-disk artifacts per service directory:

**Generational snapshots** (``snapshot-<gen>.snap``, gen >= 1): a
checksummed JSON capture of everything detection output depends on —
the live window (as replayable event columns, read straight from the
window's own columns), the query slate, the dedup state (``_seen``),
the batch clock, and the additive stats counters.  Snapshots from older
writers also carry a prefilter on/off flag, which recovery ignores: the
flag never changed detections.
Snapshots are published atomically (tmp file + ``os.replace`` + fsync),
and a corrupt snapshot is *detected* (CRC mismatch, truncation, bad
JSON) and skipped: recovery falls back to the previous generation.

**A write-ahead event log per generation** (``wal-<gen>.log``, gen >= 0;
gen 0 is the *genesis* WAL covering history before the first snapshot).
Every ingest batch is appended — length-prefixed and CRC32-checksummed —
*before* it reaches the service, so recovery can replay the tail that
postdates the newest usable snapshot.  A torn tail record (partial
header, short payload, CRC mismatch — the power-loss signature) is
truncated away; the corresponding batch was never acknowledged, so the
caller resubmits it.

**Recovery** (:func:`recover_service`) = newest valid snapshot +
ascending replay of every WAL generation >= that snapshot.  Because a
WAL is rotated exactly when its successor snapshot is cut, the
generations tile the history with no gaps or overlaps: falling back
from a corrupt ``snapshot-3`` to ``snapshot-2`` replays ``wal-2`` then
``wal-3`` and reaches the same state.  The recovered service is
**span-identical** at every batch boundary to one that never crashed:
the window events rebuild an identical graph (global edge ids renumber,
but id order == time order on both sides), ``_seen`` (through
:meth:`~repro.serving.service.DetectionService.restore_seen`, which
rebuilds the expiry heaps) and the batch counter are restored exactly,
and replayed batches re-derive exactly
the detections the pre-crash service reported (``tests/test_recovery.py``
asserts this property under randomized kill points).

What is *not* restored exactly: wall-clock derived stats (latency
reservoir, ``matching_seconds`` of replayed batches) — counters are
carried through best-effort and documented as such.

:class:`CheckpointedService` wraps a service + store behind the
:class:`~repro.serving.Ingestor` protocol (WAL-append before every
ingest, snapshot every ``checkpoint_every`` batches, final checkpoint
on ``close()``) — the single-service durability deployment
``Workspace.serve(checkpoint_dir=...)`` returns.  The fleet uses the
same store per (shard, tenant) directory; see
:mod:`repro.serving.fleet`.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from repro.core.errors import CheckpointError, ServingError
from repro.core.faults import FaultPlan
from repro.serving.registry import BehaviorQuery, query_from_dict, query_to_dict
from repro.serving.service import Detection, DetectionService
from repro.serving.streaming import StreamStats
from repro.syscall.events import SyscallEvent

__all__ = [
    "CheckpointStore",
    "CheckpointedService",
    "RecoveredService",
    "recover_service",
    "DEFAULT_CHECKPOINT_EVERY",
    "SNAPSHOT_FORMAT_VERSION",
]

#: Snapshot a service every N ingested batches, by default.
DEFAULT_CHECKPOINT_EVERY = 64

#: Snapshot payload format; recovery refuses payloads from a newer writer.
SNAPSHOT_FORMAT_VERSION = 1

#: Snapshot generations (and their WALs) retained after a new cut.
_KEEP_GENERATIONS = 2

#: ``(payload_length, crc32)`` framing every WAL record and snapshot.
_HEADER = struct.Struct("<II")

_SNAPSHOT_FMT = "snapshot-%08d.snap"
_WAL_FMT = "wal-%08d.log"

#: Column order of the packed event encoding used in WAL records and
#: snapshot window captures (:meth:`StreamingGraph.window_columns
#: <repro.serving.streaming.StreamingGraph.window_columns>` emits the
#: same layout).  Columnar beats one-dict-per-event by ~7x
#: on encode (six primitive lists amortize the JSON encoder's per-object
#: dispatch), which is what keeps the WAL tax on the hot ingest path
#: inside the benchmark's overhead ceiling (``bench_recovery.py``).
_EVENT_COLUMNS = (
    "time",
    "syscall",
    "src_key",
    "src_label",
    "dst_key",
    "dst_label",
)


def _events_to_columns(events: Sequence[SyscallEvent]) -> dict:
    # direct attribute reads, not getattr-by-name: this runs on the hot
    # ingest path once per WAL append and the string lookup doubles it
    return {
        "time": [e.time for e in events],
        "syscall": [e.syscall for e in events],
        "src_key": [e.src_key for e in events],
        "src_label": [e.src_label for e in events],
        "dst_key": [e.dst_key for e in events],
        "dst_label": [e.dst_label for e in events],
    }


def _events_from_columns(columns: dict) -> list[SyscallEvent]:
    return [
        SyscallEvent(*row)
        for row in zip(*(columns[column] for column in _EVENT_COLUMNS))
    ]


def _decode_events(container: object, key: str, path: Path) -> list[SyscallEvent]:
    """The event batch packed under ``container[key]`` in the file ``path``.

    The framing CRC already verified the bytes, so a missing or malformed
    batch is a writer bug, not a tear: raise instead of guessing.
    """
    columns = container.get(key) if isinstance(container, dict) else None
    try:
        return _events_from_columns(columns)
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{path} holds no valid {key!r} event batch") from exc


def _frame(payload: bytes) -> bytes:
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _read_frames(data: bytes) -> tuple[list[bytes], bool]:
    """Split framed records; returns ``(payloads, clean)``.

    ``clean`` is False when the byte stream ends in a torn record —
    a partial header, a payload shorter than its length prefix, or a
    CRC mismatch.  Everything before the tear is returned; everything
    from the tear on is discarded (a tear mid-file also invalidates the
    bytes after it, since framing is lost).
    """
    payloads: list[bytes] = []
    offset = 0
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            return payloads, False
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        payload = data[start : start + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            return payloads, False
        payloads.append(payload)
        offset = start + length
    return payloads, True


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class RecoveredService:
    """What :func:`recover_service` hands back.

    ``replayed`` holds one entry per WAL record re-ingested on top of the
    restored snapshot: ``(seq, epoch, detections, num_events)`` in replay
    order.  These batches were (possibly) already acknowledged before the
    crash — their detections are *re-derived*, not new; callers decide
    whether to re-deliver them (the fleet supervisor uses them to answer
    still-pending batches and counts the rest as recovered).
    """

    service: DetectionService
    store: "CheckpointStore"
    generation: int
    replayed: list[tuple[int, str, list[Detection], int]] = field(
        default_factory=list
    )
    truncated_records: int = 0
    corrupt_snapshots: int = 0
    rejected_records: int = 0

    @property
    def recovered_events(self) -> int:
        """Events re-ingested from the WAL tail."""
        return sum(entry[3] for entry in self.replayed)


class CheckpointStore:
    """One service's durability directory: snapshot cutter + WAL appender.

    The store owns the generation counter: :meth:`append` writes to the
    WAL of the current generation, :meth:`snapshot` cuts the next
    snapshot, rotates the WAL, and prunes generations older than the
    last :data:`_KEEP_GENERATIONS`.  ``faults`` hooks the two torn-state
    sites (``wal.torn``, ``snapshot.corrupt``) for the chaos tests.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        faults: FaultPlan | None = None,
        fault_scope: dict | None = None,
        generation: int | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.faults = faults
        self._scope = fault_scope or {}
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create checkpoint directory {self.directory}: {exc}"
            ) from exc
        if generation is None:
            generation = self.latest_snapshot_generation()
        self.generation = generation
        self._wal = None
        self.appended_records = 0
        self.snapshots_cut = 0

    # -- paths ----------------------------------------------------------
    def snapshot_path(self, generation: int) -> Path:
        return self.directory / (_SNAPSHOT_FMT % generation)

    def wal_path(self, generation: int) -> Path:
        return self.directory / (_WAL_FMT % generation)

    def snapshot_generations(self) -> list[int]:
        """Existing snapshot generations, ascending."""
        gens = []
        for path in self.directory.glob("snapshot-*.snap"):
            try:
                gens.append(int(path.stem.split("-")[1]))
            except (IndexError, ValueError):  # pragma: no cover - stray file
                continue
        return sorted(gens)

    def wal_generations(self) -> list[int]:
        """Existing WAL generations, ascending."""
        gens = []
        for path in self.directory.glob("wal-*.log"):
            try:
                gens.append(int(path.stem.split("-")[1]))
            except (IndexError, ValueError):  # pragma: no cover - stray file
                continue
        return sorted(gens)

    def latest_snapshot_generation(self) -> int:
        """Newest on-disk snapshot generation (0 = none yet)."""
        gens = self.snapshot_generations()
        return gens[-1] if gens else 0

    # -- WAL ------------------------------------------------------------
    def _wal_handle(self):
        if self._wal is None:
            self._wal = open(self.wal_path(self.generation), "ab")
        return self._wal

    def append(
        self, seq: int, events: Sequence[SyscallEvent], epoch: str = ""
    ) -> int:
        """Durably log one ingest batch *before* it mutates the service.

        ``seq`` and ``epoch`` are opaque caller metadata (the fleet's
        submit sequence + parent-lifetime token) carried through to
        :attr:`RecoveredService.replayed` so a supervisor can match
        replayed batches against its own in-flight bookkeeping.

        Returns the record's start offset; if the service then *rejects*
        the batch (timestamp collision, poisoned batch), the caller
        passes it to :meth:`truncate_to` so a batch that never mutated
        the service is never replayed into the recovered one either.
        """
        payload = json.dumps(
            {
                "seq": seq,
                "epoch": epoch,
                "columns": _events_to_columns(events),
            },
            separators=(",", ":"),
        ).encode("utf-8")
        frame = _frame(payload)
        wal = self._wal_handle()
        offset = wal.tell()
        if self.faults is not None and self.faults.fire(
            "wal.torn", **self._scope
        ):
            # simulate power loss mid-write: half the frame reaches the
            # disk, then the process "dies" (the raised error stands in
            # for the crash — callers treat it as fatal)
            wal.write(frame[: max(_HEADER.size + 1, len(frame) // 2)])
            wal.flush()
            raise CheckpointError(
                "injected fault at wal.torn: torn WAL append"
            )
        wal.write(frame)
        wal.flush()
        self.appended_records += 1
        return offset

    def truncate_to(self, offset: int) -> None:
        """Roll the newest record back (the service rejected its batch)."""
        wal = self._wal_handle()
        wal.flush()
        wal.truncate(offset)
        self.appended_records -= 1

    def iter_wal(self, generation: int) -> Iterator[dict]:
        """Decode one WAL generation's records (tears silently truncate)."""
        records, _clean = self.read_wal(generation)
        return iter(records)

    def read_wal(self, generation: int) -> tuple[list[dict], bool]:
        path = self.wal_path(generation)
        if not path.exists():
            return [], True
        data = path.read_bytes()
        payloads, clean = _read_frames(data)
        records = []
        for payload in payloads:
            try:
                records.append(json.loads(payload.decode("utf-8")))
            except (UnicodeDecodeError, json.JSONDecodeError):
                # framing said the bytes are intact, so this is a writer
                # bug rather than a tear; stop trusting the rest
                return records, False
        return records, clean

    # -- snapshots ------------------------------------------------------
    def snapshot(self, service: DetectionService) -> int:
        """Cut the next snapshot generation; returns its number.

        Publication is atomic (tmp + ``os.replace``), the WAL rotates to
        the new generation immediately after, and generations older than
        the retention horizon are pruned — snapshots *and* WALs together,
        so every retained snapshot still has its full replay tail.
        """
        generation = self.generation + 1
        payload = json.dumps(
            _service_to_payload(service, generation), separators=(",", ":")
        ).encode("utf-8")
        path = self.snapshot_path(generation)
        tmp = path.with_suffix(".tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(_frame(payload))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            _fsync_dir(self.directory)
        except OSError as exc:
            raise CheckpointError(
                f"cannot write snapshot {path}: {exc}"
            ) from exc
        if self.faults is not None and self.faults.fire(
            "snapshot.corrupt", **self._scope
        ):
            # flip bytes inside the published payload: the file exists
            # and is plausibly sized, but its CRC no longer matches —
            # the bit-rot shape recovery must detect and skip
            data = bytearray(path.read_bytes())
            mid = len(data) // 2
            data[mid] ^= 0xFF
            data[-1] ^= 0xFF
            path.write_bytes(bytes(data))
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        self.generation = generation
        # touch the new WAL so the generation tiling stays contiguous on
        # disk even if no batch arrives before the next crash
        self._wal_handle()
        self.snapshots_cut += 1
        self._prune()
        return generation

    def load_snapshot(self, generation: int) -> dict | None:
        """Decode one snapshot; ``None`` when missing or corrupt."""
        path = self.snapshot_path(generation)
        if not path.exists():
            return None
        payloads, clean = _read_frames(path.read_bytes())
        if not clean or len(payloads) != 1:
            return None
        try:
            payload = json.loads(payloads[0].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("format", 0) > SNAPSHOT_FORMAT_VERSION:
            raise CheckpointError(
                f"snapshot {path} has format v{payload.get('format')}, newer "
                f"than this library supports (v{SNAPSHOT_FORMAT_VERSION})"
            )
        return payload

    def _prune(self) -> None:
        # retention counts *valid* snapshots only: a corrupt generation
        # must not shadow the older one recovery would fall back to
        valid = [
            gen
            for gen in self.snapshot_generations()
            if self.load_snapshot(gen) is not None
        ]
        keep = valid[-_KEEP_GENERATIONS:]
        if not keep:
            return
        horizon = keep[0]
        for gen in self.snapshot_generations():
            if gen < horizon:
                self.snapshot_path(gen).unlink(missing_ok=True)
        for gen in self.wal_generations():
            if gen < horizon:
                self.wal_path(gen).unlink(missing_ok=True)

    @property
    def fresh(self) -> bool:
        """Whether the directory holds no recoverable state yet."""
        if self.snapshot_generations():
            return False
        return not any(
            self.wal_path(gen).stat().st_size for gen in self.wal_generations()
        )

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None


# ----------------------------------------------------------------------
# snapshot <-> service codec
# ----------------------------------------------------------------------
def _service_to_payload(service: DetectionService, generation: int) -> dict:
    return {
        "format": SNAPSHOT_FORMAT_VERSION,
        "generation": generation,
        "window_span": service._explicit_window,
        "reloads": service.reloads,
        "queries": [query_to_dict(query) for _id, query in service.registry],
        "window_columns": service.graph.window_columns(),
        "seen": {
            str(query_id): sorted(list(span) for span in spans)
            for query_id, spans in service._seen.items()
        },
        "stats": service.stats.counters(),
        "graph_stats": asdict(service.graph.stats),
    }


def _service_from_payload(
    payload: dict,
    path: Path,
    *,
    faults: FaultPlan | None = None,
    fault_scope: dict | None = None,
) -> DetectionService:
    # snapshots written before the prefilter became unconditional also
    # carry its on/off flag; the flag never changed detections, so the
    # reader ignores it
    service = DetectionService(
        window_span=payload["window_span"],
        faults=faults,
        fault_scope=fault_scope,
    )
    service.register_all(
        [query_from_dict(entry) for entry in payload["queries"]]
    )
    events = _decode_events(payload, "window_columns", path)
    if events:
        # rebuild the window in one batch: eviction anchors at the batch
        # minimum, so nothing is evicted or late-dropped, and the edges
        # reappear in time order under fresh (renumbered) global ids —
        # id order == time order exactly as in the snapshotted graph
        service.graph.window_span = service.window_span
        service.graph.ingest(events)
    service.graph.stats = StreamStats(**payload["graph_stats"])
    for key, value in payload["stats"].items():
        setattr(service.stats, key, value)
    service.restore_seen(
        {
            int(query_id): {tuple(span) for span in spans}
            for query_id, spans in payload["seen"].items()
        }
    )
    service.reloads = payload["reloads"]
    return service


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------
def recover_service(
    directory: str | Path,
    *,
    queries: Sequence[BehaviorQuery] | None = None,
    window_span: int | None = None,
    faults: FaultPlan | None = None,
    fault_scope: dict | None = None,
) -> RecoveredService:
    """Rebuild a service from its checkpoint directory.

    Restores the newest snapshot whose checksum verifies (falling back
    across corrupt generations, down to a fresh service built from the
    ``queries``/``window_span`` arguments when no snapshot survives),
    then replays every WAL generation from the
    restored one forward, in order.  Torn WAL tails are truncated and
    counted; a replayed batch the service rejects (e.g. a timestamp
    collision the original ingest also rejected) is skipped and counted
    — the pre-crash service refused the same batch, so skipping it
    preserves equivalence.  A checksum-valid snapshot or WAL record that
    carries no valid event batch raises :class:`CheckpointError` naming
    its file.
    """
    store = CheckpointStore(
        directory, faults=faults, fault_scope=fault_scope, generation=0
    )
    corrupt = 0
    restored: DetectionService | None = None
    generation = 0
    for gen in reversed(store.snapshot_generations()):
        payload = store.load_snapshot(gen)
        if payload is None:
            corrupt += 1
            continue
        restored = _service_from_payload(
            payload,
            store.snapshot_path(gen),
            faults=faults,
            fault_scope=fault_scope,
        )
        generation = gen
        break
    if restored is None:
        restored = DetectionService(
            window_span=window_span,
            faults=faults,
            fault_scope=fault_scope,
        )
        if queries:
            restored.register_all(queries)
        generation = 0

    recovered = RecoveredService(
        service=restored,
        store=store,
        generation=generation,
        corrupt_snapshots=corrupt,
    )
    wal_gens = [g for g in store.wal_generations() if g >= generation]
    for gen in sorted(wal_gens):
        records, clean = store.read_wal(gen)
        if not clean:
            recovered.truncated_records += 1
            # a tear invalidates the rest of this generation; later
            # generations only exist if a snapshot was cut after the
            # tear, which cannot happen after a crash — but guard anyway
            if gen != wal_gens[-1]:  # pragma: no cover - torn mid-history
                break
        for record in records:
            events = _decode_events(record, "columns", store.wal_path(gen))
            try:
                detections = restored.ingest(events)
            except ServingError:
                # the original ingest rejected this batch too (state
                # unchanged then and now) — skip, equivalence holds
                recovered.rejected_records += 1
                continue
            recovered.replayed.append(
                (
                    record.get("seq", -1),
                    record.get("epoch", ""),
                    detections,
                    len(events),
                )
            )
    # a torn tail must not survive into the next lifetime's WAL: rewrite
    # the newest generation with only its intact records so appended
    # frames land after a clean boundary
    if recovered.truncated_records:
        last = wal_gens[-1]
        records, _clean = store.read_wal(last)
        data = b"".join(
            _frame(json.dumps(r, separators=(",", ":")).encode("utf-8"))
            for r in records
        )
        store.wal_path(last).write_bytes(data)
    store.generation = max(generation, store.latest_snapshot_generation())
    return recovered


class CheckpointedService:
    """A :class:`DetectionService` with durability, behind ``Ingestor``.

    Every :meth:`ingest` appends the batch to the WAL first, then feeds
    the wrapped service; every ``checkpoint_every`` batches (and on
    ``close()``) a snapshot is cut.  :meth:`recover` rebuilds the whole
    wrapper from the directory — the crash-restart entry point.
    """

    def __init__(
        self,
        service: DetectionService,
        directory: str | Path,
        *,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        store: CheckpointStore | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ServingError("checkpoint_every must be >= 1")
        self.service = service
        if store is None:
            store = CheckpointStore(directory, faults=faults)
            if not store.fresh:
                raise ServingError(
                    f"checkpoint directory {store.directory} already holds "
                    "state from an earlier run; use "
                    "CheckpointedService.recover() to resume it (or point "
                    "at an empty directory)"
                )
        self.store = store
        self.checkpoint_every = checkpoint_every
        self._since_snapshot = 0
        self._next_seq = 0
        self._closed = False
        if store.fresh:
            # make the slate durable before the first batch: recovery
            # from a crash before the first scheduled snapshot must
            # still know which queries to evaluate during WAL replay
            self.checkpoint()

    @classmethod
    def recover(
        cls,
        directory: str | Path,
        *,
        queries: Sequence[BehaviorQuery] | None = None,
        window_span: int | None = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        faults: FaultPlan | None = None,
    ) -> tuple["CheckpointedService", RecoveredService]:
        """Restore snapshot + WAL tail; returns the wrapper + the report."""
        recovered = recover_service(
            directory,
            queries=queries,
            window_span=window_span,
            faults=faults,
        )
        wrapper = cls(
            recovered.service,
            directory,
            checkpoint_every=checkpoint_every,
            store=recovered.store,
        )
        if recovered.replayed:
            wrapper._next_seq = (
                max(entry[0] for entry in recovered.replayed) + 1
            )
        return wrapper, recovered

    # -- Ingestor -------------------------------------------------------
    def register_all(self, queries: Sequence[BehaviorQuery]) -> list[int]:
        ids = self.service.register_all(queries)
        # the slate is part of the snapshot payload: keep it durable
        self.checkpoint()
        return ids

    def ingest(self, events: Sequence[SyscallEvent]) -> list[Detection]:
        seq = self._next_seq
        self._next_seq += 1
        offset = self.store.append(seq, events)
        try:
            detections = self.service.ingest(events)
        except ServingError:
            # the batch never mutated the service — scrub its WAL record
            # so recovery does not replay (and apply!) a rejected batch
            self.store.truncate_to(offset)
            raise
        self._since_snapshot += 1
        if self._since_snapshot >= self.checkpoint_every:
            self.checkpoint()
        return detections

    def replay(
        self, events: Sequence[SyscallEvent], batch_size: int
    ) -> Iterator[tuple[int, list[Detection]]]:
        from repro.syscall.collector import iter_event_batches

        for index, batch in enumerate(iter_event_batches(events, batch_size)):
            yield index, self.ingest(batch)

    @property
    def stats(self):
        return self.service.stats

    @property
    def window_span(self) -> int | None:
        return self.service.window_span

    @property
    def reloads(self) -> int:
        return self.service.reloads

    def reload(self, queries: Sequence[BehaviorQuery]) -> list[int]:
        ids = self.service.reload(queries)
        # the slate is part of the snapshot payload: cut one immediately
        # so a crash after the reload recovers the new slate, not the old
        self.checkpoint()
        return ids

    def checkpoint(self) -> int:
        """Force a snapshot cut now; returns the new generation."""
        generation = self.store.snapshot(self.service)
        self._since_snapshot = 0
        return generation

    def health(self) -> dict:
        return {
            "status": "ok",
            "kind": "checkpointed-service",
            "checkpoint_dir": str(self.store.directory),
            "generation": self.store.generation,
            "wal_records_since_snapshot": self._since_snapshot,
        }

    def close(self) -> None:
        """Cut a final snapshot and release the WAL handle; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.service.stats.batches or self.store.appended_records:
            try:
                self.checkpoint()
            except CheckpointError:  # pragma: no cover - disk full etc.
                pass
        self.store.close()
        self.service.close()
