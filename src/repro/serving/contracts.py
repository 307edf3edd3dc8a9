"""The public serving contract: one ingest surface, one stats schema.

This module is the *definition site* for the three names every detection
deployment — single :class:`~repro.serving.service.DetectionService`,
sharded :class:`~repro.serving.fleet.DetectionFleet`, or either behind
the HTTP tier — agrees on:

* :class:`Ingestor` — the protocol the serving implementations satisfy
  and all callers (``Workspace.serve``, the CLI, the HTTP server, the
  benchmarks) are written against;
* :data:`STATS_SCHEMA_KEYS` / :data:`STATS_SCHEMA_VERSION` — the shared
  ``as_dict()`` stats schema both ``ServiceStats`` and ``FleetStats``
  emit, version-stamped so remote readers can detect drift;
* :func:`stats_from_dict` — the read side: decode any schema payload
  (e.g. a ``GET /v1/stats`` response) back into a typed
  :class:`StatsView` that round-trips ``as_dict()`` byte-for-byte;
* :class:`ServingHandle` — the typed handle ``Workspace.serve`` returns,
  carrying the ingestor, the model it serves, and (optionally) the model
  registry it came from.

The canonical *import* path is :mod:`repro.api` — this file lives under
:mod:`repro.serving` only to keep the package import graph acyclic
(``repro.api`` pulls in the serving implementations; the implementations
must not pull in ``repro.api``).  ``repro.serving`` re-exports the same
names for backwards compatibility.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Iterator,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.core.errors import ServingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.model import BehaviorModel
    from repro.serving.model_registry import ModelRegistry
    from repro.serving.registry import BehaviorQuery
    from repro.syscall.events import SyscallEvent

__all__ = [
    "Ingestor",
    "ServingHandle",
    "STATS_SCHEMA_KEYS",
    "STATS_SCHEMA_VERSION",
    "StatsView",
    "stats_from_dict",
]

#: Version stamp of the shared stats schema.  Bump on any change a
#: remote reader of this version could not interpret (a removed or
#: re-typed key); adding optional keys is backwards compatible.  Every
#: ``as_dict()`` payload carries it as ``schema_version``.
STATS_SCHEMA_VERSION = 1

#: Keys every ingest-stats ``as_dict()`` payload carries — the one schema
#: ``ServiceStats`` and ``FleetStats`` share, so the CLI ``--json``
#: report, the HTTP ``/v1/stats`` endpoint, and the benchmarks read
#: either implementation through the same keys (the fleet adds
#: rollup-only extras on top).
STATS_SCHEMA_KEYS = (
    "schema_version",
    "kind",
    "batches",
    "events",
    "detections",
    "queries_evaluated",
    "queries_prefiltered",
    "matching_seconds",
    "total_seconds",
    "events_per_second",
    "evicted",
    "late_dropped",
    "reinserted",
    "latency_ms",
    "latency_samples",
)


@runtime_checkable
class Ingestor(Protocol):
    """The one ingest surface every detection deployment speaks.

    :class:`~repro.serving.service.DetectionService` (one host, one
    window) and :class:`~repro.serving.fleet.DetectionFleet` (many
    tenants, sharded) both satisfy it, as does the
    :class:`ServingHandle` wrapping either.  Implementations differ in
    what their methods *return* — a service reports ``Detection``, a
    fleet ``FleetDetection`` (which adds tenant/shard attribution) — but
    the shapes line up: detections expose ``query``/``span``, and
    ``stats`` exposes ``as_dict()`` emitting the shared
    :data:`STATS_SCHEMA_KEYS` schema.  Code written against this
    protocol (``Workspace.serve``, the CLI handlers, the HTTP tier,
    ``bench_serving.py``) runs against any of them.

    Lifecycle: ``register_all`` every query first, then ``ingest`` /
    ``replay`` freely, and ``close()`` when done (a no-op for in-process
    deployments, a worker shutdown for process fleets).
    """

    def register_all(self, queries: Sequence["BehaviorQuery"]) -> list[int]:
        """Register the query slate; returns the assigned query ids."""
        ...

    def ingest(self, events: Sequence["SyscallEvent"]) -> list:
        """Ingest one event batch; return newly identified instances."""
        ...

    def replay(
        self, events: Sequence["SyscallEvent"], batch_size: int
    ) -> Iterator[tuple[int, list]]:
        """Feed a recorded log through ingest, yielding per-batch results."""
        ...

    @property
    def stats(self):
        """Current ingest statistics (``.batches`` is read per request;
        ``.as_dict()`` → shared schema)."""
        ...

    def close(self) -> None:
        """Release any held resources; idempotent."""
        ...


class StatsView:
    """A decoded stats payload: typed access that round-trips exactly.

    Wraps one shared-schema dict (a ``ServiceStats.as_dict()``, a
    ``FleetStats.as_dict()``, or the same fetched over HTTP) and exposes
    every schema key as an attribute.  :meth:`as_dict` returns the
    payload unchanged, so ``stats_from_dict(s.as_dict()).as_dict() ==
    s.as_dict()`` holds for both stats implementations — the round-trip
    contract pinned by ``tests/test_contracts.py``.
    """

    __slots__ = ("_payload",)

    def __init__(self, payload: dict) -> None:
        self._payload = payload

    def __getattr__(self, name: str):
        try:
            return self._payload[name]
        except KeyError:
            raise AttributeError(f"stats payload has no key {name!r}") from None

    @property
    def is_fleet(self) -> bool:
        """Whether the payload came from a fleet rollup."""
        return self._payload["kind"] == "fleet"

    @property
    def per_shard(self) -> list["StatsView"]:
        """Fleet payloads only: each shard's own stats as a view."""
        return [StatsView(shard) for shard in self._payload.get("per_shard", [])]

    def as_dict(self) -> dict:
        """The wrapped payload, unchanged (exact round-trip)."""
        return self._payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StatsView(kind={self._payload.get('kind')!r}, "
            f"events={self._payload.get('events')}, "
            f"detections={self._payload.get('detections')})"
        )


def stats_from_dict(payload: dict) -> StatsView:
    """Decode a shared-schema stats payload into a :class:`StatsView`.

    Validates the schema: every :data:`STATS_SCHEMA_KEYS` key must be
    present, ``kind`` must be ``service`` or ``fleet``, and
    ``schema_version`` must not postdate this library's
    :data:`STATS_SCHEMA_VERSION` (a payload from a newer writer fails
    loudly instead of being misread).
    """
    if not isinstance(payload, dict):
        raise ServingError(
            f"stats payload must be a dict, got {type(payload).__name__}"
        )
    missing = [key for key in STATS_SCHEMA_KEYS if key not in payload]
    if missing:
        raise ServingError(
            f"stats payload is missing schema keys: {', '.join(missing)}"
        )
    version = payload["schema_version"]
    if not isinstance(version, int) or version < 1:
        raise ServingError(f"invalid stats schema_version {version!r}")
    if version > STATS_SCHEMA_VERSION:
        raise ServingError(
            f"stats payload schema v{version} is newer than this library "
            f"supports (v{STATS_SCHEMA_VERSION}); upgrade repro to read it"
        )
    kind = payload["kind"]
    if kind not in ("service", "fleet"):
        raise ServingError(f"unknown stats kind {kind!r}")
    if kind == "fleet":
        for extra in ("shards", "tenants", "per_shard"):
            if extra not in payload:
                raise ServingError(f"fleet stats payload missing {extra!r}")
    return StatsView(payload)


class ServingHandle:
    """The typed handle :meth:`repro.api.Workspace.serve` returns.

    Carries the live :class:`Ingestor`, the :class:`BehaviorModel` it
    serves, and — when the deployment came from (or publishes to) a
    :class:`~repro.serving.model_registry.ModelRegistry` — that registry
    plus the served version.  The handle itself satisfies
    :class:`Ingestor` by delegation, so every call site that took the
    raw service keeps working, and adds the lifecycle the raw
    implementations lack: :meth:`reload` (hot-swap a new model without
    dropping the streaming window) and context-manager ``close()``.
    """

    def __init__(
        self,
        ingestor: Ingestor,
        model: "BehaviorModel | None" = None,
        registry: "ModelRegistry | None" = None,
        version: int | None = None,
    ) -> None:
        self.ingestor = ingestor
        self.model = model
        self.registry = registry
        self.version = version

    # -- Ingestor by delegation -----------------------------------------
    def register_all(self, queries: Sequence["BehaviorQuery"]) -> list[int]:
        """Register the query slate on the underlying ingestor."""
        return self.ingestor.register_all(queries)

    def ingest(self, events: Sequence["SyscallEvent"]) -> list:
        """Ingest one event batch via the underlying ingestor."""
        return self.ingestor.ingest(events)

    def replay(
        self, events: Sequence["SyscallEvent"], batch_size: int
    ) -> Iterator[tuple[int, list]]:
        """Replay a recorded log via the underlying ingestor."""
        return self.ingestor.replay(events, batch_size)

    @property
    def stats(self):
        """The underlying ingestor's stats object."""
        return self.ingestor.stats

    def close(self) -> None:
        """Close the underlying ingestor; idempotent."""
        self.ingestor.close()

    # -- lifecycle beyond the protocol ----------------------------------
    @property
    def window_span(self) -> int | None:
        """The deployment's effective eviction window."""
        return self.ingestor.window_span

    def start(self) -> None:
        """Bring the deployment up eagerly (no-op for plain services)."""
        start = getattr(self.ingestor, "start", None)
        if start is not None:
            start()

    def health(self) -> dict:
        """Liveness/degradation rollup from the underlying deployment.

        Fault-tolerant ingestors (fleets, checkpointed services) report
        restart/quarantine/recovery state; plain services are simply
        ``ok`` while open.
        """
        probe = getattr(self.ingestor, "health", None)
        if probe is not None:
            return probe()
        return {"status": "ok"}

    def checkpoint(self) -> None:
        """Cut a durable snapshot now (no-op for non-durable deployments)."""
        cut = getattr(self.ingestor, "checkpoint", None)
        if cut is not None:
            cut()

    def reload(self, model: "BehaviorModel", version: int | None = None) -> None:
        """Hot-swap ``model``'s queries in without dropping the window.

        Delegates to the ingestor's ``reload`` (see
        :meth:`~repro.serving.service.DetectionService.reload` for the
        equivalence guarantee) and updates :attr:`model` /
        :attr:`version` to describe what is now being served.
        """
        reload = getattr(self.ingestor, "reload", None)
        if reload is None:
            raise ServingError(
                f"{type(self.ingestor).__name__} does not support hot reload"
            )
        reload(model.queries())
        self.model = model
        self.version = version

    def __enter__(self) -> "ServingHandle":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        served = (
            f"v{self.version}"
            if self.version is not None
            else type(self.ingestor).__name__
        )
        return f"ServingHandle({served}, registry={self.registry!r})"
