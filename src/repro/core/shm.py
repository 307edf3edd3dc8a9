"""One shared-memory blob: start-up state for worker processes.

A ``spawn`` worker receives its arguments through its start-up pipe,
which CPython fills with one blocking ``write``.  Past the 64 KiB pipe
buffer the parent waits until that child has read everything, so a
pool whose initializer arguments carry a corpus starts its workers one
at a time.  :func:`repro.core.parallel.run_sharded` therefore pickles a
pool's start-up state once into one segment (:func:`publish_blob`) and
hands each worker only the small :class:`BlobDescriptor`; the worker
reads the payload (:func:`read_blob`) and unpickles the state itself.
The detection fleet ships its query slate the same way.

**Lifecycle contract.**  The publisher owns the segment: it keeps the
returned :class:`BlobHandle` while workers may still read it and calls
:meth:`BlobHandle.unlink` in a ``finally`` — which also covers worker
crashes, since the pool error propagates through the same frame.
Readers never unlink.  On Linux a reader opens the segment's
``/dev/shm`` file read-only, without touching the ``resource_tracker``:
in CPython ≤ 3.12 ``SharedMemory(name=...)`` *attachments* register
with the tracker too, and concurrent register/unregister of one name
from several workers races the tracker's set-based cache (stderr
``KeyError`` noise at exit).  The fallback for other platforms attaches
through ``SharedMemory`` and unregisters at once, which is as much as
that API allows.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

__all__ = [
    "BlobDescriptor",
    "BlobHandle",
    "publish_blob",
    "read_blob",
]


@dataclass(frozen=True)
class BlobDescriptor:
    """Where an opaque byte payload lives: segment name + true length.

    The length travels in the descriptor because shared-memory segments
    round their size up to the page, so a reader cannot recover the
    payload boundary from the segment alone.
    """

    shm_name: str
    size: int


class BlobHandle:
    """The publisher's ownership token for one segment."""

    def __init__(self, shm: shared_memory.SharedMemory) -> None:
        self._shm: shared_memory.SharedMemory | None = shm

    def unlink(self) -> None:
        """Close and remove the segment; idempotent.

        After this no new read can succeed and nothing is left behind in
        ``/dev/shm``.
        """
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def publish_blob(payload: bytes) -> tuple[BlobDescriptor, BlobHandle]:
    """Copy ``payload`` into a new segment.

    Returns the descriptor to ship to workers and the handle the
    publisher must eventually :meth:`~BlobHandle.unlink`.
    """
    shm = shared_memory.SharedMemory(create=True, size=max(len(payload), 1))
    try:
        shm.buf[: len(payload)] = payload
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    return BlobDescriptor(shm_name=shm.name, size=len(payload)), BlobHandle(shm)


def read_blob(descriptor: BlobDescriptor) -> bytes:
    """A copy of a published payload."""
    path = os.path.join("/dev/shm", descriptor.shm_name.lstrip("/"))
    if os.path.exists(path):
        with open(path, "rb") as segment:
            return segment.read(descriptor.size)
    else:  # pragma: no cover - non-Linux fallback
        shm = shared_memory.SharedMemory(name=descriptor.shm_name)
        # this Python registers attachments too; without this, the
        # reader's tracker would unlink the publisher's segment at exit
        resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
        try:
            return bytes(shm.buf[: descriptor.size])
        finally:
            shm.close()
