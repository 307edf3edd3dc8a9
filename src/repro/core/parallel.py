"""Worker pools for behavior fan-out, and the mined-result identity.

The paper mines each behavior independently against the shared
background set, so the one parallel mining path fans whole behaviors out
over a process pool
(:func:`~repro.experiments.harness.mine_all_behaviors` and its store
twin): every worker runs the serial :class:`~repro.core.miner.TGMiner`,
so each behavior's result is the serial loop's, counters included, at
any worker count.  The miner itself stays one depth-first search: its
incumbent score and pruning history span all seed subtrees, and it
stops once its answer is final, so splitting one behavior's search
would only repeat work.

:func:`run_sharded` is the one place that starts a pool and decides how
its workers get their start-up state; :func:`mining_fingerprint` is the
identity that parallel and serial runs are compared by.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
from functools import partial
from typing import Callable, Sequence, TypeVar

from repro.core.miner import MiningResult
from repro.core.shm import BlobDescriptor, publish_blob, read_blob

__all__ = [
    "mining_fingerprint",
    "default_workers",
    "resolve_start_method",
    "run_sharded",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


def default_workers() -> int:
    """Worker count used when none is requested: one per usable CPU.

    Counts the CPUs this process may run on (its affinity mask, where
    the platform has one), not every CPU of the host: under
    ``taskset -c 0`` one worker, not one per installed core.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def resolve_start_method() -> str:
    """The platform's multiprocessing start method for worker pools.

    ``fork`` on Linux: workers inherit their start-up state copy-on-write
    instead of unpickling a private copy.  Everywhere else ``spawn`` —
    macOS offers fork but CPython made spawn its default there because
    forking after system frameworks load is unsafe.
    """
    if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


def run_sharded(
    tasks: Sequence[_T],
    task_fn: Callable[[_T], _R],
    workers: int,
    initializer: Callable[..., None],
    initargs: tuple,
) -> list[_R]:
    """Map ``tasks`` through a worker pool, inline when one worker suffices.

    The inline path calls ``initializer``/``task_fn`` in-process, so a
    ``workers=1`` run exercises exactly the code a pool worker runs (and
    keeps results trivially identical to any other worker count).  Module
    globals set by ``initializer`` are left in place after an inline run;
    every call re-initializes, so stale state cannot leak between runs.

    This is the one place that decides how pool workers get their
    start-up state.  Under ``fork`` they inherit ``initargs``.  Under any
    other start method ``(initializer, initargs)`` is pickled once into
    one shared-memory blob (:func:`repro.core.shm.publish_blob`), the
    pool receives only its descriptor, and every worker unpickles the
    state itself: a spawned worker's arguments travel through its
    start-up pipe in one blocking write, so large ones would start the
    workers one at a time.  The blob is unlinked when the pool is done,
    also when a task raised.

    An exception raised by ``initializer`` in a pool worker is raised
    from this call, as on the inline path: ``multiprocessing.Pool``
    would replace a worker that dies in its initializer and wait for it
    forever, so each worker records the exception instead
    (:func:`_guarded_init`) and raises it from every task it is handed.
    """
    if not tasks:
        return []
    workers = min(workers, len(tasks))
    if workers <= 1:
        initializer(*initargs)
        return [task_fn(task) for task in tasks]
    method = resolve_start_method()
    handle = None
    if method != "fork":
        blob = pickle.dumps((initializer, initargs), pickle.HIGHEST_PROTOCOL)
        descriptor, handle = publish_blob(blob)
        initializer, initargs = _init_from_blob, (descriptor,)
    guarded = partial(_guarded_task, task_fn)
    try:
        with multiprocessing.get_context(method).Pool(
            processes=workers,
            initializer=_guarded_init,
            initargs=(initializer, initargs),
        ) as pool:
            return pool.map(guarded, tasks, chunksize=1)
    finally:
        if handle is not None:
            handle.unlink()


#: The exception this pool worker's initializer raised, if any.
_INIT_ERROR: Exception | None = None


def _guarded_init(initializer: Callable[..., None], initargs: tuple) -> None:
    """Run a pool initializer, keeping its exception for the tasks."""
    global _INIT_ERROR
    try:
        initializer(*initargs)
    except Exception as exc:
        _INIT_ERROR = exc


def _guarded_task(task_fn: Callable[[_T], _R], task: _T) -> _R:
    """Run one task, or raise the worker's initializer exception."""
    if _INIT_ERROR is not None:
        raise _INIT_ERROR
    return task_fn(task)


def _init_from_blob(descriptor: BlobDescriptor) -> None:
    """Pool initializer of a non-fork pool: run the published initializer."""
    initializer, initargs = pickle.loads(read_blob(descriptor))
    initializer(*initargs)


def mining_fingerprint(result: MiningResult) -> tuple:
    """Canonical identity of a mined pattern set.

    Two results with equal fingerprints found the same best score and the
    same ranked co-optimal pattern list, with bit-equal scores and
    frequencies — the byte-identity contract between serial and fanned-out
    mining, and between index-on and index-off runs.
    """
    return (
        result.best_score,
        tuple(
            (m.pattern.key(), m.score, m.pos_freq, m.neg_freq)
            for m in result.best
        ),
    )
