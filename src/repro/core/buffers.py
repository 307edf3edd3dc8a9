"""Contiguous int64 edge-column buffers and the numpy/stdlib backend split.

The data plane stores every flat edge column (``src`` / ``dst`` / ``time``,
see :mod:`repro.core.kernel`) as a **contiguous signed-64-bit buffer**
rather than a Python list.  One storage representation serves two
consumers with different access patterns:

* scalar loops (embedding growth, the fallback join) index the buffer
  directly — ``array('q')`` hands back plain ints at near-list speed;
* the vectorized matcher wraps the same bytes **zero-copy** into numpy
  arrays (:func:`as_ndarray` uses ``np.frombuffer``) when numpy is
  installed, so masks and ``searchsorted`` run at C speed without any
  conversion pass.

The corpus store decodes its pages into the same layout, as int64
``memoryview`` casts of the stored blobs.

**Backend selection.**  numpy is an optional dependency (the ``fast``
extra).  :func:`active_numpy` returns the module when it is importable
*and* not disabled, else ``None``; every numpy consumer must fall back to
the stdlib path in that case, and both paths are pinned byte-identical by
``tests/test_properties.py``.  Two override hooks exist so the fallback
stays testable on machines that have numpy:

* the ``REPRO_KERNEL_BACKEND`` environment variable (``auto`` | ``numpy``
  | ``array``), read at import;
* :func:`force_backend` for in-process switching from tests.

An ``IntColumn`` is duck-typed: anything indexable yielding ints with a
buffer-protocol int64 layout (``array('q')``, a cast ``memoryview`` of a
store page, or an int64 ``np.ndarray``).  Columns are append-only
while owned by a builder (:class:`~repro.serving.streaming.StreamingGraph`
appends and slices in place) and immutable-by-convention everywhere else.
"""

from __future__ import annotations

import os
from array import array
from typing import Iterable, Sequence

__all__ = [
    "INT_TYPECODE",
    "INT_BYTES",
    "IntColumn",
    "active_numpy",
    "as_ndarray",
    "backend_name",
    "force_backend",
    "have_numpy",
    "int_column",
    "new_column",
]

#: Typecode/width of every edge column: signed 64-bit ints.  Timestamps,
#: node ids, and edge ids must all fit — the data plane's one numeric
#: contract (``array('q')`` raises ``OverflowError`` past it).
INT_TYPECODE = "q"
INT_BYTES = 8

#: Duck type of a flat edge column (see module docstring).
IntColumn = Sequence[int]

try:  # pragma: no cover - exercised via the no-numpy CI job
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None

#: ``None`` (auto) or an explicit override set by env / force_backend().
_FORCED: str | None = None

_ENV_BACKEND = os.environ.get("REPRO_KERNEL_BACKEND", "auto").strip().lower()
if _ENV_BACKEND in ("numpy", "array"):
    _FORCED = _ENV_BACKEND
elif _ENV_BACKEND not in ("", "auto"):  # pragma: no cover - config error
    raise ValueError(
        f"REPRO_KERNEL_BACKEND={_ENV_BACKEND!r}: use 'auto', 'numpy', or 'array'"
    )


def have_numpy() -> bool:
    """Whether numpy is importable at all (ignoring overrides)."""
    return _numpy is not None


def active_numpy():
    """The numpy module when the vectorized backend is active, else ``None``.

    ``None`` means every consumer must take its stdlib path: numpy is not
    installed, or the ``array`` backend was forced for fallback testing.
    """
    if _FORCED == "array":
        return None
    if _FORCED == "numpy" and _numpy is None:  # pragma: no cover - config error
        raise RuntimeError("REPRO_KERNEL_BACKEND=numpy but numpy is not installed")
    return _numpy


def backend_name() -> str:
    """``"numpy"`` or ``"array"`` — what :func:`active_numpy` resolves to."""
    return "numpy" if active_numpy() is not None else "array"


def force_backend(name: str | None) -> None:
    """Override backend selection in-process (tests / benchmarks).

    ``"array"`` forces the stdlib fallback, ``"numpy"`` demands numpy,
    ``None`` or ``"auto"`` restores automatic selection.
    """
    global _FORCED
    if name in (None, "auto"):
        _FORCED = None
        return
    if name not in ("numpy", "array"):
        raise ValueError(f"unknown kernel backend {name!r}")
    _FORCED = name


def int_column(values: Iterable[int]) -> IntColumn:
    """Materialize ``values`` as a contiguous int64 column."""
    return array(INT_TYPECODE, values)


def new_column() -> "array[int]":
    """An empty, appendable int64 column (streaming construction)."""
    return array(INT_TYPECODE)


def as_ndarray(column: IntColumn):
    """A zero-copy int64 ndarray over ``column``, or ``None`` without numpy.

    ``array('q')``, int64 ndarrays, and cast memoryviews (including
    read-only views of store pages) all share their bytes with the result;
    a plain list (legacy callers) is copied.  The returned array must be
    treated as read-only — it aliases the column's storage.
    """
    np = active_numpy()
    if np is None:
        return None
    if isinstance(column, np.ndarray):
        return column if column.dtype == np.int64 else column.astype(np.int64)
    if isinstance(column, (array, memoryview)):
        return np.frombuffer(column, dtype=np.int64)
    return np.asarray(column, dtype=np.int64)
