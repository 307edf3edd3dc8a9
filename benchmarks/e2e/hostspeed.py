"""Host-speed probe: report times at a fixed reference host speed.

Shared virtual CPUs do not run at one speed.  On the 2-vCPU host this
benchmark was sized on, the same pure-Python loop took anywhere from
0.7 to 1.6 ms, holding one level for seconds to minutes and changing
independently on each vCPU.  Identical runs taken minutes apart
differed by up to 1.5x in raw wall time.

The probe is a fixed pure-Python loop (integer, dict, tuple, attribute
and set work); it never runs repository code.  A run takes a probe
*mark* right before and right after every timed unit, and scales the
unit's raw time by ``(REFERENCE_PROBE_S / probe) ** exponent``, with
``probe`` the median of the marks around and during the unit.  Every
time metric therefore reads "seconds on a host where the probe takes
``REFERENCE_PROBE_S``"; a code change that makes a unit faster moves
the metric exactly as it moves the raw time.  Raw times are kept next
to the scaled ones in the result file.

The exponent is how strongly a workload's times follow the probe when
the host changes speed.  Fitting log raw time against log probe over
runs taken at probe levels from 0.8 to 1.6 ms on the development host
(30-120 passes or runs each) gave 0.67-0.86 for the mining jobs and 0.71
for the sparse serving path (HTTP and WAL), but 0.93-1.06 where
streaming ingest and its join dominate: mine-*'s in-process requests
and serve-dense.  ``SENSITIVITY`` serves the former,
``STREAMING_SENSITIVITY`` the latter; with 0.8, serve-dense's job read
9% higher while the host ran 1.8x slower.

``calibrate()`` is the separate host-speed *sentinel*: a longer loop
timed at the start and the end of every run and stored raw, so
``compare.py`` can flag runs taken on an unusually slow or fast host.
"""

from __future__ import annotations

import os
import statistics
import time
from bisect import bisect_left, bisect_right

#: Probe time (seconds) on the reference host; the scale of every time
#: metric.  Changing it (or an exponent) rescales all results, so they
#: are part of the benchmark definition, not tuning knobs.
REFERENCE_PROBE_S = 0.00075
SENSITIVITY = 0.8
STREAMING_SENSITIVITY = 1.0

_PROBE_ROUNDS = 3
_PROBE_ITERATIONS = 1600
#: ~0.15 s: long enough to average over the host's short slow bursts
_CALIBRATION_REPEATS = 200


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _probe_body() -> int:
    table: dict[int, tuple[int, int]] = {}
    cells = []
    acc = 0
    for i in range(_PROBE_ITERATIONS):
        acc += i * i % 7
        table[i & 255] = (acc, i)
        cells.append(_Cell(i % 97, acc))
    pairs = {(cell.key, cell.value & 63) for cell in cells}
    total = 0
    for cell in cells:
        total += cell.key + table[cell.key & 255][0]
    return total + len(pairs)


def _timed_probe() -> float:
    started = time.perf_counter()
    _probe_body()
    return time.perf_counter() - started


def allowed_cpus() -> list[int]:
    """CPUs this process may run on (``[]`` where affinity is unsupported)."""
    getter = getattr(os, "sched_getaffinity", None)
    return sorted(getter(0)) if getter else []


def pin(cpus) -> None:
    """Restrict this process (and children it starts later) to ``cpus``."""
    setter = getattr(os, "sched_setaffinity", None)
    if setter and cpus:
        setter(0, set(cpus))


def probe(cpus, rounds: int = _PROBE_ROUNDS) -> float:
    """Mean over ``cpus`` of the median of ``rounds`` probe loops.

    Each CPU is probed with this process pinned to it; the process's own
    affinity is restored afterwards.  With no affinity support the probe
    runs wherever the process is.
    """
    cpus = list(cpus)
    own = allowed_cpus()
    if not own or not cpus or (len(cpus) == 1 and own == cpus):
        return statistics.median(_timed_probe() for _ in range(rounds))
    values = []
    try:
        for cpu in cpus:
            pin([cpu])
            values.append(statistics.median(_timed_probe() for _ in range(rounds)))
    finally:
        pin(own)
    return sum(values) / len(values)


def calibrate() -> float:
    """The sentinel: raw seconds for a fixed, longer calibration loop."""
    started = time.perf_counter()
    for _ in range(_CALIBRATION_REPEATS):
        _probe_body()
    return time.perf_counter() - started


class HostSpeed:
    """Probe marks along one run, and the scale factors they imply.

    ``cpus`` are the CPUs the measured work runs on; every mark probes
    each of them.  ``sensitivity`` is the scaling exponent.
    """

    def __init__(self, cpus, sensitivity: float = SENSITIVITY) -> None:
        self.cpus = list(cpus)
        self.sensitivity = sensitivity
        self._times: list[float] = []
        self._values: list[float] = []

    def mark(self, rounds: int = _PROBE_ROUNDS) -> float:
        """Take a probe now; returns the probe seconds."""
        value = probe(self.cpus, rounds)
        self._times.append(time.perf_counter())
        self._values.append(value)
        return value

    def scale(self, start: float, end: float) -> float:
        """Factor turning raw seconds spent in ``[start, end]`` into
        reference seconds: from the median of the marks taken in that
        interval and the nearest one on each side of it.
        """
        if not self._values:
            raise RuntimeError("no host-speed probe was taken")
        first = max(0, bisect_right(self._times, start) - 1)
        last = min(len(self._values) - 1, bisect_left(self._times, end))
        probe_s = statistics.median(self._values[first : last + 1])
        return (REFERENCE_PROBE_S / probe_s) ** self.sensitivity

    def slowdown(self, marks: int = 5) -> float:
        """How much slower than the reference the workload runs right
        now, from the median of the last ``marks`` probes."""
        if not self._values:
            raise RuntimeError("no host-speed probe was taken")
        recent = statistics.median(self._values[-marks:])
        return (recent / REFERENCE_PROBE_S) ** self.sensitivity

    @property
    def median_probe(self) -> float:
        """Median probe seconds over the run (reported, not used to scale)."""
        return statistics.median(self._values) if self._values else 0.0
