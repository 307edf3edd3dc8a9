"""Perf-trend gate: compare fresh ``BENCH_*.json`` files against baselines.

CI's bench-smoke job runs the ablation benchmarks and then this script.
Gated metrics are **within-run ratios and soundness flags** (streaming
throughput in host-speed probe units, byte-identity booleans): ratios
compare two measurements taken on the same machine in the same run, so
they transfer across runner hardware, unlike absolute seconds.  Absolute metrics
(events/sec, wall seconds) are reported for trend reading but only gated
with ``--include-absolute``.

Policy (per metric, relative tolerance ``--tolerance``, default 25%):

* a gated ratio **below** ``baseline * (1 - tol)`` is a **regression**
  → exit 1;
* a gated ratio **above** ``baseline * (1 + tol)`` is an **unreported
  speedup** — the baseline understates where the code is, so trend
  gating has lost its bite → exit 2, refresh with ``--write``;
* a soundness boolean that is not ``true`` → exit 1;
* a guarded metric whose baseline set its guard but whose current run
  did not (**unenforced**: the gate cannot apply, e.g. because the run
  got too short to measure) → exit 2, restore the run's scale or
  refresh with ``--write``;
* a baselined file missing from the current results → exit 1;
* a current file with no baseline → exit 2 (add it with ``--write``).

Usage::

    python benchmarks/check_regression.py --current bench-artifacts
    python benchmarks/check_regression.py --current . --write   # refresh
"""

from __future__ import annotations

import argparse
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

__all__ = ["main", "compare", "Metric", "METRICS"]

OK = 0
REGRESSION = 1
REFRESH_NEEDED = 2

#: Verdict precedence: a regression always outranks a refresh request —
#: numeric exit codes don't order by severity (2 is *less* severe than 1).
_SEVERITY = {OK: 0, REFRESH_NEEDED: 1, REGRESSION: 2}


@dataclass(frozen=True)
class Metric:
    """One gated (or informational) value inside a BENCH json file."""

    file: str
    key: str
    #: "higher_better" ratios are gated both ways; "bool_true" must hold;
    #: "absolute" is informational unless --include-absolute; "info" is
    #: never gated.
    kind: str
    #: key of a boolean that must be true in BOTH runs for the gate to
    #: apply (e.g. parallel speedups are only meaningful when the host
    #: had enough cores — the bench records that as ``speedup_enforced``).
    guard: str | None = None


METRICS = [
    # the streaming path's own throughput in host-speed probe units; the
    # speedup over rebuild-per-batch moves with the rebuild baseline's
    # cost, so it is only reported
    Metric("BENCH_serving.json", "events_per_probe", "higher_better"),
    Metric("BENCH_serving.json", "speedup", "info"),
    Metric("BENCH_serving.json", "identical", "bool_true"),
    Metric("BENCH_serving.json", "events_per_second", "absolute"),
    Metric("BENCH_serving.json", "latency_p95_ms", "absolute"),
    Metric("BENCH_kernel.json", "identical", "bool_true"),
    # the vectorized-join ratio over the scalar column join: gated
    # wherever numpy was the active backend in both runs (the bench
    # records that as the guard)
    Metric(
        "BENCH_kernel.json",
        "match_speedup",
        "higher_better",
        guard="match_speedup_enforced",
    ),
    Metric("BENCH_fleet.json", "identical", "bool_true"),
    # aggregate-throughput scaling at the widest shard count: a
    # within-run ratio, but only meaningful with enough CPUs and tenants
    # (the bench records that as the guard)
    Metric(
        "BENCH_fleet.json", "fleet_speedup", "higher_better", guard="speedup_enforced"
    ),
    Metric("BENCH_fleet.json", "events_per_second", "absolute"),
    Metric("BENCH_fleet.json", "latency_p95_ms", "absolute"),
    Metric("BENCH_fleet.json", "latency_p99_ms", "absolute"),
    # durability: plain / crash-recovered / uninterrupted-durable runs
    # must be span-identical; the WAL+snapshot tax is gated as the
    # within-run efficiency ratio (plain/durable, ~0.9 at the 10%
    # ceiling) wherever the plain run was long enough to measure it
    Metric("BENCH_recovery.json", "identical", "bool_true"),
    Metric(
        "BENCH_recovery.json",
        "durable_efficiency",
        "higher_better",
        guard="overhead_enforced",
    ),
    Metric("BENCH_recovery.json", "overhead_pct", "absolute"),
    Metric("BENCH_recovery.json", "recovery_seconds", "absolute"),
    # the HTTP tier must be a pure transport: detection sets identical
    # to direct ingest; its overhead is an informational trend line
    Metric("BENCH_http.json", "identical", "bool_true"),
    Metric("BENCH_http.json", "overhead_ratio", "absolute"),
    Metric("BENCH_http.json", "http_events_per_second", "absolute"),
    # the disk-backed corpus store: mined patterns and detection spans
    # must match the in-memory path exactly; the streaming reader must
    # stay under the self-calibrated memory budget (the bool embeds its
    # own scale guard); the store-vs-memory mining ratio (median over
    # alternating repeats) is gated wherever the run was long enough to
    # measure decode overhead
    Metric("BENCH_store.json", "identical", "bool_true"),
    Metric("BENCH_store.json", "rss_bounded", "bool_true"),
    Metric(
        "BENCH_store.json",
        "store_efficiency",
        "higher_better",
        guard="efficiency_enforced",
    ),
    Metric("BENCH_store.json", "build_edges_per_second", "absolute"),
    Metric("BENCH_store.json", "rss_ratio", "absolute"),
    Metric("BENCH_store.json", "scan_ratio", "absolute"),
    Metric("BENCH_parallel.json", "identical", "bool_true"),
    Metric(
        "BENCH_parallel.json", "fan_speedup", "higher_better", guard="speedup_enforced"
    ),
]


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def compare(
    current_dir: Path,
    baseline_dir: Path,
    tolerance: float = 0.25,
    include_absolute: bool = False,
) -> tuple[int, list[str]]:
    """Return ``(exit_code, report_lines)`` for the two result trees."""
    lines: list[str] = []
    worst = OK

    def note(status: int, line: str) -> None:
        nonlocal worst
        if _SEVERITY[status] > _SEVERITY[worst]:
            worst = status
        lines.append(line)

    baseline_files = sorted(p.name for p in baseline_dir.glob("BENCH_*.json"))
    current_files = sorted(p.name for p in current_dir.glob("BENCH_*.json"))
    for name in current_files:
        if name not in baseline_files:
            note(
                REFRESH_NEEDED,
                f"UNBASELINED  {name}: no committed baseline — add it with --write",
            )
    for name in baseline_files:
        if name not in current_files:
            note(
                REGRESSION,
                f"MISSING      {name}: baselined but not produced by this run",
            )

    for metric in METRICS:
        if metric.file not in baseline_files or metric.file not in current_files:
            continue
        base = _load(baseline_dir / metric.file)
        cur = _load(current_dir / metric.file)
        if metric.key not in base or metric.key not in cur:
            note(
                REGRESSION,
                f"MISSING      {metric.file}:{metric.key}: absent from "
                f"{'baseline' if metric.key not in base else 'current'} results",
            )
            continue
        label = f"{metric.file}:{metric.key}"
        base_value, cur_value = base[metric.key], cur[metric.key]

        if metric.kind == "bool_true":
            if cur_value is True:
                note(OK, f"OK           {label} = true")
            else:
                note(REGRESSION, f"REGRESSION   {label} = {cur_value} (must be true)")
            continue

        if metric.guard is not None and not (
            base.get(metric.guard) and cur.get(metric.guard)
        ):
            if base.get(metric.guard):
                # the baseline was gated but this run was not: a gate
                # that silently stops applying must not read as OK
                note(
                    REFRESH_NEEDED,
                    f"UNENFORCED   {label}: this run did not set "
                    f"{metric.guard!r}, which the baseline sets, so the gate "
                    "did not apply — restore the run's scale or refresh the "
                    "baseline with --write",
                )
            elif cur.get(metric.guard):
                # the current run could measure this but the committed
                # baseline couldn't (e.g. recorded on a 1-core box).  Warn
                # on every run — loudly, not fatally: failing each PR over
                # a hardware asymmetry would train people to ignore the
                # gate — until someone re-records the baseline with
                # --write on capable hardware.
                note(
                    OK,
                    f"UNGUARDED    {label}: baseline lacks {metric.guard!r}; "
                    "this metric is NOT gated — refresh the baseline from "
                    "this run with --write",
                )
            else:
                note(OK, f"SKIPPED      {label}: guard {metric.guard!r} not set")
            continue

        gated = metric.kind == "higher_better" or (
            include_absolute and metric.kind == "absolute"
        )
        if not gated:
            note(
                OK,
                f"INFO         {label} = {cur_value:,.2f} "
                f"(base {base_value:,.2f})",
            )
            continue
        low, high = base_value * (1 - tolerance), base_value * (1 + tolerance)
        if cur_value < low:
            note(
                REGRESSION,
                f"REGRESSION   {label} = {cur_value:.3f} "
                f"(< {low:.3f}, baseline {base_value:.3f} - {tolerance:.0%})",
            )
        elif cur_value > high:
            note(
                REFRESH_NEEDED,
                f"SPEEDUP      {label} = {cur_value:.3f} "
                f"(> {high:.3f}, baseline {base_value:.3f} + {tolerance:.0%}) "
                "— refresh the baseline with --write",
            )
        else:
            note(
                OK,
                f"OK           {label} = {cur_value:.3f} "
                f"(baseline {base_value:.3f} ± {tolerance:.0%})",
            )
    return worst, lines


def write_baselines(current_dir: Path, baseline_dir: Path) -> list[str]:
    """Copy the current BENCH files over the committed baselines."""
    baseline_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for path in sorted(current_dir.glob("BENCH_*.json")):
        shutil.copyfile(path, baseline_dir / path.name)
        written.append(path.name)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--current", default=".", help="directory holding fresh BENCH_*.json files"
    )
    parser.add_argument(
        "--baselines",
        default=str(Path(__file__).parent / "baselines"),
        help="directory holding committed baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25, help="relative band (0.25 = 25%%)"
    )
    parser.add_argument(
        "--include-absolute",
        action="store_true",
        help="also gate machine-dependent absolute metrics (same-host trends)",
    )
    parser.add_argument(
        "--report-only",
        action="store_true",
        help="print the comparison but always exit 0 (nightly trend job)",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help="refresh the baselines from the current results and exit 0",
    )
    args = parser.parse_args(argv)
    current_dir, baseline_dir = Path(args.current), Path(args.baselines)
    if not current_dir.is_dir():
        print(f"error: current results directory missing: {current_dir}")
        return REGRESSION

    if args.write:
        written = write_baselines(current_dir, baseline_dir)
        for name in written:
            print(f"baseline refreshed: {baseline_dir / name}")
        return OK if written else REGRESSION

    code, lines = compare(
        current_dir,
        baseline_dir,
        tolerance=args.tolerance,
        include_absolute=args.include_absolute,
    )
    print(f"perf-trend gate: {current_dir} vs baselines in {baseline_dir}")
    for line in lines:
        print(f"  {line}")
    verdict = {
        OK: "OK",
        REGRESSION: "REGRESSION (exit 1)",
        REFRESH_NEEDED: "BASELINE REFRESH NEEDED (exit 2)",
    }[code]
    print(f"verdict: {verdict}")
    return OK if args.report_only else code


if __name__ == "__main__":
    raise SystemExit(main())
