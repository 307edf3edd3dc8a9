"""End-to-end benchmark of the TGMiner reproduction: mine, query, serve.

Usage::

    python3 benchmarks/e2e/run.py --workload mine-mem --seed 7 --seconds 15 --trace 0
    python3 -m benchmarks.e2e --seed 7 --out DIR      # every workload, one subprocess each

Each run makes its inputs from ``--seed``, sets up (three times, for
``setup_s``), measures for about ``--seconds``, checks its outputs, and
prints as its last stdout line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  It exits non-zero when a check fails.  A traced run
first repeats the untraced run (the overhead baseline) and then reruns
the workload with the timing wrappers of ``trace.py``; it writes
``trace-<workload>.json`` (Chrome trace events) and
``layers-<workload>.json`` to ``--out``.  Every run also writes a result
file there for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("mine-mem", "mine-store", "serve-sparse", "serve-dense")
DEFAULT_OUT = ROOT / "bench-artifacts" / "e2e"


def _import_sources():
    """Put this checkout's ``src/`` first on the path; refuse any other.

    The benchmark measures the sources next to it, never an installed
    copy, so a checkout without ``src/repro`` is an error.
    """
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no repro sources at {package}")
    if sys.path and Path(sys.path[0] or ".").resolve() == Path(__file__).parent:
        # run as a script: this directory's trace.py would shadow the
        # stdlib module of that name
        sys.path.pop(0)
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {package}")


def _workload(name: str, smoke: bool):
    from benchmarks.e2e import hostspeed, mining, serving

    table = {
        "mine-mem": (mining.run, mining.MineParams(workers=1)),
        "mine-store": (mining.run, mining.MineParams(workers=2)),
        "serve-sparse": (
            serving.run,
            serving.ServeParams(
                dense=False,
                checkpoint_every=48,
                batch=64,
                contents=3,
                rate_eps=10_000,
                closed_passes=3,
            ),
        ),
        "serve-dense": (
            serving.run,
            serving.ServeParams(
                dense=True,
                checkpoint_every=0,
                batch=8,
                contents=3,
                rate_eps=0,
                closed_passes=1,
                sensitivity=hostspeed.STREAMING_SENSITIVITY,
            ),
        ),
    }
    fn, params = table[name]
    return fn, params.smoke() if smoke else params


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _environment() -> dict:
    from repro.core import buffers

    backend = getattr(buffers, "backend_name", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "backend": backend() if backend else "unknown",
        "platform": platform.platform(),
    }


def run_one(args) -> int:
    from benchmarks.e2e.hostspeed import calibrate
    from benchmarks.e2e.trace import Tracer, install

    spec = _benchmark_spec()
    fn, params = _workload(args.workload, args.smoke)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    calib_start = calibrate()
    layers = None
    try:
        if args.trace:
            # the untraced baseline runs in its own fresh process, like
            # every measured run: a second run inside one process is not
            # comparable (fork pool workers inherit the first run's heap)
            baseline = _child(args, args.workload, 0, out_dir / "baseline")
            parts = out_dir / f"trace-{args.workload}-parts"
            shutil.rmtree(parts, ignore_errors=True)
            tracer = Tracer(parts)
            missing = install(tracer)
            outcome = fn(args.workload, params, args.seed, args.seconds, workdir, tracer)
            tracer.flush()
            outcome.checks["untraced_baseline"] = baseline.get("correct") is True
            base_job_s = baseline.get("metrics", {}).get("job_s", {}).get("value")
            layers = _write_trace(
                args.workload, out_dir, parts, base_job_s, outcome, missing
            )
        else:
            outcome = fn(args.workload, params, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calib_end = calibrate()

    golden_ok = _golden_check(args, params, outcome)
    if golden_ok is not None:
        outcome.checks["golden_digest"] = golden_ok
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    values = layers if args.trace else outcome.metrics
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "smoke": args.smoke,
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "metrics": metrics,
        "raw": outcome.raw,
        "client": outcome.client,
        "env": {**_environment(), "calib_s": [calib_start, calib_end]},
        "time": time.time(),
    }
    name = f"result-{args.workload}-s{args.seed}-t{int(args.trace)}-{time.time_ns()}.json"
    with open(out_dir / name, "w") as fh:
        json.dump(result, fh, indent=2, default=str)

    for metric, entry in metrics.items():
        print(f"{args.workload:13s} {metric:26s} {entry['value']:14.6f} {entry['unit']}")
    failed_checks = [check for check, ok in outcome.checks.items() if not ok]
    if failed_checks:
        print(f"FAILED checks: {', '.join(failed_checks)}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome.correct else 1


def _golden_check(args, params, outcome) -> bool | None:
    """Compare the output digest with ``golden.json`` (default sizes only)."""
    if args.smoke:
        return None
    with open(Path(__file__).with_name("golden.json")) as fh:
        golden = json.load(fh)
    family = "mine" if args.workload.startswith("mine") else args.workload
    expected = golden.get(family, {}).get(str(args.seed))
    if expected is None:
        return None
    return outcome.raw.get("output_digest") == expected


def _write_trace(
    workload, out_dir: Path, parts: Path, base_job_s, traced, missing
) -> dict:
    from benchmarks.e2e.trace import chrome_trace, layer_metrics, read_parts, totals

    records = read_parts(parts)
    with open(out_dir / f"trace-{workload}.json", "w") as fh:
        json.dump(chrome_trace(records), fh)
    summary = totals(records, os.getpid())
    layers = layer_metrics(summary, base_job_s, traced)
    with open(out_dir / f"layers-{workload}.json", "w") as fh:
        json.dump(
            {
                "workload": workload,
                "metrics": layers,
                "spans": summary["agg"],
                "counters": summary["counters"],
                "missing_targets": missing,
                "dropped_records": summary["dropped"],
            },
            fh,
            indent=2,
        )
    shutil.rmtree(parts, ignore_errors=True)
    return layers


def _child(args, workload: str, trace: int, out: Path, echo: bool = False) -> dict:
    """Run one workload in a fresh process; returns its result line.

    ``{"correct": false}`` stands in for a child that printed no result.
    With ``echo`` the child's table and errors are passed through.
    """
    command = [sys.executable, str(Path(__file__)), "--workload", workload]
    command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    command += ["--trace", str(trace), "--out", str(out)]
    command += ["--smoke"] if args.smoke else []
    completed = subprocess.run(command, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if echo:
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(completed.stderr)
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "returncode": completed.returncode}


def run_all(args) -> int:
    """Every workload in a fresh subprocess; prints each one's table."""
    summary = {
        workload: _child(args, workload, int(args.trace), Path(args.out), echo=True)
        for workload in WORKLOADS
    }
    print(json.dumps(summary))
    return 0 if all(result.get("correct") for result in summary.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, one subprocess each")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", default=str(DEFAULT_OUT), help="result, trace and scratch directory")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (the smoke test)")
    args = parser.parse_args(argv)
    _import_sources()
    if args.seconds is None:
        args.seconds = float(_benchmark_spec()["run_seconds"])
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
