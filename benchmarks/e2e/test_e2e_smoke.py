"""Smoke test of the end-to-end benchmark at its tiny ``--smoke`` size.

Runs every workload untraced and traced, in subprocesses exactly as the
benchmark is invoked, and asserts that each run passes its output
checks, reports every ``BENCHMARK.json`` metric with its unit, and that
named layers cover at least 95% of the traced timed wall time.

Run it explicitly (the tier-1 suite collects only ``tests/``)::

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = Path(__file__).with_name("run.py")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(workload: str, trace: int, out: Path) -> tuple[int, dict]:
    completed = subprocess.run(
        [
            sys.executable,
            str(RUN),
            "--workload", workload,
            "--seed", "7",
            "--seconds", "1",
            "--trace", str(trace),
            "--out", str(out),
            "--smoke",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    lines = completed.stdout.strip().splitlines()
    assert lines, completed.stderr
    return completed.returncode, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, tmp_path):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        code, result = _run(workload, trace, tmp_path)
        assert code == 0, result
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        if trace:
            assert result["metrics"]["coverage_pct"]["value"] >= 95.0
            assert (tmp_path / f"trace-{workload}.json").is_file()
            assert (tmp_path / f"layers-{workload}.json").is_file()
        else:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_checkout_without_sources(tmp_path):
    """Only ``BENCHMARK.json`` and the benchmark: exit non-zero, no result."""
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for path in RUN.parent.iterdir():
        if path.is_file():
            (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    completed = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", WORKLOADS[0]],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
        check=False,
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip()
