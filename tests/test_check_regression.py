"""Tests for the CI perf-trend gate (benchmarks/check_regression.py)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_regression",
    Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py",
)
check_regression = importlib.util.module_from_spec(_SPEC)
sys.modules["check_regression"] = check_regression
_SPEC.loader.exec_module(check_regression)


def write_result(directory, name, payload):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(json.dumps(payload))


def serving(events_per_probe=2.0, identical=True, **extra):
    return {
        "events_per_probe": events_per_probe,
        "speedup": 2.0,
        "identical": identical,
        "events_per_second": 100_000.0,
        "latency_p95_ms": 1.0,
        **extra,
    }


def parallel(identical=True, enforced=False, fan=1.0):
    return {
        "identical": identical,
        "speedup_enforced": enforced,
        "fan_speedup": fan,
    }


def store(enforced=True, efficiency=1.0):
    return {
        "identical": True,
        "rss_bounded": True,
        "store_efficiency": efficiency,
        "efficiency_enforced": enforced,
        "build_edges_per_second": 20_000.0,
        "rss_ratio": 1.1,
        "scan_ratio": 0.5,
    }


@pytest.fixture
def dirs(tmp_path):
    return tmp_path / "current", tmp_path / "baselines"


class TestCompare:
    def test_within_band_passes(self, dirs):
        current, baselines = dirs
        write_result(baselines, "BENCH_serving.json", serving(events_per_probe=2.0))
        write_result(current, "BENCH_serving.json", serving(events_per_probe=1.8))
        code, _lines = check_regression.compare(current, baselines)
        assert code == check_regression.OK

    def test_slowdown_beyond_band_fails(self, dirs):
        current, baselines = dirs
        write_result(baselines, "BENCH_serving.json", serving(events_per_probe=2.0))
        write_result(current, "BENCH_serving.json", serving(events_per_probe=1.4))
        code, lines = check_regression.compare(current, baselines)
        assert code == check_regression.REGRESSION
        assert any(
            "REGRESSION" in line and "events_per_probe" in line for line in lines
        )

    def test_unreported_speedup_flags_refresh(self, dirs):
        current, baselines = dirs
        write_result(baselines, "BENCH_serving.json", serving(events_per_probe=2.0))
        write_result(current, "BENCH_serving.json", serving(events_per_probe=2.6))
        code, lines = check_regression.compare(current, baselines)
        assert code == check_regression.REFRESH_NEEDED
        assert any("--write" in line for line in lines)

    def test_soundness_flag_must_hold(self, dirs):
        current, baselines = dirs
        write_result(baselines, "BENCH_serving.json", serving())
        write_result(current, "BENCH_serving.json", serving(identical=False))
        code, _lines = check_regression.compare(current, baselines)
        assert code == check_regression.REGRESSION

    def test_guarded_metric_skipped_without_cores(self, dirs):
        current, baselines = dirs
        write_result(
            baselines, "BENCH_parallel.json", parallel(enforced=False, fan=2.0)
        )
        write_result(current, "BENCH_parallel.json", parallel(enforced=False, fan=0.4))
        code, lines = check_regression.compare(current, baselines)
        assert code == check_regression.OK
        assert any("SKIPPED" in line for line in lines)

    def test_unguarded_baseline_warns_without_failing(self, dirs):
        """A current run that CAN measure a guarded metric warns that the
        baseline (recorded on hardware that could not) leaves it ungated,
        without turning every PR red over a hardware asymmetry."""
        current, baselines = dirs
        write_result(
            baselines, "BENCH_parallel.json", parallel(enforced=False, fan=0.4)
        )
        write_result(current, "BENCH_parallel.json", parallel(enforced=True, fan=2.0))
        code, lines = check_regression.compare(current, baselines)
        assert code == check_regression.OK
        assert any("UNGUARDED" in line and "--write" in line for line in lines)

    def test_lost_guard_is_unenforced_not_ok(self, dirs):
        """A gate the baseline enforced but the current run could not
        (the store bench's in-memory mining fell under its floor) asks
        for a refresh instead of passing as a skip."""
        current, baselines = dirs
        write_result(baselines, "BENCH_store.json", store(enforced=True))
        write_result(current, "BENCH_store.json", store(enforced=False, efficiency=0.1))
        code, lines = check_regression.compare(current, baselines)
        assert code == check_regression.REFRESH_NEEDED
        assert any(
            line.startswith("UNENFORCED") and "store_efficiency" in line
            for line in lines
        )
        assert not any(line.startswith("SKIPPED") for line in lines)
        assert (
            check_regression.main(
                ["--current", str(current), "--baselines", str(baselines)]
            )
            == check_regression.REFRESH_NEEDED
        )

    def test_guarded_metric_gated_when_enforced(self, dirs):
        current, baselines = dirs
        write_result(baselines, "BENCH_parallel.json", parallel(enforced=True, fan=2.0))
        write_result(current, "BENCH_parallel.json", parallel(enforced=True, fan=1.0))
        code, _lines = check_regression.compare(current, baselines)
        assert code == check_regression.REGRESSION

    def test_regression_outranks_refresh_request(self, dirs):
        """A slowdown in one file + a speedup in another is a REGRESSION."""
        current, baselines = dirs
        write_result(baselines, "BENCH_serving.json", serving(events_per_probe=2.0))
        write_result(current, "BENCH_serving.json", serving(events_per_probe=1.0))
        write_result(baselines, "BENCH_parallel.json", parallel(enforced=True, fan=1.0))
        write_result(current, "BENCH_parallel.json", parallel(enforced=True, fan=2.0))
        code, _lines = check_regression.compare(current, baselines)
        assert code == check_regression.REGRESSION

    def test_missing_current_file_fails(self, dirs):
        current, baselines = dirs
        write_result(baselines, "BENCH_serving.json", serving())
        current.mkdir()
        code, lines = check_regression.compare(current, baselines)
        assert code == check_regression.REGRESSION
        assert any("MISSING" in line for line in lines)

    def test_unbaselined_file_flags_refresh(self, dirs):
        current, baselines = dirs
        baselines.mkdir()
        write_result(current, "BENCH_serving.json", serving())
        code, lines = check_regression.compare(current, baselines)
        assert code == check_regression.REFRESH_NEEDED
        assert any("UNBASELINED" in line for line in lines)

    def test_absolute_metrics_informational_by_default(self, dirs):
        current, baselines = dirs
        write_result(baselines, "BENCH_serving.json", serving())
        # events/sec collapses by 10x but stays informational
        payload = serving()
        payload["events_per_second"] = 10_000.0
        write_result(current, "BENCH_serving.json", payload)
        code, _lines = check_regression.compare(current, baselines)
        assert code == check_regression.OK
        code, _lines = check_regression.compare(
            current, baselines, include_absolute=True
        )
        assert code == check_regression.REGRESSION


    def test_rebuild_speedup_informational(self, dirs):
        current, baselines = dirs
        write_result(baselines, "BENCH_serving.json", serving())
        # the rebuild ratio collapses, but only the streaming path's own
        # throughput is gated
        write_result(current, "BENCH_serving.json", serving(speedup=0.5))
        for include_absolute in (False, True):
            code, lines = check_regression.compare(
                current, baselines, include_absolute=include_absolute
            )
            assert code == check_regression.OK
            assert any(line.startswith("INFO") and "speedup" in line for line in lines)


class TestMain:
    def test_write_then_gate_roundtrip(self, dirs):
        current, baselines = dirs
        write_result(current, "BENCH_serving.json", serving())
        assert (
            check_regression.main(
                ["--current", str(current), "--baselines", str(baselines), "--write"]
            )
            == check_regression.OK
        )
        assert (baselines / "BENCH_serving.json").exists()
        assert (
            check_regression.main(
                ["--current", str(current), "--baselines", str(baselines)]
            )
            == check_regression.OK
        )

    def test_report_only_never_fails(self, dirs):
        current, baselines = dirs
        write_result(baselines, "BENCH_serving.json", serving(events_per_probe=2.0))
        write_result(current, "BENCH_serving.json", serving(events_per_probe=0.5))
        assert (
            check_regression.main(
                [
                    "--current",
                    str(current),
                    "--baselines",
                    str(baselines),
                    "--report-only",
                ]
            )
            == check_regression.OK
        )

    def test_missing_current_dir_fails(self, tmp_path):
        assert (
            check_regression.main(["--current", str(tmp_path / "nope")])
            == check_regression.REGRESSION
        )

    def test_committed_baselines_parse(self):
        """The repo's committed baselines stay loadable and complete."""
        baseline_dir = (
            Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
        )
        names = {p.name for p in baseline_dir.glob("BENCH_*.json")}
        assert {"BENCH_serving.json", "BENCH_parallel.json"} <= names
        for metric in check_regression.METRICS:
            payload = json.loads((baseline_dir / metric.file).read_text())
            assert metric.key in payload, f"{metric.file} lacks {metric.key}"
