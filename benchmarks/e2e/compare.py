"""A/B comparator for end-to-end benchmark result sets.

Usage::

    python3 benchmarks/e2e/compare.py A B

``A`` (the parent) and ``B`` (the change) are directories of
``result-*.json`` files written by ``run.py`` (untraced runs only; smoke
runs are ignored).  For every (workload, end-to-end metric) pair it
prints each side's median and quartiles, the share of run pairs each
side won (runs are paired by seed, else in file order; ties count for
neither), and one verdict under the ``BENCHMARK.json`` bound:

* ``regression`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's spread (quartile distance over median)
  is wider than the bound, unless every B run beats every A run (gain)
  or loses to it (regression);
* ``gain`` — B wins at least nine tenths of the pairs and the medians
  differ by more than A's own quartile distance;
* ``no change`` — otherwise.

Result sets whose recorded environment differs (CPU count, Python
version, vector backend) are refused: exit status 2.  Runs whose
host-speed sentinel ``calib_s`` is more than 10% off the median of their
set are flagged.  Exit status 1 when any pair regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
ENV_KEYS = ("nproc", "python", "backend")
SENTINEL_TOLERANCE = 0.10
GAIN_SHARE = 0.9


def load(directory: Path) -> list[dict]:
    runs = []
    for path in sorted(directory.glob("result-*.json")):
        with open(path) as fh:
            result = json.load(fh)
        if result.get("trace") or result.get("smoke"):
            continue
        result["_file"] = path.name
        runs.append(result)
    return runs


def environment(runs: list[dict]) -> set[tuple]:
    return {tuple(run["env"].get(key) for key in ENV_KEYS) for run in runs}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def sentinel_outliers(runs: list[dict]) -> list[str]:
    """Runs whose mean calibration time is >10% off the set median."""
    calib = {run["_file"]: sum(run["env"]["calib_s"]) / 2 for run in runs}
    if not calib:
        return []
    middle = statistics.median(calib.values())
    return [
        name
        for name, value in calib.items()
        if abs(value - middle) > SENTINEL_TOLERANCE * middle
    ]


def pairs(a: list[dict], b: list[dict]) -> list[tuple[dict, dict]]:
    """Pair runs by seed (i-th A run of a seed with the i-th B run)."""
    by_seed = defaultdict(list)
    for run in b:
        by_seed[run["seed"]].append(run)
    paired = []
    for run in a:
        if by_seed[run["seed"]]:
            paired.append((run, by_seed[run["seed"]].pop(0)))
    if paired:
        return paired
    return list(zip(a, b))


def verdict(a: list[float], b: list[float], wins_b: float, metric: dict) -> str:
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)

    def worse(x: float, y: float) -> bool:  # y worse than x
        return y > x if lower else y < x

    all_better = all(worse(y, x) for x in a for y in b)
    all_worse = all(worse(x, y) for x in a for y in b)
    spread = max((qa3 - qa1) / abs(ma) if ma else 0.0, (qb3 - qb1) / abs(mb) if mb else 0.0)
    change = (mb - ma) / abs(ma) if ma else 0.0
    worsening = change if lower else -change
    if spread > bound:
        if all_better:
            return "gain"
        if all_worse:
            return "regression"
        return "unresolved"
    if worsening > bound:
        return "regression"
    if wins_b >= GAIN_SHARE and abs(mb - ma) > (qa3 - qa1) and worsening < 0:
        return "gain"
    return "no change"


def compare(a_dir: Path, b_dir: Path, spec: dict) -> int:
    a_runs, b_runs = load(a_dir), load(b_dir)
    if not a_runs or not b_runs:
        print("error: a result set is empty", file=sys.stderr)
        return 2
    env_a, env_b = environment(a_runs), environment(b_runs)
    if len(env_a) != 1 or env_a != env_b:
        print(
            f"error: environments differ ({', '.join(ENV_KEYS)}): "
            f"A={sorted(env_a)} B={sorted(env_b)}",
            file=sys.stderr,
        )
        return 2
    for label, runs in (("A", a_runs), ("B", b_runs)):
        flagged = sentinel_outliers(runs)
        if flagged:
            print(
                f"flag: {label}: {len(flagged)} of {len(runs)} runs have calib_s "
                f"more than 10% off the set's median: {', '.join(flagged)}"
            )

    regressed = False
    header = f"{'workload':13s} {'metric':12s} {'A q1/med/q3':>26s} {'B q1/med/q3':>26s} {'A won':>6s} {'B won':>6s}  verdict"
    print(header)
    workloads = sorted({run["workload"] for run in a_runs} & {run["workload"] for run in b_runs})
    for workload in workloads:
        a_w = [run for run in a_runs if run["workload"] == workload]
        b_w = [run for run in b_runs if run["workload"] == workload]
        matched = pairs(a_w, b_w)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a_values = [run["metrics"][name]["value"] for run in a_w]
            b_values = [run["metrics"][name]["value"] for run in b_w]
            lower = metric["better"] == "lower"
            won_a = won_b = 0
            for run_a, run_b in matched:
                x, y = run_a["metrics"][name]["value"], run_b["metrics"][name]["value"]
                if x != y:
                    b_better = y < x if lower else y > x
                    won_b += b_better
                    won_a += not b_better
            share_a = won_a / len(matched) if matched else 0.0
            share_b = won_b / len(matched) if matched else 0.0
            result = verdict(a_values, b_values, share_b, metric)
            regressed = regressed or result == "regression"
            qa, qb = quartiles(a_values), quartiles(b_values)
            print(
                f"{workload:13s} {name:12s} "
                f"{qa[0]:8.4g}/{qa[1]:8.4g}/{qa[2]:8.4g} "
                f"{qb[0]:8.4g}/{qb[1]:8.4g}/{qb[2]:8.4g} "
                f"{share_a:6.0%} {share_b:6.0%}  {result}"
            )
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="parent result directory")
    parser.add_argument("b", type=Path, help="change result directory")
    parser.add_argument("--bench", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(args.bench) as fh:
        spec = json.load(fh)
    return compare(args.a, args.b, spec)


if __name__ == "__main__":
    raise SystemExit(main())
