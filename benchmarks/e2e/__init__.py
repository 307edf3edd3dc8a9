"""End-to-end benchmark: four mine/serve workloads (see README.md).

Run ``python3 benchmarks/e2e/run.py --workload NAME`` or
``python3 -m benchmarks.e2e`` from the repository root.
"""
