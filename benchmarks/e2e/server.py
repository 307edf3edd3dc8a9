"""Server child of the ``serve-*`` workloads.

Usage (started by the benchmark, not by hand)::

    python3 benchmarks/e2e/server.py --model MODEL.tgm
        [--checkpoint-dir DIR --checkpoint-every N]
    python3 benchmarks/e2e/server.py --queries QUERIES.jsonl
        [--cpu N] [--trace-dir DIR]

Binds an ephemeral loopback port, prints ``ready <port>``, then obeys
one command per stdin line: ``rss-reset`` (start a peak-RSS window),
``rss-peak`` (print the window's peak in MB) and ``stop`` (graceful
HTTP shutdown: drain, final checkpoint, flush the trace).  The server
runs in its own process so the load generator never shares its GIL.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# run as a script: drop this directory (its trace.py would shadow the
# stdlib module) and import the package and the sources from the root
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", help="a .tgm bundle to serve")
    source.add_argument("--queries", help="a queries JSONL slate to serve")
    parser.add_argument("--checkpoint-dir", help="serve durably from this directory")
    parser.add_argument("--checkpoint-every", type=int, help="batches per snapshot")
    parser.add_argument("--trace-dir", help="install the timing wrappers")
    parser.add_argument("--cpu", type=int, help="pin the server to this CPU")
    args = parser.parse_args(argv)

    if args.cpu is not None:
        from benchmarks.e2e.hostspeed import pin

        pin([args.cpu])

    tracer = None
    if args.trace_dir:
        from benchmarks.e2e.trace import Tracer, install

        tracer = Tracer(args.trace_dir)
        install(tracer)

    from benchmarks.e2e.common import peak_rss_mb, reset_peak_rss
    from repro.api import BehaviorModel, Workspace
    from repro.serving.http import serve_http
    from repro.serving.registry import load_queries_jsonl
    from repro.serving.service import DetectionService

    if args.model:
        handle = Workspace().serve_http(
            BehaviorModel.load(args.model),
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
        )
    else:
        service = DetectionService()
        service.register_all(load_queries_jsonl(args.queries))
        handle = serve_http(service)
    handle.start_background()
    print(f"ready {handle.address[1]}", flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "rss-reset":
                reset_peak_rss()
                print("ok", flush=True)
            elif command == "rss-peak":
                print(f"peak {peak_rss_mb()}", flush=True)
            elif command == "stop":
                break
    finally:
        handle.close()
        if tracer is not None:
            tracer.flush()
    print("stopped", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
