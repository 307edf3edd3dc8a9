"""Command-line interface: thin argument parsing over the ``repro.api`` SDK.

Usage (after install)::

    python -m repro generate --out data/ --instances 10 --background 30
    python -m repro mine --train data/ --behavior sshd-login --max-edges 6 \\
        --save-model sshd.tgm
    python -m repro experiment --train data/ -j 4 --save-model all.tgm
    python -m repro inspect sshd.tgm
    python -m repro pack sshd.tgm sshd-bundle/
    python -m repro detect --model sshd.tgm --instances 24 --batch-size 256
    python -m repro serve --http 127.0.0.1:8750 --model sshd.tgm \\
        --registry registry/
    python -m repro behaviors
    python -m repro --version

Every subcommand is a thin wrapper over :class:`repro.api.Workspace` and
:class:`repro.api.BehaviorModel` — the CLI parses arguments and formats
reports, the SDK does the work.  ``mine --save-model`` / ``experiment
--save-model`` persist the run as one versioned model bundle;
``detect --model`` serves a bundle mined in any other process
(``--queries`` accepts the bare jsonl format, e.g. the ``queries.jsonl``
of a bundle directory).  ``pack`` re-packs a bundle between its
directory and ``.tgm`` zip forms, ``inspect`` prints a bundle's manifest
summary.  Both ``mine`` and ``detect`` accept ``--profile``, which wraps
the run in ``cProfile`` and appends the top-20 cumulative hot spots to
the report — perf PRs should start from that data.

``serve`` (formerly an alias of ``detect``) is the long-running
deployment command: it binds a model — given directly or taken from a
model registry's active version — to an HTTP address and serves the
``/v1/*`` JSON protocol (ingest, stats, model publish, canary,
promotion with hot reload; see :mod:`repro.serving.http`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro._version import __version__
from repro.api import BehaviorModel, Workspace
from repro.core.errors import ReproError
from repro.core.miner import MinerConfig, miner_variant
from repro.core.parallel import default_workers
from repro.datasets.io import load_events_jsonl, save_events_jsonl
from repro.serving.checkpoint import DEFAULT_CHECKPOINT_EVERY, CheckpointedService
from repro.serving.fleet import (
    DEFAULT_QUEUE_DEPTH,
    TENANT_SEPARATOR,
    DetectionFleet,
    simulate_tenant_streams,
    tenant_key_for_separator,
)
from repro.serving.registry import load_queries_jsonl
from repro.serving.service import DetectionService
from repro.syscall import BEHAVIOR_NAMES, SIZE_CLASSES

__all__ = ["main", "build_parser"]


def _worker_count(value: str) -> int:
    count = int(value)
    if count < 0:
        raise argparse.ArgumentTypeError("worker count must be >= 0")
    return count


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TGMiner behavior-query discovery (Zong et al., VLDB 2015)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a training corpus as jsonl files")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--instances", type=int, default=10, help="runs per behavior")
    gen.add_argument("--background", type=int, default=30, help="background graphs")
    gen.add_argument("--seed", type=int, default=7)

    corpus = sub.add_parser(
        "corpus",
        help="build, inspect, or export a disk-backed corpus store "
        "(one indexed SQLite file; mine/detect stream from it)",
    )
    csub = corpus.add_subparsers(dest="corpus_command", required=True)
    cb = csub.add_parser(
        "build", help="convert jsonl corpora and event logs into one store file"
    )
    cb.add_argument("--out", required=True, help="store file to create")
    cb.add_argument(
        "--train", default=None, help="corpus directory from `generate`"
    )
    cb.add_argument(
        "--log",
        action="append",
        default=[],
        metavar="JSONL",
        help="event-log jsonl to store under its file stem (repeatable); "
        "stored as a replayable event stream plus, when timestamps are "
        "strictly ordered, a windowed-query graph",
    )
    cb.add_argument(
        "--page-edges",
        type=int,
        default=None,
        metavar="N",
        help="edges per on-disk page blob (default 4096)",
    )
    cb.add_argument(
        "--overwrite", action="store_true", help="replace an existing store file"
    )
    ci = csub.add_parser("info", help="print a store's catalog summary")
    ci.add_argument("store", help="store file from `corpus build`")
    ci.add_argument(
        "--verify",
        action="store_true",
        help="also recompute every stored checksum (integrity check)",
    )
    ci.add_argument("--json", dest="json_out", default=None, help="write summary JSON")
    ce = csub.add_parser(
        "export", help="export a store back to a jsonl corpus directory"
    )
    ce.add_argument("store", help="store file from `corpus build`")
    ce.add_argument(
        "--out",
        required=True,
        help="corpus directory to write (event logs land under <out>/logs/)",
    )

    mine = sub.add_parser("mine", help="mine behavior queries for one behavior")
    mine.add_argument(
        "--train", default=None, help="corpus directory from `generate`"
    )
    mine.add_argument(
        "--corpus",
        default=None,
        metavar="STORE",
        help="mine streaming from a disk-backed corpus store instead of "
        "--train (byte-identical patterns; peak memory stays bounded by "
        "one behavior partition)",
    )
    mine.add_argument("--behavior", required=True, choices=sorted(BEHAVIOR_NAMES))
    mine.add_argument("--max-edges", type=int, default=6)
    mine.add_argument("--min-support", type=float, default=0.7)
    mine.add_argument("--top-k", type=int, default=5)
    mine.add_argument("--max-seconds", type=float, default=None)
    mine.add_argument(
        "--index",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="use the graph-index candidate prefilter (--no-index disables; "
        "mined patterns are identical either way; the five paper-baseline "
        "--variant values always run unfiltered)",
    )
    mine.add_argument(
        "--variant",
        default="TGMiner",
        choices=[
            "TGMiner",
            "SubPrune",
            "SupPrune",
            "PruneGI",
            "PruneVF2",
            "LinearScan",
        ],
    )
    mine.add_argument(
        "--workers",
        "-j",
        type=_worker_count,
        default=1,
        help="shard the seed search across N processes; 0 = one per CPU "
        "(mined patterns are byte-identical to the serial run for any "
        "N, unless a --max-seconds cap cut either search short)",
    )
    mine.add_argument(
        "--save-model",
        default=None,
        metavar="PATH",
        help="save the run as a versioned model bundle (directory, or a "
        ".tgm zip) consumable by `detect --model` and `inspect`",
    )
    mine.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top-20 cumulative hot "
        "spots after the normal output (perf-work reconnaissance)",
    )

    exp = sub.add_parser(
        "experiment",
        help="mine every behavior in a corpus, optionally fanning out workers",
    )
    exp.add_argument("--train", required=True, help="corpus directory from `generate`")
    exp.add_argument(
        "--behaviors",
        nargs="*",
        default=None,
        choices=sorted(BEHAVIOR_NAMES),
        help="behaviors to mine (default: every behavior file in the corpus)",
    )
    exp.add_argument("--max-edges", type=int, default=6)
    exp.add_argument("--min-support", type=float, default=0.7)
    exp.add_argument("--top-k", type=int, default=5)
    exp.add_argument("--max-seconds", type=float, default=None)
    exp.add_argument(
        "--workers",
        "-j",
        type=_worker_count,
        default=1,
        help="mine up to N behaviors concurrently (0 = one per CPU)",
    )
    exp.add_argument(
        "--save-model",
        default=None,
        metavar="PATH",
        help="save the whole run as one versioned model bundle",
    )
    exp.add_argument("--json", dest="json_out", default=None, help="write results JSON")

    det = sub.add_parser(
        "detect",
        help="replay a syscall log as a stream and detect behavior instances",
    )
    queries = det.add_mutually_exclusive_group(required=True)
    queries.add_argument(
        "--model",
        help="model bundle from `mine --save-model` (directory or .tgm)",
    )
    queries.add_argument(
        "--queries",
        help="bare behavior-query jsonl (e.g. queries.jsonl of a bundle "
        "directory written by `pack`)",
    )
    source = det.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--log", help="event-log jsonl to replay (datasets.io.save_events_jsonl)"
    )
    source.add_argument(
        "--store",
        metavar="STORE",
        help="corpus store from `corpus build`: replay a stored event log "
        "by indexed range scan without loading it whole",
    )
    source.add_argument(
        "--instances",
        type=int,
        help="synthesize a busy-host test log with N behavior instances",
    )
    det.add_argument(
        "--log-name",
        default=None,
        metavar="NAME",
        help="with --store: the event log to replay (default: the only one)",
    )
    det.add_argument(
        "--start",
        type=int,
        default=None,
        metavar="T",
        help="with --store: replay only events with time >= T",
    )
    det.add_argument(
        "--end",
        type=int,
        default=None,
        metavar="T",
        help="with --store: replay only events with time <= T",
    )
    det.add_argument("--seed", type=int, default=11, help="synthesized-log seed")
    det.add_argument(
        "--save-log", default=None, help="also write the replayed log as jsonl"
    )
    det.add_argument(
        "--batch-size", type=int, default=256, help="events per ingest batch"
    )
    det.add_argument(
        "--window",
        type=int,
        default=None,
        help="eviction window on the event-time axis "
        "(default: the widest registered query span)",
    )
    det.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="serve a multi-tenant fleet: route events by tenant key "
        "across N independent detection shards (default: one plain "
        "single-window service)",
    )
    det.add_argument(
        "--tenants",
        type=int,
        default=None,
        metavar="N",
        help="with --instances: synthesize N tagged tenant streams "
        "(tenant-000|..., one busy-host log each) and interleave them",
    )
    det.add_argument(
        "--tenant-key",
        default=TENANT_SEPARATOR,
        metavar="SEP",
        help="separator splitting the tenant id off each entity key "
        f"(default {TENANT_SEPARATOR!r}; untagged events route to one "
        "default tenant)",
    )
    det.add_argument(
        "--runner",
        choices=("inline", "process"),
        default="inline",
        help="fleet shard runner: in-process shards, or one worker "
        "process per shard with bounded queues and backpressure",
    )
    det.add_argument(
        "--queue-depth",
        type=int,
        default=DEFAULT_QUEUE_DEPTH,
        metavar="BATCHES",
        help="bounded per-shard input queue for --runner process "
        f"(default {DEFAULT_QUEUE_DEPTH})",
    )
    det.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="make the deployment durable: WAL every batch and snapshot "
        "under DIR (per shard/tenant with --shards); rerunning against "
        "the same DIR resumes the previous window",
    )
    det.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="BATCHES",
        help="batches between snapshot cuts with --checkpoint-dir "
        f"(default {DEFAULT_CHECKPOINT_EVERY})",
    )
    det.add_argument("--json", dest="json_out", default=None, help="write summary JSON")
    det.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top-20 cumulative hot "
        "spots after the normal output (perf-work reconnaissance)",
    )

    srv = sub.add_parser(
        "serve",
        help="serve a model over HTTP: ingest, stats, registry, canary promote",
    )
    srv.add_argument(
        "--http",
        required=True,
        metavar="HOST:PORT",
        help="bind address (PORT 0 picks an ephemeral port, printed on start)",
    )
    srv.add_argument(
        "--model",
        default=None,
        help="model bundle to serve (directory or .tgm); with --registry it "
        "is published there first (idempotent)",
    )
    srv.add_argument(
        "--registry",
        default=None,
        metavar="DIR",
        help="model registry directory (created if absent); enables the "
        "/v1/models endpoints — publish, canary, promote with hot reload. "
        "Without --model, the registry's active version is served",
    )
    srv.add_argument(
        "--canary-batches",
        type=int,
        default=None,
        metavar="N",
        help="default live batches a canary observes before completion "
        "(per-request 'batches' overrides)",
    )
    srv.add_argument(
        "--window",
        type=int,
        default=None,
        help="eviction window on the event-time axis "
        "(default: the widest served query span)",
    )
    srv.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="durable serving: WAL every ingest and snapshot under DIR; "
        "restarting the server against the same DIR resumes the live "
        "window, and a graceful shutdown cuts a final snapshot",
    )
    srv.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="BATCHES",
        help="batches between snapshot cuts with --checkpoint-dir "
        f"(default {DEFAULT_CHECKPOINT_EVERY})",
    )

    pack = sub.add_parser(
        "pack",
        help="re-pack a model bundle (directory <-> .tgm zip)",
    )
    pack.add_argument("src", help="bundle to read (directory or .tgm)")
    pack.add_argument("dst", help="bundle to write (directory, or .tgm to zip)")

    ins = sub.add_parser("inspect", help="print a model bundle's manifest summary")
    ins.add_argument("model", help="bundle to inspect (directory or .tgm)")

    sub.add_parser("behaviors", help="list the 12 behaviors and size classes")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    ws = Workspace(seed=args.seed)
    train = ws.generate(
        instances_per_behavior=args.instances,
        background_graphs=args.background,
    )
    total = ws.save_corpus(train, args.out)
    print(f"wrote {total} graphs to {args.out}")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    ws = Workspace()
    if (args.train is None) == (args.corpus is None):
        print("error: mine needs exactly one of --train or --corpus", file=sys.stderr)
        return 2
    config = miner_variant(
        args.variant,
        MinerConfig(
            max_edges=args.max_edges,
            min_pos_support=args.min_support,
            max_seconds=args.max_seconds,
            index_prefilter=args.index,
        ),
    )
    # 0 = one worker per CPU, matching `experiment -j 0`
    seed_workers = args.workers if args.workers != 0 else default_workers()
    if args.corpus is not None:
        model = ws.mine(
            store=args.corpus,
            behaviors=[args.behavior],
            config=config,
            seed_workers=seed_workers,
            top_k=args.top_k,
        )
    else:
        train = ws.load_corpus(args.train, behaviors=[args.behavior])
        model = ws.mine(
            train,
            behaviors=[args.behavior],
            config=config,
            seed_workers=seed_workers,
            top_k=args.top_k,
        )
    record = model.record(args.behavior)
    best = record.best_score if record.best_score is not None else float("-inf")
    print(
        f"explored {record.patterns_explored} patterns in "
        f"{record.elapsed_seconds:.2f}s; best score {best:.3f}"
        + (f" ({seed_workers} workers)" if seed_workers > 1 else "")
    )
    if config.index_prefilter:
        print(
            f"index prefilter: {record.index_prefilter_skips} of "
            f"{record.subgraph_tests} candidate subgraph tests "
            "answered by signature alone"
        )
    for rank, mined in enumerate(record.patterns, 1):
        print(
            f"\n#{rank} (score {mined.score:.3f}, pos {mined.pos_freq:.2f}, "
            f"neg {mined.neg_freq:.2f})"
        )
        print(mined.pattern.describe())
    if args.save_model:
        path = model.save(args.save_model)
        print(f"\nwrote model bundle to {path}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    ws = Workspace()
    if args.behaviors:
        names = list(args.behaviors)
    else:
        from repro.datasets.io import corpus_behaviors

        names = [n for n in corpus_behaviors(args.train) if n in BEHAVIOR_NAMES]
    train = ws.load_corpus(args.train, behaviors=names)
    config = MinerConfig(
        max_edges=args.max_edges,
        min_pos_support=args.min_support,
        max_seconds=args.max_seconds,
    )
    started = time.perf_counter()
    model = ws.mine(
        train,
        behaviors=names,
        config=config,
        workers=args.workers,
        top_k=args.top_k,
    )
    wall = time.perf_counter() - started
    print(f"{'behavior':22s} {'best':>8s} {'patterns':>9s} {'seconds':>8s}")
    for record in model.records.values():
        best = record.best_score if record.best_score is not None else float("-inf")
        print(
            f"{record.behavior:22s} {best:8.3f} "
            f"{record.patterns_explored:9d} "
            f"{record.elapsed_seconds:8.2f}"
        )
    print(f"mined {len(model.records)} behaviors in {wall:.2f}s wall-clock")
    if args.save_model:
        path = model.save(args.save_model)
        print(f"wrote model bundle to {path}")
    if args.json_out:
        payload = {
            "workers": args.workers,
            "wall_seconds": wall,
            "behaviors": {
                record.behavior: {
                    "best_score": record.best_score,
                    "patterns_explored": record.patterns_explored,
                    "elapsed_seconds": record.elapsed_seconds,
                    "timed_out": record.timed_out,
                    "co_optimal_patterns": record.co_optimal,
                }
                for record in model.records.values()
            },
        }
        Path(args.json_out).write_text(json.dumps(payload, indent=2))
        print(f"wrote {args.json_out}")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    ws = Workspace()
    if args.model:
        model = BehaviorModel.load(args.model)
        queries = model.queries()
        if not queries:
            print(f"error: no queries in model bundle {args.model}", file=sys.stderr)
            return 2
    else:
        queries_path = Path(args.queries)
        if not queries_path.exists():
            print(f"error: query file missing: {queries_path}", file=sys.stderr)
            return 2
        queries = load_queries_jsonl(queries_path)
        if not queries:
            print(f"error: no queries in {queries_path}", file=sys.stderr)
            return 2

    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        print("error: --checkpoint-every must be >= 1", file=sys.stderr)
        return 2
    every = (
        DEFAULT_CHECKPOINT_EVERY
        if args.checkpoint_every is None
        else args.checkpoint_every
    )
    fleet_mode = args.shards is not None or args.tenants is not None
    if fleet_mode:
        shards = args.shards if args.shards is not None else 1
        if shards < 1:
            print("error: --shards must be >= 1", file=sys.stderr)
            return 2
        ingestor = DetectionFleet(
            shards=shards,
            tenant_key=tenant_key_for_separator(args.tenant_key),
            window_span=args.window,
            runner=args.runner,
            queue_depth=args.queue_depth,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=every,
        )
        ingestor.register_all(queries)
    elif args.checkpoint_dir is not None:
        from repro.serving.checkpoint import CheckpointStore

        store = CheckpointStore(args.checkpoint_dir)
        if store.fresh:
            service = DetectionService(window_span=args.window)
            service.register_all(queries)
            ingestor = CheckpointedService(
                service, args.checkpoint_dir, checkpoint_every=every, store=store
            )
        else:
            store.close()
            ingestor, recovered = CheckpointedService.recover(
                args.checkpoint_dir,
                window_span=args.window,
                checkpoint_every=every,
            )
            ingestor.reload(queries)
            print(
                f"recovered checkpoint generation {recovered.generation} "
                f"(+{recovered.recovered_events} WAL events replayed) from "
                f"{args.checkpoint_dir}"
            )
    else:
        ingestor = DetectionService(window_span=args.window)
        ingestor.register_all(queries)

    if args.store is None and (
        args.log_name is not None or args.start is not None or args.end is not None
    ):
        print(
            "error: --log-name/--start/--end are only valid with --store",
            file=sys.stderr,
        )
        return 2
    corpus_store = None
    batches = None
    events = None
    if args.log:
        log_path = Path(args.log)
        if not log_path.exists():
            print(f"error: event log missing: {log_path}", file=sys.stderr)
            return 2
        events = load_events_jsonl(log_path)
    elif args.store:
        from repro.datasets.store import CorpusStore

        corpus_store = CorpusStore.open(args.store)
        event_logs = [
            name for name in corpus_store.logs() if corpus_store.event_count(name)
        ]
        if args.log_name is not None:
            if args.log_name not in event_logs:
                print(
                    f"error: no event log {args.log_name!r} in {args.store} "
                    f"(has: {', '.join(event_logs) or 'none'})",
                    file=sys.stderr,
                )
                corpus_store.close()
                return 2
            log_name = args.log_name
        elif len(event_logs) == 1:
            log_name = event_logs[0]
        elif not event_logs:
            print(f"error: no event logs in {args.store}", file=sys.stderr)
            corpus_store.close()
            return 2
        else:
            print(
                f"error: {args.store} holds {len(event_logs)} event logs; "
                "pick one with --log-name",
                file=sys.stderr,
            )
            corpus_store.close()
            return 2
        if args.save_log:
            count = save_events_jsonl(
                corpus_store.iter_events(log_name, start=args.start, end=args.end),
                args.save_log,
            )
            print(f"wrote {count} events to {args.save_log}")
        batches = corpus_store.iter_event_batches(
            log_name, args.batch_size, start=args.start, end=args.end
        )
    else:
        if args.instances < 1:
            print("error: --instances must be >= 1", file=sys.stderr)
            return 2
        if args.tenants is not None:
            if args.tenants < 1:
                print("error: --tenants must be >= 1", file=sys.stderr)
                return 2
            events = simulate_tenant_streams(
                tenants=args.tenants, instances=args.instances, seed=args.seed
            )
        else:
            events = ws.generate_test(instances=args.instances, seed=args.seed).events
    if args.save_log and events is not None:
        save_events_jsonl(events, args.save_log)
        print(f"wrote {len(events)} events to {args.save_log}")

    per_query: dict[str, int] = {q.name: 0 for q in queries}
    try:
        if fleet_mode:
            ingestor.start()
        if batches is not None:
            # store replay: batches stream off disk one page range at a
            # time — the whole log is never resident
            for batch in batches:
                for detection in ingestor.ingest(batch):
                    per_query[detection.query] += 1
        else:
            for _batch, detections in ingestor.replay(events, args.batch_size):
                for detection in detections:
                    per_query[detection.query] += 1
        info = ingestor.stats.as_dict()
    finally:
        ingestor.close()
        if corpus_store is not None:
            corpus_store.close()

    late = info["late_dropped"]
    latency = info["latency_ms"]
    print(
        f"replayed {info['events']} events in {info['batches']} batches "
        f"({args.batch_size}/batch), window span "
        f"{ingestor.window_span}, {len(queries)} registered queries"
        + (f"; {late} events arrived too late and were DROPPED" if late else "")
    )
    if fleet_mode:
        print(
            f"fleet: {info['shards']} shard(s) [{args.runner}], "
            f"{info['tenants']} tenant(s), {info['routed_batches']} routed "
            f"batches, {info['backpressure_waits']} backpressure waits"
        )
    print(
        f"throughput {info['events_per_second']:,.0f} events/s; per-batch "
        f"latency p50 {latency['p50']:.2f}ms p95 {latency['p95']:.2f}ms "
        f"max {latency['max']:.2f}ms"
    )
    print(
        f"prefilter answered {info['queries_prefiltered']} of "
        f"{info['queries_prefiltered'] + info['queries_evaluated']} query-batch "
        "evaluations by signature alone"
    )
    print(f"\n{info['detections']} detections:")
    for name, count in per_query.items():
        print(f"  {name:30s} {count:6d}")
    if args.json_out:
        payload = {
            "kind": info["kind"],
            "batch_size": args.batch_size,
            "window_span": ingestor.window_span,
            "queries": len(queries),
            "per_query": per_query,
            "stats": info,
        }
        Path(args.json_out).write_text(json.dumps(payload, indent=2))
        print(f"wrote {args.json_out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    host, _, port_text = args.http.rpartition(":")
    if not host or not port_text.isdigit():
        print(
            f"error: --http expects HOST:PORT, got {args.http!r}", file=sys.stderr
        )
        return 2
    if args.model is None and args.registry is None:
        print("error: serve needs --model and/or --registry", file=sys.stderr)
        return 2

    from repro.serving.model_registry import ModelRegistry

    registry = ModelRegistry(args.registry) if args.registry is not None else None
    if args.model is not None:
        model = BehaviorModel.load(args.model)
        version = registry.publish(model).version if registry is not None else None
    else:
        version = registry.active_version
        if version is None:
            print(
                f"error: registry {args.registry} is empty; publish a model "
                "first or pass --model",
                file=sys.stderr,
            )
            return 2
        model = registry.load(version)

    ws = Workspace()
    options = (
        {} if args.canary_batches is None else {"canary_batches": args.canary_batches}
    )
    server = ws.serve_http(
        model,
        host=host,
        port=int(port_text),
        registry=registry,
        window_span=args.window,
        version=version,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        **options,
    )
    bound_host, bound_port = server.address
    served = f"v{version}" if version is not None else args.model
    print(
        f"serving {served} ({len(model.queries())} queries) on "
        f"http://{bound_host}:{bound_port} — POST /v1/ingest, GET /v1/stats"
        + (f"; registry {args.registry}" if registry is not None else ""),
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.close()
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    handlers = {
        "build": _cmd_corpus_build,
        "info": _cmd_corpus_info,
        "export": _cmd_corpus_export,
    }
    return handlers[args.corpus_command](args)


def _cmd_corpus_build(args: argparse.Namespace) -> int:
    from repro.core.errors import TimestampOrderError
    from repro.core.graph import TemporalGraph
    from repro.datasets.io import iter_corpus
    from repro.datasets.store import (
        BACKGROUND_PARTITION,
        DEFAULT_PAGE_EDGES,
        CorpusStore,
    )

    if not args.train and not args.log:
        print("error: corpus build needs --train and/or --log", file=sys.stderr)
        return 2
    page_edges = DEFAULT_PAGE_EDGES if args.page_edges is None else args.page_edges
    store = CorpusStore.create(
        args.out, page_edges=page_edges, overwrite=args.overwrite
    )
    graphs = events = 0
    try:
        if args.train:
            # one decoded graph live at a time: iter_corpus streams the
            # jsonl directory, the store pages it straight to disk
            for partition, graph in iter_corpus(args.train):
                kind = (
                    "background"
                    if partition == BACKGROUND_PARTITION
                    else "behavior"
                )
                store.add_graph(partition, graph, kind=kind)
                graphs += 1
        for log_path in args.log:
            name = Path(log_path).stem
            log_events = load_events_jsonl(log_path)
            graph = None
            try:
                node_keys: dict[str, str] = {}
                for event in log_events:
                    node_keys.setdefault(event.src_key, event.src_label)
                    node_keys.setdefault(event.dst_key, event.dst_label)
                graph = TemporalGraph.from_events(
                    (
                        (event.src_key, event.dst_key, event.time)
                        for event in log_events
                    ),
                    name=name,
                    node_keys=node_keys,
                )
            except TimestampOrderError:
                print(
                    f"note: {log_path} has concurrent timestamps; stored the "
                    "event stream only (sequentialize to enable windowed query)"
                )
            wrote_graphs, wrote_events = store.add_log(
                name, graph=graph, events=log_events
            )
            graphs += wrote_graphs
            events += wrote_events
    finally:
        store.close()
    size = Path(args.out).stat().st_size
    print(
        f"wrote {graphs} graphs and {events} events to {args.out} "
        f"({size / 1e6:.1f} MB, {page_edges} edges/page)"
    )
    return 0


def _cmd_corpus_info(args: argparse.Namespace) -> int:
    from repro.datasets.store import CorpusStore

    with CorpusStore.open(args.store) as store:
        info = store.info()
        if args.verify:
            verified = store.verify()
            info["verified"] = verified
    print(
        f"{info['path']}: schema v{info['schema_version']}, "
        f"{info['graphs']} graphs / {info['edges']} edges, "
        f"{info['labels']} interned labels, {info['page_edges']} edges/page, "
        f"{info['file_bytes'] / 1e6:.1f} MB"
    )
    for name, count in info["behaviors"].items():
        print(f"  behavior {name:22s} {count:6d} graphs")
    print(f"  background {'':20s} {info['background_graphs']:6d} graphs")
    for name, count in info["logs"].items():
        print(f"  log {name:27s} {count:6d} events")
    if args.verify:
        print(
            f"verified {info['verified']['graphs']} graph checksums and "
            f"{info['verified']['event_pages']} event-page checksums: OK"
        )
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(info, indent=2))
        print(f"wrote {args.json_out}")
    return 0


def _cmd_corpus_export(args: argparse.Namespace) -> int:
    from repro.core.errors import DatasetError
    from repro.datasets.io import (
        BACKGROUND_FILE,
        save_graphs_jsonl,
    )
    from repro.datasets.store import BACKGROUND_PARTITION, CorpusStore

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DatasetError(f"cannot create {out}: {exc}") from exc
    graphs = events = 0
    with CorpusStore.open(args.store) as store:
        for name in store.behaviors():
            graphs += save_graphs_jsonl(
                store.iter_graphs(name, kind="behavior"), out / f"{name}.jsonl"
            )
        graphs += save_graphs_jsonl(
            store.iter_graphs(BACKGROUND_PARTITION, kind="background"),
            out / BACKGROUND_FILE,
        )
        event_logs = [n for n in store.logs() if store.event_count(n)]
        if event_logs:
            try:
                (out / "logs").mkdir(exist_ok=True)
            except OSError as exc:
                raise DatasetError(f"cannot create {out / 'logs'}: {exc}") from exc
            for name in event_logs:
                events += save_events_jsonl(
                    store.iter_events(name), out / "logs" / f"{name}.jsonl"
                )
    print(f"exported {graphs} graphs and {events} events to {out}")
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    model = BehaviorModel.load(args.src)
    path = model.save(args.dst)
    kind = "zipped bundle" if path.suffix == ".tgm" else "bundle directory"
    print(
        f"re-packed {args.src} -> {path} ({kind}; {len(model.records)} "
        f"behaviors, {sum(len(r.patterns) for r in model.records.values())} "
        "queries)"
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    print(BehaviorModel.load(args.model).describe())
    return 0


def _cmd_behaviors(_args: argparse.Namespace) -> int:
    for cls, names in SIZE_CLASSES.items():
        print(f"{cls}:")
        for name in names:
            print(f"  {name}")
    return 0


def _run_profiled(handler, args: argparse.Namespace) -> int:
    """Run a command under cProfile, then print the top cumulative costs.

    The profile prints *after* the command's normal output so scripts
    reading the report from stdout keep working; future perf PRs start
    from this data instead of guessing at hot spots.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    code = profiler.runcall(handler, args)
    print("\n--- cProfile: top 20 by cumulative time ---")
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
    return code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "corpus": _cmd_corpus,
        "mine": _cmd_mine,
        "experiment": _cmd_experiment,
        "detect": _cmd_detect,
        "serve": _cmd_serve,
        "pack": _cmd_pack,
        "inspect": _cmd_inspect,
        "behaviors": _cmd_behaviors,
    }
    handler = handlers[args.command]
    try:
        if getattr(args, "profile", False):
            return _run_profiled(handler, args)
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
