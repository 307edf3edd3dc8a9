"""The ``serve-sparse`` and ``serve-dense`` workloads.

Set-up builds the slate, starts ``server.py`` in a child process (its
own interpreter, so client and server never share a GIL) pinned to the
load generator's CPU, and pre-encodes the open-loop request bodies.
Traffic is a sequence of time-shifted *days*: day ``k`` replays held-out
log ``k mod contents`` shifted by ``k`` strides, and a stride leaves a
quiet gap wider than the serving window after each day, so every day
starts from an empty window and detects exactly what its log detects on
its own, shifted.

Timed phase, from one process, one thread, one keep-alive connection:

* **open loop** (serve-sparse) — one ``POST /v1/ingest`` of ``batch``
  events every ``batch / rate_eps`` reference seconds for ``open_share``
  of ``--seconds``, and at least ``min_requests`` requests.  A request's
  latency runs from its *scheduled* send time to its response, so a
  stall also delays the requests queued behind it.  The generator's own
  lateness (send time minus the later of schedule and previous
  response) is reported as ``client.lag_p99_ms``.  The client takes a
  host-speed probe in each idle gap between requests.
* **closed loop** — ``closed_passes`` passes over ``contents`` fresh
  days each, the next request sent when the previous one returns;
  ``job_s`` is the median pass time.  serve-dense has no open loop: its
  requests take ~3 reference ms with a heavy, content-dependent tail,
  and an open loop of 1,000 requests slow enough not to queue behind
  every burst would outlast the run.  Its latencies are the closed
  loop's, over three distinct logs so the tail covers three days of
  bursts.

Both loops send a fixed request sequence to a fresh server: per-request
server cost grows with the batches it has served (``handle_ingest``
snapshots the stats, which sorts the latency reservoir until it holds
4096 samples), so only a fixed sequence makes runs comparable.

The exact reference — uncapped ``find_matches`` + ``match_span`` per
query on each log's graph — is computed after the timed phase, so it
costs neither timing nor the server's peak RSS.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.api import BehaviorModel, Workspace
from repro.core.graph_index import find_matches, match_span
from repro.core.miner import MinerConfig
from repro.core.pattern import TemporalPattern
from repro.datasets.io import event_to_dict
from repro.serving.registry import BehaviorQuery, save_queries_jsonl
from repro.syscall.collector import iter_event_batches
from repro.syscall.events import events_to_graph

from benchmarks.e2e.common import (
    SETUP_REPS,
    Outcome,
    digest,
    held_out_log,
    median,
    model_fingerprint,
    percentile,
    pooled_accuracy,
    timed_setups,
    training_corpus,
)
from benchmarks.e2e.hostspeed import SENSITIVITY, HostSpeed, allowed_cpus, pin
from benchmarks.e2e.trace import UNIT, Span

SERVER = Path(__file__).with_name("server.py")
_START_TIMEOUT_S = 60.0
#: idle time an open-loop gap must have left for a host-speed probe
#: (one probe takes ~0.75 ms, ~1.3 ms when the host is slow)
_PROBE_ROOM_S = 0.003
_yield = getattr(os, "sched_yield", lambda: None)

#: The dense slate: behavior-query skeletons over entity categories
#: (``proc``/``file``/``sock``).  Every label pair indexes hundreds of
#: window edges, so the join enumerates many matches per detected span.
DENSE_SKELETONS = (
    # proc spawns proc which touches a file (dropper chain)
    (("proc", "proc", "file"), ((0, 1), (1, 2))),
    # inbound socket drives a proc writing two files
    (("sock", "proc", "file", "file"), ((0, 1), (1, 2), (1, 3))),
    # one proc fans out over three files
    (("proc", "file", "file", "file"), ((0, 1), (0, 2), (0, 3))),
    # proc pair converging on one file
    (("proc", "proc", "file"), ((0, 1), (0, 2), (1, 2))),
    # socket -> proc -> proc -> file exfil chain
    (("sock", "proc", "proc", "file"), ((0, 1), (1, 2), (2, 3))),
    # repeated proc-to-proc interaction
    (("proc", "proc"), ((0, 1), (0, 1), (0, 1))),
    # two procs writing the same file
    (("proc", "file", "proc"), ((0, 1), (2, 1))),
)


@dataclass(frozen=True)
class ServeParams:
    """Sizes and rates of a serving workload (fixed; never measured)."""

    dense: bool
    #: snapshot every this many batches; 0: not durable
    checkpoint_every: int
    batch: int
    #: distinct held-out logs the days cycle through
    contents: int
    #: open-loop rate in reference events/s; 0: no open loop
    rate_eps: float
    closed_passes: int
    #: span cap of the dense skeletons (the sparse slate brings its own)
    max_span: int = 100
    model_instances: int = 4
    model_background: int = 8
    model_max_edges: int = 3
    top_k: int = 3
    test_instances: int = 48
    #: share of ``--seconds`` the open loop lasts
    open_share: float = 0.65
    min_requests: int = 1000
    #: requests that share one host-speed scale factor
    chunk: int = 32
    #: host-speed scaling exponent of the run's times
    sensitivity: float = SENSITIVITY

    def smoke(self) -> "ServeParams":
        """The smoke-test size: every code path, a few seconds."""
        return replace(
            self,
            model_instances=2,
            model_background=3,
            model_max_edges=2,
            test_instances=6,
            closed_passes=1,
            min_requests=40,
            chunk=8,
        )


class _Server:
    """The server child process and a keep-alive client connection."""

    def __init__(self, args: list[str]) -> None:
        self.conn = None
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVER), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = self.proc.stdout.readline().split()
            if len(line) != 2 or line[0] != "ready":
                raise RuntimeError(f"server failed to start: {line!r}")
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", int(line[1]), timeout=60
            )
            deadline = time.monotonic() + _START_TIMEOUT_S
            while self.get("/v1/healthz")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def get(self, path: str) -> tuple[int, dict]:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def post(self, body: bytes) -> tuple[int, dict]:
        self.conn.request(
            "POST", "/v1/ingest", body, {"Content-Type": "application/json"}
        )
        response = self.conn.getresponse()
        payload = response.read()
        # server and client share a CPU: let the server finish the request
        # it just answered before the client runs on (otherwise a probe
        # would time the server's tail and the handler span would include
        # the client's next steps)
        _yield()
        return response.status, json.loads(payload)

    def command(self, text: str) -> str:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline().strip()

    def stop(self) -> None:
        """Graceful stop; kill if the child does not exit in time."""
        if self.conn is not None:
            self.conn.close()
        if self.proc.poll() is None:
            try:
                self.command("stop")
                self.proc.wait(timeout=30)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


def _coarse(events):
    """The dense view of a log: node labels cut to entity category."""
    return [
        replace(
            event,
            src_label=event.src_label.split(":", 1)[0],
            dst_label=event.dst_label.split(":", 1)[0],
        )
        for event in events
    ]


class _Deployment:
    """One set-up: slate, logs, running server, open-loop bodies."""

    def __init__(
        self,
        params: ServeParams,
        seed: int,
        seconds: float,
        root: Path,
        server_cpu: int | None,
        trace_dir,
    ) -> None:
        self.root = root
        root.mkdir(parents=True, exist_ok=True)
        self.logs, self.truth = [], None
        for index in range(params.contents):
            test = held_out_log(seed, params.test_instances, index)
            self.logs.append(_coarse(test.events) if params.dense else test.events)
            if index == 0:
                self.truth = test.instances
            del test  # its graph is large; only the events are replayed
        self.model = None
        if params.dense:
            self.queries = [
                BehaviorQuery(
                    name=f"skeleton-{index}",
                    pattern=TemporalPattern(list(labels), list(edges)),
                    max_span=params.max_span,
                )
                for index, (labels, edges) in enumerate(DENSE_SKELETONS)
            ]
            slate = root / "queries.jsonl"
            save_queries_jsonl(self.queries, slate)
            args = ["--queries", str(slate)]
        else:
            train = training_corpus(
                seed, 0, params.model_instances, params.model_background
            )
            mined = Workspace().mine(
                train,
                config=MinerConfig(max_edges=params.model_max_edges),
                top_k=params.top_k,
            )
            bundle = mined.save(root / "model.tgm")
            self.model = BehaviorModel.load(bundle)
            self.queries = self.model.queries()
            args = ["--model", str(bundle)]
            if params.checkpoint_every:
                args += ["--checkpoint-dir", str(root / "checkpoints")]
                args += ["--checkpoint-every", str(params.checkpoint_every)]
        if trace_dir is not None:
            args += ["--trace-dir", str(trace_dir)]
        if server_cpu is not None:
            args += ["--cpu", str(server_cpu)]
        window = max(query.max_span for query in self.queries)
        longest = max(log[-1].time - log[0].time + 1 for log in self.logs)
        self.stride = longest + window + 1
        self.batches = [list(iter_event_batches(log, params.batch)) for log in self.logs]
        self.server = _Server(args)
        self.next_day = 0
        self.open_requests = []
        if params.rate_eps:
            count = max(
                params.min_requests,
                math.ceil(params.open_share * seconds * params.rate_eps / params.batch),
            )
            while len(self.open_requests) < count:
                self.open_requests.extend(self.day_requests())
            del self.open_requests[count:]

    def day_requests(self):
        """``(day, last event time, body)`` per request of the next day."""
        day = self.next_day
        self.next_day += 1
        offset = day * self.stride
        out = []
        for batch in self.batches[day % len(self.batches)]:
            payload = []
            for event in batch:
                item = event_to_dict(event)
                item["time"] += offset
                payload.append(item)
            body = json.dumps({"events": payload}).encode("utf-8")
            out.append((day, batch[-1].time + offset, body))
        return out

    def discard(self) -> None:
        self.server.stop()
        shutil.rmtree(self.root, ignore_errors=True)


def run(
    name: str,
    params: ServeParams,
    seed: int,
    seconds: float,
    workdir: Path,
    tracer=None,
) -> Outcome:
    """Set up, run the timed phase, and check the detections.

    With a ``tracer`` the run is the traced rerun, with one set-up.
    """
    # load generator and server share one CPU: one request is in flight
    # at a time, so they never need two, a probe measures the CPU both
    # run on, and no request waits for an idle virtual CPU to wake up
    cpus = allowed_cpus()
    pin(cpus[:1])
    server_cpu = cpus[0] if cpus else None
    speed = HostSpeed(cpus[:1], params.sensitivity)
    trace_dir = tracer.directory if tracer is not None else None
    reps = 1 if tracer is not None else SETUP_REPS
    state, setup_scaled, setup_raw = timed_setups(
        speed,
        reps,
        lambda rep: _Deployment(
            params, seed, seconds, workdir / f"deploy-{rep}", server_cpu, trace_dir
        ),
        _Deployment.discard,
    )
    out = Outcome()
    observed: dict[int, set] = {}
    last_sent: dict[int, int] = {}
    detections_total = 0

    def record(day: int, last_time: int, status: int, payload: dict) -> None:
        nonlocal detections_total
        out.attempted += 1
        if status != 200:
            out.failed += 1
            return
        last_sent[day] = max(last_sent.get(day, last_time), last_time)
        found = payload["detections"]
        detections_total += len(found)
        bucket = observed.setdefault(day, set())
        for item in found:
            bucket.add((item["query"], item["start"], item["end"]))

    server = state.server
    # the load generator's own collector pauses are not the server's
    # latency: keep set-up objects out of its generations
    gc.collect()
    gc.freeze()
    latencies, raw_latencies, lags = [], [], []
    try:
        server.command("rss-reset")
        # ---------------------------------------------------------- open
        # the rate is in reference events/s: on a host running k times
        # slower than the reference the requests go out k times further
        # apart, so the server's load relative to its speed (and with it
        # the queueing a burst causes) is the same on every host
        if state.open_requests:
            speed.mark()
            spacing = params.batch / params.rate_eps * speed.slowdown()
            samples = []
            with Span(tracer, UNIT):
                open_started = time.perf_counter()
                due = open_started + 0.01
                previous_done = due
                for day, last_time, body in state.open_requests:
                    if time.perf_counter() < due:
                        with Span(tracer, "client.idle"):
                            # the server is idle between requests: probe
                            # the shared CPU there, so every window of
                            # requests brings its own host-speed marks
                            if time.perf_counter() < due - _PROBE_ROOM_S:
                                speed.mark(rounds=1)
                            # spin, not sleep: an idle virtual CPU is
                            # parked by the host, and waking it adds a
                            # host-dependent delay to the next request
                            while time.perf_counter() < due:
                                pass
                    with Span(tracer, "client.request"):
                        sent = time.perf_counter()
                        status, payload = server.post(body)
                        done = time.perf_counter()
                    lags.append(sent - max(due, previous_done))
                    previous_done = done
                    samples.append((due, done))
                    record(day, last_time, status, payload)
                    due += spacing
            speed.mark()
            for at in range(0, len(samples), params.chunk):
                window = samples[at : at + params.chunk]
                factor = speed.scale(window[0][0], window[-1][1])
                for due, done in window:
                    raw_latencies.append(done - due)
                    latencies.append((done - due) * factor)

        # -------------------------------------------------------- closed
        passes, raw_passes = [], []
        closed_latencies, closed_raw = [], []
        speed.mark()
        for _ in range(params.closed_passes):
            requests = [item for _ in state.logs for item in state.day_requests()]
            scaled = raw = 0.0
            for at in range(0, len(requests), params.chunk):
                chunk, times = requests[at : at + params.chunk], []
                with Span(tracer, UNIT):
                    started = time.perf_counter()
                    for day, last_time, body in chunk:
                        with Span(tracer, "client.request"):
                            sent = time.perf_counter()
                            status, payload = server.post(body)
                            times.append(time.perf_counter() - sent)
                        record(day, last_time, status, payload)
                    ended = time.perf_counter()
                speed.mark()
                factor = speed.scale(started, ended)
                raw += ended - started
                scaled += (ended - started) * factor
                closed_raw.extend(times)
                closed_latencies.extend(seconds_ * factor for seconds_ in times)
            passes.append(scaled)
            raw_passes.append(raw)
        if not state.open_requests:
            latencies, raw_latencies = closed_latencies, closed_raw
        peak = float(server.command("rss-peak").split()[1])
        server_stats = server.get("/v1/stats")[1]
    finally:
        gc.unfreeze()
        state.discard()

    out.metrics = {
        "setup_s": median(setup_scaled),
        "job_s": median(passes),
        "lat_p50_ms": percentile(latencies, 0.5) * 1000,
        "lat_p99_ms": percentile(latencies, 0.99) * 1000,
        "peak_rss_mb": peak,
    }
    out.client = {
        "requests": out.attempted,
        "lag_p99_ms": percentile(lags, 0.99) * 1000 if lags else 0.0,
    }

    # ------------------------------------------------------------- checks
    references = [_reference(log, state.queries) for log in state.logs]
    expected_total = 0
    exact = True
    for day, last_time in last_sent.items():
        offset = day * state.stride
        expected = {
            (name, start + offset, end + offset)
            for name, start, end in references[day % len(references)]
            if end + offset <= last_time
        }
        expected_total += len(expected)
        exact = exact and observed.get(day, set()) == expected
    out.checks["detections_exact"] = exact
    out.checks["no_duplicates"] = detections_total == expected_total
    out.checks["error_free"] = out.failed == 0
    outputs = {
        "model": model_fingerprint(state.model) if state.model else None,
        "references": [sorted(reference) for reference in references],
    }
    raw_out = {
        "setup_s": setup_raw,
        "job_passes_s": raw_passes,
        "job_passes_ref_s": passes,
        "ingest_eps": sum(map(len, state.logs)) / median(passes),
        "latency_samples": len(latencies),
        "lat_p50_raw_ms": percentile(raw_latencies, 0.5) * 1000,
        "lat_p99_raw_ms": percentile(raw_latencies, 0.99) * 1000,
        "closed_lat_p50_ms": percentile(closed_latencies, 0.5) * 1000,
        "closed_lat_p99_ms": percentile(closed_latencies, 0.99) * 1000,
        "closed_requests": len(closed_latencies),
        "days": len(last_sent),
        "detections": detections_total,
        "server_stats": server_stats,
        "probe_ms": speed.median_probe * 1000,
        "output_digest": digest(outputs),
    }
    if not params.dense:
        by_behavior: dict[str, set] = {}
        for name, start, end in references[0]:
            by_behavior.setdefault(name.split("#", 1)[0], set()).add((start, end))
        raw_out["precision"], raw_out["recall"] = pooled_accuracy(
            ((name, sorted(spans)) for name, spans in by_behavior.items()),
            state.truth,
        )
    out.raw = raw_out
    return out


def _reference(events, queries) -> set[tuple[str, int, int]]:
    """Exact detections of one log: every match, no cap, distinct spans."""
    graph = events_to_graph(events, name="reference")
    found = set()
    for query in queries:
        for match in find_matches(query.pattern, graph, max_span=query.max_span):
            start, end = match_span(match, graph)
            found.add((query.name, start, end))
    return found
