"""Disk-backed corpus store: indexed on-disk edge columns in one SQLite file.

Every tier above this module — mining, batch query, the serving fleet —
consumes frozen :class:`~repro.core.graph.TemporalGraph` objects.  Until
now those always came from RAM: the whole corpus materialized per
process.  :class:`CorpusStore` moves the corpus to disk in a layout
where the two access patterns that matter are *indexed range scans*
instead of full materialization:

* **per-graph edge pages** — the frozen graph's flat int64 edge columns
  (``src``/``dst``/``time``, the exact :mod:`repro.core.buffers`
  encoding) split into fixed-size pages stored as typed blobs, with a
  SQL index on ``(graph, time-range)`` so extracting a time window
  touches only the overlapping pages;
* **the one-edge substructure index** — the same
  ``(src_label, dst_label) -> edge ids`` mapping a frozen graph keeps in
  RAM (:meth:`TemporalGraph.label_pair_index`), persisted per graph with
  a SQL index on the label pair so candidate lookup ("which graphs can
  possibly contain this pattern edge?") is a point query.

Node labels are interned store-wide (first-encounter order, exactly the
:class:`~repro.core.kernel.LabelInterner` contract): label *strings*
live once in a ``labels`` table and every column stores int64 ids.

Readers are streaming: :meth:`iter_graphs` decodes one graph at a time
(single-page graphs reconstruct zero-copy via ``memoryview.cast`` into
the blob, multi-page graphs concatenate into one ``array('q')``), and
:meth:`window` / :meth:`iter_windows` rebuild only the pages a time
range overlaps.  Reconstructed graphs go through
:meth:`TemporalGraph.from_frozen_columns`, so they are byte-identical to
the in-memory originals and build their CSR kernels lazily on first use.

The file carries a schema version and per-object sha256 checksums
(:meth:`verify`), mirroring the ``.tgm`` bundle / registry conventions;
opening a store written by a newer schema raises
:class:`~repro.core.errors.DatasetError` telling the user to upgrade.

Memory-budget contract: a reader opened with ``memory_budget_mb`` caps
the SQLite page cache at a quarter of the budget and otherwise holds
O(one decoded graph or window) beyond it — so mining a corpus much
larger than the budget keeps peak RSS bounded as long as each single
graph fits (``benchmarks/bench_store.py`` enforces this).
"""

from __future__ import annotations

import hashlib
import sqlite3
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.core.buffers import INT_TYPECODE, IntColumn
from repro.core.errors import DatasetError
from repro.core.graph import TemporalGraph
from repro.syscall.events import SyscallEvent

__all__ = [
    "CorpusStore",
    "STORE_FORMAT",
    "STORE_SCHEMA_VERSION",
    "DEFAULT_PAGE_EDGES",
    "BACKGROUND_PARTITION",
]

#: ``meta.format`` marker distinguishing a corpus store from any other
#: SQLite file (the analogue of the ``.tgm`` bundle's format key).
STORE_FORMAT = "repro-corpus-store"

#: Bump on any incompatible layout change; readers refuse newer files.
STORE_SCHEMA_VERSION = 1

#: Edges per page blob.  Pages are the unit of both windowed reads and
#: decode granularity: 4096 int64 triples ≈ 96 KiB per page.
DEFAULT_PAGE_EDGES = 4096

#: Events per page blob in stored raw event logs.
DEFAULT_PAGE_EVENTS = 4096

#: Reserved partition name for the shared negative set (kind makes the
#: separation authoritative; the name mirrors ``background.jsonl``).
BACKGROUND_PARTITION = "background"

#: Entries kept in each direction of the in-process label cache.  Event
#: logs intern entity *keys* too, which are high-cardinality — an
#: unbounded cache would quietly break the memory-budget contract.
_LABEL_CACHE_CAP = 1 << 16

_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE labels (id INTEGER PRIMARY KEY, label TEXT NOT NULL UNIQUE);
CREATE TABLE graphs (
    gid INTEGER PRIMARY KEY,
    kind TEXT NOT NULL,
    partition TEXT NOT NULL,
    name TEXT NOT NULL,
    num_nodes INTEGER NOT NULL,
    num_edges INTEGER NOT NULL,
    t_min INTEGER NOT NULL,
    t_max INTEGER NOT NULL,
    node_labels BLOB NOT NULL,
    checksum TEXT NOT NULL
);
CREATE INDEX graphs_by_partition ON graphs (kind, partition, gid);
CREATE TABLE edge_pages (
    gid INTEGER NOT NULL,
    page INTEGER NOT NULL,
    t_min INTEGER NOT NULL,
    t_max INTEGER NOT NULL,
    n INTEGER NOT NULL,
    src BLOB NOT NULL,
    dst BLOB NOT NULL,
    time BLOB NOT NULL,
    PRIMARY KEY (gid, page)
);
CREATE INDEX edge_pages_by_time ON edge_pages (gid, t_min, t_max);
CREATE TABLE pair_index (
    gid INTEGER NOT NULL,
    src_label INTEGER NOT NULL,
    dst_label INTEGER NOT NULL,
    n INTEGER NOT NULL,
    edge_ids BLOB NOT NULL,
    PRIMARY KEY (gid, src_label, dst_label)
);
CREATE INDEX pair_index_by_pair ON pair_index (src_label, dst_label);
CREATE TABLE event_pages (
    log TEXT NOT NULL,
    page INTEGER NOT NULL,
    t_min INTEGER NOT NULL,
    t_max INTEGER NOT NULL,
    n INTEGER NOT NULL,
    time BLOB NOT NULL,
    syscall BLOB NOT NULL,
    src_key BLOB NOT NULL,
    src_label BLOB NOT NULL,
    dst_key BLOB NOT NULL,
    dst_label BLOB NOT NULL,
    checksum TEXT NOT NULL,
    PRIMARY KEY (log, page)
);
"""


def _pack(values: Iterable[int]) -> bytes:
    """Encode an int sequence as a native int64 blob."""
    if isinstance(values, array) and values.typecode == INT_TYPECODE:
        return values.tobytes()
    return array(INT_TYPECODE, values).tobytes()


def _unpack(blob: bytes) -> memoryview:
    """Zero-copy int64 view over a blob (a valid ``IntColumn``)."""
    return memoryview(blob).cast(INT_TYPECODE)


def _column_bytes(column: IntColumn, lo: int, hi: int) -> bytes:
    """Native int64 bytes of ``column[lo:hi]`` for any column backend."""
    part = column[lo:hi]
    if isinstance(part, array):
        return part.tobytes()
    try:
        return memoryview(part).tobytes()
    except TypeError:
        return array(INT_TYPECODE, part).tobytes()


def _graph_checksum(
    name: str, labels: Sequence[str], src: bytes, dst: bytes, time: bytes
) -> str:
    """Content checksum over everything the store persists for a graph.

    Hashes label *strings* (not interner ids), so :meth:`CorpusStore.verify`
    catches corruption of the shared ``labels`` table as well as of the
    per-graph blobs.
    """
    digest = hashlib.sha256()
    digest.update(name.encode("utf-8"))
    digest.update(b"\x00")
    for label in labels:
        digest.update(label.encode("utf-8"))
        digest.update(b"\x1f")
    digest.update(src)
    digest.update(dst)
    digest.update(time)
    return digest.hexdigest()


def _page_checksum(blobs: Iterable[bytes]) -> str:
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(blob)
    return digest.hexdigest()


class CorpusStore:
    """A single-file, indexed, on-disk corpus of temporal graphs and logs.

    Create with :meth:`create` (read-write builder) or :meth:`open`
    (read-only; safe to open from many processes concurrently, which is
    how store-backed mining workers attach).  All SQLite and OS failures
    surface as :class:`~repro.core.errors.DatasetError`.
    """

    def __init__(
        self,
        conn: sqlite3.Connection,
        path: Path,
        *,
        writable: bool,
        page_edges: int,
        memory_budget_mb: float | None = None,
    ) -> None:
        self._conn = conn
        self._path = path
        self._writable = writable
        self._page_edges = page_edges
        self.memory_budget_mb = memory_budget_mb
        self._label_ids: dict[str, int] = {}
        self._id_labels: dict[int, str] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | Path,
        *,
        page_edges: int = DEFAULT_PAGE_EDGES,
        overwrite: bool = False,
    ) -> "CorpusStore":
        """Create a new store file and return it opened read-write."""
        if page_edges < 1:
            raise DatasetError(f"page_edges must be positive, got {page_edges}")
        path = Path(path)
        try:
            if path.exists():
                if not overwrite:
                    raise DatasetError(
                        f"corpus store already exists: {path} "
                        "(pass overwrite to replace it)"
                    )
                path.unlink()
            conn = sqlite3.connect(path)
            conn.execute("PRAGMA synchronous = NORMAL")
            with conn:
                conn.executescript(_SCHEMA)
                conn.executemany(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    [
                        ("format", STORE_FORMAT),
                        ("schema_version", str(STORE_SCHEMA_VERSION)),
                        ("page_edges", str(page_edges)),
                    ],
                )
        except (sqlite3.Error, OSError) as exc:
            raise DatasetError(f"cannot create corpus store {path}: {exc}") from exc
        return cls(conn, path, writable=True, page_edges=page_edges)

    @classmethod
    def open(
        cls, path: str | Path, *, memory_budget_mb: float | None = None
    ) -> "CorpusStore":
        """Open an existing store read-only.

        ``memory_budget_mb`` caps the SQLite page cache at a quarter of
        the budget (the rest of the budget belongs to the one decoded
        graph/window a streaming reader holds at a time).
        """
        path = Path(path)
        try:
            if not path.is_file():
                raise DatasetError(f"corpus store missing: {path}")
            uri = f"{path.resolve().as_uri()}?mode=ro"
            conn = sqlite3.connect(uri, uri=True)
            if memory_budget_mb is not None:
                cache_kb = max(256, int(memory_budget_mb * 1024 / 4))
                conn.execute(f"PRAGMA cache_size = -{cache_kb}")
            meta = dict(conn.execute("SELECT key, value FROM meta"))
        except DatasetError:
            raise
        except (sqlite3.Error, OSError) as exc:
            raise DatasetError(f"cannot open corpus store {path}: {exc}") from exc
        if meta.get("format") != STORE_FORMAT:
            conn.close()
            raise DatasetError(f"not a corpus store: {path}")
        version = int(meta.get("schema_version", "0"))
        if version > STORE_SCHEMA_VERSION:
            conn.close()
            raise DatasetError(
                f"corpus store {path} has schema version {version}, newer than "
                f"supported {STORE_SCHEMA_VERSION}; upgrade this installation"
            )
        return cls(
            conn,
            path,
            writable=False,
            page_edges=int(meta.get("page_edges", DEFAULT_PAGE_EDGES)),
            memory_budget_mb=memory_budget_mb,
        )

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        self._conn.close()

    def __enter__(self) -> "CorpusStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def path(self) -> Path:
        """The store file's path (what pool workers re-open)."""
        return self._path

    @property
    def page_edges(self) -> int:
        """Edges per page blob, fixed at :meth:`create` time."""
        return self._page_edges

    @contextmanager
    def _wrap(self):
        try:
            yield
        except DatasetError:
            raise
        except (sqlite3.Error, OSError) as exc:
            raise DatasetError(f"corpus store {self._path}: {exc}") from exc

    def _require_writable(self) -> None:
        if not self._writable:
            raise DatasetError(f"corpus store {self._path} is opened read-only")

    # ------------------------------------------------------------------
    # label interning (store-wide, bounded in-process caches)
    # ------------------------------------------------------------------
    def _intern(self, label: str) -> int:
        lid = self._label_ids.get(label)
        if lid is not None:
            return lid
        row = self._conn.execute(
            "SELECT id FROM labels WHERE label = ?", (label,)
        ).fetchone()
        if row is not None:
            lid = row[0]
        else:
            self._require_writable()
            lid = self._conn.execute(
                "INSERT INTO labels (label) VALUES (?)", (label,)
            ).lastrowid
        if len(self._label_ids) >= _LABEL_CACHE_CAP:
            self._label_ids.pop(next(iter(self._label_ids)))
        self._label_ids[label] = lid
        return lid

    def _label_of(self, lid: int) -> str:
        label = self._id_labels.get(lid)
        if label is not None:
            return label
        row = self._conn.execute(
            "SELECT label FROM labels WHERE id = ?", (lid,)
        ).fetchone()
        if row is None:
            raise DatasetError(
                f"corpus store {self._path}: dangling label id {lid}"
            )
        return self._remember_label(lid, row[0])

    def _remember_label(self, lid: int, label: str) -> str:
        if lid not in self._id_labels:
            if len(self._id_labels) >= _LABEL_CACHE_CAP:
                self._id_labels.pop(next(iter(self._id_labels)))
            self._id_labels[lid] = label
        return label

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def add_graph(
        self, partition: str, graph: TemporalGraph, *, kind: str = "behavior"
    ) -> int:
        """Persist one frozen graph under ``partition``; returns its gid."""
        self._require_writable()
        if kind not in ("behavior", "background", "log"):
            raise DatasetError(f"unknown graph kind {kind!r}")
        if kind != "background" and partition == BACKGROUND_PARTITION:
            raise DatasetError(
                f"partition name {BACKGROUND_PARTITION!r} is reserved for the "
                "background set"
            )
        with self._wrap():
            graph.freeze()
            _base, src, dst, time = graph.edge_arrays()
            n = graph.num_edges
            src_b = _column_bytes(src, 0, n)
            dst_b = _column_bytes(dst, 0, n)
            time_b = _column_bytes(time, 0, n)
            with self._conn:
                label_blob = _pack(self._intern(label) for label in graph.labels)
                checksum = _graph_checksum(
                    graph.name, graph.labels, src_b, dst_b, time_b
                )
                t_min = int(time[0]) if n else 0
                t_max = int(time[n - 1]) if n else -1
                gid = self._conn.execute(
                    "INSERT INTO graphs (kind, partition, name, num_nodes,"
                    " num_edges, t_min, t_max, node_labels, checksum)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        kind,
                        partition,
                        graph.name,
                        graph.num_nodes,
                        n,
                        t_min,
                        t_max,
                        label_blob,
                        checksum,
                    ),
                ).lastrowid
                pages = []
                for page, lo in enumerate(range(0, n, self._page_edges)):
                    hi = min(lo + self._page_edges, n)
                    pages.append(
                        (
                            gid,
                            page,
                            int(time[lo]),
                            int(time[hi - 1]),
                            hi - lo,
                            src_b[lo * 8 : hi * 8],
                            dst_b[lo * 8 : hi * 8],
                            time_b[lo * 8 : hi * 8],
                        )
                    )
                self._conn.executemany(
                    "INSERT INTO edge_pages (gid, page, t_min, t_max, n,"
                    " src, dst, time) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    pages,
                )
                pairs = [
                    (
                        gid,
                        self._intern(src_label),
                        self._intern(dst_label),
                        len(edge_ids),
                        _pack(edge_ids),
                    )
                    for (src_label, dst_label), edge_ids in sorted(
                        graph.label_pair_index().items()
                    )
                ]
                self._conn.executemany(
                    "INSERT INTO pair_index (gid, src_label, dst_label, n,"
                    " edge_ids) VALUES (?, ?, ?, ?, ?)",
                    pairs,
                )
            return gid

    def add_graphs(
        self,
        partition: str,
        graphs: Iterable[TemporalGraph],
        *,
        kind: str = "behavior",
    ) -> int:
        """Persist a stream of graphs under one partition; returns count."""
        count = 0
        for graph in graphs:
            self.add_graph(partition, graph, kind=kind)
            count += 1
        return count

    def add_training_data(self, train) -> int:
        """Persist a ``TrainingData`` — behaviors in config order, then
        background.  Returns the number of graphs written."""
        total = 0
        for name in train.config.behaviors:
            total += self.add_graphs(name, train.behavior(name), kind="behavior")
        total += self.add_graphs(
            BACKGROUND_PARTITION, train.background, kind="background"
        )
        return total

    def add_log(
        self,
        name: str,
        *,
        graph: TemporalGraph | None = None,
        events: Iterable[SyscallEvent] = (),
    ) -> tuple[int, int]:
        """Persist a monitoring log: its graph (for windowed batch query)
        and/or its raw event stream (for streaming-detect replay).

        Returns ``(graphs_written, events_written)``.
        """
        graphs = 0
        if graph is not None:
            self.add_graph(name, graph, kind="log")
            graphs = 1
        return graphs, self.add_events(name, events)

    def add_events(self, log: str, events: Iterable[SyscallEvent]) -> int:
        """Append raw syscall events to ``log`` as paged columns."""
        self._require_writable()
        with self._wrap():
            row = self._conn.execute(
                "SELECT COALESCE(MAX(page) + 1, 0) FROM event_pages WHERE log = ?",
                (log,),
            ).fetchone()
            page = row[0]
            total = 0
            buffer: list[SyscallEvent] = []
            with self._conn:
                for event in events:
                    buffer.append(event)
                    if len(buffer) >= DEFAULT_PAGE_EVENTS:
                        self._write_event_page(log, page, buffer)
                        total += len(buffer)
                        page += 1
                        buffer = []
                if buffer:
                    self._write_event_page(log, page, buffer)
                    total += len(buffer)
            return total

    def _write_event_page(
        self, log: str, page: int, events: Sequence[SyscallEvent]
    ) -> None:
        times = _pack(event.time for event in events)
        columns = [
            _pack(self._intern(getattr(event, field)) for event in events)
            for field in ("syscall", "src_key", "src_label", "dst_key", "dst_label")
        ]
        blobs = [times, *columns]
        self._conn.execute(
            "INSERT INTO event_pages (log, page, t_min, t_max, n, time,"
            " syscall, src_key, src_label, dst_key, dst_label, checksum)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                log,
                page,
                min(event.time for event in events),
                max(event.time for event in events),
                len(events),
                *blobs,
                _page_checksum(blobs),
            ),
        )

    # ------------------------------------------------------------------
    # catalog reads
    # ------------------------------------------------------------------
    def behaviors(self) -> list[str]:
        """Behavior partition names in first-insertion order."""
        with self._wrap():
            return [
                row[0]
                for row in self._conn.execute(
                    "SELECT partition FROM graphs WHERE kind = 'behavior'"
                    " GROUP BY partition ORDER BY MIN(gid)"
                )
            ]

    def logs(self) -> list[str]:
        """Log names present (graph partitions and/or event streams)."""
        with self._wrap():
            names = [
                row[0]
                for row in self._conn.execute(
                    "SELECT partition FROM graphs WHERE kind = 'log'"
                    " GROUP BY partition ORDER BY MIN(gid)"
                )
            ]
            seen = set(names)
            for (name,) in self._conn.execute(
                "SELECT DISTINCT log FROM event_pages ORDER BY log"
            ):
                if name not in seen:
                    names.append(name)
            return names

    def graph_count(self, partition: str, kind: str | None = None) -> int:
        """Number of graphs stored under ``partition``."""
        with self._wrap():
            return self._count_graphs(partition, kind)

    def _count_graphs(self, partition: str, kind: str | None) -> int:
        sql = "SELECT COUNT(*) FROM graphs WHERE partition = ?"
        params: list = [partition]
        if kind is not None:
            sql += " AND kind = ?"
            params.append(kind)
        return self._conn.execute(sql, params).fetchone()[0]

    def event_count(self, log: str) -> int:
        """Number of raw events stored under ``log``."""
        with self._wrap():
            return self._conn.execute(
                "SELECT COALESCE(SUM(n), 0) FROM event_pages WHERE log = ?", (log,)
            ).fetchone()[0]

    def extent(self, partition: str) -> tuple[int, int]:
        """``(t_min, t_max)`` over the partition's non-empty graphs."""
        with self._wrap():
            row = self._conn.execute(
                "SELECT MIN(t_min), MAX(t_max) FROM graphs"
                " WHERE partition = ? AND num_edges > 0",
                (partition,),
            ).fetchone()
            if row[0] is None:
                raise DatasetError(
                    f"corpus store {self._path}: partition {partition!r} has "
                    "no edges (or does not exist)"
                )
            return row[0], row[1]

    def max_span(self, partition: str) -> int:
        """Largest single-graph lifetime (last - first edge time) in the
        partition — what the span-cap rule reads, without decoding pages.

        0 when every graph is empty (matching
        ``span_cap_for_graphs(..., slack=1)`` semantics); raises when the
        partition does not exist at all.
        """
        with self._wrap():
            row = self._conn.execute(
                "SELECT MAX(t_max - t_min) FROM graphs"
                " WHERE partition = ? AND num_edges > 0",
                (partition,),
            ).fetchone()
            if row[0] is None:
                if self._count_graphs(partition, None) == 0:
                    raise DatasetError(
                        f"corpus store {self._path}: no partition {partition!r}"
                    )
                return 0
            return row[0]

    def pair_labels(self, partition: str) -> set[tuple[str, str]]:
        """All ``(src_label, dst_label)`` pairs occurring in a partition.

        The store-level face of the one-edge substructure index: a query
        pattern containing a pair absent from this set cannot match
        anywhere in the partition, so callers skip it without decoding a
        single edge page.  One statement resolves the label ids too, and
        the resolved labels warm the cache that :meth:`window` decodes
        node labels through.
        """
        pairs: set[tuple[str, str]] = set()
        with self._wrap():
            for src, dst, src_label, dst_label in self._conn.execute(
                "SELECT DISTINCT p.src_label, p.dst_label, s.label, d.label"
                " FROM pair_index p JOIN graphs g ON g.gid = p.gid"
                " LEFT JOIN labels s ON s.id = p.src_label"
                " LEFT JOIN labels d ON d.id = p.dst_label"
                " WHERE g.partition = ?",
                (partition,),
            ):
                if src_label is None or dst_label is None:
                    dangling = src if src_label is None else dst
                    raise DatasetError(
                        f"corpus store {self._path}: dangling label id {dangling}"
                    )
                self._remember_label(src, src_label)
                self._remember_label(dst, dst_label)
                pairs.add((src_label, dst_label))
        return pairs

    def graphs_with_pair(
        self, src_label: str, dst_label: str
    ) -> list[tuple[str, str, int]]:
        """Candidate lookup: ``(partition, graph name, occurrence count)``
        for every stored graph containing the one-edge substructure."""
        with self._wrap():
            src = self._conn.execute(
                "SELECT id FROM labels WHERE label = ?", (src_label,)
            ).fetchone()
            dst = self._conn.execute(
                "SELECT id FROM labels WHERE label = ?", (dst_label,)
            ).fetchone()
            if src is None or dst is None:
                return []
            return [
                (partition, name, count)
                for partition, name, count in self._conn.execute(
                    "SELECT g.partition, g.name, p.n FROM pair_index p"
                    " JOIN graphs g ON g.gid = p.gid"
                    " WHERE p.src_label = ? AND p.dst_label = ? ORDER BY g.gid",
                    (src[0], dst[0]),
                )
            ]

    # ------------------------------------------------------------------
    # graph reads (streaming)
    # ------------------------------------------------------------------
    def iter_graphs(
        self, partition: str, *, kind: str | None = None
    ) -> Iterator[TemporalGraph]:
        """Yield the partition's graphs one at a time, insertion order."""
        with self._wrap():
            sql = (
                "SELECT gid, name, node_labels FROM graphs WHERE partition = ?"
            )
            params: list = [partition]
            if kind is not None:
                sql += " AND kind = ?"
                params.append(kind)
            sql += " ORDER BY gid"
            for gid, name, label_blob in self._conn.execute(sql, params).fetchall():
                yield self._materialize(gid, name, label_blob)

    def load_graphs(
        self, partition: str, *, kind: str | None = None
    ) -> list[TemporalGraph]:
        """Materialize the whole partition (the non-streaming read)."""
        return list(self.iter_graphs(partition, kind=kind))

    def iter_graph_labels(
        self, partition: str, *, kind: str | None = None
    ) -> Iterator[list[str]]:
        """Yield each graph's node-label list without decoding edge pages.

        Enough for interest-model fitting and interner construction —
        the two full-corpus passes mining makes besides per-behavior
        pattern growth — at a fraction of a full decode.
        """
        with self._wrap():
            sql = "SELECT node_labels FROM graphs WHERE partition = ?"
            params: list = [partition]
            if kind is not None:
                sql += " AND kind = ?"
                params.append(kind)
            sql += " ORDER BY gid"
            for (label_blob,) in self._conn.execute(sql, params):
                yield [self._label_of(lid) for lid in _unpack(label_blob)]

    def _materialize(self, gid: int, name: str, label_blob: bytes) -> TemporalGraph:
        labels = [self._label_of(lid) for lid in _unpack(label_blob)]
        pages = self._conn.execute(
            "SELECT src, dst, time FROM edge_pages WHERE gid = ? ORDER BY page",
            (gid,),
        ).fetchall()
        if len(pages) == 1:
            src_b, dst_b, time_b = pages[0]
            src, dst, time = _unpack(src_b), _unpack(dst_b), _unpack(time_b)
        else:
            src = array(INT_TYPECODE)
            dst = array(INT_TYPECODE)
            time = array(INT_TYPECODE)
            for src_b, dst_b, time_b in pages:
                src.frombytes(src_b)
                dst.frombytes(dst_b)
                time.frombytes(time_b)
        return TemporalGraph.from_frozen_columns(name, labels, src, dst, time)

    def load_training_data(self, behaviors: Sequence[str] | None = None):
        """Materialize the store back into a ``TrainingData``.

        The config is rebuilt from what is on disk exactly like
        :func:`repro.datasets.io.load_corpus` does for directories
        (``seed=-1``: a store does not record its generation seed), so
        in-memory mining over the result is byte-identical to mining
        the corpus the store was built from.
        """
        from repro.syscall.collector import TrainingConfig, TrainingData

        names = list(behaviors) if behaviors is not None else self.behaviors()
        if not names:
            raise DatasetError(f"no behavior partitions in store {self._path}")
        missing = [
            n for n in names if self.graph_count(n, kind="behavior") == 0
        ]
        if missing:
            raise DatasetError(
                f"behavior partitions missing in store {self._path}: "
                f"{', '.join(missing)}"
            )
        behavior_graphs = {
            name: self.load_graphs(name, kind="behavior") for name in names
        }
        background = self.load_graphs(BACKGROUND_PARTITION, kind="background")
        return TrainingData(
            config=TrainingConfig(
                behaviors=tuple(names),
                instances_per_behavior=max(
                    1, min(len(graphs) for graphs in behavior_graphs.values())
                ),
                background_graphs=len(background),
                seed=-1,
            ),
            behaviors=behavior_graphs,
            background=background,
        )

    # ------------------------------------------------------------------
    # windowed reads
    # ------------------------------------------------------------------
    def window(
        self, partition: str, start: int, end: int, *, name: str = ""
    ) -> TemporalGraph:
        """Extract ``graph.window(start, end)`` of a single-graph partition
        by indexed range scan — only pages overlapping the range decode.

        Byte-identical to :meth:`TemporalGraph.window` on the
        materialized graph: same first-encounter node remap, same edge
        order, same default name.
        """
        with self._wrap():
            rows = self._conn.execute(
                "SELECT gid, name, node_labels FROM graphs WHERE partition = ?"
                " ORDER BY gid",
                (partition,),
            ).fetchall()
            if not rows:
                raise DatasetError(
                    f"corpus store {self._path}: no partition {partition!r}"
                )
            if len(rows) > 1:
                raise DatasetError(
                    f"corpus store {self._path}: window() needs a single-graph "
                    f"partition; {partition!r} holds {len(rows)} graphs"
                )
            gid, graph_name, label_blob = rows[0]
            label_ids = _unpack(label_blob)
            sub = TemporalGraph(name=name or f"{graph_name}[{start},{end}]")
            remap: dict[int, int] = {}
            for src_b, dst_b, time_b in self._conn.execute(
                "SELECT src, dst, time FROM edge_pages"
                " WHERE gid = ? AND t_max >= ? AND t_min <= ? ORDER BY page",
                (gid, start, end),
            ):
                src = _unpack(src_b)
                dst = _unpack(dst_b)
                time = _unpack(time_b)
                for i in range(bisect_right(time, start - 1), len(time)):
                    t = time[i]
                    if t > end:
                        break
                    for node in (src[i], dst[i]):
                        if node not in remap:
                            remap[node] = sub.add_node(
                                self._label_of(label_ids[node])
                            )
                    sub.add_edge(remap[src[i]], remap[dst[i]], t)
            return sub.freeze()

    def iter_windows(
        self,
        partition: str,
        width: int,
        overlap: int = 0,
        *,
        start: int | None = None,
        end: int | None = None,
    ) -> Iterator[tuple[int, TemporalGraph]]:
        """Yield ``(window_start, window_graph)`` sweeping the partition.

        Windows are ``[t, t + width]`` inclusive, advancing by
        ``width - overlap``.  With ``overlap >= max match span`` every
        bounded-span match falls entirely inside at least one window —
        the soundness condition the store-backed query scan relies on.
        """
        if width < 1:
            raise DatasetError(f"window width must be positive, got {width}")
        if not 0 <= overlap < width:
            raise DatasetError(
                f"window overlap must be in [0, width), got {overlap}"
            )
        lo, hi = self.extent(partition)
        if start is not None:
            lo = max(lo, start)
        if end is not None:
            hi = min(hi, end)
        t = lo
        while t <= hi:
            yield t, self.window(partition, t, t + width)
            t += width - overlap

    # ------------------------------------------------------------------
    # event reads (streaming replay)
    # ------------------------------------------------------------------
    def iter_events(
        self, log: str, *, start: int | None = None, end: int | None = None
    ) -> Iterator[SyscallEvent]:
        """Replay a stored event log, optionally restricted to a time
        range — boundary pages are filtered, interior pages stream whole."""
        with self._wrap():
            exists = self._conn.execute(
                "SELECT 1 FROM event_pages WHERE log = ? LIMIT 1", (log,)
            ).fetchone()
            if exists is None:
                raise DatasetError(
                    f"corpus store {self._path}: no event log {log!r}"
                )
            sql = (
                "SELECT time, syscall, src_key, src_label, dst_key, dst_label, n"
                " FROM event_pages WHERE log = ?"
            )
            params: list = [log]
            if start is not None:
                sql += " AND t_max >= ?"
                params.append(start)
            if end is not None:
                sql += " AND t_min <= ?"
                params.append(end)
            sql += " ORDER BY page"
            for row in self._conn.execute(sql, params):
                times = _unpack(row[0])
                columns = [_unpack(blob) for blob in row[1:6]]
                for i in range(row[6]):
                    t = times[i]
                    if (start is not None and t < start) or (
                        end is not None and t > end
                    ):
                        continue
                    yield SyscallEvent(
                        time=t,
                        syscall=self._label_of(columns[0][i]),
                        src_key=self._label_of(columns[1][i]),
                        src_label=self._label_of(columns[2][i]),
                        dst_key=self._label_of(columns[3][i]),
                        dst_label=self._label_of(columns[4][i]),
                    )

    def iter_event_batches(
        self,
        log: str,
        batch_size: int,
        *,
        start: int | None = None,
        end: int | None = None,
    ) -> Iterator[list[SyscallEvent]]:
        """Re-chunk a stored event stream into exact ``batch_size`` lists
        (the shape ``Ingestor.ingest`` and the replay loops expect)."""
        if batch_size < 1:
            raise DatasetError(f"batch_size must be positive, got {batch_size}")
        batch: list[SyscallEvent] = []
        for event in self.iter_events(log, start=start, end=end):
            batch.append(event)
            if len(batch) >= batch_size:
                yield batch
                batch = []
        if batch:
            yield batch

    # ------------------------------------------------------------------
    # inspection & integrity
    # ------------------------------------------------------------------
    def info(self) -> dict:
        """Catalog summary (the ``repro corpus info`` payload)."""
        with self._wrap():
            graphs, edges = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(num_edges), 0) FROM graphs"
            ).fetchone()
            labels = self._conn.execute("SELECT COUNT(*) FROM labels").fetchone()[0]
            return {
                "path": str(self._path),
                "format": STORE_FORMAT,
                "schema_version": STORE_SCHEMA_VERSION,
                "page_edges": self._page_edges,
                "graphs": graphs,
                "edges": edges,
                "labels": labels,
                "behaviors": {
                    name: self._count_graphs(name, "behavior")
                    for name in self.behaviors()
                },
                "background_graphs": self._count_graphs(
                    BACKGROUND_PARTITION, "background"
                ),
                "logs": {name: self.event_count(name) for name in self.logs()},
                "file_bytes": self._path.stat().st_size,
            }

    def verify(self) -> dict:
        """Recompute every stored checksum; raise on the first mismatch.

        Returns ``{"graphs": n, "event_pages": m}`` on success.  This is
        the store's analogue of the ``.tgm`` bundle integrity check.
        """
        with self._wrap():
            integrity = self._conn.execute("PRAGMA integrity_check").fetchone()
            if integrity[0] != "ok":
                raise DatasetError(
                    f"corpus store {self._path}: SQLite integrity check failed: "
                    f"{integrity[0]}"
                )
            graphs = 0
            for gid, name, num_edges, label_blob, checksum in self._conn.execute(
                "SELECT gid, name, num_edges, node_labels, checksum FROM graphs"
                " ORDER BY gid"
            ).fetchall():
                labels = [self._label_of(lid) for lid in _unpack(label_blob)]
                src_b = b""
                dst_b = b""
                time_b = b""
                pages = 0
                for page_src, page_dst, page_time, n in self._conn.execute(
                    "SELECT src, dst, time, n FROM edge_pages WHERE gid = ?"
                    " ORDER BY page",
                    (gid,),
                ):
                    src_b += page_src
                    dst_b += page_dst
                    time_b += page_time
                    pages += n
                if pages != num_edges:
                    raise DatasetError(
                        f"corpus store {self._path}: graph {name!r} (gid {gid}) "
                        f"has {pages} paged edges, catalog says {num_edges}"
                    )
                actual = _graph_checksum(name, labels, src_b, dst_b, time_b)
                if actual != checksum:
                    raise DatasetError(
                        f"corpus store {self._path}: checksum mismatch on graph "
                        f"{name!r} (gid {gid})"
                    )
                graphs += 1
            event_pages = 0
            for log, page, checksum, *blobs in self._conn.execute(
                "SELECT log, page, checksum, time, syscall, src_key, src_label,"
                " dst_key, dst_label FROM event_pages ORDER BY log, page"
            ).fetchall():
                if _page_checksum(blobs) != checksum:
                    raise DatasetError(
                        f"corpus store {self._path}: checksum mismatch on event "
                        f"page {log!r}/{page}"
                    )
                event_pages += 1
            return {"graphs": graphs, "event_pages": event_pages}
