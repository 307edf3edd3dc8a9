"""Versioned ``BehaviorModel`` artifact bundles (the ``.tgm`` format).

A :class:`BehaviorModel` is the deployable unit of this system: one
self-describing artifact capturing everything a serving process needs to
run the queries a training process mined — per-behavior ranked patterns,
the formulated :class:`~repro.serving.registry.BehaviorQuery` set (span
caps included), the dataset :class:`~repro.core.kernel.LabelInterner`
label order, the :class:`~repro.core.miner.MinerConfig`, and provenance
(seed, scale, timings, library version).  ``save()``/``load()``
round-trip byte-identically, so bundles can be content-addressed and
diffed.

Bundle layout (a directory, or the same members zipped when the path
ends in ``.tgm``)::

    model/
    ├── manifest.json    format tag, schema version, library version,
    │                    MinerConfig, provenance, per-behavior metadata
    │                    (span cap, best score, counts, timings)
    ├── patterns.jsonl   ranked mined patterns: one JSON object per line
    │                    {"behavior", "rank", "labels", "edges",
    │                     "score", "pos_freq", "neg_freq"}
    ├── queries.jsonl    formulated behavior queries in the registry's
    │                    jsonl format — independently consumable by
    │                    ``repro detect --queries`` and
    │                    :func:`~repro.serving.registry.load_queries_jsonl`
    └── interner.json    {"labels": [...]} — the dataset label order; a
                         loading process re-derives bit-identical interner
                         ids from it (ids themselves are never persisted)

``manifest.json`` carries ``schema_version``; :func:`BehaviorModel.load`
rejects bundles written by a future, incompatible library with a clear
:class:`~repro.core.errors.ArtifactError` instead of misreading them.
Queries are not independent state: they are re-derived from the stored
patterns and span caps, and load verifies ``queries.jsonl`` agrees —
a hand-edited bundle fails loudly rather than serving queries that
diverge from the patterns the manifest describes.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro._version import __version__
from repro.core.errors import ArtifactError, MiningError, ReproError
from repro.core.kernel import LabelInterner
from repro.core.miner import MinedPattern, MinerConfig
from repro.core.pattern import TemporalPattern
from repro.serving.registry import BehaviorQuery, query_from_dict, query_to_dict

__all__ = [
    "SCHEMA_VERSION",
    "BUNDLE_SUFFIX",
    "BehaviorRecord",
    "BehaviorModel",
]

#: Current bundle schema.  Bump on any change a reader of this version
#: could not interpret; readers reject bundles with a newer version.
SCHEMA_VERSION = 1

#: Zipped-bundle file extension (a directory path saves unzipped).
BUNDLE_SUFFIX = ".tgm"

_FORMAT_TAG = "tgm-model"
_MANIFEST = "manifest.json"
_PATTERNS = "patterns.jsonl"
_QUERIES = "queries.jsonl"
_INTERNER = "interner.json"
_MEMBERS = (_MANIFEST, _PATTERNS, _QUERIES, _INTERNER)

#: Fixed member timestamp for zipped bundles, keeping ``save()`` output a
#: pure function of the model (byte-identical re-saves).
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


@dataclass(frozen=True)
class BehaviorRecord:
    """One behavior's slice of a model: ranked patterns plus mining facts."""

    behavior: str
    span_cap: int
    patterns: tuple[MinedPattern, ...]
    co_optimal: int
    patterns_explored: int
    subgraph_tests: int
    index_prefilter_skips: int
    elapsed_seconds: float
    timed_out: bool

    @property
    def best_score(self) -> float | None:
        """Discriminative score of the mined optimum (None if none mined)."""
        return self.patterns[0].score if self.patterns else None

    def queries(self) -> list[BehaviorQuery]:
        """The behavior's formulated queries: ranked patterns + span cap."""
        return [
            BehaviorQuery(
                name=f"{self.behavior}#{rank}",
                pattern=mined.pattern,
                max_span=self.span_cap,
            )
            for rank, mined in enumerate(self.patterns, start=1)
        ]


@dataclass(frozen=True)
class BehaviorModel:
    """A versioned, self-describing mine-result artifact (see module doc).

    Instances are immutable value objects: two models comparing equal
    produce byte-identical bundles, and ``load()`` of a saved bundle
    compares equal to the model that saved it.
    """

    config: MinerConfig
    records: dict[str, BehaviorRecord]
    labels: tuple[str, ...]
    provenance: dict = field(default_factory=dict)
    library_version: str = __version__
    schema_version: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    # read surface
    # ------------------------------------------------------------------
    @property
    def behaviors(self) -> tuple[str, ...]:
        """Behavior names in mining order."""
        return tuple(self.records)

    def record(self, behavior: str) -> BehaviorRecord:
        """One behavior's record; raises :class:`ArtifactError` if absent."""
        try:
            return self.records[behavior]
        except KeyError:
            raise ArtifactError(
                f"model has no behavior {behavior!r}; it holds: "
                f"{', '.join(self.behaviors) or '<none>'}"
            ) from None

    def queries(self, behaviors: Sequence[str] | None = None) -> list[BehaviorQuery]:
        """Registrable behavior queries, optionally for a behavior subset.

        Query names are ``<behavior>#<rank>`` in ranked order — the
        names the bundle's ``queries.jsonl`` carries, so detections keyed
        by query name stay comparable between ``detect --model`` and
        ``detect --queries``.
        """
        names = list(behaviors) if behaviors is not None else list(self.behaviors)
        out: list[BehaviorQuery] = []
        for name in names:
            out.extend(self.record(name).queries())
        return out

    def interner(self) -> LabelInterner:
        """Re-derive the dataset interner (bit-identical ids, any process)."""
        return LabelInterner.restore(self.labels)

    def describe(self) -> str:
        """Human-readable summary (the CLI ``inspect`` report)."""
        lines = [
            f"BehaviorModel schema v{self.schema_version} "
            f"(written by repro {self.library_version})",
            f"config: {json.dumps(self.config.to_dict(), sort_keys=True)}",
            f"interned labels: {len(self.labels)}",
        ]
        if self.provenance:
            lines.append(f"provenance: {json.dumps(self.provenance, sort_keys=True)}")
        lines.append(
            f"{len(self.records)} behaviors, "
            f"{sum(len(r.patterns) for r in self.records.values())} queries:"
        )
        for record in self.records.values():
            score = f"{record.best_score:.3f}" if record.best_score is not None else "-"
            lines.append(
                f"  {record.behavior:22s} best {score:>8s}  "
                f"{len(record.patterns)} queries (of {record.co_optimal} "
                f"co-optimal), span cap {record.span_cap}, "
                f"{record.patterns_explored} patterns explored in "
                f"{record.elapsed_seconds:.2f}s"
                + (" [timed out]" if record.timed_out else "")
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def _manifest_payload(self) -> dict:
        return {
            "format": _FORMAT_TAG,
            "schema_version": self.schema_version,
            "library_version": self.library_version,
            "config": self.config.to_dict(),
            "provenance": self.provenance,
            "behaviors": [
                {
                    "name": record.behavior,
                    "span_cap": record.span_cap,
                    "best_score": record.best_score,
                    "patterns": len(record.patterns),
                    "co_optimal": record.co_optimal,
                    "patterns_explored": record.patterns_explored,
                    "subgraph_tests": record.subgraph_tests,
                    "index_prefilter_skips": record.index_prefilter_skips,
                    "elapsed_seconds": record.elapsed_seconds,
                    "timed_out": record.timed_out,
                }
                for record in self.records.values()
            ],
        }

    def _members(self) -> dict[str, str]:
        """Render every bundle member deterministically (name -> text)."""
        patterns_lines = [
            json.dumps(
                {
                    "behavior": record.behavior,
                    "rank": rank,
                    "labels": list(mined.pattern.labels),
                    "edges": [[u, v] for u, v in mined.pattern.edges],
                    "score": mined.score,
                    "pos_freq": mined.pos_freq,
                    "neg_freq": mined.neg_freq,
                },
                sort_keys=True,
            )
            for record in self.records.values()
            for rank, mined in enumerate(record.patterns, start=1)
        ]
        query_lines = [
            json.dumps(query_to_dict(query), sort_keys=True)
            for query in self.queries()
        ]
        manifest_text = (
            json.dumps(self._manifest_payload(), indent=2, sort_keys=True) + "\n"
        )
        return {
            _MANIFEST: manifest_text,
            _PATTERNS: "".join(line + "\n" for line in patterns_lines),
            _QUERIES: "".join(line + "\n" for line in query_lines),
            _INTERNER: json.dumps({"labels": list(self.labels)}, indent=2) + "\n",
        }

    def save(self, path: str | Path) -> Path:
        """Write the bundle; ``*.tgm`` paths zip, any other path is a dir.

        Saving is deterministic: the same model always produces the same
        bytes (fixed member order and timestamps), so re-saving a loaded
        bundle reproduces it exactly.
        """
        path = Path(path)
        members = self._members()
        try:
            if path.suffix == BUNDLE_SUFFIX:
                path.parent.mkdir(parents=True, exist_ok=True)
                with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
                    for name in _MEMBERS:
                        info = zipfile.ZipInfo(name, date_time=_ZIP_EPOCH)
                        info.compress_type = zipfile.ZIP_DEFLATED
                        info.external_attr = 0o644 << 16
                        archive.writestr(info, members[name])
            else:
                path.mkdir(parents=True, exist_ok=True)
                for name in _MEMBERS:
                    (path / name).write_text(members[name], encoding="utf-8")
        except OSError as exc:
            raise ArtifactError(f"{path}: cannot write model bundle: {exc}") from exc
        return path

    @classmethod
    def load(cls, path: str | Path) -> "BehaviorModel":
        """Read a bundle (directory or ``.tgm`` zip) back into a model.

        Raises :class:`ArtifactError` on missing members, corrupt JSON,
        internal inconsistency, or a schema version newer than
        :data:`SCHEMA_VERSION`.
        """
        members = _read_members(Path(path))
        manifest = _parse_json(path, _MANIFEST, members[_MANIFEST])
        _check_schema(path, manifest)
        try:
            config = MinerConfig.from_dict(dict(manifest["config"]))
            provenance = dict(manifest["provenance"])
            behavior_meta = list(manifest["behaviors"])
            library_version = str(manifest["library_version"])
        except (KeyError, TypeError, ValueError, MiningError) as exc:
            raise ArtifactError(f"{path}: malformed {_MANIFEST}: {exc}") from exc

        interner_payload = _parse_json(path, _INTERNER, members[_INTERNER])
        try:
            labels = tuple(str(label) for label in interner_payload["labels"])
        except (KeyError, TypeError) as exc:
            raise ArtifactError(f"{path}: malformed {_INTERNER}: {exc}") from exc

        ranked = _parse_patterns(path, members[_PATTERNS])
        records: dict[str, BehaviorRecord] = {}
        for meta in behavior_meta:
            try:
                name = str(meta["name"])
                declared_patterns = int(meta["patterns"])
                record = BehaviorRecord(
                    behavior=name,
                    span_cap=int(meta["span_cap"]),
                    patterns=tuple(ranked.pop(name, ())),
                    co_optimal=int(meta["co_optimal"]),
                    patterns_explored=int(meta["patterns_explored"]),
                    subgraph_tests=int(meta["subgraph_tests"]),
                    index_prefilter_skips=int(meta["index_prefilter_skips"]),
                    elapsed_seconds=float(meta["elapsed_seconds"]),
                    timed_out=bool(meta["timed_out"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ArtifactError(
                    f"{path}: malformed behavior entry in {_MANIFEST}: {exc}"
                ) from exc
            if len(record.patterns) != declared_patterns:
                raise ArtifactError(
                    f"{path}: {_PATTERNS} holds {len(record.patterns)} "
                    f"patterns for {name!r} but {_MANIFEST} declares "
                    f"{declared_patterns}"
                )
            records[name] = record
        if ranked:
            raise ArtifactError(
                f"{path}: {_PATTERNS} mentions behaviors absent from "
                f"{_MANIFEST}: {', '.join(sorted(ranked))}"
            )

        model = cls(
            config=config,
            records=records,
            labels=labels,
            provenance=provenance,
            library_version=library_version,
        )
        _check_queries(path, model, members[_QUERIES])
        return model


# ----------------------------------------------------------------------
# load helpers
# ----------------------------------------------------------------------
def _read_members(path: Path) -> dict[str, str]:
    """Fetch all bundle member texts from a directory or ``.tgm`` zip."""
    try:
        if path.is_dir():
            members: dict[str, str] = {}
            for name in _MEMBERS:
                member = path / name
                if not member.is_file():
                    raise ArtifactError(f"{path}: bundle member missing: {name}")
                members[name] = member.read_text(encoding="utf-8")
            return members
        if not path.exists():
            raise ArtifactError(f"{path}: no such model bundle")
        if not zipfile.is_zipfile(path):
            raise ArtifactError(
                f"{path}: not a model bundle (expected a bundle directory or a "
                f"{BUNDLE_SUFFIX} zip archive)"
            )
        with zipfile.ZipFile(path) as archive:
            names = set(archive.namelist())
            missing = [name for name in _MEMBERS if name not in names]
            if missing:
                raise ArtifactError(f"{path}: bundle member missing: {missing[0]}")
            return {name: archive.read(name).decode("utf-8") for name in _MEMBERS}
    except zipfile.BadZipFile as exc:
        raise ArtifactError(f"{path}: corrupt bundle archive: {exc}") from exc
    except OSError as exc:
        raise ArtifactError(f"{path}: cannot read model bundle: {exc}") from exc


def _parse_json(path: Path | str, member: str, text: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}: invalid JSON in {member}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ArtifactError(f"{path}: {member} must hold a JSON object")
    return payload


def _check_schema(path: Path | str, manifest: dict) -> None:
    if manifest.get("format") != _FORMAT_TAG:
        raise ArtifactError(
            f"{path}: not a behavior-model bundle "
            f"(format tag {manifest.get('format')!r})"
        )
    version = manifest.get("schema_version")
    if not isinstance(version, int) or version < 1:
        raise ArtifactError(f"{path}: invalid schema_version {version!r}")
    if version > SCHEMA_VERSION:
        raise ArtifactError(
            f"{path}: bundle schema v{version} is newer than this library "
            f"supports (v{SCHEMA_VERSION}); upgrade repro (bundle written "
            f"by repro {manifest.get('library_version', '?')}) to load it"
        )


def _parse_patterns(path: Path | str, text: str) -> dict[str, list[MinedPattern]]:
    """Parse ``patterns.jsonl`` into per-behavior ranked pattern lists."""
    ranked: dict[str, list[MinedPattern]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            behavior = str(payload["behavior"])
            rank = int(payload["rank"])
            mined = MinedPattern(
                pattern=TemporalPattern(
                    tuple(str(label) for label in payload["labels"]),
                    tuple((int(u), int(v)) for u, v in payload["edges"]),
                ),
                score=float(payload["score"]),
                pos_freq=float(payload["pos_freq"]),
                neg_freq=float(payload["neg_freq"]),
            )
        except (
            json.JSONDecodeError,
            KeyError,
            TypeError,
            ValueError,
            ReproError,
        ) as exc:
            raise ArtifactError(
                f"{path}: {_PATTERNS}:{line_no}: malformed pattern: {exc}"
            ) from exc
        bucket = ranked.setdefault(behavior, [])
        if rank != len(bucket) + 1:
            raise ArtifactError(
                f"{path}: {_PATTERNS}:{line_no}: rank {rank} out of order "
                f"for behavior {behavior!r} (expected {len(bucket) + 1})"
            )
        bucket.append(mined)
    return ranked


def _check_queries(path: Path | str, model: BehaviorModel, text: str) -> None:
    """Verify ``queries.jsonl`` matches the queries the patterns derive.

    Queries are derived state; a divergence means the bundle was edited
    inconsistently, and serving it would silently run queries the
    manifest does not describe.
    """
    stored: list[BehaviorQuery] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            stored.append(query_from_dict(json.loads(line)))
        except (json.JSONDecodeError, ReproError) as exc:
            raise ArtifactError(
                f"{path}: {_QUERIES}:{line_no}: malformed query: {exc}"
            ) from exc
    derived = model.queries()
    if stored != derived:
        raise ArtifactError(
            f"{path}: {_QUERIES} disagrees with the queries derived from "
            f"{_PATTERNS} + {_MANIFEST} ({len(stored)} stored vs "
            f"{len(derived)} derived); the bundle was edited inconsistently"
        )
