"""Tests for the ``repro.api`` SDK: Workspace + BehaviorModel bundles."""

import json
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import repro
from repro import BehaviorModel, MinerConfig, Workspace
from repro.api import SCHEMA_VERSION, ArtifactError
from repro.query.engine import QueryEngine
from repro.serving.registry import load_queries_jsonl

BEHAVIORS = ["gzip-decompress", "bzip2-decompress"]
CONFIG = MinerConfig(max_edges=3, min_pos_support=0.7)
SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def ws():
    return Workspace(seed=3)


@pytest.fixture(scope="module")
def train(ws):
    return ws.generate(
        instances_per_behavior=4, background_graphs=6, behaviors=BEHAVIORS
    )


@pytest.fixture(scope="module")
def model(ws, train):
    return ws.mine(train, behaviors=BEHAVIORS, config=CONFIG, top_k=3)


@pytest.fixture(scope="module")
def test_data(ws):
    return ws.generate_test(instances=6, behaviors=BEHAVIORS, seed=11)


class TestWorkspaceMine:
    def test_model_shape(self, model):
        assert model.behaviors == tuple(BEHAVIORS)
        assert model.schema_version == SCHEMA_VERSION
        assert model.library_version == repro.__version__
        for name in BEHAVIORS:
            record = model.record(name)
            assert 1 <= len(record.patterns) <= 3
            assert record.best_score == record.patterns[0].score
            assert record.span_cap > 0
            assert record.patterns_explored > 0

    def test_queries_are_named_and_capped(self, model):
        queries = model.queries()
        names = [q.name for q in queries]
        expected = [
            f"{behavior}#{rank}"
            for behavior in BEHAVIORS
            for rank in range(1, len(model.record(behavior).patterns) + 1)
        ]
        assert names == expected
        for query in queries:
            behavior = query.name.split("#")[0]
            assert query.max_span == model.record(behavior).span_cap

    def test_queries_subset(self, model):
        only = model.queries(["bzip2-decompress"])
        assert {q.name.split("#")[0] for q in only} == {"bzip2-decompress"}

    def test_unknown_behavior_raises(self, model):
        with pytest.raises(ArtifactError, match="no behavior"):
            model.record("sshd-login")

    def test_provenance_records_run_facts(self, model, train):
        assert model.provenance["seed"] == train.config.seed
        assert model.provenance["top_k"] == 3

    def test_interner_covers_training_labels(self, model, train):
        interner = model.interner()
        for graph in train.all_graphs():
            for label in graph.labels:
                assert label in interner

    def test_mine_with_workers_matches_serial(self, ws, train, model):
        fanned = ws.mine(train, behaviors=BEHAVIORS, config=CONFIG, workers=2, top_k=3)
        assert fanned.provenance["workers"] == 2
        for name in BEHAVIORS:
            assert fanned.record(name).patterns == model.record(name).patterns
            assert fanned.record(name).span_cap == model.record(name).span_cap


class TestCorpusRoundTrip:
    def test_save_load_corpus(self, ws, train, tmp_path):
        root = tmp_path / "corpus"
        total = ws.save_corpus(train, root)
        behavior_total = sum(len(train.behavior(n)) for n in BEHAVIORS)
        assert total == behavior_total + len(train.background)
        loaded = ws.load_corpus(root)
        assert set(loaded.config.behaviors) == set(BEHAVIORS)
        for name in BEHAVIORS:
            assert [g.edges for g in loaded.behavior(name)] == [
                g.edges for g in train.behavior(name)
            ]

    def test_load_corpus_subset(self, ws, train, tmp_path):
        root = tmp_path / "corpus"
        ws.save_corpus(train, root)
        one = ws.load_corpus(root, behaviors=["gzip-decompress"])
        assert one.config.behaviors == ("gzip-decompress",)

    def test_load_corpus_missing(self, ws, tmp_path):
        with pytest.raises(repro.ReproError, match="missing"):
            ws.load_corpus(tmp_path)


class TestBundleRoundTrip:
    @pytest.mark.parametrize("name", ["bundle-dir", "bundle.tgm"])
    def test_save_load_equality(self, model, tmp_path, name):
        path = model.save(tmp_path / name)
        assert BehaviorModel.load(path) == model

    def test_resave_is_byte_identical_dir(self, model, tmp_path):
        first = model.save(tmp_path / "a")
        second = BehaviorModel.load(first).save(tmp_path / "b")
        members = (
            "manifest.json",
            "patterns.jsonl",
            "queries.jsonl",
            "interner.json",
        )
        for member in members:
            assert (first / member).read_bytes() == (second / member).read_bytes()

    def test_resave_is_byte_identical_zip(self, model, tmp_path):
        first = model.save(tmp_path / "a.tgm")
        second = BehaviorModel.load(first).save(tmp_path / "b.tgm")
        assert first.read_bytes() == second.read_bytes()

    def test_bundle_queries_jsonl_is_registry_compatible(self, model, tmp_path):
        path = model.save(tmp_path / "bundle")
        queries = load_queries_jsonl(path / "queries.jsonl")
        assert queries == model.queries()

    def test_fresh_process_serve_matches_in_process_batch(
        self, model, test_data, tmp_path
    ):
        """Acceptance path: save -> load in a NEW process -> serve there."""
        from repro.datasets.io import save_events_jsonl

        bundle = model.save(tmp_path / "served.tgm")
        log = tmp_path / "log.jsonl"
        save_events_jsonl(test_data.events, log)
        script = (
            "import json, sys\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "from repro import BehaviorModel, Workspace\n"
            "from repro.datasets.io import load_events_jsonl\n"
            f"model = BehaviorModel.load({str(bundle)!r})\n"
            "service = Workspace().serve(model)\n"
            f"events = load_events_jsonl({str(log)!r})\n"
            "spans = {q.name: set() for q in model.queries()}\n"
            "for _batch, found in service.replay(events, 64):\n"
            "    for d in found:\n"
            "        spans[d.query].add(d.span)\n"
            "print(json.dumps(\n"
            "    {name: sorted(s) for name, s in spans.items()}, sort_keys=True\n"
            "))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        streamed = json.loads(out.stdout)
        engine = QueryEngine(test_data.graph)
        for query in model.queries():
            batch = [list(span) for span in engine.search_query(query)]
            assert streamed[query.name] == batch, query.name

    def test_interner_ids_rederive_in_fresh_process(self, model, tmp_path):
        path = model.save(tmp_path / "bundle.tgm")
        probe = sorted(model.labels)[: len(model.labels) // 2]
        local = model.interner()
        script = (
            "import json, sys\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "from repro import BehaviorModel\n"
            f"model = BehaviorModel.load({str(path)!r})\n"
            "interner = model.interner()\n"
            f"print(json.dumps([interner.id_of(l) for l in {probe!r}]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        assert json.loads(out.stdout) == [local.id_of(label) for label in probe]


class TestBundleValidation:
    def _manifest(self, path):
        return json.loads((path / "manifest.json").read_text())

    def _write_manifest(self, path, manifest):
        (path / "manifest.json").write_text(json.dumps(manifest))

    def test_future_schema_rejected(self, model, tmp_path):
        path = model.save(tmp_path / "bundle")
        manifest = self._manifest(path)
        manifest["schema_version"] = SCHEMA_VERSION + 1
        self._write_manifest(path, manifest)
        with pytest.raises(ArtifactError, match="newer than this library"):
            BehaviorModel.load(path)

    def test_bad_format_tag_rejected(self, model, tmp_path):
        path = model.save(tmp_path / "bundle")
        manifest = self._manifest(path)
        manifest["format"] = "something-else"
        self._write_manifest(path, manifest)
        with pytest.raises(ArtifactError, match="not a behavior-model bundle"):
            BehaviorModel.load(path)

    def test_missing_member_rejected(self, model, tmp_path):
        path = model.save(tmp_path / "bundle")
        (path / "interner.json").unlink()
        with pytest.raises(ArtifactError, match="member missing"):
            BehaviorModel.load(path)

    def test_corrupt_manifest_rejected(self, model, tmp_path):
        path = model.save(tmp_path / "bundle")
        (path / "manifest.json").write_text("{not json")
        with pytest.raises(ArtifactError, match="invalid JSON"):
            BehaviorModel.load(path)

    def test_edited_queries_rejected(self, model, tmp_path):
        path = model.save(tmp_path / "bundle")
        lines = (path / "queries.jsonl").read_text().splitlines()
        edited = json.loads(lines[0])
        edited["max_span"] += 1
        lines[0] = json.dumps(edited)
        (path / "queries.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(ArtifactError, match="disagrees"):
            BehaviorModel.load(path)

    def test_nonexistent_path_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="no such model bundle"):
            BehaviorModel.load(tmp_path / "nope.tgm")

    def test_non_bundle_file_rejected(self, tmp_path):
        stray = tmp_path / "stray.tgm"
        stray.write_text("not a zip")
        with pytest.raises(ArtifactError, match="not a model bundle"):
            BehaviorModel.load(stray)

    def test_zip_missing_member_rejected(self, model, tmp_path):
        full = model.save(tmp_path / "full.tgm")
        pruned = tmp_path / "pruned.tgm"
        with zipfile.ZipFile(full) as src, zipfile.ZipFile(pruned, "w") as dst:
            for name in src.namelist():
                if name != "patterns.jsonl":
                    dst.writestr(name, src.read(name))
        with pytest.raises(ArtifactError, match="member missing"):
            BehaviorModel.load(pruned)

    def test_manifest_entry_missing_key_rejected(self, model, tmp_path):
        path = model.save(tmp_path / "bundle")
        manifest = self._manifest(path)
        del manifest["behaviors"][0]["patterns"]
        self._write_manifest(path, manifest)
        with pytest.raises(ArtifactError, match="malformed behavior entry"):
            BehaviorModel.load(path)

    def test_config_round_trips_through_manifest(self, model, tmp_path):
        path = model.save(tmp_path / "bundle")
        assert BehaviorModel.load(path).config == CONFIG

    def test_unknown_provenance_key_still_loads(self, model, tmp_path):
        # provenance is free-form: keys a library no longer writes (older
        # bundles record the worker count of the retired seed sharding)
        # load as they are
        path = model.save(tmp_path / "bundle")
        manifest = self._manifest(path)
        manifest["provenance"]["retired_setting"] = 2
        self._write_manifest(path, manifest)
        loaded = BehaviorModel.load(path)
        assert loaded.provenance["retired_setting"] == 2
        assert loaded.queries() == model.queries()


class TestQueryAndServeEquivalence:
    def test_query_reports_accuracy(self, ws, model, test_data):
        report = ws.query(model, test_data)
        assert set(report.behaviors) == set(BEHAVIORS)
        for name in BEHAVIORS:
            ev = report.behaviors[name]
            assert ev.accuracy is not None
            assert ev.accuracy.identified == len(ev.spans)
        assert report.identified >= 1
        payload = report.as_dict()
        assert payload[BEHAVIORS[0]]["accuracy"]["behavior"] == BEHAVIORS[0]

    def test_query_on_bare_graph_skips_accuracy(self, ws, model, test_data):
        report = ws.query(model, test_data.graph)
        for ev in report.behaviors.values():
            assert ev.accuracy is None

    def test_loaded_model_serves_span_identical_to_batch(
        self, ws, model, test_data, tmp_path
    ):
        """The acceptance path: mine -> save -> fresh load -> serve."""
        loaded = BehaviorModel.load(model.save(tmp_path / "served.tgm"))
        engine = QueryEngine(test_data.graph)
        batch_spans = {q.name: tuple(engine.search_query(q)) for q in loaded.queries()}
        service = ws.serve(loaded)
        streamed: dict[str, set] = {query.name: set() for query in loaded.queries()}
        for _batch, detections in service.replay(test_data.events, 64):
            for detection in detections:
                streamed[detection.query].add(detection.span)
        assert {
            name: tuple(sorted(spans)) for name, spans in streamed.items()
        } == batch_spans

    def test_serve_window_must_cover_query_spans(self, ws, model):
        widest = max(q.max_span for q in model.queries())
        with pytest.raises(repro.ReproError, match="wider than"):
            ws.serve(model, window_span=widest - 1)


class TestVersion:
    def test_version_is_single_sourced(self):
        from repro._version import __version__ as underlying

        assert repro.__version__ == underlying
        assert repro.__version__.count(".") == 2

    def test_star_export_matches_documented_surface(self):
        exported = set(repro.__all__)
        required = {
            "Workspace",
            "BehaviorModel",
            "DetectionService",
            "QueryRegistry",
            "StreamingGraph",
            "Detection",
            "BehaviorQuery",
            "QueryEngine",
            "ArtifactError",
            "__version__",
        }
        assert required <= exported
        for name in exported:
            assert hasattr(repro, name), name
