"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mine_rejects_unknown_behavior(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mine", "--train", "x", "--behavior", "nmap"])

    def test_negative_workers_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["mine", "--train", "x", "--behavior", "sshd-login", "-j", "-1"]
            )


class TestCommands:
    def test_behaviors_lists_all(self, capsys):
        assert main(["behaviors"]) == 0
        out = capsys.readouterr().out
        assert "sshd-login" in out and "small:" in out

    def test_generate_then_mine_roundtrip(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert (
            main(
                [
                    "generate",
                    "--out",
                    str(corpus),
                    "--instances",
                    "4",
                    "--background",
                    "6",
                ]
            )
            == 0
        )
        assert (corpus / "gzip-decompress.jsonl").exists()
        assert (corpus / "background.jsonl").exists()
        assert (
            main(
                [
                    "mine",
                    "--train",
                    str(corpus),
                    "--behavior",
                    "gzip-decompress",
                    "--max-edges",
                    "3",
                    "--max-seconds",
                    "20",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "best score" in out
        assert "t=1:" in out

    def test_mine_missing_corpus_errors(self, tmp_path, capsys):
        code = main(
            ["mine", "--train", str(tmp_path), "--behavior", "gzip-decompress"]
        )
        assert code == 2
        assert "missing" in capsys.readouterr().err


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert (
        main(["generate", "--out", str(root), "--instances", "4", "--background", "6"])
        == 0
    )
    return root


@pytest.fixture(scope="module")
def packed_queries(corpus, tmp_path_factory):
    """``queries.jsonl`` of a mined bundle unpacked by ``repro pack``."""
    root = tmp_path_factory.mktemp("packed")
    bundle = root / "model.tgm"
    assert (
        main(
            [
                "mine",
                "--train",
                str(corpus),
                "--behavior",
                "gzip-decompress",
                "--max-edges",
                "3",
                "--save-model",
                str(bundle),
            ]
        )
        == 0
    )
    assert main(["pack", str(bundle), str(root / "bundle")]) == 0
    return root / "bundle" / "queries.jsonl"


class TestWorkers:
    def test_mine_parallel_matches_serial_output(self, corpus, capsys):
        args = [
            "mine",
            "--train",
            str(corpus),
            "--behavior",
            "gzip-decompress",
            "--max-edges",
            "3",
        ]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["-j", "2"]) == 0
        parallel_out = capsys.readouterr().out
        # identical mined patterns; only the stats line may differ
        assert serial_out.split("\n\n", 1)[1] == parallel_out.split("\n\n", 1)[1]
        assert "(2 workers)" in parallel_out
        # -j 0 = one worker per CPU, mirroring `experiment -j 0`
        assert main(args + ["-j", "0"]) == 0
        cpu_out = capsys.readouterr().out
        assert serial_out.split("\n\n", 1)[1] == cpu_out.split("\n\n", 1)[1]


class TestProfile:
    def test_mine_profile_prints_hotspots(self, corpus, capsys):
        assert (
            main(
                [
                    "mine",
                    "--train",
                    str(corpus),
                    "--behavior",
                    "gzip-decompress",
                    "--max-edges",
                    "3",
                    "--profile",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # normal mining report first, then the profile table
        assert "best score" in out
        assert "cProfile: top 20 by cumulative time" in out
        assert "cumtime" in out

    def test_detect_profile_prints_hotspots(self, packed_queries, capsys):
        assert (
            main(
                [
                    "detect",
                    "--queries",
                    str(packed_queries),
                    "--instances",
                    "2",
                    "--profile",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "detections:" in out
        assert "cProfile: top 20 by cumulative time" in out


class TestDetect:
    def test_pack_queries_then_detect(self, packed_queries, tmp_path, capsys):
        queries = packed_queries
        assert queries.exists()
        out_json = tmp_path / "detect.json"
        log = tmp_path / "log.jsonl"
        assert (
            main(
                [
                    "detect",
                    "--queries",
                    str(queries),
                    "--instances",
                    "3",
                    "--batch-size",
                    "64",
                    "--save-log",
                    str(log),
                    "--json",
                    str(out_json),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "events/s" in out and "detections" in out
        import json

        payload = json.loads(out_json.read_text())
        assert payload["kind"] == "service"
        assert payload["queries"] >= 1
        assert payload["stats"]["kind"] == "service"
        assert payload["stats"]["batches"] >= 1
        assert payload["stats"]["events_per_second"] > 0
        assert "gzip-decompress#1" in payload["per_query"]
        # the saved log replays identically through --log
        assert (
            main(
                [
                    "detect",
                    "--queries",
                    str(queries),
                    "--log",
                    str(log),
                    "--batch-size",
                    "64",
                ]
            )
            == 0
        )
        replay_out = capsys.readouterr().out
        first_detections = out.split("detections:")[1].split("wrote")[0]
        assert replay_out.split("detections:")[1] == first_detections

    def test_detect_fleet_json_roundtrip(self, tmp_path, capsys):
        import json

        queries = tmp_path / "q.jsonl"
        queries.write_text(
            '{"name": "q", "labels": ["A", "B"], "edges": [[0, 1]], "max_span": 5}\n'
        )
        out_json = tmp_path / "fleet.json"
        assert (
            main(
                [
                    "detect",
                    "--queries",
                    str(queries),
                    "--instances",
                    "1",
                    "--tenants",
                    "3",
                    "--shards",
                    "2",
                    "--batch-size",
                    "64",
                    "--json",
                    str(out_json),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fleet: 2 shard(s) [inline], 3 tenant(s)" in out
        payload = json.loads(out_json.read_text())
        assert payload["kind"] == "fleet"
        from repro.serving.service import STATS_SCHEMA_KEYS

        stats = payload["stats"]
        assert set(STATS_SCHEMA_KEYS) <= set(stats)
        assert stats["shards"] == 2
        assert stats["tenants"] == 3
        assert len(stats["per_shard"]) == 2
        assert stats["events"] == sum(s["events"] for s in stats["per_shard"])

    def test_detect_fleet_rejects_zero_shards(self, tmp_path, capsys):
        queries = tmp_path / "q.jsonl"
        queries.write_text(
            '{"name": "q", "labels": ["A", "B"], "edges": [[0, 1]], "max_span": 5}\n'
        )
        code = main(
            ["detect", "--queries", str(queries), "--instances", "1", "--shards", "0"]
        )
        assert code == 2
        assert "--shards" in capsys.readouterr().err

    def test_detect_missing_queries_errors(self, tmp_path, capsys):
        code = main(
            ["detect", "--queries", str(tmp_path / "none.jsonl"), "--instances", "2"]
        )
        assert code == 2
        assert "missing" in capsys.readouterr().err

    def test_detect_missing_log_errors(self, tmp_path, capsys):
        queries = tmp_path / "q.jsonl"
        queries.write_text(
            '{"name": "q", "labels": ["A", "B"], "edges": [[0, 1]], "max_span": 5}\n'
        )
        code = main(
            ["detect", "--queries", str(queries), "--log", str(tmp_path / "no.jsonl")]
        )
        assert code == 2
        assert "missing" in capsys.readouterr().err

    def test_detect_requires_a_source(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect", "--queries", "q.jsonl"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "--queries", "q.jsonl", "--instances", "4"],
            ["serve", "--http", "127.0.0.1:0", "--model", "m.tgm"],
        ],
        ids=["detect", "serve"],
    )
    def test_registry_prefilter_has_no_switch(self, argv):
        build_parser().parse_args(argv)
        for flag in ("--index", "--no-index"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([*argv, flag])


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out


class TestModelBundles:
    @pytest.fixture(scope="class")
    def bundle(self, corpus, tmp_path_factory):
        path = tmp_path_factory.mktemp("model") / "model.tgm"
        assert (
            main(
                [
                    "mine",
                    "--train",
                    str(corpus),
                    "--behavior",
                    "gzip-decompress",
                    "--max-edges",
                    "3",
                    "--save-model",
                    str(path),
                ]
            )
            == 0
        )
        return path

    def test_mine_save_model_writes_bundle(self, bundle, capsys):
        assert bundle.exists()

    def test_inspect_reports_manifest(self, bundle, capsys):
        assert main(["inspect", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "BehaviorModel schema v1" in out
        assert "gzip-decompress" in out
        assert "span cap" in out

    def test_pack_roundtrip_preserves_model(self, bundle, tmp_path, capsys):
        unpacked = tmp_path / "unpacked"
        assert main(["pack", str(bundle), str(unpacked)]) == 0
        assert "re-packed" in capsys.readouterr().out
        assert (unpacked / "manifest.json").exists()
        rezipped = tmp_path / "again.tgm"
        assert main(["pack", str(unpacked), str(rezipped)]) == 0
        assert rezipped.read_bytes() == bundle.read_bytes()

    def test_detect_model_matches_detect_queries(
        self, bundle, packed_queries, capsys
    ):
        queries = packed_queries
        args = ["--instances", "3", "--batch-size", "64"]
        assert main(["detect", "--model", str(bundle)] + args) == 0
        model_out = capsys.readouterr().out
        assert main(["detect", "--queries", str(queries)] + args) == 0
        queries_out = capsys.readouterr().out
        assert model_out.split("detections:")[1] == queries_out.split("detections:")[1]

    def test_detect_empty_model_errors(self, tmp_path, capsys):
        from repro import BehaviorModel, MinerConfig

        empty = tmp_path / "empty.tgm"
        BehaviorModel(config=MinerConfig(), records={}, labels=()).save(empty)
        code = main(["detect", "--model", str(empty), "--instances", "2"])
        assert code == 2
        assert "no queries" in capsys.readouterr().err

    def test_detect_missing_model_errors(self, tmp_path, capsys):
        code = main(
            [
                "detect",
                "--model",
                str(tmp_path / "none.tgm"),
                "--instances",
                "2",
            ]
        )
        assert code == 2
        assert "no such model bundle" in capsys.readouterr().err

    def test_inspect_corrupt_bundle_errors(self, tmp_path, capsys):
        stray = tmp_path / "stray.tgm"
        stray.write_text("not a zip")
        assert main(["inspect", str(stray)]) == 2
        assert "not a model bundle" in capsys.readouterr().err

    def test_detect_rejects_model_and_queries_together(self, bundle):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "detect",
                    "--model",
                    str(bundle),
                    "--queries",
                    "q.jsonl",
                    "--instances",
                    "2",
                ]
            )


class TestExperiment:
    def test_experiment_all_behaviors(self, corpus, capsys, tmp_path):
        out_json = tmp_path / "exp.json"
        bundle = tmp_path / "exp-model"
        assert (
            main(
                [
                    "experiment",
                    "--train",
                    str(corpus),
                    "--behaviors",
                    "gzip-decompress",
                    "bzip2-decompress",
                    "--max-edges",
                    "3",
                    "-j",
                    "2",
                    "--json",
                    str(out_json),
                    "--save-model",
                    str(bundle),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "gzip-decompress" in out and "bzip2-decompress" in out
        assert "mined 2 behaviors" in out
        import json

        payload = json.loads(out_json.read_text())
        assert set(payload["behaviors"]) == {"gzip-decompress", "bzip2-decompress"}
        assert payload["behaviors"]["gzip-decompress"]["best_score"] > 0
        # the saved multi-behavior bundle is inspectable
        assert main(["inspect", str(bundle)]) == 0
        inspect_out = capsys.readouterr().out
        assert "2 behaviors" in inspect_out

    def test_experiment_discovers_corpus_behaviors(self, corpus, capsys):
        assert (
            main(["experiment", "--train", str(corpus), "--max-edges", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "sshd-login" in out

    def test_experiment_missing_corpus_errors(self, tmp_path, capsys):
        assert main(["experiment", "--train", str(tmp_path)]) == 2
        assert "missing" in capsys.readouterr().err


class TestErrorPaths:
    """Filesystem failures exit 2 with an error line, never a traceback."""

    def check(self, capsys, argv, fragment):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert fragment in err
        assert "Traceback" not in err
        return err

    def test_detect_missing_model_bundle(self, capsys):
        self.check(
            capsys,
            ["detect", "--model", "/nonexistent/x.tgm", "--instances", "3"],
            "no such model bundle",
        )

    def test_serve_missing_model_bundle(self, capsys):
        self.check(
            capsys,
            ["serve", "--http", "127.0.0.1:0", "--model", "/nonexistent/x.tgm"],
            "no such model bundle",
        )

    def test_serve_unopenable_registry(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("occupied")  # a file where the registry dir must go
        self.check(
            capsys,
            ["serve", "--http", "127.0.0.1:0", "--registry", str(blocker)],
            "cannot open model registry",
        )

    def test_serve_malformed_http_address(self, tmp_path, capsys):
        from conftest import make_behavior_model

        bundle = make_behavior_model().save(tmp_path / "m.tgm")
        self.check(
            capsys,
            ["serve", "--http", "nocolon", "--model", str(bundle)],
            "HOST:PORT",
        )

    def test_serve_needs_model_or_registry(self, capsys):
        self.check(
            capsys,
            ["serve", "--http", "127.0.0.1:0"],
            "--model and/or --registry",
        )

    def test_serve_empty_registry_without_model(self, tmp_path, capsys):
        self.check(
            capsys,
            ["serve", "--http", "127.0.0.1:0", "--registry", str(tmp_path / "reg")],
            "empty",
        )

    def test_pack_unwritable_bundle_path(self, tmp_path, capsys):
        from conftest import make_behavior_model

        model = make_behavior_model()
        blocker = tmp_path / "blocker"
        blocker.write_text("occupied")
        from repro.core.errors import ArtifactError

        with pytest.raises(ArtifactError, match="cannot write model bundle"):
            model.save(blocker / "out.tgm")  # parent is a file, not a dir


class TestCorpusStoreCLI:
    @pytest.fixture(scope="class")
    def store_path(self, corpus, tmp_path_factory):
        path = tmp_path_factory.mktemp("store") / "corpus.store"
        assert (
            main(["corpus", "build", "--train", str(corpus), "--out", str(path)])
            == 0
        )
        return path

    def test_build_reports_totals(self, corpus, store_path, capsys):
        assert store_path.exists()
        # rebuilding without --overwrite refuses; with it, succeeds
        code = main(
            ["corpus", "build", "--train", str(corpus), "--out", str(store_path)]
        )
        assert code == 2
        assert "already exists" in capsys.readouterr().err

    def test_info_and_verify(self, store_path, tmp_path, capsys):
        out_json = tmp_path / "info.json"
        assert (
            main(
                [
                    "corpus",
                    "info",
                    str(store_path),
                    "--verify",
                    "--json",
                    str(out_json),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "schema v1" in out
        assert "gzip-decompress" in out
        assert "checksums: OK" in out
        import json

        payload = json.loads(out_json.read_text())
        assert payload["schema_version"] == 1
        assert payload["behaviors"]["gzip-decompress"] == 4
        assert payload["background_graphs"] == 6

    def test_export_round_trips_bytes(self, corpus, store_path, tmp_path, capsys):
        out = tmp_path / "exported"
        assert main(["corpus", "export", str(store_path), "--out", str(out)]) == 0
        assert "exported" in capsys.readouterr().out
        for src in sorted(corpus.glob("*.jsonl")):
            assert (out / src.name).read_bytes() == src.read_bytes()

    def test_mine_corpus_matches_mine_train(self, corpus, store_path, capsys):
        base = ["--behavior", "gzip-decompress", "--max-edges", "3"]
        assert main(["mine", "--train", str(corpus)] + base) == 0
        train_out = capsys.readouterr().out
        assert main(["mine", "--corpus", str(store_path)] + base) == 0
        corpus_out = capsys.readouterr().out
        # identical mined patterns; only the stats line may differ
        assert train_out.split("\n\n", 1)[1] == corpus_out.split("\n\n", 1)[1]

    def test_detect_store_matches_detect_log(
        self, corpus, store_path, tmp_path, capsys
    ):
        bundle = tmp_path / "model.tgm"
        assert (
            main(
                [
                    "mine",
                    "--corpus",
                    str(store_path),
                    "--behavior",
                    "gzip-decompress",
                    "--max-edges",
                    "3",
                    "--save-model",
                    str(bundle),
                ]
            )
            == 0
        )
        log = tmp_path / "log.jsonl"
        args = ["detect", "--model", str(bundle), "--batch-size", "64"]
        assert main(args + ["--instances", "3", "--save-log", str(log)]) == 0
        live_out = capsys.readouterr().out
        with_log = tmp_path / "with-log.store"
        assert (
            main(
                [
                    "corpus",
                    "build",
                    "--log",
                    str(log),
                    "--out",
                    str(with_log),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(args + ["--store", str(with_log)]) == 0
        store_out = capsys.readouterr().out
        assert store_out.split("detections:")[1] == live_out.split(
            "detections:"
        )[1].split("wrote")[0]

    def test_build_requires_an_input(self, tmp_path, capsys):
        code = main(["corpus", "build", "--out", str(tmp_path / "x.store")])
        assert code == 2
        assert "--train and/or --log" in capsys.readouterr().err

    def test_mine_requires_one_source(self, corpus, store_path, capsys):
        code = main(["mine", "--behavior", "gzip-decompress"])
        assert code == 2
        assert "exactly one" in capsys.readouterr().err
        code = main(
            [
                "mine",
                "--train",
                str(corpus),
                "--corpus",
                str(store_path),
                "--behavior",
                "gzip-decompress",
            ]
        )
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_info_missing_store_errors(self, tmp_path, capsys):
        assert main(["corpus", "info", str(tmp_path / "no.store")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "missing" in err

    def test_detect_store_without_events_errors(self, store_path, tmp_path, capsys):
        from conftest import make_behavior_model

        bundle = make_behavior_model().save(tmp_path / "m.tgm")
        code = main(["detect", "--model", str(bundle), "--store", str(store_path)])
        assert code == 2
        assert "no event logs" in capsys.readouterr().err

    def test_detect_range_flags_require_store(self, tmp_path, capsys):
        from conftest import make_behavior_model

        bundle = make_behavior_model().save(tmp_path / "m.tgm")
        code = main(
            ["detect", "--model", str(bundle), "--instances", "1", "--start", "5"]
        )
        assert code == 2
        assert "--store" in capsys.readouterr().err
