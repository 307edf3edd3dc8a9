"""End-to-end tests of the experiment harness (small scale)."""

import pytest

from repro.experiments.harness import (
    accuracy_for_behavior,
    formulate_nodeset_query,
    formulate_ntemp_queries,
    formulate_tgminer_queries,
    interest_model,
    mine_all_behaviors,
    mine_behavior,
    span_cap,
)
from repro.core.errors import DatasetError
from repro.core.miner import MinerConfig
from repro.core.parallel import mining_fingerprint
from repro.query.engine import QueryEngine
from repro.syscall import build_test_data, build_training_data


@pytest.fixture(scope="module")
def small_world():
    train = build_training_data(instances_per_behavior=6, background_graphs=12)
    test = build_test_data(instances=24)
    return train, test, QueryEngine(test.graph), interest_model(train)


class TestFormulation:
    def test_tgminer_queries(self, small_world):
        train, _test, _engine, model = small_world
        queries = formulate_tgminer_queries(
            train, "gzip-decompress", max_edges=4, max_seconds=15, model=model
        )
        assert 1 <= len(queries) <= 5
        assert all(q.num_edges <= 4 for q in queries)

    def test_ntemp_queries(self, small_world):
        train, _test, _engine, model = small_world
        queries = formulate_ntemp_queries(
            train, "gzip-decompress", max_edges=4, max_seconds=15, model=model
        )
        assert queries and all(q.max_span > 0 for q in queries)

    def test_nodeset_query(self, small_world):
        train, _test, _engine, _model = small_world
        query = formulate_nodeset_query(train, "gzip-decompress", k=6)
        assert query.size == 6
        assert "proc:gzip" in query.labels

    def test_span_cap_scales_lifetime(self, small_world):
        train, _test, _engine, _model = small_world
        assert span_cap(train, "gzip-decompress") > train.max_lifetime(
            "gzip-decompress"
        )

    def test_mine_behavior_stats(self, small_world):
        train, _test, _engine, _model = small_world
        result = mine_behavior(
            train, "bzip2-decompress", MinerConfig(max_edges=3, max_seconds=15)
        )
        assert result.stats.patterns_explored > 0
        assert result.best_score > 0


class TestBehaviorFanOut:
    BEHAVIORS = ("gzip-decompress", "bzip2-decompress", "wget-download")

    def test_fan_out_matches_serial_loop(self, small_world):
        train, _test, _engine, _model = small_world
        config = MinerConfig(max_edges=3, min_pos_support=0.7)
        serial = {
            name: mine_behavior(train, name, config) for name in self.BEHAVIORS
        }
        for workers in (1, 3):
            fanned = mine_all_behaviors(
                train, self.BEHAVIORS, config, workers=workers
            )
            assert list(fanned) == list(self.BEHAVIORS)
            for name in self.BEHAVIORS:
                assert mining_fingerprint(fanned[name]) == mining_fingerprint(
                    serial[name]
                ), f"{name} workers={workers}"

    def test_defaults_to_corpus_behaviors(self, small_world):
        train, _test, _engine, _model = small_world
        results = mine_all_behaviors(
            train, config=MinerConfig(max_edges=2, min_pos_support=0.7)
        )
        assert list(results) == list(train.config.behaviors)

    def test_unknown_behavior_rejected(self, small_world):
        train, _test, _engine, _model = small_world
        with pytest.raises(DatasetError):
            mine_all_behaviors(train, ("nmap-scan",))


class TestAccuracyEndToEnd:
    def test_easy_behavior_high_accuracy(self, small_world):
        train, test, engine, model = small_world
        row = accuracy_for_behavior(
            train,
            test,
            "bzip2-decompress",
            engine=engine,
            model=model,
            query_size=4,
            mining_seconds=20,
        )
        assert row.tgminer.precision >= 0.9
        assert row.tgminer.recall >= 0.9
        assert row.ntemp.precision >= 0.9
        assert row.nodeset.recall >= 0.5

    def test_confusable_behavior_orders_methods(self, small_world):
        train, test, engine, model = small_world
        row = accuracy_for_behavior(
            train,
            test,
            "scp-download",
            engine=engine,
            model=model,
            query_size=4,
            mining_seconds=20,
        )
        # the paper's headline: temporal queries dominate on the ssh family
        assert row.tgminer.precision >= row.ntemp.precision
        assert row.tgminer.precision >= row.nodeset.precision

    def test_method_subset(self, small_world):
        train, test, engine, model = small_world
        row = accuracy_for_behavior(
            train,
            test,
            "gzip-decompress",
            engine=engine,
            model=model,
            methods=("nodeset",),
            query_size=4,
        )
        assert row.nodeset is not None
        assert row.tgminer is None and row.ntemp is None
