"""Tests for the Appendix-M domain-knowledge ranking."""

from repro.core.miner import MinedPattern
from repro.core.pattern import TemporalPattern
from repro.core.ranking import (
    DEFAULT_BLACKLIST,
    InterestModel,
    rank_patterns,
    select_queries,
)

from conftest import build_graph


def make_corpus():
    return [
        build_graph([(0, 1, 0)], labels=["proc:x", "file:rare"]),
        build_graph([(0, 1, 0)], labels=["proc:x", "file:common"]),
        build_graph([(0, 1, 0)], labels=["proc:y", "file:common"]),
        build_graph([(0, 1, 0)], labels=["proc:y", "file:/tmp/scratch"]),
    ]


class TestInterestModel:
    def test_inverse_frequency(self):
        model = InterestModel.fit(make_corpus())
        assert model.label_interest("file:rare") == 1.0
        assert model.label_interest("file:common") == 0.5
        assert model.label_interest("proc:x") == 0.5

    def test_blacklisted_labels_zeroed(self):
        model = InterestModel.fit(make_corpus())
        assert model.label_interest("file:/tmp/scratch") == 0.0

    def test_unseen_labels_zero(self):
        model = InterestModel.fit(make_corpus())
        assert model.label_interest("file:never-seen") == 0.0

    def test_blacklist_case_insensitive(self):
        model = InterestModel.fit(
            [build_graph([(0, 1, 0)], labels=["proc:a", "file:TmpFile9"])]
        )
        assert model.label_interest("file:TmpFile9") == 0.0

    def test_memoized_values_equal_the_formula(self):
        model = InterestModel.fit(make_corpus())
        expected = {
            "file:/tmp/scratch": 0.0,  # blacklisted, though counted once
            "file:never-seen": 0.0,  # unseen
            "file:common": 1.0 / 2,  # counted in two graphs
        }
        for _ in range(3):  # the first read fills the memo, later ones hit it
            for label, value in expected.items():
                assert model.label_interest(label) == value
        assert model == InterestModel.fit(make_corpus())  # memo not compared
        assert "_interest" not in repr(model)

    def test_default_blacklist_covers_paper_examples(self):
        assert any("tmp" in item for item in DEFAULT_BLACKLIST)
        assert any("/proc/" in item for item in DEFAULT_BLACKLIST)

    def test_pattern_interest_sums_nodes(self):
        model = InterestModel.fit(make_corpus())
        p = TemporalPattern(("proc:x", "file:rare"), ((0, 1),))
        assert model.pattern_interest(p) == 1.5


class TestRanking:
    def mined(self, labels, edges, score=1.0):
        return MinedPattern(TemporalPattern(labels, edges), score, 1.0, 0.0)

    def test_rarer_labels_rank_first(self):
        model = InterestModel.fit(make_corpus())
        rare = self.mined(("proc:x", "file:rare"), ((0, 1),))
        common = self.mined(("proc:x", "file:common"), ((0, 1),))
        ranked = rank_patterns([common, rare], model)
        assert ranked[0] is rare

    def test_size_breaks_interest_ties(self):
        model = InterestModel.fit(make_corpus())
        small = self.mined(("proc:x", "file:common"), ((0, 1),))
        # same labels plus one more edge between the same nodes: same
        # node-interest sum, larger pattern wins.
        large = self.mined(("proc:x", "file:common"), ((0, 1), (0, 1)))
        ranked = rank_patterns([small, large], model)
        assert ranked[0] is large

    def test_select_queries_top_k(self):
        model = InterestModel.fit(make_corpus())
        mined = [
            self.mined(("proc:x", "file:rare"), ((0, 1),)),
            self.mined(("proc:x", "file:common"), ((0, 1),)),
            self.mined(("proc:y", "file:common"), ((0, 1),)),
        ]
        queries = select_queries(mined, model, top_k=2)
        assert len(queries) == 2
        assert queries[0].label_set() == {"proc:x", "file:rare"}

    def test_ranking_is_deterministic(self):
        model = InterestModel.fit(make_corpus())
        mined = [
            self.mined(("proc:x", "file:common"), ((0, 1),)),
            self.mined(("proc:y", "file:common"), ((0, 1),)),
        ]
        assert rank_patterns(mined, model) == rank_patterns(
            list(reversed(mined)), model
        )
