"""TGMiner: discriminative temporal graph pattern mining (paper Sections 3-4).

Given positive and negative sets of temporal graphs, :class:`TGMiner`
performs a repetition-free depth-first search of the T-connected pattern
space via consecutive growth, scoring every pattern with a partially
(anti-)monotone discriminative function and pruning unpromising branches
with:

* the naive frequency upper bound ``F(freq(Gp, g), 0)`` (Section 4.1);
* **subgraph pruning** (Lemma 4) — the reached pattern is a temporal
  subgraph of an earlier, fully-explored pattern with an identical
  positive residual-graph set whose leftover node labels cannot occur in
  future growth;
* **supergraph pruning** (Proposition 2) — the reached pattern is a
  temporal supergraph (same node count) of an earlier pattern with
  identical positive *and* negative residual-graph sets.

Residual-set equivalence uses the Lemma 6 integer compression by default;
temporal subgraph tests default to the sequence/subsequence algorithm.
Setting the corresponding :class:`MinerConfig` fields reproduces the five
efficiency baselines of Section 6.3 (``SubPrune``, ``SupPrune``,
``PruneGI``, ``PruneVF2``, ``LinearScan``) — see :func:`miner_variant`.

Every run has one data path: it reads each graph's cached
:class:`~repro.core.kernel.GraphKernel` (built once per process, over the
process-wide interner, so a background graph mined against many
behaviors is flattened once), enumerates seeds from each graph's
one-edge label-pair index, grows embeddings over the kernels' CSR runs
and reads residual label sets from the kernels' interned suffix sets.

A run stops as soon as its answer is final: once the best score reaches
``F(1, 0)``, which no score exceeds, and the co-optimal list holds
:attr:`MinerConfig.max_best_patterns` patterns, no pattern left can
change ``best``, so the search ends there (``MiningStats.stopped_final``)
instead of exploring what could at most tie a full list.

The pruning history indexes only entries that can prune: one whose
branch bound reached ``F(1, 0)``, which no best score exceeds, is
counted (``MiningStats.saturated_entries``) instead.  Residual-set
equivalence in integer mode is the history key itself.  The cyclic
collector is paused for the search and restored once the history is
freed: the search leaves no reference cycle, so a collection during it
would only walk the live history.

The growth loop's hot path is the subgraph-isomorphism tests issued by
the two prunings.  With :attr:`MinerConfig.index_prefilter` (default on)
the run owns a :class:`~repro.core.graph_index.CandidateFilter`: every
reached pattern's exact label-signature bitmask
(:meth:`~repro.core.graph_index.CandidateFilter.pattern_mask`) is
computed once and kept on its history entry, and the pruning loops test
``small_mask & ~big_mask`` inline, after the tester's size check, so
candidate pairs whose node-label or edge-label-pair multisets cannot
nest never reach a tester (``MiningStats.index_prefilter_checks`` /
``index_prefilter_skips``).  The VF2 tester seeds candidates from the
filter's label index.  The prefilter only rejects tests that would
provably fail, so mined pattern sets and every other counter are
identical with it on or off — ``index_prefilter=False`` (CLI
``--no-index``) disables it, and :func:`miner_variant` always disables
it for the five paper baselines so their reproduced cost profiles stay
faithful.
"""

from __future__ import annotations

import gc
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import Sequence

from repro.core.errors import MiningError
from repro.core.graph import TemporalGraph
from repro.core.graph_index import CandidateFilter, GraphIndexTester
from repro.core.kernel import PROCESS_INTERNER, build_kernels
from repro.core.growth import (
    EmbeddingTable,
    child_pattern,
    extend_embeddings,
    seed_patterns,
    sort_extension_keys,
)
from repro.core.pattern import TemporalPattern
from repro.core.residual import ResidualSummary, linear_scan_equal, summarize_residuals
from repro.core.scoring import ScoreFunction, resolve_score
from repro.core.subgraph import SequenceSubgraphTester
from repro.core.vf2 import VF2SubgraphTester

__all__ = [
    "MinerConfig",
    "MinedPattern",
    "MiningStats",
    "MiningResult",
    "TGMiner",
    "miner_variant",
    "split_seed_table",
    "VARIANT_NAMES",
]

NEG_INF = float("-inf")


@dataclass(frozen=True)
class MinerConfig:
    """Tuning knobs and baseline switches for a mining run.

    Attributes
    ----------
    max_edges:
        Cap on pattern size (the "size of the largest patterns that are
        allowed to explore" swept in Figure 14).
    min_pos_support:
        Minimum fraction of positive graphs a pattern must occur in; the
        paper's behaviors repeat across 100 controlled runs, so useful
        query skeletons occur in most positive graphs.
    score:
        Discriminative score function name or instance (Problem 1).
    upper_bound_pruning:
        Apply the naive Section 4.1 bound (all variants do).
    subgraph_pruning / supergraph_pruning:
        The Lemma 4 / Proposition 2 prunings.
    subgraph_test:
        ``"sequence"`` (TGMiner), ``"vf2"`` (PruneVF2) or ``"gi"``
        (PruneGI) temporal subgraph test implementation.
    residual_equivalence:
        ``"integer"`` (Lemma 6 compression) or ``"linear"`` (LinearScan
        baseline).
    index_prefilter:
        Pretest candidate subgraph-test pairs by exact label-signature
        containment (a :class:`~repro.core.graph_index.CandidateFilter`
        bitmask) before calling the tester (sound pruning only; results
        are identical either way).
    max_best_patterns:
        Cap on retained co-optimal patterns (ties can be numerous).  It
        also ends the search: once the best score reaches ``F(1, 0)``
        and the list holds this many patterns, nothing left can change
        it.  A cap above any reachable count (e.g. ``sys.maxsize``)
        gives the exhaustive search, whose exploration counters the
        efficiency benchmarks report.
    max_seconds:
        Soft wall-clock budget; exploration stops and the result is
        flagged ``timed_out`` when exceeded.
    """

    max_edges: int = 6
    min_pos_support: float = 0.5
    score: str | ScoreFunction = "log-ratio"
    upper_bound_pruning: bool = True
    subgraph_pruning: bool = True
    supergraph_pruning: bool = True
    subgraph_test: str = "sequence"
    residual_equivalence: str = "integer"
    index_prefilter: bool = True
    max_best_patterns: int = 64
    max_seconds: float | None = None

    def validate(self) -> None:
        """Raise :class:`MiningError` on invalid settings."""
        if self.max_edges < 1:
            raise MiningError("max_edges must be >= 1")
        if not (0.0 <= self.min_pos_support <= 1.0):
            raise MiningError("min_pos_support must be within [0, 1]")
        if self.subgraph_test not in ("sequence", "vf2", "gi"):
            raise MiningError(f"unknown subgraph_test {self.subgraph_test!r}")
        if self.residual_equivalence not in ("integer", "linear"):
            raise MiningError(
                f"unknown residual_equivalence {self.residual_equivalence!r}"
            )

    def to_dict(self) -> dict:
        """JSON-compatible form (model-bundle manifests persist this).

        A :class:`ScoreFunction` instance collapses to its registry name,
        so a round-tripped config always scores identically.
        """
        payload = asdict(self)
        if isinstance(self.score, ScoreFunction):
            payload["score"] = self.score.name
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "MinerConfig":
        """Rebuild a validated config from :meth:`to_dict` output."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise MiningError(f"unknown MinerConfig fields: {', '.join(unknown)}")
        config = cls(**payload)
        config.validate()
        return config


@dataclass(frozen=True)
class MinedPattern:
    """A scored pattern in a mining result."""

    pattern: TemporalPattern
    score: float
    pos_freq: float
    neg_freq: float


@dataclass
class MiningStats:
    """Instrumentation counters backing the efficiency experiments.

    ``saturated_entries`` counts the explored patterns whose branch bound
    reached the maximum score ``F(1, 0)``: no best score exceeds it, so
    neither pruning could ever fire on them and the pruning history does
    not index them.  ``stopped_final`` is 1 when the search stopped
    because its answer was final (best score ``F(1, 0)`` and a full
    co-optimal list), else 0.  Unlike a timeout, that stop leaves
    ``best`` exactly as the exhaustive search finds it.
    """

    patterns_explored: int = 0
    subgraph_pruning_triggers: int = 0
    supergraph_pruning_triggers: int = 0
    upper_bound_prunes: int = 0
    subgraph_tests: int = 0
    index_prefilter_skips: int = 0
    index_prefilter_checks: int = 0
    residual_equivalence_tests: int = 0
    saturated_entries: int = 0
    stopped_final: int = 0
    elapsed_seconds: float = 0.0
    timed_out: bool = False

    def subgraph_trigger_rate(self) -> float:
        """Fraction of processed patterns pruned by subgraph pruning (Table 3)."""
        if self.patterns_explored == 0:
            return 0.0
        return self.subgraph_pruning_triggers / self.patterns_explored

    def supergraph_trigger_rate(self) -> float:
        """Fraction of processed patterns pruned by supergraph pruning (Table 3)."""
        if self.patterns_explored == 0:
            return 0.0
        return self.supergraph_pruning_triggers / self.patterns_explored


@dataclass
class MiningResult:
    """Outcome of one mining run."""

    best_score: float
    best: list[MinedPattern]
    best_by_size: dict[int, MinedPattern]
    stats: MiningStats

    def top(self, k: int = 5) -> list[MinedPattern]:
        """First ``k`` co-optimal patterns (use ranking for a better order)."""
        return self.best[:k]


def split_seed_table(
    table: EmbeddingTable, n_pos: int
) -> tuple[EmbeddingTable, EmbeddingTable]:
    """Split one seed's embedding table into positive/negative halves.

    :func:`repro.core.growth.seed_patterns` enumerates seeds over the
    concatenated ``positives + negatives`` list, so graph ids below
    ``n_pos`` are positive and the rest are negatives re-based to 0.
    """
    pos = {g: e for g, e in table.items() if g < n_pos}
    neg = {g - n_pos: e for g, e in table.items() if g >= n_pos}
    return pos, neg


@dataclass
class _HistoryEntry:
    """A fully-explored pattern retained for pruning lookups.

    Only patterns whose branch bound is below ``F(1, 0)`` are retained.
    ``mask`` is the pattern's label-signature bitmask (``0`` without a
    candidate filter).
    """

    pattern: TemporalPattern
    mask: int
    num_nodes: int
    num_edges: int
    pos_residuals: ResidualSummary
    neg_residuals: ResidualSummary
    branch_upper_bound: float


class TGMiner:
    """Discriminative temporal graph pattern miner.

    Typical use::

        result = TGMiner(MinerConfig(max_edges=6)).mine(positives, negatives)
        for mined in result.best:
            print(mined.score, mined.pattern.describe())
    """

    def __init__(self, config: MinerConfig | None = None) -> None:
        self.config = config or MinerConfig()
        self.config.validate()

    # ------------------------------------------------------------------
    def mine(
        self,
        positives: Sequence[TemporalGraph],
        negatives: Sequence[TemporalGraph],
    ) -> MiningResult:
        """Mine the most discriminative T-connected temporal patterns."""
        self.config.validate()
        if not positives:
            raise MiningError("positive graph set must not be empty")
        for graph in list(positives) + list(negatives):
            if not graph.frozen:
                graph.freeze()
        # The search allocates hundreds of thousands of objects and
        # leaves no reference cycle, so collections during it find
        # nothing.  The run is a temporary: it and its pruning history
        # are freed by reference counting before the collector resumes,
        # so the collector never walks the history.  Only a run that
        # found it enabled re-enables it, so runs in concurrent threads
        # may resume it early but never leave it off.
        collecting = gc.isenabled()
        gc.disable()
        try:
            return _MiningRun(self.config, positives, negatives).execute()
        finally:
            if collecting:
                gc.enable()


class _MiningRun:
    """Single-use mutable state for one call to :meth:`TGMiner.mine`."""

    def __init__(
        self,
        config: MinerConfig,
        positives: Sequence[TemporalGraph],
        negatives: Sequence[TemporalGraph],
    ) -> None:
        self.config = config
        self.positives = positives
        self.negatives = negatives
        # The run's data plane: the graphs' cached kernels, all interned
        # through the one process-wide interner, so residual label-id
        # sets union/intersect across positives and negatives (a spawned
        # fan-out worker builds its own — TemporalGraph never pickles
        # its kernel cache).
        self.pos_kernels = build_kernels(positives)
        self.neg_kernels = build_kernels(negatives)
        self.n_pos = len(positives)
        self.n_neg = max(len(negatives), 1)
        self.score_fn = resolve_score(config.score, self.n_pos, self.n_neg)
        self.stats = MiningStats()
        self.best_score = NEG_INF
        self.best: list[MinedPattern] = []
        self.best_by_size: dict[int, MinedPattern] = {}
        self.filter = CandidateFilter() if config.index_prefilter else None
        self.tester = self._make_tester()
        self.linear = config.residual_equivalence == "linear"
        # no score exceeds F(1, 0): a branch bound at or above it never
        # lets an entry prune, so the history does not index it
        self.saturated = self.score_fn.upper_bound(1.0)
        # History indexes.  Integer mode keys them by the residual
        # integers themselves, so every entry under a key passes the
        # residual test; linear mode keys them by residual-set sizes.
        self.sub_index: dict[object, list[_HistoryEntry]] = {}
        self.super_index: dict[object, list[_HistoryEntry]] = {}
        self.deadline = (
            time.perf_counter() + config.max_seconds
            if config.max_seconds is not None
            else None
        )

    def _make_tester(self):
        if self.config.subgraph_test == "sequence":
            return SequenceSubgraphTester()
        if self.config.subgraph_test == "vf2":
            return VF2SubgraphTester(label_index=self.filter)
        return GraphIndexTester()

    # ------------------------------------------------------------------
    def finalize(self, started: float) -> MiningResult:
        """Rank co-optimals and build the result."""
        self.stats.elapsed_seconds = time.perf_counter() - started
        self.best.sort(key=lambda m: (m.pattern.num_edges, str(m.pattern.key())))
        return MiningResult(
            best_score=self.best_score,
            best=self.best,
            best_by_size=self.best_by_size,
            stats=self.stats,
        )

    def execute(self) -> MiningResult:
        started = time.perf_counter()
        seeds = seed_patterns(list(self.positives) + list(self.negatives))
        min_count = self.config.min_pos_support * self.n_pos
        for src_label, dst_label in sorted(seeds):
            table = seeds[(src_label, dst_label)]
            # cheap support pre-check before materializing the split
            if sum(1 for gid in table if gid < self.n_pos) < min_count:
                continue
            pos_embs, neg_embs = split_seed_table(table, self.n_pos)
            pattern = TemporalPattern.single_edge(src_label, dst_label)
            self._dfs(pattern, pos_embs, neg_embs)
            if self._stop():
                break
        return self.finalize(started)

    # ------------------------------------------------------------------
    def _dfs(
        self,
        pattern: TemporalPattern,
        pos_embs: EmbeddingTable,
        neg_embs: EmbeddingTable,
    ) -> float:
        """Explore ``pattern``'s branch; return an upper bound on its best score."""
        self.stats.patterns_explored += 1
        pos_freq = len(pos_embs) / self.n_pos
        neg_freq = len(neg_embs) / self.n_neg
        score = self.score_fn.score(pos_freq, neg_freq)
        self._record(pattern, score, pos_freq, neg_freq)
        mask = self.filter.pattern_mask(pattern) if self.filter is not None else 0

        pos_res = summarize_residuals(
            self.pos_kernels, pos_embs, keep_cut_pairs=self.linear
        )
        neg_res = summarize_residuals(
            self.neg_kernels, neg_embs, keep_cut_pairs=self.linear, with_labels=False
        )

        branch_ub = score
        pruned_ub = None
        if self.config.subgraph_pruning:
            pruned_ub = self._try_subgraph_pruning(pattern, mask, pos_res)
            if pruned_ub is not None:
                self.stats.subgraph_pruning_triggers += 1
        if pruned_ub is None and self.config.supergraph_pruning:
            pruned_ub = self._try_supergraph_pruning(pattern, mask, pos_res, neg_res)
            if pruned_ub is not None:
                self.stats.supergraph_pruning_triggers += 1

        if pruned_ub is not None:
            branch_ub = max(branch_ub, pruned_ub)
        else:
            grow = pattern.num_edges < self.config.max_edges
            if grow and self.config.upper_bound_pruning:
                if self.score_fn.upper_bound(pos_freq) < self.best_score:
                    self.stats.upper_bound_prunes += 1
                    grow = False
            if grow and not self._stop():
                branch_ub = max(
                    branch_ub, self._grow_children(pattern, pos_embs, neg_embs)
                )
        self._remember(pattern, mask, pos_res, neg_res, branch_ub)
        return branch_ub

    def _grow_children(
        self,
        pattern: TemporalPattern,
        pos_embs: EmbeddingTable,
        neg_embs: EmbeddingTable,
    ) -> float:
        pos_ext = extend_embeddings(self.positives, pos_embs, self.pos_kernels)
        neg_ext = extend_embeddings(self.negatives, neg_embs, self.neg_kernels)
        min_count = self.config.min_pos_support * self.n_pos
        # drop unsupported children before sorting: most keys fall short
        supported = [key for key, emb in pos_ext.items() if len(emb) >= min_count]
        branch_ub = NEG_INF
        for key in sort_extension_keys(supported):
            child = child_pattern(pattern, key)
            child_ub = self._dfs(child, pos_ext[key], neg_ext.get(key, {}))
            branch_ub = max(branch_ub, child_ub)
            if self._stop():
                break
        return branch_ub

    # ------------------------------------------------------------------
    # pruning
    # ------------------------------------------------------------------
    def _try_subgraph_pruning(
        self, pattern: TemporalPattern, mask: int, pos_res: ResidualSummary
    ) -> float | None:
        """Lemma 4: return the pruned branch's score bound, or ``None``.

        With a candidate filter, a candidate pair reaches the tester only
        if it passes the tester's own size check and the exact label
        pretest: ``pattern``'s mask must be covered by the entry's.
        """
        stats = self.stats
        filtered = self.filter is not None
        linear = self.linear
        best_score = self.best_score
        num_nodes = pattern.num_nodes
        num_edges = pattern.num_edges
        key = self._sub_key(pos_res)
        for entry in self.sub_index.get(key, ()):  # discovered before `pattern`
            if entry.branch_upper_bound >= best_score:
                continue
            if entry.num_edges < num_edges:
                continue
            # the residual test; in integer mode the key already passed it
            stats.residual_equivalence_tests += 1
            if linear and not linear_scan_equal(
                pos_res.cut_pairs, entry.pos_residuals.cut_pairs
            ):
                continue
            stats.subgraph_tests += 1
            if filtered:
                # the tester's size check (the edge count passed above)
                if num_nodes > entry.num_nodes:
                    continue
                stats.index_prefilter_checks += 1
                if mask & ~entry.mask:
                    stats.index_prefilter_skips += 1
                    continue
            mapping = self.tester.mapping(pattern, entry.pattern)
            if mapping is None:
                continue
            mapped = set(mapping)
            # residual label sets carry interned ids (the kernels'
            # suffix sets); a pattern label the process never interned
            # cannot occur in any residual graph, so unknown ids drop out
            id_of = PROCESS_INTERNER.id_of
            leftover_ids = set()
            for n in range(entry.num_nodes):
                if n not in mapped:
                    lid = id_of(entry.pattern.label(n))
                    if lid is not None:
                        leftover_ids.add(lid)
            if leftover_ids & pos_res.label_set:
                continue
            return entry.branch_upper_bound
        return None

    def _try_supergraph_pruning(
        self,
        pattern: TemporalPattern,
        mask: int,
        pos_res: ResidualSummary,
        neg_res: ResidualSummary,
    ) -> float | None:
        """Proposition 2: return the pruned branch's score bound, or ``None``.

        The candidate filter pretests as in :meth:`_try_subgraph_pruning`
        with the roles swapped; the tester's size check always passes
        here (the key fixes the node count, the loop the edge count).
        """
        stats = self.stats
        filtered = self.filter is not None
        linear = self.linear
        best_score = self.best_score
        num_edges = pattern.num_edges
        key = self._super_key(pos_res, neg_res, pattern.num_nodes)
        for entry in self.super_index.get(key, ()):
            if entry.branch_upper_bound >= best_score:
                continue
            if entry.num_edges > num_edges:
                continue
            # the positive then the negative residual test, as above
            stats.residual_equivalence_tests += 1
            if linear and not linear_scan_equal(
                pos_res.cut_pairs, entry.pos_residuals.cut_pairs
            ):
                continue
            stats.residual_equivalence_tests += 1
            if linear and not linear_scan_equal(
                neg_res.cut_pairs, entry.neg_residuals.cut_pairs
            ):
                continue
            stats.subgraph_tests += 1
            if filtered:
                stats.index_prefilter_checks += 1
                if entry.mask & ~mask:
                    stats.index_prefilter_skips += 1
                    continue
            if self.tester.mapping(entry.pattern, pattern) is None:
                continue
            return entry.branch_upper_bound
        return None

    def _sub_key(self, pos_res: ResidualSummary) -> object:
        if self.linear:
            return len(pos_res.cut_pairs)
        return pos_res.i_value

    def _super_key(
        self, pos_res: ResidualSummary, neg_res: ResidualSummary, num_nodes: int
    ) -> object:
        if self.linear:
            return (len(pos_res.cut_pairs), len(neg_res.cut_pairs), num_nodes)
        return (pos_res.i_value, neg_res.i_value, num_nodes)

    def _remember(
        self,
        pattern: TemporalPattern,
        mask: int,
        pos_res: ResidualSummary,
        neg_res: ResidualSummary,
        branch_ub: float,
    ) -> None:
        if branch_ub >= self.saturated:
            # both probe loops skip such an entry before any counter
            self.stats.saturated_entries += 1
            return
        entry = _HistoryEntry(
            pattern=pattern,
            mask=mask,
            num_nodes=pattern.num_nodes,
            num_edges=pattern.num_edges,
            pos_residuals=pos_res,
            neg_residuals=neg_res,
            branch_upper_bound=branch_ub,
        )
        if self.config.subgraph_pruning:
            self.sub_index.setdefault(self._sub_key(pos_res), []).append(entry)
        if self.config.supergraph_pruning:
            key = self._super_key(pos_res, neg_res, pattern.num_nodes)
            self.super_index.setdefault(key, []).append(entry)

    # ------------------------------------------------------------------
    def _record(
        self, pattern: TemporalPattern, score: float, pos_freq: float, neg_freq: float
    ) -> None:
        mined = MinedPattern(pattern, score, pos_freq, neg_freq)
        size = pattern.num_edges
        incumbent = self.best_by_size.get(size)
        if incumbent is None or score > incumbent.score:
            self.best_by_size[size] = mined
        if score > self.best_score:
            self.best_score = score
            self.best = [mined]
        elif (
            score == self.best_score
            and len(self.best) < self.config.max_best_patterns
        ):
            self.best.append(mined)

    def _final(self) -> bool:
        """Whether no pattern left can change ``best``.

        No score exceeds ``F(1, 0)``, so once the best score reaches it,
        a later pattern could at most tie, and a full list takes no tie.
        """
        return (
            self.best_score >= self.saturated
            and len(self.best) >= self.config.max_best_patterns
        )

    def _stop(self) -> bool:
        """Whether the search ends here: its answer is final, or time is up.

        Only running out of time flags ``timed_out``.
        """
        if self._final():
            self.stats.stopped_final = 1
            return True
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.stats.timed_out = True
            return True
        return False


VARIANT_NAMES = (
    "TGMiner",
    "SubPrune",
    "SupPrune",
    "PruneGI",
    "PruneVF2",
    "LinearScan",
)


def miner_variant(name: str, base: MinerConfig | None = None) -> MinerConfig:
    """Config for TGMiner or one of the five efficiency baselines (§6.1).

    All variants share the pattern-growth algorithm and the naive upper
    bound; they differ exactly as the paper describes:

    * ``TGMiner``   — both prunings, sequence tests, integer residuals;
    * ``SubPrune``  — subgraph pruning only;
    * ``SupPrune``  — supergraph pruning only;
    * ``PruneGI``   — both prunings, graph-index subgraph tests;
    * ``PruneVF2``  — both prunings, modified-VF2 subgraph tests;
    * ``LinearScan``— both prunings, linear-scan residual equivalence.

    The five baselines always run with ``index_prefilter=False``: the
    candidate prefilter is this repo's addition, and reproducing the
    paper's cost profiles (e.g. PruneGI's per-test index-build overhead)
    requires leaving them unfiltered.  ``TGMiner`` keeps the base
    config's setting.
    """
    base = base or MinerConfig()
    table = {
        "tgminer": replace(base),
        "subprune": replace(base, supergraph_pruning=False, index_prefilter=False),
        "supprune": replace(base, subgraph_pruning=False, index_prefilter=False),
        "prunegi": replace(base, subgraph_test="gi", index_prefilter=False),
        "prunevf2": replace(base, subgraph_test="vf2", index_prefilter=False),
        "linearscan": replace(
            base, residual_equivalence="linear", index_prefilter=False
        ),
    }
    normalized = name.lower().replace("-", "").replace("_", "")
    if normalized not in table:
        raise MiningError(
            f"unknown miner variant {name!r}; choose from {VARIANT_NAMES}"
        )
    return table[normalized]
