"""Core algorithms: temporal graphs, patterns, matching, and TGMiner."""

from repro.core.errors import (
    DatasetError,
    GraphError,
    MiningError,
    PatternError,
    QueryError,
    ReproError,
    TimestampOrderError,
)
from repro.core.graph import TemporalEdge, TemporalGraph
from repro.core.kernel import GraphKernel, LabelInterner
from repro.core.miner import (
    MinedPattern,
    MinerConfig,
    MiningResult,
    MiningStats,
    TGMiner,
    miner_variant,
    VARIANT_NAMES,
)
from repro.core.parallel import mining_fingerprint
from repro.core.pattern import TemporalPattern
from repro.core.scoring import GTest, InformationGain, LogRatio, ScoreFunction
from repro.core.subgraph import (
    SequenceSubgraphTester,
    find_mapping,
    is_temporal_subgraph,
)

__all__ = [
    "DatasetError",
    "GraphError",
    "MiningError",
    "PatternError",
    "QueryError",
    "ReproError",
    "TimestampOrderError",
    "TemporalEdge",
    "TemporalGraph",
    "TemporalPattern",
    "GraphKernel",
    "LabelInterner",
    "TGMiner",
    "MinerConfig",
    "MinedPattern",
    "MiningResult",
    "MiningStats",
    "miner_variant",
    "VARIANT_NAMES",
    "mining_fingerprint",
    "ScoreFunction",
    "LogRatio",
    "GTest",
    "InformationGain",
    "SequenceSubgraphTester",
    "is_temporal_subgraph",
    "find_mapping",
]
