"""Domain-knowledge based pattern ranking (paper Appendix M).

TGMiner frequently returns several patterns tied at the highest
discriminative score.  The paper breaks ties with an *interest score*
derived from domain knowledge:

* a node label ``l`` scores ``interest(l) = 1 / freq(l)`` where
  ``freq(l)`` counts the training graphs containing ``l`` — rare labels
  carry more security signal;
* labels on a *blacklist* (temp files, cache files, ``/proc`` counters,
  ...) are forced to zero interest;
* a pattern's interest is the sum over its nodes, and the top-5 patterns
  become behavior queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.graph import TemporalGraph
from repro.core.miner import MinedPattern
from repro.core.pattern import TemporalPattern

__all__ = ["InterestModel", "DEFAULT_BLACKLIST", "rank_patterns", "select_queries"]

#: Label substrings that carry little security-relevant information; any
#: label containing one of these is blacklisted (paper Appendix M lists
#: "TmpFile", "CacheFile", "/proc/stat/*" as examples).
DEFAULT_BLACKLIST: tuple[str, ...] = (
    "tmp",
    "cache",
    "/proc/",
    "urandom",
    "locale",
)


@dataclass
class InterestModel:
    """Per-label interest scores learned from a training corpus.

    Parameters
    ----------
    blacklist:
        Substrings that zero out a label's interest (case-insensitive).
    """

    blacklist: Sequence[str] = DEFAULT_BLACKLIST
    _freq: dict[str, int] = field(default_factory=dict)
    # label -> interest, filled on first read (``_freq`` is written only
    # while fitting, so a memoized value never goes stale)
    _interest: dict[str, float] = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def fit(
        cls,
        graphs: Iterable[TemporalGraph],
        blacklist: Sequence[str] = DEFAULT_BLACKLIST,
    ) -> "InterestModel":
        """Count per-graph label occurrences over the training data."""
        return cls.fit_label_sets(
            (graph.label_set() for graph in graphs), blacklist
        )

    @classmethod
    def fit_label_sets(
        cls,
        label_sets: Iterable[frozenset[str]],
        blacklist: Sequence[str] = DEFAULT_BLACKLIST,
    ) -> "InterestModel":
        """:meth:`fit` from bare per-graph label sets.

        The disk-backed corpus store fits the model from its graph
        catalog without decoding a single edge page; :meth:`fit`
        delegates here so both paths share one counting loop.
        """
        model = cls(blacklist=tuple(blacklist))
        for label_set in label_sets:
            for label in label_set:
                model._freq[label] = model._freq.get(label, 0) + 1
        return model

    def label_interest(self, label: str) -> float:
        """``1 / freq(label)``, or 0 for blacklisted / unseen labels."""
        interest = self._interest.get(label)
        if interest is None:
            lowered = label.lower()
            count = self._freq.get(label, 0)
            if count == 0 or any(token in lowered for token in self.blacklist):
                interest = 0.0
            else:
                interest = 1.0 / count
            self._interest[label] = interest
        return interest

    def pattern_interest(self, pattern: TemporalPattern) -> float:
        """Sum of node-label interests over the pattern's nodes."""
        return sum(
            self.label_interest(pattern.label(n)) for n in range(pattern.num_nodes)
        )


def rank_patterns(
    mined: Sequence[MinedPattern], model: InterestModel
) -> list[MinedPattern]:
    """Order co-optimal patterns by interest score (descending).

    Ties on interest break deterministically by pattern size (larger
    first: more context in the query) and then by pattern identity.
    """
    return sorted(
        mined,
        key=lambda m: (
            -model.pattern_interest(m.pattern),
            -m.pattern.num_edges,
            str(m.pattern.key()),
        ),
    )


def select_queries(
    mined: Sequence[MinedPattern],
    model: InterestModel,
    top_k: int = 5,
) -> list[TemporalPattern]:
    """Pick the top-``k`` patterns as behavior queries (paper uses k=5)."""
    return [m.pattern for m in rank_patterns(mined, model)[:top_k]]
