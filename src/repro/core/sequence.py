"""Sequence-based temporal graph representation (paper Section 4.3).

Because edges of a temporal graph are totally ordered, a pattern can be
encoded losslessly by two sequences:

* ``nodeseq(g)`` — nodes ordered by first-visit time under temporal edge
  traversal (source before destination within one edge); each node occurs
  exactly once.  In our normalized :class:`~repro.core.pattern.TemporalPattern`
  representation this is simply ``0, 1, ..., n-1``.
* ``edgeseq(g)`` — the ``(src, dst)`` node-id pairs in temporal order.

``nodeseq(g1) ⊑ nodeseq(g2)`` can fail even when ``g1 ⊆t g2`` (Figure 9 of
the paper), so the *enhanced node sequence* ``enhseq(g)`` re-records nodes:
processing edges in temporal order, the source is appended unless it was
the node appended immediately before or the source of the previous edge,
and the destination is always appended.  Lemma 5 then reduces the
NP-complete temporal subgraph test to guided subsequence matching:

    g1 ⊆t g2  iff  there is an injective node mapping ``fs`` with
    ``nodeseq(g1) ⊑ enhseq(g2)`` and ``fs(edgeseq(g1)) ⊑ edgeseq(g2)``.

This module computes the encodings; :mod:`repro.core.subgraph` implements
the subsequence-test algorithm on top of them.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.kernel import PROCESS_INTERNER
from repro.core.pattern import TemporalPattern

__all__ = [
    "node_sequence",
    "edge_sequence",
    "enhanced_node_sequence",
    "label_subsequence",
    "SequenceEncoding",
    "encode",
]


def node_sequence(pattern: TemporalPattern) -> tuple[int, ...]:
    """Return ``nodeseq(g)`` as a tuple of node ids.

    Normalized patterns number nodes in first-visit order, so the node
    sequence is the identity sequence; it is materialized explicitly to
    keep the Lemma 5 implementation readable.
    """
    return tuple(range(pattern.num_nodes))


def edge_sequence(pattern: TemporalPattern) -> tuple[tuple[int, int], ...]:
    """Return ``edgeseq(g)``: ``(src, dst)`` pairs in temporal order."""
    return pattern.edges


def enhanced_node_sequence(pattern: TemporalPattern) -> tuple[int, ...]:
    """Return ``enhseq(g)`` as a tuple of node ids (repeats possible).

    Construction from the paper, processing edges in temporal order:

    1. the source is skipped if it is the most recently appended node or
       the source of the previous edge, otherwise it is appended;
    2. the destination is always appended.
    """
    seq: list[int] = []
    prev_src: int | None = None
    for u, v in pattern.edges:
        last_added = seq[-1] if seq else None
        if u != last_added and u != prev_src:
            seq.append(u)
        seq.append(v)
        prev_src = u
    return tuple(seq)


def label_subsequence(needle: tuple, haystack: tuple) -> bool:
    """Greedy test that ``needle`` is a subsequence of ``haystack``.

    Used by the label-sequence pre-test (Appendix J): node ids are replaced
    by labels, and a failed label-level subsequence test proves no temporal
    subgraph relation can exist.  Elements are only compared for equality,
    so label strings and interned label ids work interchangeably.
    """
    it = iter(haystack)
    return all(any(item == other for other in it) for item in needle)


class SequenceEncoding:
    """All sequence encodings of one pattern, plus label projections.

    Encoding a pattern is pure and patterns are immutable, so instances
    are cached via :func:`encode`.  Besides the label-string projections,
    interned-id twins (``*_ids``) are precomputed for the subsequence
    tester's hot comparisons.  They intern through the process-wide
    :data:`~repro.core.kernel.PROCESS_INTERNER`: the tests compare labels
    only for equality, never for order, so within one process equal ids
    ⟺ equal strings and the outcomes are those of the string comparisons.
    """

    __slots__ = (
        "pattern",
        "nodeseq",
        "edgeseq",
        "enhseq",
        "node_labels",
        "enh_labels",
        "edge_label_pairs",
        "node_label_ids",
        "enh_label_ids",
        "edge_label_pair_ids",
    )

    def __init__(self, pattern: TemporalPattern) -> None:
        self.pattern = pattern
        self.nodeseq = node_sequence(pattern)
        self.edgeseq = edge_sequence(pattern)
        self.enhseq = enhanced_node_sequence(pattern)
        self.node_labels = tuple(pattern.label(n) for n in self.nodeseq)
        self.enh_labels = tuple(pattern.label(n) for n in self.enhseq)
        self.edge_label_pairs = tuple(
            (pattern.label(u), pattern.label(v)) for u, v in self.edgeseq
        )
        intern = PROCESS_INTERNER.intern
        label_ids = tuple(intern(label) for label in pattern.labels)
        self.node_label_ids = tuple(label_ids[n] for n in self.nodeseq)
        self.enh_label_ids = tuple(label_ids[n] for n in self.enhseq)
        self.edge_label_pair_ids = tuple(
            (label_ids[u], label_ids[v]) for u, v in self.edgeseq
        )


@lru_cache(maxsize=65536)
def encode(pattern: TemporalPattern) -> SequenceEncoding:
    """Return the (cached) :class:`SequenceEncoding` of ``pattern``."""
    return SequenceEncoding(pattern)
