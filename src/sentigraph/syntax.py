"""Corpus-level dependency-relation statistics and per-sentence adjacency.

Each sentence yields two directed n x n matrices with ones on the diagonal:
a binary matrix with 1 at (head, dependent) for every dependency edge, and
a weighted variant whose off-diagonal entries carry the training-corpus
frequency ratio of the edge's relation label. The weighted matrix keeps the
binary matrix's zero pattern exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .corpus import AspectSample
from .util import atomic_write

PUNCT_RELATION = "punct"


@dataclass(frozen=True)
class SdiTable:
    """Relation label -> frequency ratio over the training split's edges."""

    ratios: MappingProxyType
    total_edges: int

    @property
    def min_ratio(self) -> float:
        return min(self.ratios.values())

    def save(self, path) -> None:
        """The ``sentigraph sdi`` file: ``total_edges``, then a relation and its ratio a line."""
        with atomic_write(path) as f:
            f.write(f"total_edges\t{self.total_edges}\n")
            for label in sorted(self.ratios):
                f.write(f"{label}\t{self.ratios[label]!r}\n")


def collect_sdi_stats(training_samples, count_root: bool = False,
                      count_punct: bool = True) -> SdiTable:
    """Frequency ratio per relation label over all counted training edges.

    Root pseudo-edges are excluded by default (they join no token pair);
    punctuation edges are counted by default.
    """
    counts: Counter[str] = Counter()
    for sample in training_samples:
        for head, _dep, relation in sample.deps:
            if head == -1 and not count_root:
                continue
            if relation == PUNCT_RELATION and not count_punct:
                continue
            counts[relation] += 1
    total = sum(counts.values())
    if total == 0:
        raise ValueError("no dependency edges to count: ratio denominator undefined")
    ratios = {label: c / total for label, c in counts.items()}
    return SdiTable(ratios=MappingProxyType(ratios), total_edges=total)


def build_binary_adjacency(sample: AspectSample) -> np.ndarray:
    """Directed 0/1 adjacency: diagonal ones plus (head, dependent) edges."""
    n = sample.n
    adj = np.eye(n, dtype=np.float64)
    for head, dep, _relation in sample.deps:
        if head == -1:
            continue
        adj[head, dep] = 1.0
    return adj


def build_sdi_adjacency(sample: AspectSample, sdi: SdiTable,
                        unseen: Counter | None = None) -> np.ndarray:
    """Weighted adjacency: diagonal ones, relation ratios at (head, dependent).

    Relations unseen at training time fall back to the smallest training
    ratio (keeping the edge alive); each such edge adds one to its relation
    in ``unseen`` when a counter is given.
    """
    n = sample.n
    adj = np.eye(n, dtype=np.float64)
    for head, dep, relation in sample.deps:
        if head == -1:
            continue
        ratio = sdi.ratios.get(relation)
        if ratio is None:
            ratio = sdi.min_ratio
            if unseen is not None:
                unseen[relation] += 1
        adj[head, dep] = ratio
    return adj


def out_degrees(binary: np.ndarray) -> np.ndarray:
    """Per-token out-degree excluding the self-loop."""
    return binary.sum(axis=1) - 1.0
