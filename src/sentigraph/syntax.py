"""Corpus-level dependency-relation statistics and the graphs of a batch.

Each sentence's graph is one directed n x n matrix: a self-loop of weight 1
at every token and, at (head, dependent) for every dependency edge, either
1 (the binary graph) or the training-corpus frequency ratio of the edge's
relation label (the weighted graph), together with each token's
out-degree. The ratios count every edge that joins two tokens,
punctuation included; root pseudo-edges join none and count nowhere.
Both forms of a sentence share their entries' positions and their degree
vector. A batch of sentences yields, in one pass, the entries in
row-major order of the block-diagonal matrix of their graphs, indexed by
the packed rows that stack the sentences' tokens.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import autodiff as ad
from .corpus import AspectSample


@dataclass(frozen=True)
class SdiTable:
    """Relation label -> frequency ratio over the training split's edges."""

    ratios: MappingProxyType
    total_edges: int

    @property
    def min_ratio(self) -> float:
        return min(self.ratios.values())

    def as_dict(self) -> dict:
        """The JSON form the checkpoint and the train manifest hold."""
        return {"total_edges": self.total_edges, "ratios": dict(self.ratios)}

    @classmethod
    def from_dict(cls, record: dict) -> SdiTable:
        return cls(MappingProxyType(record["ratios"]), record["total_edges"])


def collect_sdi_stats(training_samples) -> SdiTable:
    """Frequency ratio per relation label over the training edges that join two tokens.

    Root pseudo-edges join no token pair and no graph holds them, so they
    are skipped; every other edge counts, punctuation included.
    """
    counts: Counter[str] = Counter()
    for sample in training_samples:
        for head, _dep, relation in sample.deps:
            if head != -1:
                counts[relation] += 1
    total = sum(counts.values())
    if total == 0:
        raise ValueError("no dependency edges to count: ratio denominator undefined")
    ratios = {label: c / total for label, c in counts.items()}
    return SdiTable(ratios=MappingProxyType(ratios), total_edges=total)


def build_adjacency(samples: list[AspectSample], sdi: SdiTable | None,
                    unseen: Counter) -> tuple[ad.SparseMatrix, np.ndarray]:
    """The graph entries, row-major, and per-token out-degree (self-loop excluded) of a batch.

    The samples' graphs sit on the diagonal of one N x N matrix, each offset
    to its sentence's packed rows; one sentence is the list ``[sample]``.
    With ``sdi`` None every edge weighs 1; otherwise it weighs its relation's
    ratio, and a relation unseen at training time falls back to the smallest
    ratio (keeping the edge alive) and adds one to its count in ``unseen``.
    """
    heads, deps, weights = [], [], []
    n = 0
    for sample in samples:
        for head, dep, relation in sample.deps:
            if head == -1:
                continue
            weight = 1.0 if sdi is None else sdi.ratios.get(relation)
            if weight is None:
                weight = sdi.min_ratio
                unseen[relation] += 1
            heads.append(head + n)
            deps.append(dep + n)
            weights.append(weight)
        n += sample.n
    loops = np.arange(n)  # the self-loops
    row = np.concatenate([loops, np.array(heads, dtype=np.int64)])
    col = np.concatenate([loops, np.array(deps, dtype=np.int64)])
    value = np.concatenate([np.ones(n), weights])
    # row-major, which is also the per-sentence graphs' orders concatenated;
    # AspectSample checks the edges form a tree: no position repeats
    order = np.lexsort((col, row))
    row = row[order]
    return (ad.SparseMatrix(row, col[order], value[order], (n, n)),
            np.bincount(row, minlength=n) - 1.0)
