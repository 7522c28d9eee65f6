"""Corpus-level dependency-relation statistics and the graphs of a batch.

Each sentence's graph is one directed n x n matrix: a self-loop of weight 1
at every token and, at (head, dependent) for every dependency edge, either
1 (the binary graph) or the training-corpus frequency ratio of the edge's
relation label (the weighted graph), together with each token's
out-degree. Both forms of a sentence share their entries' positions and
their degree vector. A batch of sentences yields, in one pass, the entries
in row-major order of the block-diagonal matrix of their graphs, indexed by
the packed rows that stack the sentences' tokens.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import autodiff as ad
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


def build_adjacency(samples: AspectSample | list[AspectSample], sdi: SdiTable | None,
                    unseen: Counter) -> tuple[ad.SparseMatrix, np.ndarray]:
    """The graph entries, row-major, and per-token out-degree (self-loop excluded) of a batch.

    ``samples`` is one sample or a list; the list's graphs sit on the
    diagonal of one N x N matrix, each offset to its sentence's packed rows.
    With ``sdi`` None every edge weighs 1; otherwise it weighs its relation's
    ratio, and a relation unseen at training time falls back to the smallest
    ratio (keeping the edge alive) and adds one to its count in ``unseen``.
    """
    if isinstance(samples, AspectSample):
        samples = [samples]
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
