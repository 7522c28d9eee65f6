"""Stacked bidirectional graph convolution over a weighted dependency graph.

Each layer aggregates messages along edges (head -> dependent) and, when
bidirectional, along the transposed direction as well. The two aggregates
are concatenated, divided per token by out-degree + 1, and mapped through a
combine weight, bias, and ReLU.

The states are a packed batch of N_total rows (see
:class:`autodiff.SegmentLayout`). The graph is one N_total x N_total
:class:`autodiff.SparseMatrix` holding the sentences' graphs on its
diagonal, in packed indices, so no entry joins two sentences. ``degrees``
is the packed (N_total,) vector of out-degrees. Each direction of a layer
is one :func:`autodiff.sparse_matmul` node over the entries, the reverse
one transposed; no dense matrix is built or multiplied.

A caller that reads only some output rows passes them as ``rows``.
:func:`receptive_field` then walks the entries backward from them: a
layer's input rows are its output rows plus their neighbours along the
directions it aggregates. Each layer computes only its own rows, as
``(A[out, in] h) W``, and the stack's result holds zeros in every row
outside ``rows``. ``rows=None`` is the same walk over every row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor

@dataclass
class GcnLayerParams:
    w_fwd: Tensor
    w_bwd: Tensor | None  # None when the reverse direction is ablated
    w_out: Tensor
    b_out: Tensor

    @property
    def d_in(self) -> int:
        return self.w_fwd.shape[0]

    @property
    def bidirectional(self) -> bool:
        return self.w_bwd is not None


def init_gcn_layer(store: ParameterStore, prefix: str, d_in: int, d_out: int,
                   rng: np.random.Generator, bidirectional: bool = True) -> GcnLayerParams:
    bound = 1.0 / np.sqrt(d_in)
    w_fwd = store.add(f"{prefix}.w_fwd", rng.uniform(-bound, bound, (d_in, d_out)))
    w_bwd = None
    if bidirectional:
        w_bwd = store.add(f"{prefix}.w_bwd", rng.uniform(-bound, bound, (d_in, d_out)))
    combine_in = 2 * d_out if bidirectional else d_out
    combine_bound = 1.0 / np.sqrt(combine_in)
    return GcnLayerParams(
        w_fwd=w_fwd,
        w_bwd=w_bwd,
        w_out=store.add(f"{prefix}.w_out", rng.uniform(-combine_bound, combine_bound,
                                                       (combine_in, d_out))),
        b_out=store.add(f"{prefix}.b_out", np.zeros(d_out), no_decay=True),
    )


def init_gcn_stack(store: ParameterStore, prefix: str, width: int,
                   n_layers: int, rng: np.random.Generator,
                   bidirectional: bool = True) -> list[GcnLayerParams]:
    """``n_layers`` layers that each map ``width`` columns to ``width``."""
    if n_layers < 1:
        raise ValueError("need at least one graph convolution layer")
    return [init_gcn_layer(store, f"{prefix}.layer{l}", width, width, rng,
                           bidirectional=bidirectional)
            for l in range(n_layers)]


@dataclass
class Hop:
    """The rows one layer computes and the graph entries it reads.

    ``out`` holds the packed indices of the layer's output rows, ascending.
    Its input rows are the previous hop's ``out``, or every row for the
    first layer, numbered in the same order. ``forward`` is A[out, in], and
    ``reverse`` is A[in, out], applied transposed, or None when the layer
    has no reverse direction.
    """

    out: np.ndarray
    forward: ad.SparseMatrix
    reverse: ad.SparseMatrix | None


def receptive_field(adjacency: ad.SparseMatrix, rows: np.ndarray | None,
                    layers: list[GcnLayerParams]) -> list[Hop]:
    """One :class:`Hop` per layer, so that the last computes exactly ``rows`` (None: every row)."""
    n = adjacency.shape[0]
    keep = np.ones(n, dtype=bool) if rows is None else np.asarray(rows)
    if keep.shape != (n,) or keep.dtype != bool:
        raise ad.ShapeError(f"bigcn_stack: rows must be a boolean mask of {n} rows")
    row, col, value = adjacency.row, adjacency.col, adjacency.value

    # each layer's output rows, found backward from the last layer's
    out_rows = [keep]
    for params in layers[:0:-1]:
        reached = out_rows[-1]
        wider = reached.copy()
        wider[col[reached[row]]] = True
        if params.bidirectional:
            wider[row[reached[col]]] = True
        out_rows.append(wider)
    out_rows.reverse()

    hops = []
    in_pos, n_in = np.arange(n), n  # the first layer reads every row
    for params, mask in zip(layers, out_rows):
        out = mask.nonzero()[0]
        out_pos = mask.cumsum() - 1
        fwd = mask[row]
        forward = ad.SparseMatrix(out_pos[row[fwd]], in_pos[col[fwd]], value[fwd],
                                  (out.size, n_in))
        reverse = None
        if params.bidirectional:
            rev = mask[col]
            reverse = ad.SparseMatrix(in_pos[row[rev]], out_pos[col[rev]], value[rev],
                                      (n_in, out.size))
        hops.append(Hop(out, forward, reverse))
        in_pos, n_in = out_pos, out.size
    return hops


def bigcn_layer(h_prev: Tensor, hop: Hop, degrees: np.ndarray,
                params: GcnLayerParams) -> Tensor:
    """One message-passing step on the rows ``hop.out``: aggregate, concat, normalize, combine."""
    d_in = h_prev.shape[1]
    if d_in != params.d_in:
        raise ad.ShapeError(f"bigcn_layer: input width {d_in} != weight width {params.d_in}")
    combined = ad.matmul(ad.sparse_matmul(hop.forward, h_prev), params.w_fwd)
    if params.bidirectional:
        backward = ad.matmul(ad.sparse_matmul(hop.reverse, h_prev, transpose=True),
                             params.w_bwd)
        combined = ad.concat([combined, backward], axis=1)
    inv = 1.0 / (np.asarray(degrees, dtype=np.float64)[hop.out] + 1.0)
    normed = ad.scale_rows(combined, Tensor(inv))
    return ad.relu(ad.add(ad.matmul(normed, params.w_out), params.b_out))


def bigcn_stack(h0: Tensor, adjacency: ad.SparseMatrix | Tensor, degrees: np.ndarray,
                layers: list[GcnLayerParams], rows: np.ndarray | None = None) -> Tensor:
    """The stacked layers' N x d output; ``rows``, a boolean (N,) mask, limits it to the rows read.

    ``adjacency`` is the N x N graph's entries, or one sentence's dense matrix as a Tensor.
    Each layer computes only the rows within reach of ``rows``, and every row outside
    ``rows`` of the result is zero. ``rows=None`` computes every row.
    """
    if not layers:
        raise ValueError("need at least one graph convolution layer")
    if isinstance(adjacency, Tensor):  # the form perfbench/probes.py passes
        row, col = adjacency.data.nonzero()
        adjacency = ad.SparseMatrix(row, col, adjacency.data[row, col], adjacency.shape)
    n = h0.shape[0]
    if adjacency.shape != (n, n) or np.shape(degrees) != (n,):
        raise ad.ShapeError(f"bigcn_stack: adjacency {adjacency.shape} and degrees of shape "
                            f"{np.shape(degrees)} for {n} tokens")
    hops = receptive_field(adjacency, rows, layers)
    h = h0
    for params, hop in zip(layers, hops):
        h = bigcn_layer(h, hop, degrees, params)
    out = hops[-1].out
    if out.size == n:
        return h
    # the computed rows back in their packed places, zeros elsewhere
    return ad.sparse_matmul(ad.SparseMatrix(out, np.arange(out.size), np.ones(out.size),
                                            (n, out.size)), h)
