"""Stacked bidirectional graph convolution over a weighted dependency adjacency.

Each layer aggregates messages along edges (head -> dependent) and, when
bidirectional, along the transposed direction as well. The two aggregates
are concatenated, divided per token by out-degree + 1, and mapped through a
combine weight, bias, and ReLU.

The states are a packed batch: the token rows of B sentences stacked in
one N_total x d matrix. The adjacency is the list of the sentences' dense
n_j x n_j matrices, in the same order, and each direction applies the whole
list in one :func:`autodiff.block_matmul` node, the reverse one with each
matrix transposed; no cross-sentence matrix is ever built. A single
sentence may pass its adjacency as one Tensor, and is then exactly a
dense ``adj @ h`` product. ``degrees`` is the packed (N_total,)
vector of out-degrees.
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


def init_gcn_stack(store: ParameterStore, prefix: str, d_in: int, d_out: int,
                   n_layers: int, rng: np.random.Generator,
                   bidirectional: bool = True) -> list[GcnLayerParams]:
    if n_layers < 1:
        raise ValueError("need at least one graph convolution layer")
    layers = []
    width = d_in
    for l in range(n_layers):
        layers.append(init_gcn_layer(store, f"{prefix}.layer{l}", width, d_out, rng,
                                     bidirectional=bidirectional))
        width = d_out
    return layers


Adjacency = Tensor | list[np.ndarray]


def bigcn_layer(h_prev: Tensor, adjacency: Adjacency, degrees: np.ndarray,
                params: GcnLayerParams) -> Tensor:
    """One message-passing step: aggregate, concatenate, degree-normalize, combine."""
    n, d_in = h_prev.shape
    blocks = [adjacency.data] if isinstance(adjacency, Tensor) else adjacency
    if sum(blk.shape[0] for blk in blocks) != n:
        raise ad.ShapeError(f"bigcn_layer: adjacency {[blk.shape for blk in blocks]} "
                            f"for {n} tokens")
    if d_in != params.d_in:
        raise ad.ShapeError(f"bigcn_layer: input width {d_in} != weight width {params.d_in}")
    forward = ad.block_matmul(blocks, ad.matmul(h_prev, params.w_fwd))
    if params.bidirectional:
        backward = ad.block_matmul(blocks, ad.matmul(h_prev, params.w_bwd), transpose=True)
        combined = ad.concat([forward, backward], axis=1)
    else:
        combined = forward
    inv = 1.0 / (np.asarray(degrees, dtype=np.float64) + 1.0)
    normed = ad.scale_rows(combined, Tensor(inv))
    return ad.relu(ad.add(ad.matmul(normed, params.w_out), params.b_out))


def bigcn_stack(h0: Tensor, adjacency: Adjacency, degrees: np.ndarray,
                layers: list[GcnLayerParams]) -> Tensor:
    if not layers:
        raise ValueError("need at least one graph convolution layer")
    h = h0
    for params in layers:
        h = bigcn_layer(h, adjacency, degrees, params)
    return h
